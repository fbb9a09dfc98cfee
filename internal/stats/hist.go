package stats

// HistBuckets is the fixed bucket count of Hist. Values are recorded in
// one-unit-wide buckets [0, HistBuckets); anything larger lands in Over.
const HistBuckets = 256

// Hist is a deterministic fixed-geometry histogram for small non-negative
// integer observations (request latencies in network ticks). The geometry is
// frozen — one bucket per unit, HistBuckets buckets, plus an overflow
// counter — so there is no reservoir sampling and no randomness: two runs
// that observe the same values produce bit-identical histograms. The struct
// is comparable (fixed array, no pointers) and every field is a uint64
// count, so report.Delta and report.Merge difference and add it leaf by leaf
// like any other Snapshot counter, the same contract stats.Series follows.
type Hist struct {
	// Count is the number of observations, including overflows.
	Count uint64
	// Sum is the sum of all observed values (for means).
	Sum uint64
	// Over counts observations >= HistBuckets.
	Over uint64
	// Buckets[v] counts observations of value v.
	Buckets [HistBuckets]uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.Count++
	h.Sum += v
	if v >= HistBuckets {
		h.Over++
		return
	}
	h.Buckets[v]++
}

// Quantile returns the smallest value v such that at least q of the
// observations are <= v. Observations in the overflow bucket report
// HistBuckets (a saturated "at least this much" answer). q is clamped to
// (0, 1]; an empty histogram returns 0.
func (h *Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based, rounded up.
	rank := uint64(q * float64(h.Count))
	if float64(rank) < q*float64(h.Count) || rank == 0 {
		rank++
	}
	var cum uint64
	for v := 0; v < HistBuckets; v++ {
		cum += h.Buckets[v]
		if cum >= rank {
			return uint64(v)
		}
	}
	return HistBuckets
}

// Mean returns the average observed value (0 with no observations).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Sub returns the difference h - prev, the histogram of observations
// recorded between two snapshots.
func (h Hist) Sub(prev Hist) Hist {
	d := Hist{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum, Over: h.Over - prev.Over}
	for i := range h.Buckets {
		d.Buckets[i] = h.Buckets[i] - prev.Buckets[i]
	}
	return d
}
