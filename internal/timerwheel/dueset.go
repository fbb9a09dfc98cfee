package timerwheel

import "math/bits"

// DueSet is an ordered set of IDs in [0, n): the wheel's canonical-order
// companion. Callers add each live fired entry's ID and Drain yields them
// in ascending order by construction, so a fired batch never needs a
// comparison sort. It is a two-level bitmap: one bit per ID, and one
// summary bit per 64-bit word of IDs marking the words that hold members.
// Add is O(1); Drain is O(members + n/4096) and leaves the set empty.
// Nothing allocates after construction except Grow.
type DueSet struct {
	words   []uint64 // bit id&63 of words[id>>6] is set iff id is a member
	summary []uint64 // bit w&63 of summary[w>>6] is set iff words[w] != 0
}

// NewDueSet returns an empty set over IDs [0, n).
func NewDueSet(n int) *DueSet {
	s := &DueSet{}
	s.Grow(n)
	return s
}

// Grow extends the set to cover IDs [0, n), keeping its members. It
// allocates only when n exceeds the current capacity, so callers size the
// set once (or on one-time table growth), never per tick.
func (s *DueSet) Grow(n int) {
	nw := (n + 63) >> 6
	if nw <= len(s.words) {
		return
	}
	s.words = extend(s.words, nw)
	s.summary = extend(s.summary, (nw+63)>>6)
}

// extend lengthens ws to n words, keeping its contents. Words past len are
// always zero (Add's index never reaches them), so a reslice within cap
// needs no clearing; past cap, capacity doubles so a table growing one ID at
// a time copies amortized O(1) words per ID.
func extend(ws []uint64, n int) []uint64 {
	if n <= cap(ws) {
		return ws[:n]
	}
	out := make([]uint64, n, max(n, 2*cap(ws))) //detlint:ignore hotalloc sizing only: callers grow at construction, restore or one-time table growth, never per tick
	copy(out, ws)
	return out
}

// Add inserts id, which must be in [0, n); adding a member again is a
// no-op.
func (s *DueSet) Add(id int32) {
	w := uint32(id) >> 6
	s.words[w] |= 1 << (uint32(id) & 63)
	s.summary[w>>6] |= 1 << (w & 63)
}

// Drain appends every member to dst in ascending order, empties the set,
// and returns the extended slice.
func (s *DueSet) Drain(dst []int32) []int32 {
	for si, sw := range s.summary {
		if sw == 0 {
			continue
		}
		s.summary[si] = 0
		for sw != 0 {
			w := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			word := s.words[w]
			s.words[w] = 0
			for word != 0 {
				dst = append(dst, int32(w<<6+bits.TrailingZeros64(word))) //detlint:ignore hotalloc dst is caller-owned scratch resliced to [:0] each tick, so growth is amortized
				word &= word - 1
			}
		}
	}
	return dst
}
