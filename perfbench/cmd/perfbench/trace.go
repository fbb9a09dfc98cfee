package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// A tracer keeps the spans of one traced run in memory and writes them once,
// at the end, as Chrome trace-event JSON (Perfetto and chrome://tracing open
// it). A nil *tracer is the untraced run: every method is a no-op, so the
// timed code paths are shared between the two runs.
type tracer struct {
	t0    time.Time
	spans []span
}

// span is one timed call into a layer. Work is the span's unit count
// (cycles, calls, bytes); its meaning is fixed per span name.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	work       float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent})
	return len(t.spans) - 1
}

// end closes span id and records its work.
func (t *tracer) end(id int, work float64) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.spans[id].work = work
}

// total returns the summed duration, work and span count of every span
// with the given name.
func (t *tracer) total(name string) (d time.Duration, work float64, n int) {
	if t == nil {
		return 0, 0, 0
	}
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
			work += s.work
			n++
		}
	}
	return d, work, n
}

// perWork returns the summed duration of the named spans, in unit, divided
// by their summed work (0 when there is none).
func (t *tracer) perWork(name string, unit time.Duration) float64 {
	d, work, _ := t.total(name)
	if work == 0 {
		return 0
	}
	return float64(d) / float64(unit) / work
}

// perCall returns the mean duration of the named spans in unit.
func (t *tracer) perCall(name string, unit time.Duration) float64 {
	d, _, n := t.total(name)
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// traceEvent is one Chrome trace-event "complete" record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args traceEventArgs `json:"args"`
}

type traceEventArgs struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Work   float64 `json:"work"`
}

// write stores the spans at path as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: traceEventArgs{ID: i, Parent: s.parent, Work: s.work},
		}
	}
	err = json.NewEncoder(w).Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ns"})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// goStats is a reading of the Go runtime counters the benchmark reports.
type goStats struct {
	allocBytes          uint64
	gcCPU, totCPU, idle float64
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goStats{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totCPU:     s[2].Value.Float64(),
		idle:       s[3].Value.Float64(),
	}
}

// gcFrac is the share of busy CPU time the garbage collector took between
// two readings. The runtime refreshes these classes at each GC, so a phase
// with no GC reads 0.
func gcFrac(a, b goStats) float64 {
	busy := (b.totCPU - a.totCPU) - (b.idle - a.idle)
	if busy <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / busy
}

// profiler wraps a runtime/pprof CPU profile of one phase, kept in memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *profiler) stop() { pprof.StopCPUProfile() }

// shares returns each package's share of the stopped profile's self
// samples.
func (p *profiler) shares() (map[string]float64, error) { return pkgShares(p.buf.Bytes()) }

// pkgShares decodes a gzipped pprof CPU profile and returns each package's
// share of self (leaf-frame) samples, keyed by the last element of the
// package path ("pipeline", "runtime", "gob").
func pkgShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{} // function id -> name string index
		locs    = map[uint64]uint64{} // location id -> leaf function id
		samples []sampleRec
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sampleRec
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.vals = appendPacked(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location: id=1, line=4 (first line is the innermost frame)
			var id, fn uint64
			seen := false
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !seen:
					seen = true
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fn
			return err
		case 5: // Function: id=1, name=2
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	byPkg := map[string]float64{}
	var total float64
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.vals) == 0 {
			continue
		}
		v := float64(s.vals[len(s.vals)-1])
		total += v
		name := funcs[locs[s.locs[0]]]
		if name < uint64(len(strs)) {
			byPkg[pkgOf(strs[name])] += v
		}
	}
	if total > 0 {
		for _, k := range sortedKeys(byPkg) {
			byPkg[k] /= total
		}
	}
	return byPkg, nil
}

type sampleRec struct{ locs, vals []uint64 }

// pkgOf maps a symbol ("repro/internal/pipeline.(*Engine).issue",
// "slices.pdqsortOrdered[...]") to the last element of its package path.
func pkgOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	sym = sym[strings.LastIndexByte(sym, '/')+1:]
	if i := strings.IndexByte(sym, '.'); i >= 0 {
		sym = sym[:i]
	}
	return sym
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields walks the top-level fields of a protobuf message, calling fn with
// the field number and either the varint value or the length-delimited
// bytes. Fixed-width fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which pprof writes either
// packed (body set) or one value per key.
func appendPacked(dst []uint64, v uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, v)
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		body = body[n:]
	}
	return dst
}
