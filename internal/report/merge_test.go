package report

import (
	"fmt"
	"reflect"
	"testing"
)

// fillSnapshot sets every numeric leaf of a Snapshot to a distinct
// deterministic value scaled by k, walking the struct with reflection so a
// counter added to Snapshot (or any nested struct) in the future is covered
// automatically. Values are integers — exact in float64 — so the telescoping
// identity Merge(Delta(a,b), Delta(b,c)) == Delta(a,c) must hold bit for
// bit, not just approximately. Scaling by k keeps every leaf monotone in k,
// so deltas between fills never underflow the unsigned counters.
func fillSnapshot(k uint64) Snapshot {
	var s Snapshot
	leaf := uint64(0)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Uint64, reflect.Uint32, reflect.Uint16, reflect.Uint8, reflect.Uint:
			leaf++
			v.SetUint(k * leaf)
		case reflect.Int64, reflect.Int32, reflect.Int16, reflect.Int8, reflect.Int:
			leaf++
			v.SetInt(int64(k * leaf))
		case reflect.Float64, reflect.Float32:
			leaf++
			v.SetFloat(float64(k * leaf))
		case reflect.Bool:
			v.SetBool(true)
		default:
			panic("fillSnapshot: unhandled kind " + v.Kind().String() +
				" — extend the filler and check Merge/Delta handle the new field")
		}
	}
	walk(reflect.ValueOf(&s).Elem())
	return s
}

// checkWindowLeaves walks a window d = Delta(a, b) of two fills beside b and
// reports every counter leaf of d that is zero (a dropped counter) and every
// gauge leaf that differs from b's (a differenced gauge). Gauges are bool
// leaves and fields tagged `report:"gauge"`, the same rule Delta and Merge
// follow.
func checkWindowLeaves(t *testing.T, path string, d, b reflect.Value, gauge bool) {
	t.Helper()
	switch {
	case gauge || d.Kind() == reflect.Bool:
		if !reflect.DeepEqual(d.Interface(), b.Interface()) {
			t.Errorf("gauge %s = %v in the window, want the end snapshot's %v", path, d.Interface(), b.Interface())
		}
	case d.Kind() == reflect.Struct:
		for i := 0; i < d.NumField(); i++ {
			f := d.Type().Field(i)
			checkWindowLeaves(t, path+"."+f.Name, d.Field(i), b.Field(i), f.Tag.Get("report") == "gauge")
		}
	case d.Kind() == reflect.Array:
		for i := 0; i < d.Len(); i++ {
			checkWindowLeaves(t, fmt.Sprintf("%s[%d]", path, i), d.Index(i), b.Index(i), false)
		}
	case d.IsZero():
		t.Errorf("counter %s is 0 in a window where every counter moved; Delta drops it", path)
	}
}

// TestMergeMirrorsDelta pins the contract the windowed pipeline depends on:
// report.Merge is the additive inverse of report.Delta, so folding
// per-window deltas in window order reconstructs the whole-run delta
// exactly. Because the fill covers every field reflectively, a counter added
// to Snapshot but forgotten in either Merge or Delta fails this test: the
// window between two fills must move every counter leaf and carry every
// gauge from its end snapshot.
func TestMergeMirrorsDelta(t *testing.T) {
	a, b, c := fillSnapshot(1), fillSnapshot(10), fillSnapshot(100)
	checkWindowLeaves(t, "Snapshot", reflect.ValueOf(Delta(a, b)), reflect.ValueOf(b), false)

	got := Merge(Delta(a, b), Delta(b, c))
	want := Delta(a, c)
	if !reflect.DeepEqual(got, want) {
		tg, tw := reflect.ValueOf(got), reflect.ValueOf(want)
		for i := 0; i < tg.NumField(); i++ {
			if !reflect.DeepEqual(tg.Field(i).Interface(), tw.Field(i).Interface()) {
				t.Errorf("field %s: Merge(Delta(a,b), Delta(b,c)) != Delta(a,c)",
					tg.Type().Field(i).Name)
			}
		}
	}
}

// TestCombineRejectsUndeclaredLeaf checks the walker refuses a leaf that is
// neither a counter kind nor tagged as a gauge, instead of silently skipping
// it, and accepts the same kind once tagged.
func TestCombineRejectsUndeclaredLeaf(t *testing.T) {
	type bad struct{ N int }
	type tagged struct {
		N int `report:"gauge"`
	}
	run := func(v any) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		out := reflect.New(reflect.TypeOf(v)).Elem()
		in := reflect.ValueOf(v)
		combine(out, in, in, true)
		return false
	}
	if !run(bad{N: 1}) {
		t.Error("combine accepted an untagged int leaf")
	}
	if run(tagged{N: 1}) {
		t.Error("combine rejected an int leaf tagged as a gauge")
	}
}

// TestMergeZeroIdentity checks a zero delta is a Merge identity for counters
// (gauges follow the later operand by design, so only the counter fields are
// compared via a round trip through Delta of identical snapshots).
func TestMergeZeroIdentity(t *testing.T) {
	a, b := fillSnapshot(1), fillSnapshot(7)
	d := Delta(a, b)
	zero := Delta(b, b) // zero counters, gauges = b's instantaneous values

	got := Merge(d, zero)
	if !reflect.DeepEqual(got, d) {
		t.Errorf("Merge(d, Delta(b,b)) != d")
	}
}

var benchSink Snapshot

// BenchmarkDelta measures one window difference over a fully populated
// Snapshot (every leaf nonzero, so no field is skipped by accident).
func BenchmarkDelta(b *testing.B) {
	x, y := fillSnapshot(1), fillSnapshot(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Delta(x, y)
	}
}

// BenchmarkMerge measures one window fold step over the same populated
// deltas the windowed pipeline combines.
func BenchmarkMerge(b *testing.B) {
	x, y := Delta(fillSnapshot(1), fillSnapshot(10)), Delta(fillSnapshot(10), fillSnapshot(100))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Merge(x, y)
	}
}
