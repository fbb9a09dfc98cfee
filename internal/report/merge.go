package report

import "reflect"

// Delta returns the window b - a: every counter as its difference, every
// gauge as b's instantaneous value.
func Delta(a, b Snapshot) Snapshot {
	var d Snapshot
	combine(reflect.ValueOf(&d).Elem(), reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem(), true)
	return d
}

// Merge combines two window deltas a + b, the additive inverse of Delta:
// Merge(Delta(x, y), Delta(y, z)) accumulates the same counters Delta(x, z)
// would. Counters add; gauges — which a Delta carries as the end snapshot's
// instantaneous values — take the later window's value, so b must be the
// later window. Folding per-window deltas left-to-right in window order makes
// the result independent of which worker or process produced each window.
func Merge(a, b Snapshot) Snapshot {
	var m Snapshot
	combine(reflect.ValueOf(&m).Elem(), reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem(), false)
	return m
}

// combine walks the Snapshot type through structs and arrays and sets each
// leaf of out from the matching leaves of a and b. uint64 and float64 leaves
// are counters: b - a when sub, else a + b. Gauges take b's value: a bool
// leaf, or any field tagged `report:"gauge"`. Any other leaf kind panics, so
// a new field is a counter unless declared otherwise, and never skipped.
func combine(out, a, b reflect.Value, sub bool) {
	switch out.Kind() {
	case reflect.Struct:
		t := out.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).Tag.Get("report") == "gauge" {
				out.Field(i).Set(b.Field(i))
				continue
			}
			combine(out.Field(i), a.Field(i), b.Field(i), sub)
		}
	case reflect.Array:
		for i := 0; i < out.Len(); i++ {
			combine(out.Index(i), a.Index(i), b.Index(i), sub)
		}
	case reflect.Uint64:
		if sub {
			out.SetUint(b.Uint() - a.Uint())
		} else {
			out.SetUint(a.Uint() + b.Uint())
		}
	case reflect.Float64:
		if sub {
			out.SetFloat(b.Float() - a.Float())
		} else {
			out.SetFloat(a.Float() + b.Float())
		}
	case reflect.Bool:
		out.SetBool(b.Bool())
	default:
		panic("report: Snapshot leaf of type " + out.Type().String() + " is neither a counter (uint64, float64) nor a gauge (bool, or a field tagged `report:\"gauge\"`)")
	}
}
