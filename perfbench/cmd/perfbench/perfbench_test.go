package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/report"
)

// Small configurations keep the tests to seconds. The apache interval is
// short so the network ticks inside a short phase.
var (
	apacheSmall = apacheConfig{
		opts:   core.Options{CyclesPer10ms: 50_000},
		warmup: 1_000_000, step: 50_000, perSecond: 200_000, setups: 1,
	}
	fleetSmall = fleetConfig{clients: 20_000, arrivalsPerTick: 250, warmTicks: 20, perSecond: 100, setups: 1}
	regenSmall = regenConfig{
		scale:     withWindows(experiments.Scale{Warmup: 100_000, Measure: 150_000, Interval: 50_000}),
		perSecond: 0.5, setups: 1,
	}
)

func testOpts(t *testing.T, seed uint64, trace bool) runOpts {
	return runOpts{seed: seed, seconds: 2, trace: trace, workdir: t.TempDir(), ctx: context.Background()}
}

// simCounts are the per-layer metrics that must repeat exactly.
var simCounts = regexp.MustCompile(`^(pipeline|cache|tlb|bpred|kernel|mem)\.|^netsim\.(requests|completed|retransmits|arrivals_per_tick|latency_p99_ticks)$`)

func countsOf(r *result) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		if simCounts.MatchString(d.name) {
			out[d.name] = r.vals[d.name]
		}
	}
	return out
}

func TestMetricListsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, want []def, got []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: manifest %+v, benchmark %+v", kind, i, g, d)
			}
			if !validName.MatchString(d.name) || !validUnit.MatchString(d.unit) {
				t.Errorf("%s: invalid name or unit %q %q", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%s: duplicate metric %q", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", endToEnd, m.EndToEnd)
	check("per_layer", perLayer, m.PerLayer)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d: manifest %q, benchmark %q", i, m.Workloads[i].Name, w.name)
		}
	}
}

// TestSeedReachesTheSimulator: the same seed repeats every simulated count
// exactly, and another seed changes them.
func TestSeedReachesTheSimulator(t *testing.T) {
	runs := map[string]func(o runOpts) (*result, error){
		"apache-smt": func(o runOpts) (*result, error) { return runApache(apacheSmall, o) },
		"fleet-1m":   func(o runOpts) (*result, error) { return runFleet(fleetSmall, o) },
	}
	for _, name := range sortedKeys(runs) {
		run := runs[name]
		t.Run(name, func(t *testing.T) {
			var counts []map[string]float64
			for _, seed := range []uint64{1, 1, 2} {
				r, err := run(testOpts(t, seed, true))
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 || len(r.failures) != 0 {
					t.Fatalf("seed %d: %d failed: %v", seed, r.failed, r.failures)
				}
				counts = append(counts, countsOf(r))
			}
			differ := false
			for _, k := range sortedKeys(counts[0]) {
				if counts[0][k] != counts[1][k] {
					t.Errorf("%s: %v then %v at the same seed", k, counts[0][k], counts[1][k])
				}
				differ = differ || counts[0][k] != counts[2][k]
			}
			if !differ {
				t.Error("seed 2 reproduced seed 1's counts: the seed does not reach the simulator")
			}
		})
	}
}

func TestUntracedRunsReportEveryEndToEndMetric(t *testing.T) {
	for _, run := range []func(o runOpts) (*result, error){
		func(o runOpts) (*result, error) { return runApache(apacheSmall, o) },
		func(o runOpts) (*result, error) { return runFleet(fleetSmall, o) },
	} {
		r, err := run(testOpts(t, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		r.vals["peak_rss_mb"] = peakRSSMB()
		for _, d := range endToEnd {
			if v := r.vals[d.name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s = %v, want a positive measurement", d.name, v)
			}
		}
		if r.attempted == 0 || r.failed != 0 {
			t.Errorf("attempted %d, failed %d: %v", r.attempted, r.failed, r.failures)
		}
	}
}

func TestApacheCheckRejectsBadReports(t *testing.T) {
	sim, _, err := newApache(apacheSmall, testOpts(t, 1, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := startApacheRun(sim, apacheSmall, testOpts(t, 1, false), nil)
	for i := 0; i < 4; i++ {
		if !r.step() {
			t.Fatal(r.err)
		}
	}
	whole := report.Delta(r.start, r.prev)
	if bad := checkApachePhase(r.fold, whole); len(bad) != 0 {
		t.Fatalf("good phase rejected: %v", bad)
	}
	tampered := r.fold
	tampered.Metrics.Retired++
	if len(checkApachePhase(tampered, whole)) == 0 {
		t.Error("a fold that lost an instruction passed")
	}
	idle := whole
	idle.NetCompleted = 0
	if len(checkApachePhase(idle, idle)) == 0 {
		t.Error("a phase with no completed request passed")
	}
}

func TestResponder(t *testing.T) {
	r := newResponder()
	frames := []kernel.Frame{{Conn: 7, Bytes: 300, Open: true}, {Conn: 5, Ack: true}, {Conn: 8, Bytes: 300, Open: true}}
	r.scan(frames)
	r.sizes = append(r.sizes[:0], 3000, 100)
	r.plan()
	// Conn 8 (100 B) finishes in one segment; conn 7 sends two of its three.
	if r.done != 1 || len(r.active) != 1 || len(r.out) != 3 || r.active[0].left != 3000-2*segmentBytes {
		t.Fatalf("done %d, active %+v, out %+v", r.done, r.active, r.out)
	}
	if why := r.check(2, 1); why != "" {
		t.Errorf("consistent counts rejected: %s", why)
	}
	for _, c := range []struct{ requests, completed uint64 }{{2, 2}, {3, 1}, {2, 0}} {
		if r.check(c.requests, c.completed) == "" {
			t.Errorf("requests %d, completed %d accepted", c.requests, c.completed)
		}
	}
	r.scan([]kernel.Frame{{Conn: 7, Bytes: 10}})
	if r.check(2, 1) == "" {
		t.Error("an unexpected data frame was not reported")
	}

	// Steady state allocates nothing.
	r = newResponder()
	allocs := testing.AllocsPerRun(100, func() {
		r.scan(frames)
		r.sizes = append(r.sizes[:0], 3000, 100)
		r.plan()
		r.active = r.active[:0]
	})
	if allocs != 0 {
		t.Errorf("responder allocates %v times per tick", allocs)
	}
}

func TestRegenCountsBadOutput(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "lib")
	cold, errs, _, err := coldSetup(regenSmall, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	checkRegen(res, "cold", cold, errs, nil)
	if res.failed != 0 {
		t.Fatalf("cold render failed: %v", res.failures)
	}
	texts, errs, _ := regen(regenSmall, 1, dir, nil)
	res = newResult()
	checkRegen(res, "warm", texts, errs, cold)
	if res.failed != 0 {
		t.Fatalf("warm render differs from cold: %v", res.failures)
	}
	edited := append([]string(nil), texts...)
	edited[3] += " "
	res = newResult()
	checkRegen(res, "edited", edited, errs, cold)
	if res.failed != 1 {
		t.Errorf("one edited figure: failed %d, want 1", res.failed)
	}

	// Flip one byte of one window image: the figures of that configuration
	// fail, the others still match, and nothing panics.
	libs, err := findLibraries(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := checkpoint.LibraryWindowPath(libs[0].dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	texts, errs, _ = regen(regenSmall, 1, dir, nil)
	res = newResult()
	checkRegen(res, "corrupt", texts, errs, cold)
	if res.failed == 0 || res.failed == len(figures) {
		t.Errorf("corrupt image: %d of %d figures failed, want some but not all: %v", res.failed, len(figures), res.failures)
	}
}

func TestTracedRegen(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds every library twice")
	}
	r, err := runRegen(regenSmall, testOpts(t, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || len(r.failures) != 0 {
		t.Fatalf("failed %d: %v", r.failed, r.failures)
	}
	for _, name := range []string{"core.ffwd_ns_per_cycle", "core.checkpoint_ms", "checkpoint.write_ms", "audit.ms",
		"experiments.build_library_s", "core.restore_ms", "checkpoint.read_ms", "checkpoint.image_kb",
		"report.merge_us", "core.run_ns_per_cycle", "pipeline.retired", "cpu.pipeline"} {
		if !(r.vals[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, r.vals[name])
		}
	}
}

func TestPkgShares(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/pipeline.(*Engine).issue":                  "pipeline",
		"slices.pdqsortCmpFunc[go.shape.struct { repro/x.T }]":     "slices",
		"encoding/gob.(*Decoder).decodeStruct":                     "gob",
		"runtime.mallocgc":                                         "runtime",
		"repro/internal/core.(*Simulator).RunChecked.func1":        "core",
		"repro/perfbench/cmd/perfbench.(*responder).plan":          "perfbench",
		"internal/runtime/maps.(*Map).getWithKeySmall":             "maps",
		"repro/internal/flatmap.(*Map[go.shape.int,go.shape.int])": "flatmap",
	} {
		if got := pkgOf(sym); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", sym, got, want)
		}
	}
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	x := 1.0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		x = math.Sqrt(x + 2)
	}
	p.stop()
	shares, err := p.shares()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, k := range sortedKeys(shares) {
		sum += shares[k]
	}
	if len(shares) == 0 || math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares %v sum to %v, want 1 (x=%v)", shares, sum, x)
	}
}

// TestDetlint runs the repository's determinism analyzers over the
// benchmark module, unchanged: walltime allows the wall clock here only
// because the driver lives under cmd/.
func TestDetlint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module")
	}
	pkgs, err := analysis.Load(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range analysis.Run(pkgs, analysis.Analyzers()) {
		t.Error(d)
	}
}
