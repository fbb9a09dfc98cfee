// Command perfbench is the repository's benchmark: one process, one
// simulation thread, three workloads that each stress different layers of
// the simulator (see ../../README.md).
//
//	perfbench --workload apache-smt|fleet-1m|fig-regen|all --seed N \
//	    --seconds S --trace 0|1 [--workdir DIR]
//
// An untraced run (--trace 0) measures the end-to-end metrics; a traced run
// (--trace 1) measures the per-layer ones. Either run prints one line per
// metric, then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The seed reaches the simulator only through core.Options.Seed,
// netsim.Config.Seed and the experiments seed argument. Every output check
// that fails counts as failed operations; the exit code is 0 whenever a
// result is printed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// runOpts are the per-run settings every workload receives.
type runOpts struct {
	seed    uint64
	seconds int
	trace   bool
	workdir string
	ctx     context.Context
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	failures          []string
	vals              map[string]float64
	// notes are extra human-readable lines: the workload's end-to-end
	// figures under their own names (simcycles_per_s, tick_us_p99, ...).
	notes []string
}

func newResult() *result { return &result{vals: map[string]float64{}} }

// fail records a failed output check that invalidates ops operations.
func (r *result) fail(ops int, format string, args ...any) {
	r.failed += ops
	if r.failed > r.attempted {
		r.failed = r.attempted
	}
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(o runOpts) (*result, error)
}

var workloads = []workload{
	{"apache-smt", func(o runOpts) (*result, error) { return runApache(apacheDefault, o) }},
	{"fleet-1m", func(o runOpts) (*result, error) { return runFleet(fleetDefault, o) }},
	{"fig-regen", func(o runOpts) (*result, error) { return runRegen(regenDefault, o) }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: apache-smt, fleet-1m, fig-regen or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "nominal length of the timed phase")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for libraries and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, w := range todo {
		// The deadline turns a stalled simulation into an error (RunChecked
		// honours it) within three minutes of starting the workload.
		ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
		o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir, ctx: ctx}
		res, err := w.run(o)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if !o.trace {
			res.vals["peak_rss_mb"] = peakRSSMB()
		}
		if err := printResult(stdout, w.name, o, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		debug.FreeOSMemory()
	}
	return 0
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the human-readable lines and the final JSON object.
func printResult(w io.Writer, name string, o runOpts, r *result) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%t\n", name, o.seed, o.seconds, o.trace)
	out := map[string]metricJSON{}
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok && !o.trace {
			return fmt.Errorf("%s: end-to-end metric %s not measured", name, d.name)
		}
		out[d.name] = metricJSON{v, d.unit}
		fmt.Fprintf(w, "%-28s %.6g %s\n", d.name, v, d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "%-28s %.6g (%d of %d operations)\n", "failed_frac",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.failed == 0 && len(r.failures) == 0, max(r.attempted, 1), r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// settle collects garbage and returns freed memory to the OS, so one
// setup's heap does not count against the next phase.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// median returns the middle value of xs (mean of the middle two).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// overheadPct is the traced run's slowdown of a higher-is-better rate.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (untraced - traced) / untraced
}
