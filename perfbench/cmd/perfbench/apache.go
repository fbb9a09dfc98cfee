package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

// apacheConfig sizes the apache-smt workload: Apache/SPECWeb96 on the
// 8-context SMT at the paper's configuration (64 server processes, 128
// closed-loop clients, full detail).
type apacheConfig struct {
	opts core.Options
	// warmup is the cycles run after core.New, inside setup: the boot
	// ramp (the first network tick lands at cycle 2M) plus a settling
	// margin, so the timed phase starts with warm caches.
	warmup uint64
	// step is the cycles of one timed operation (one RunChecked call).
	step uint64
	// perSecond is the timed cycles per --seconds. The timed phase is a
	// fixed cycle count, so every run times the same simulated work.
	perSecond uint64
	// setups is how many times setup runs; setup_s is their median.
	setups int
}

var apacheDefault = apacheConfig{
	warmup:    3_000_000,
	step:      100_000,
	perSecond: 400_000,
	setups:    3,
}

// newApache builds and warms one simulator.
func newApache(c apacheConfig, o runOpts, tr *tracer) (*core.Simulator, time.Duration, error) {
	t0 := time.Now()
	root := tr.begin("apache.setup", -1)
	opts := c.opts
	opts.Seed = o.seed
	sp := tr.begin("core.New", root)
	sim, err := core.New("apache", opts)
	tr.end(sp, 1)
	if err == nil {
		sp = tr.begin("apache.warmup", root)
		err = sim.RunChecked(o.ctx, c.warmup)
		tr.end(sp, float64(c.warmup))
	}
	tr.end(root, 1)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return sim, time.Since(t0), nil
}

// apacheRun is one timed phase in progress: a simulator advanced one step
// (one RunChecked call of c.step cycles) at a time.
type apacheRun struct {
	sim               *core.Simulator
	c                 apacheConfig
	o                 runOpts
	tr                *tracer
	start, prev, fold report.Snapshot
	ticks0            uint64
	steps             int
	elapsed           time.Duration
	err               error
}

func startApacheRun(sim *core.Simulator, c apacheConfig, o runOpts, tr *tracer) *apacheRun {
	s := report.Take(sim)
	return &apacheRun{sim: sim, c: c, o: o, tr: tr, start: s, prev: s, ticks0: sim.Net.Snapshot().Ticks}
}

// step runs one operation and folds its report delta; it reports false once
// a step has failed.
func (r *apacheRun) step() bool {
	if r.err != nil {
		return false
	}
	t0 := time.Now()
	tr := r.tr
	root := tr.begin("apache.step", -1)
	defer tr.end(root, 1)
	sp := tr.begin("core.Simulator.RunChecked", root)
	err := r.sim.RunChecked(r.o.ctx, r.c.step)
	tr.end(sp, float64(r.c.step))
	if err != nil {
		r.err = fmt.Errorf("step %d: %w", r.steps, err)
		return false
	}
	sp = tr.begin("report.Take", root)
	b := report.Take(r.sim)
	tr.end(sp, 1)
	sp = tr.begin("report.Delta", root)
	d := report.Delta(r.prev, b)
	tr.end(sp, 1)
	if r.steps == 0 {
		r.fold = d
	} else {
		sp = tr.begin("report.Merge", root)
		r.fold = report.Merge(r.fold, d)
		tr.end(sp, 1)
	}
	r.prev = b
	r.steps++
	r.elapsed += time.Since(t0)
	return true
}

// rate is simulated cycles per host second.
func (r *apacheRun) rate() float64 {
	return float64(uint64(r.steps)*r.c.step) / r.elapsed.Seconds()
}

// instRate is simulated instructions retired per host second. Host time
// tracks instructions more closely than cycles: over one timed phase the
// simulated IPC differs by seed (2.9 to 3.6 across four seeds), while the
// host time per instruction varies about half as much.
func (r *apacheRun) instRate() float64 {
	return float64(r.prev.Metrics.Retired-r.start.Metrics.Retired) / r.elapsed.Seconds()
}

// finish checks the phase, counting want operations: every step ran under
// RunChecked's watchdog, the report.Merge fold of the per-step deltas equals
// the whole-phase report.Delta, the server completed requests, and the
// invariant auditor passes. It returns the whole-phase delta and the network
// ticks the phase covered.
func (r *apacheRun) finish(want int, res *result) (report.Snapshot, uint64) {
	res.attempted += want
	if r.err != nil {
		res.fail(want-r.steps, "%v", r.err)
		return report.Snapshot{}, 0
	}
	whole := report.Delta(r.start, r.prev)
	for _, why := range checkApachePhase(r.fold, whole) {
		res.fail(want, "%s", why)
	}
	sp := r.tr.begin("core.Simulator.Audit", -1)
	err := r.sim.Audit()
	r.tr.end(sp, 1)
	if err != nil {
		res.fail(want, "audit after the timed phase: %v", err)
	}
	return whole, r.sim.Net.Snapshot().Ticks - r.ticks0
}

// checkApachePhase returns why a timed phase's report is wrong, if it is.
func checkApachePhase(fold, whole report.Snapshot) []string {
	var bad []string
	if !reflect.DeepEqual(fold, whole) {
		bad = append(bad, "report.Merge fold of the step deltas differs from the whole-phase report.Delta")
	}
	if whole.NetCompleted == 0 {
		bad = append(bad, "no web request completed in the timed phase")
	}
	return bad
}

func runApache(c apacheConfig, o runOpts) (*result, error) {
	res := newResult()
	steps := int(uint64(o.seconds) * c.perSecond / c.step)
	if !o.trace {
		var sim *core.Simulator
		setups := make([]float64, 0, c.setups)
		for i := 0; i < c.setups; i++ {
			sim = nil
			settle()
			s, d, err := newApache(c, o, nil)
			if err != nil {
				return nil, err
			}
			sim = s
			setups = append(setups, d.Seconds())
		}
		r := startApacheRun(sim, c, o, nil)
		for i := 0; i < steps && r.step(); i++ {
		}
		r.finish(steps, res)
		res.vals["setup_s"] = median(setups)
		res.vals["work_per_s"] = r.instRate()
		res.note("%-28s %.6g 1/s (%d simulated cycles in %.3f s, %d steps)", "simcycles_per_s", r.rate(), uint64(r.steps)*c.step, r.elapsed.Seconds(), r.steps)
		res.note("%-28s %.6g 1/s (simulated instructions retired per host second)", "siminsts_per_s", r.instRate())
		return res, nil
	}

	// Traced run: two identical simulators run the same half-length phase
	// with their steps interleaved, so host noise falls on both alike; the
	// first runs untraced, the second under spans. The CPU profile covers
	// both.
	steps = max(steps/2, 1)
	a, _, err := newApache(c, o, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	b, _, err := newApache(c, o, tr)
	if err != nil {
		return nil, err
	}
	settle()
	ra, rb := startApacheRun(a, c, o, nil), startApacheRun(b, c, o, tr)
	g0 := readGoStats()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	for i := 0; i < steps && ra.step() && rb.step(); i++ {
	}
	prof.stop()
	g1 := readGoStats()
	shares, err := prof.shares()
	if err != nil {
		return nil, err
	}
	wa, _ := ra.finish(steps, res)
	wb, ticks := rb.finish(steps, res)
	if !reflect.DeepEqual(wa, wb) {
		res.fail(2*steps, "same seed, same cycles, different simulated counts between the untraced and traced phases")
	}
	v := res.vals
	newS, _, _ := tr.total("core.New")
	v["core.new_s"] = newS.Seconds()
	v["core.run_ns_per_cycle"] = tr.perWork("core.Simulator.RunChecked", time.Nanosecond)
	v["audit.ms"] = tr.perCall("core.Simulator.Audit", time.Millisecond)
	v["report.take_us"] = tr.perCall("report.Take", time.Microsecond)
	v["report.delta_us"] = tr.perCall("report.Delta", time.Microsecond)
	v["report.merge_us"] = tr.perCall("report.Merge", time.Microsecond)
	v["trace_overhead_pct"] = overheadPct(ra.rate(), rb.rate())
	v["go.gc_cpu_frac"] = gcFrac(g0, g1)
	v["go.alloc_bytes_per_op"] = float64(g1.allocBytes-g0.allocBytes) / float64(2*steps)
	putCPUShares(v, shares)
	putSimCounts(v, wb)
	v["netsim.arrivals_per_tick"] = ratio(wb.NetRequests, ticks)
	return res, writeTrace(tr, o, "apache-smt", res)
}

// writeTrace stores the run's spans next to the other scratch output.
func writeTrace(tr *tracer, o runOpts, name string, res *result) error {
	path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d.json", name, o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	res.note("trace: %s (%d spans)", path, len(tr.spans))
	return nil
}
