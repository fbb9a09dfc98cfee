package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
)

// regenConfig sizes the fig-regen workload: Figures 1–7 regenerated from a
// warm checkpoint library with one in-process worker.
type regenConfig struct {
	scale experiments.Scale
	// perSecond is the warm regenerations per --seconds (at least one).
	perSecond float64
	setups    int
}

// regenDefault runs at half of experiments.Quick's cycle budget, which
// keeps three cold setups and the timed regenerations inside one run's
// budget on a 2-core host.
var regenDefault = regenConfig{
	scale:     withWindows(experiments.Scale{Warmup: 300_000, Measure: 450_000, Interval: 120_000}),
	perSecond: 0.3,
	setups:    3,
}

func withWindows(sc experiments.Scale) experiments.Scale {
	sc.Sampling = experiments.WindowedSampling(sc)
	return sc
}

var figures = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}

// renderFigure regenerates one figure. experiments panics on a broken
// library (it has no error path there); the panic becomes this figure's
// error, so a corrupt image fails one operation instead of the benchmark.
func renderFigure(id string, sc experiments.Scale, seed uint64, wr *experiments.WindowRunner) (text string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", id, r)
		}
	}()
	text = experiments.RenderWindowed([]string{id}, sc, seed, wr)
	if !strings.HasPrefix(text, "################ "+id+" ") {
		return text, fmt.Errorf("%s: no figure section in the output", id)
	}
	return text, nil
}

// regen renders every figure with one fresh runner over dir, one figure per
// operation, and returns the texts, the per-figure errors, and the elapsed
// time.
func regen(c regenConfig, seed uint64, dir string, tr *tracer) ([]string, []error, time.Duration) {
	texts := make([]string, len(figures))
	errs := make([]error, len(figures))
	wr := experiments.NewWindowRunner(experiments.WindowedConfig{Dir: dir, Workers: 1})
	t0 := time.Now()
	for i, id := range figures {
		sp := tr.begin("experiments.RenderWindowed", -1)
		texts[i], errs[i] = renderFigure(id, c.scale, seed, wr)
		tr.end(sp, 1)
	}
	return texts, errs, time.Since(t0)
}

// checkRegen counts one operation per figure and fails each figure that
// errored or whose text differs from the cold render: the library's
// documented contract is that warm output is byte-identical to cold.
func checkRegen(res *result, what string, texts []string, errs []error, cold []string) {
	res.attempted += len(figures)
	for i, id := range figures {
		switch {
		case errs[i] != nil:
			res.fail(1, "%s: %v", what, errs[i])
		case cold != nil && texts[i] != cold[i]:
			res.fail(1, "%s: %s differs from the cold render", what, id)
		}
	}
}

// coldSetup builds the checkpoint libraries from nothing in dir and renders
// the figures from them: the set-up cost a user pays once.
func coldSetup(c regenConfig, seed uint64, dir string) ([]string, []error, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, 0, err
	}
	texts, errs, d := regen(c, seed, dir, nil)
	return texts, errs, d, nil
}

func runRegen(c regenConfig, o runOpts) (*result, error) {
	res := newResult()
	setups := 1
	if !o.trace {
		setups = c.setups
	}
	// Every set-up builds into the same directory (emptied first, outside
	// the timing), so one library is on disk at a time.
	lib := filepath.Join(o.workdir, "lib")
	defer os.RemoveAll(lib)
	var cold []string
	var coldErrs []error
	setupS := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		settle()
		texts, errs, d, err := coldSetup(c, o.seed, lib)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		if i == 0 {
			cold, coldErrs = texts, errs
			checkRegen(res, "cold render", texts, errs, nil)
		} else if !reflect.DeepEqual(texts, cold) {
			res.fail(len(figures), "cold render %d differs from cold render 0", i)
		}
	}
	if !o.trace {
		res.vals["setup_s"] = median(setupS)
		res.vals["work_per_s"] = 0
	}
	for _, err := range coldErrs {
		if err != nil {
			// Nothing to regenerate from; the failures are already counted.
			return res, nil
		}
	}
	if !o.trace {
		n := max(int(math.Round(float64(o.seconds)*c.perSecond)), 1)
		rates := make([]float64, 0, n)
		secs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			settle()
			texts, errs, d := regen(c, o.seed, lib, nil)
			checkRegen(res, fmt.Sprintf("warm render %d", i), texts, errs, cold)
			rates = append(rates, float64(len(figures))/d.Seconds())
			secs = append(secs, d.Seconds())
		}
		res.vals["work_per_s"] = median(rates)
		res.note("%-28s %.6g s (median of %d warm regenerations)", "regen_s", median(secs), n)
		return res, nil
	}
	return res, tracedRegen(c, o, res, lib, cold)
}

// library is one configuration's checkpoint library, as found on disk.
type library struct {
	dir      string
	idx      checkpoint.LibraryIndex
	workload string
	opts     core.Options
}

// findLibraries lists the configuration libraries under root in directory
// order and recovers each one's workload and options from its first image.
func findLibraries(root string) ([]library, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var libs []library
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		idx, err := checkpoint.ReadLibraryIndex(dir)
		if err != nil {
			return nil, err
		}
		if len(idx.Windows) == 0 {
			return nil, fmt.Errorf("library %s has no windows", dir)
		}
		sim, err := core.RestoreFile(filepath.Join(dir, idx.Windows[0].File))
		if err != nil {
			return nil, err
		}
		libs = append(libs, library{dir: dir, idx: idx, workload: sim.Workload, opts: sim.Opts})
	}
	return libs, nil
}

// tracedRegen is the per-layer run: it rebuilds each library twice (once
// through experiments.BuildLibrary, once through the same public calls under
// spans), times an untraced and a profiled warm regeneration, and replays
// every window under spans with the calls experiments.RunWindowJobs makes.
func tracedRegen(c regenConfig, o runOpts, res *result, lib string, cold []string) error {
	libs, err := findLibraries(lib)
	if err != nil {
		return err
	}
	tr := newTracer()
	rebuilt := filepath.Join(o.workdir, "rebuilt")
	replica := filepath.Join(o.workdir, "replica")
	defer os.RemoveAll(rebuilt)
	defer os.RemoveAll(replica)
	for i, l := range libs {
		res.attempted += 2
		if err := errors.Join(os.RemoveAll(rebuilt), os.RemoveAll(replica)); err != nil {
			return err
		}
		settle()
		sp := tr.begin("experiments.BuildLibrary", -1)
		_, err := experiments.BuildLibrary(rebuilt, l.workload, l.opts, l.idx.Span)
		tr.end(sp, 1)
		if err != nil {
			res.fail(1, "library %d: experiments.BuildLibrary: %v", i, err)
		} else if err := sameFiles(l.dir, rebuilt); err != nil {
			res.fail(1, "library %d: rebuilt library differs: %v", i, err)
		}
		settle()
		if err := buildLibrarySpans(replica, l.workload, l.opts, l.idx.Span, tr); err != nil {
			res.fail(1, "library %d: replica build: %v", i, err)
		} else if err := sameFiles(l.dir, replica); err != nil {
			res.fail(1, "library %d: replica library differs: %v", i, err)
		}
	}

	settle()
	texts, errs, da := regen(c, o.seed, lib, nil)
	checkRegen(res, "untraced warm render", texts, errs, cold)
	settle()
	g0 := readGoStats()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	texts, errs, db := regen(c, o.seed, lib, tr)
	prof.stop()
	g1 := readGoStats()
	shares, err := prof.shares()
	if err != nil {
		return err
	}
	checkRegen(res, "traced warm render", texts, errs, cold)

	var all report.Snapshot
	for i, l := range libs {
		res.attempted++
		settle()
		got, err := replayLibrary(l, tr)
		if err != nil {
			res.fail(1, "library %d: replay: %v", i, err)
			continue
		}
		wins := make([]int, len(l.idx.Windows))
		for w := range wins {
			wins[w] = w
		}
		ref, err := experiments.RunWindowJobs(l.dir, wins, l.idx.Fingerprint)
		if err != nil {
			res.fail(1, "library %d: experiments.RunWindowJobs: %v", i, err)
			continue
		}
		want := ref[0].W
		for _, r := range ref[1:] {
			want = report.Merge(want, r.W)
		}
		if !reflect.DeepEqual(got, want) {
			res.fail(1, "library %d: replayed window deltas differ from experiments.RunWindowJobs", i)
		}
		if i == 0 {
			all = got
		} else {
			all = report.Merge(all, got)
		}
	}

	v := res.vals
	newS, _, _ := tr.total("core.New")
	v["core.new_s"] = newS.Seconds()
	v["core.ffwd_ns_per_cycle"] = tr.perWork("pipeline.Engine.RunToNextWindow", time.Nanosecond)
	v["core.checkpoint_ms"] = tr.perCall("core.Simulator.Checkpoint", time.Millisecond)
	v["checkpoint.write_ms"] = tr.perCall("checkpoint.WriteFile", time.Millisecond)
	v["audit.ms"] = tr.perCall("core.Simulator.Audit", time.Millisecond)
	build, _, _ := tr.total("experiments.BuildLibrary")
	v["experiments.build_library_s"] = build.Seconds()
	restore, _, nr := tr.total("core.Restore")
	restoreInto, _, ni := tr.total("core.Simulator.RestoreInto")
	if nr+ni > 0 {
		v["core.restore_ms"] = float64(restore+restoreInto) / float64(time.Millisecond) / float64(nr+ni)
	}
	v["checkpoint.read_ms"] = tr.perCall("checkpoint.ReadFile", time.Millisecond)
	_, imgBytes, nImg := tr.total("checkpoint.ReadFile")
	if nImg > 0 {
		v["checkpoint.image_kb"] = imgBytes / 1024 / float64(nImg)
	}
	v["core.run_ns_per_cycle"] = tr.perWork("core.Simulator.Run", time.Nanosecond)
	v["report.take_us"] = tr.perCall("report.Take", time.Microsecond)
	v["report.delta_us"] = tr.perCall("report.Delta", time.Microsecond)
	v["report.merge_us"] = tr.perCall("report.Merge", time.Microsecond)
	v["trace_overhead_pct"] = overheadPct(1/da.Seconds(), 1/db.Seconds())
	v["go.gc_cpu_frac"] = gcFrac(g0, g1)
	v["go.alloc_bytes_per_op"] = float64(g1.allocBytes-g0.allocBytes) / float64(len(figures))
	putCPUShares(v, shares)
	putSimCounts(v, all)
	res.note("%-28s %.6g s untraced, %.6g s profiled", "regen_s", da.Seconds(), db.Seconds())
	return writeTrace(tr, o, "fig-regen", res)
}

// buildLibrarySpans builds one configuration's library into dir with the
// public calls experiments.BuildLibrary makes, each under a span.
func buildLibrarySpans(dir, workload string, o core.Options, span uint64, tr *tracer) error {
	fp := core.Fingerprint(workload, o, span)
	idx := checkpoint.LibraryIndex{
		Fingerprint: fp, CodeVersion: core.CodeVersion,
		Workload: workload, Seed: o.Seed, Span: span,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	root := tr.begin("library.build", -1)
	defer tr.end(root, 1)
	sp := tr.begin("core.New", root)
	sim, err := core.New(workload, o)
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	sim.Engine.SetSampleLibraryBuild(true)
	var cycle uint64
	for {
		if sim.Engine.AtWindowStart() && cycle < span {
			sp = tr.begin("core.Simulator.Audit", root)
			err := sim.Audit()
			tr.end(sp, 1)
			if err != nil {
				return err
			}
			sp = tr.begin("core.Simulator.Checkpoint", root)
			img, err := sim.Checkpoint()
			tr.end(sp, 1)
			if err != nil {
				return err
			}
			m := checkpoint.LibraryManifest{
				Fingerprint: fp, CodeVersion: core.CodeVersion, Seed: o.Seed,
				Window: len(idx.Windows), Cycle: cycle, Retired: sim.Engine.Metrics.Retired,
			}
			if err := checkpoint.PutManifest(img, m); err != nil {
				return err
			}
			path := checkpoint.LibraryWindowPath(dir, m.Window)
			sp = tr.begin("checkpoint.WriteFile", root)
			err = checkpoint.WriteFile(path, img)
			tr.end(sp, 1)
			if err != nil {
				return err
			}
			idx.Windows = append(idx.Windows, checkpoint.LibraryWindow{
				File: filepath.Base(path), Cycle: m.Cycle, Retired: m.Retired,
			})
		}
		if cycle >= span {
			break
		}
		sp = tr.begin("pipeline.Engine.RunToNextWindow", root)
		ran, _ := sim.Engine.RunToNextWindow(span - cycle)
		tr.end(sp, float64(ran))
		cycle += ran
	}
	return checkpoint.WriteLibraryIndex(dir, idx)
}

// replayLibrary restores and runs every window of one library with the
// public calls experiments.RunWindowJobs makes, each under a span, and
// returns the report.Merge fold of the window deltas in window order.
func replayLibrary(l library, tr *tracer) (report.Snapshot, error) {
	var sim *core.Simulator
	var fold report.Snapshot
	for win := range l.idx.Windows {
		root := tr.begin("window.replay", -1)
		path := checkpoint.LibraryWindowPath(l.dir, win)
		st, err := os.Stat(path)
		if err != nil {
			return fold, err
		}
		sp := tr.begin("checkpoint.ReadFile", root)
		img, err := checkpoint.ReadFile(path)
		tr.end(sp, float64(st.Size()))
		if err != nil {
			return fold, err
		}
		if _, err := checkpoint.VerifyManifest(img, path, l.idx.Fingerprint); err != nil {
			return fold, err
		}
		if sim == nil {
			sp = tr.begin("core.Restore", root)
			sim, err = core.Restore(img)
		} else {
			sp = tr.begin("core.Simulator.RestoreInto", root)
			err = sim.RestoreInto(img)
		}
		tr.end(sp, 1)
		if err != nil {
			return fold, err
		}
		sim.Engine.SetSampleLibraryBuild(false)
		warmup, detail := sim.Engine.SampleWindow()
		sp = tr.begin("core.Simulator.Run", root)
		sim.Run(warmup)
		tr.end(sp, float64(warmup))
		sp = tr.begin("report.Take", root)
		a := report.Take(sim)
		tr.end(sp, 1)
		sp = tr.begin("core.Simulator.Run", root)
		sim.Run(detail)
		tr.end(sp, float64(detail))
		sp = tr.begin("report.Take", root)
		b := report.Take(sim)
		tr.end(sp, 1)
		sp = tr.begin("report.Delta", root)
		d := report.Delta(a, b)
		tr.end(sp, 1)
		if win == 0 {
			fold = d
		} else {
			sp = tr.begin("report.Merge", root)
			fold = report.Merge(fold, d)
			tr.end(sp, 1)
		}
		tr.end(root, 1)
	}
	return fold, nil
}

// sameFiles reports whether two directories hold the same file names with
// the same bytes.
func sameFiles(a, b string) error {
	ea, err := os.ReadDir(a)
	if err != nil {
		return err
	}
	eb, err := os.ReadDir(b)
	if err != nil {
		return err
	}
	if len(ea) != len(eb) {
		return fmt.Errorf("%d files against %d", len(eb), len(ea))
	}
	for i := range ea {
		if ea[i].Name() != eb[i].Name() {
			return fmt.Errorf("file %s against %s", eb[i].Name(), ea[i].Name())
		}
		x, err := os.ReadFile(filepath.Join(a, ea[i].Name()))
		if err != nil {
			return err
		}
		y, err := os.ReadFile(filepath.Join(b, eb[i].Name()))
		if err != nil {
			return err
		}
		if !bytes.Equal(x, y) {
			return fmt.Errorf("%s differs", ea[i].Name())
		}
	}
	return nil
}
