package main

import (
	"sort"

	"repro/internal/report"
)

// def names one reported metric. The two lists below are the benchmark's
// contract with BENCHMARK.json, which lists the same names in the same
// order (TestMetricListsMatchManifest).
type def struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run (--trace 0). All are host-side
// and every workload reports all of them.
var endToEnd = []def{
	{"setup_s", "s", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1). A metric that does
// not apply to the workload reads 0.
var perLayer = []def{
	// Spans around the benchmark's calls into each module.
	{"core.new_s", "s", "lower"},
	{"core.run_ns_per_cycle", "ns/cycle", "lower"},
	{"core.ffwd_ns_per_cycle", "ns/cycle", "lower"},
	{"core.checkpoint_ms", "ms", "lower"},
	{"core.restore_ms", "ms", "lower"},
	{"checkpoint.write_ms", "ms", "lower"},
	{"checkpoint.read_ms", "ms", "lower"},
	{"checkpoint.image_kb", "KB", "lower"},
	{"audit.ms", "ms", "lower"},
	{"experiments.build_library_s", "s", "lower"},
	{"report.take_us", "us", "lower"},
	{"report.delta_us", "us", "lower"},
	{"report.merge_us", "us", "lower"},
	{"netsim.new_s", "s", "lower"},
	{"netsim.tick_us_p50", "us", "lower"},
	{"netsim.tick_us_p99", "us", "lower"},
	{"netsim.transmit_ns", "ns", "lower"},
	{"netsim.filesize_ns", "ns", "lower"},
	{"bench.responder_frac", "ratio", "lower"},
	{"trace_overhead_pct", "%", "lower"},
	// Go runtime, from runtime/metrics over the traced phase.
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"go.alloc_bytes_per_op", "B", "lower"},
	// Self-time share by package, from a CPU profile of the traced phase.
	{"cpu.pipeline", "ratio", "lower"},
	{"cpu.cache", "ratio", "lower"},
	{"cpu.kernel", "ratio", "lower"},
	{"cpu.workload", "ratio", "lower"},
	{"cpu.tlb", "ratio", "lower"},
	{"cpu.bpred", "ratio", "lower"},
	{"cpu.mem", "ratio", "lower"},
	{"cpu.conflict", "ratio", "lower"},
	{"cpu.stats", "ratio", "lower"},
	{"cpu.netsim", "ratio", "lower"},
	{"cpu.timerwheel", "ratio", "lower"},
	{"cpu.flatmap", "ratio", "lower"},
	{"cpu.slices", "ratio", "lower"},
	{"cpu.checkpoint", "ratio", "lower"},
	{"cpu.gob", "ratio", "lower"},
	{"cpu.report", "ratio", "lower"},
	{"cpu.runtime", "ratio", "lower"},
	// Simulated counts over the traced phase: exact, seed-determined, and
	// unchanged by any change that only speeds the simulator up.
	{"pipeline.ipc", "inst/cycle", "higher"},
	{"pipeline.retired", "count", "higher"},
	{"pipeline.squash_frac", "ratio", "lower"},
	{"pipeline.zero_issue_frac", "ratio", "lower"},
	{"cache.accesses", "count", "lower"},
	{"cache.l1i_miss_rate", "ratio", "lower"},
	{"cache.l1d_miss_rate", "ratio", "lower"},
	{"cache.l2_miss_rate", "ratio", "lower"},
	{"tlb.itlb_miss_rate", "ratio", "lower"},
	{"tlb.dtlb_miss_rate", "ratio", "lower"},
	{"bpred.mispredict_rate", "ratio", "lower"},
	{"bpred.btb_miss_rate", "ratio", "lower"},
	{"kernel.cycle_frac", "ratio", "lower"},
	{"kernel.syscalls", "count", "lower"},
	{"kernel.context_switches", "count", "lower"},
	{"kernel.net_interrupts", "count", "lower"},
	{"mem.allocs", "count", "lower"},
	{"mem.reclaims", "count", "lower"},
	{"netsim.requests", "count", "higher"},
	{"netsim.completed", "count", "higher"},
	{"netsim.retransmits", "count", "lower"},
	{"netsim.arrivals_per_tick", "count", "higher"},
	{"netsim.latency_p99_ticks", "ticks", "lower"},
}

// cpuPackages are the packages whose self-time share is reported as
// cpu.<pkg>, in perLayer order.
var cpuPackages = []string{
	"pipeline", "cache", "kernel", "workload", "tlb", "bpred", "mem",
	"conflict", "stats", "netsim", "timerwheel", "flatmap", "slices",
	"checkpoint", "gob", "report", "runtime",
}

// putCPUShares records cpu.<pkg> for every reported package.
func putCPUShares(vals map[string]float64, shares map[string]float64) {
	for _, p := range cpuPackages {
		vals["cpu."+p] = shares[p]
	}
}

// putSimCounts records the simulated per-layer counts of a report delta.
func putSimCounts(vals map[string]float64, d report.Snapshot) {
	m := d.Metrics
	vals["pipeline.ipc"] = ratio(m.Retired, m.Cycles)
	vals["pipeline.retired"] = float64(m.Retired)
	vals["pipeline.squash_frac"] = ratio(m.Squashed, m.Fetched)
	vals["pipeline.zero_issue_frac"] = ratio(m.ZeroIssue, m.Cycles)
	vals["cache.accesses"] = float64(accesses(d.L1I) + accesses(d.L1D) + accesses(d.L2))
	vals["cache.l1i_miss_rate"] = missRate(d.L1I)
	vals["cache.l1d_miss_rate"] = missRate(d.L1D)
	vals["cache.l2_miss_rate"] = missRate(d.L2)
	vals["tlb.itlb_miss_rate"] = missRate(d.ITLB)
	vals["tlb.dtlb_miss_rate"] = missRate(d.DTLB)
	vals["bpred.mispredict_rate"] = ratio(d.BpMispredicts[0]+d.BpMispredicts[1], d.BpLookups[0]+d.BpLookups[1])
	vals["bpred.btb_miss_rate"] = missRate(d.BTB)
	vals["kernel.cycle_frac"] = d.CycleAt.KernelPct() / 100
	var syscalls uint64
	for _, n := range d.SyscallCount {
		syscalls += n
	}
	vals["kernel.syscalls"] = float64(syscalls)
	vals["kernel.context_switches"] = float64(d.ContextSwitches)
	vals["kernel.net_interrupts"] = float64(d.NetInterrupts)
	vals["mem.allocs"] = float64(d.MemAllocs)
	vals["mem.reclaims"] = float64(d.MemReclaims)
	vals["netsim.requests"] = float64(d.NetRequests)
	vals["netsim.completed"] = float64(d.NetCompleted)
	vals["netsim.retransmits"] = float64(d.NetRetransmits)
}

func accesses(s report.StructStats) uint64 { return s.Accesses[0] + s.Accesses[1] }

func missRate(s report.StructStats) float64 { return ratio(s.TotalMisses(), accesses(s)) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
