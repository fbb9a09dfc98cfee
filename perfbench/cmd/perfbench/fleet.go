package main

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// fleetConfig sizes the fleet-1m workload: netsim alone with a million
// closed-loop clients at a fixed arrival wave (think = stagger =
// clients/arrivalsPerTick), answered by the minimal responder below.
type fleetConfig struct {
	clients, arrivalsPerTick int
	// warmTicks run after one full stagger period, inside setup, so every
	// client has completed a request and the think-time timers are armed.
	warmTicks int
	// perSecond is the timed ticks per --seconds (a fixed count, so every
	// run times the same simulated work).
	perSecond int
	setups    int
}

var fleetDefault = fleetConfig{
	clients:         1_000_000,
	arrivalsPerTick: 250,
	warmTicks:       500,
	perSecond:       2000,
	setups:          3,
}

const (
	segmentBytes   = 1460 // one response segment
	segmentsPerRTT = 2    // segments sent per connection per tick
)

// responder is the minimal web server the fleet-1m workload answers netsim
// with. It calls only netsim's Tick, FileSize and Transmit, keeps its state
// in preallocated slices (no map, no flatmap, no timer wheel), and allocates
// nothing in steady state, so the profile's flatmap and timerwheel time is
// netsim's own. Each tick has three harness-free netsim batches (Tick, the
// FileSize lookups, the Transmits) and two responder passes between them.
type responder struct {
	active []conn         // connections with response bytes left, in arrival order
	fresh  []int          // connections opened this tick
	sizes  []int          // their requested file sizes
	out    []kernel.Frame // segments to transmit this tick
	// done counts responses fully sent; odd counts frames the responder
	// does not expect on a lossless wire with one request per connection.
	done, odd uint64
	tick      uint64
}

type conn struct{ id, left int }

func newResponder() *responder {
	return &responder{
		active: make([]conn, 0, 1<<14),
		fresh:  make([]int, 0, 1<<12),
		sizes:  make([]int, 0, 1<<12),
		out:    make([]kernel.Frame, 0, 1<<15),
	}
}

// step advances net one tick and answers it, returning the duration of the
// netsim.Tick call alone.
func (r *responder) step(net *netsim.Network, tr *tracer) time.Duration {
	r.tick++
	root := tr.begin("fleet.step", -1)
	sp := tr.begin("netsim.Network.Tick", root)
	t0 := time.Now()
	frames := net.Tick(r.tick)
	tickDur := time.Since(t0)
	tr.end(sp, 1)

	sp = tr.begin("bench.scan", root)
	r.scan(frames)
	tr.end(sp, float64(len(frames)))

	sp = tr.begin("netsim.Network.FileSize", root)
	r.sizes = r.sizes[:0]
	for _, id := range r.fresh {
		r.sizes = append(r.sizes, net.FileSize(id))
	}
	tr.end(sp, float64(len(r.fresh)))

	sp = tr.begin("bench.plan", root)
	r.plan()
	tr.end(sp, float64(len(r.out)))

	sp = tr.begin("netsim.Network.Transmit", root)
	for _, fr := range r.out {
		net.Transmit(fr, 0)
	}
	tr.end(sp, float64(len(r.out)))
	tr.end(root, 1)
	return tickDur
}

// scan collects the connections opened this tick.
func (r *responder) scan(frames []kernel.Frame) {
	r.fresh = r.fresh[:0]
	for _, fr := range frames {
		switch {
		case fr.Open && fr.Bytes > 0:
			r.fresh = append(r.fresh, fr.Conn)
		case fr.Ack || fr.Close:
			// Acks need no answer; a client closes only after its
			// response completed.
		default:
			r.odd++
		}
	}
}

// plan admits the new connections (r.fresh with their r.sizes) and lays
// out this tick's segments in r.out: up to segmentsPerRTT per open
// response, oldest connection first.
func (r *responder) plan() {
	for i, id := range r.fresh {
		if r.sizes[i] <= 0 {
			r.odd++
			continue
		}
		r.active = append(r.active, conn{id, r.sizes[i]})
	}
	r.out = r.out[:0]
	kept := r.active[:0]
	for _, c := range r.active {
		for seg := 0; seg < segmentsPerRTT && c.left > 0; seg++ {
			chunk := min(segmentBytes, c.left)
			c.left -= chunk
			r.out = append(r.out, kernel.Frame{Conn: c.id, Bytes: chunk})
		}
		if c.left == 0 {
			r.done++
		} else {
			kept = append(kept, c)
		}
	}
	r.active = kept
}

// check compares the responder's own counts with netsim's: every response
// it finished is a completed request, and the requests netsim still counts
// as in flight are exactly the ones the responder is still sending.
// It returns why they disagree, or "".
func (r *responder) check(requests, completed uint64) string {
	switch {
	case r.odd != 0:
		return "responder saw frames a lossless one-request-per-connection wire never sends"
	case r.done != completed:
		return "responses sent differ from netsim.Completed"
	case requests-completed != uint64(len(r.active)):
		return "requests in flight differ from the responder's open responses"
	}
	return ""
}

// newFleet builds and warms one network with its responder.
func newFleet(c fleetConfig, o runOpts, tr *tracer) (*netsim.Network, *responder, time.Duration) {
	stagger := max(c.clients/c.arrivalsPerTick, 1)
	t0 := time.Now()
	root := tr.begin("fleet.setup", -1)
	sp := tr.begin("netsim.New", root)
	net := netsim.New(netsim.Config{
		Clients: c.clients, Seed: o.seed, RequestBytes: 300,
		ThinkTicks: stagger, StaggerTicks: stagger, MeasureLatency: true,
	})
	tr.end(sp, 1)
	r := newResponder()
	for i := 0; i < stagger+c.warmTicks; i++ {
		r.step(net, nil)
	}
	tr.end(root, 1)
	return net, r, time.Since(t0)
}

// fleetRun is one timed phase in progress: a network advanced one tick at a
// time, with each netsim.Tick call's duration kept for the percentiles.
type fleetRun struct {
	net     *netsim.Network
	r       *responder
	tr      *tracer
	tickUS  []float64
	elapsed time.Duration
	// Network counters at the start of the phase.
	req0, comp0, retx0, bytes0 uint64
	lat0                       stats.Hist
}

func startFleetRun(net *netsim.Network, r *responder, ticks int, tr *tracer) *fleetRun {
	return &fleetRun{
		net: net, r: r, tr: tr, tickUS: make([]float64, 0, ticks),
		req0: net.Requests, comp0: net.Completed, retx0: net.Retransmits,
		bytes0: net.BytesServed, lat0: net.Latency,
	}
}

func (f *fleetRun) step() {
	t0 := time.Now()
	d := f.r.step(f.net, f.tr)
	f.elapsed += time.Since(t0)
	f.tickUS = append(f.tickUS, float64(d)/float64(time.Microsecond))
}

func (f *fleetRun) rate() float64 { return float64(len(f.tickUS)) / f.elapsed.Seconds() }

// fleetCounts is the traffic a phase simulated.
type fleetCounts struct {
	requests, completed, retransmits, bytes, latencyP99 uint64
}

// finish checks the responder against netsim and returns the phase's
// traffic.
func (f *fleetRun) finish(res *result) fleetCounts {
	n := len(f.tickUS)
	res.attempted += n
	if why := f.r.check(f.net.Requests, f.net.Completed); why != "" {
		res.fail(n, "fleet-1m: %s", why)
	}
	lat := f.net.Latency.Sub(f.lat0)
	return fleetCounts{
		requests:    f.net.Requests - f.req0,
		completed:   f.net.Completed - f.comp0,
		retransmits: f.net.Retransmits - f.retx0,
		bytes:       f.net.BytesServed - f.bytes0,
		latencyP99:  lat.Quantile(0.99),
	}
}

func runFleet(c fleetConfig, o runOpts) (*result, error) {
	res := newResult()
	ticks := o.seconds * c.perSecond
	if !o.trace {
		var net *netsim.Network
		var r *responder
		setups := make([]float64, 0, c.setups)
		for i := 0; i < c.setups; i++ {
			net, r = nil, nil
			settle()
			var d time.Duration
			net, r, d = newFleet(c, o, nil)
			setups = append(setups, d.Seconds())
		}
		settle()
		f := startFleetRun(net, r, ticks, nil)
		for i := 0; i < ticks; i++ {
			f.step()
		}
		f.finish(res)
		res.vals["setup_s"] = median(setups)
		res.vals["work_per_s"] = f.rate()
		res.note("%-28s %.6g 1/s (%d ticks in %.3f s)", "net_ticks_per_s", f.rate(), ticks, f.elapsed.Seconds())
		res.note("%-28s %.6g us (n=%d)", "tick_us_p50", quantile(f.tickUS, 0.50), ticks)
		res.note("%-28s %.6g us (n=%d)", "tick_us_p99", quantile(f.tickUS, 0.99), ticks)
		return res, nil
	}

	// Traced run: two identical fleets run the same half-length phase with
	// their ticks interleaved, so host noise falls on both alike; the first
	// runs untraced (its tick percentiles are the reported ones), the
	// second under spans. The CPU profile covers both.
	ticks = max(ticks/2, 1)
	na, ra, _ := newFleet(c, o, nil)
	tr := newTracer()
	nb, rb, _ := newFleet(c, o, tr)
	settle()
	fa, fb := startFleetRun(na, ra, ticks, nil), startFleetRun(nb, rb, ticks, tr)
	g0 := readGoStats()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	for i := 0; i < ticks; i++ {
		fa.step()
		fb.step()
	}
	prof.stop()
	g1 := readGoStats()
	shares, err := prof.shares()
	if err != nil {
		return nil, err
	}
	ca, cb := fa.finish(res), fb.finish(res)
	if ca != cb {
		res.fail(2*ticks, "same seed, same ticks, different network counts between the untraced and traced phases")
	}
	v := res.vals
	newS, _, _ := tr.total("netsim.New")
	v["netsim.new_s"] = newS.Seconds()
	v["netsim.tick_us_p50"] = quantile(fa.tickUS, 0.50)
	v["netsim.tick_us_p99"] = quantile(fa.tickUS, 0.99)
	v["netsim.transmit_ns"] = tr.perWork("netsim.Network.Transmit", time.Nanosecond)
	v["netsim.filesize_ns"] = tr.perWork("netsim.Network.FileSize", time.Nanosecond)
	stepD, _, _ := tr.total("fleet.step")
	scanD, _, _ := tr.total("bench.scan")
	planD, _, _ := tr.total("bench.plan")
	if stepD > 0 {
		v["bench.responder_frac"] = float64(scanD+planD) / float64(stepD)
	}
	v["trace_overhead_pct"] = overheadPct(fa.rate(), fb.rate())
	v["go.gc_cpu_frac"] = gcFrac(g0, g1)
	v["go.alloc_bytes_per_op"] = float64(g1.allocBytes-g0.allocBytes) / float64(2*ticks)
	putCPUShares(v, shares)
	v["netsim.requests"] = float64(cb.requests)
	v["netsim.completed"] = float64(cb.completed)
	v["netsim.retransmits"] = float64(cb.retransmits)
	v["netsim.arrivals_per_tick"] = float64(cb.requests) / float64(ticks)
	v["netsim.latency_p99_ticks"] = float64(cb.latencyP99)
	res.note("%-28s n=%d ticks", "netsim.tick_us samples", ticks)
	return res, writeTrace(tr, o, "fleet-1m", res)
}
