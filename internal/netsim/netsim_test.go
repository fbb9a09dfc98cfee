package netsim

import (
	"testing"

	"repro/internal/kernel"
)

func TestRequestsIssueAtTicks(t *testing.T) {
	n := New(Config{Clients: 4, Seed: 1, RequestBytes: 200})
	frames := n.Tick(0)
	if len(frames) != 4 {
		t.Fatalf("tick 1 issued %d frames, want 4", len(frames))
	}
	for _, f := range frames {
		if !f.Open || f.Bytes != 200 {
			t.Fatalf("bad request frame: %+v", f)
		}
	}
	if n.Requests != 4 || n.Outstanding() != 4 {
		t.Fatalf("requests=%d outstanding=%d", n.Requests, n.Outstanding())
	}
	// Waiting clients don't reissue.
	if more := n.Tick(1); len(more) != 0 {
		t.Fatalf("waiting clients issued %d more frames", len(more))
	}
}

func TestResponseCompletesAndThinks(t *testing.T) {
	n := New(Config{Clients: 1, Seed: 2, ThinkTicks: 1})
	frames := n.Tick(0)
	conn := frames[0].Conn
	want := n.FileSize(conn)
	if want <= 0 {
		t.Fatal("no file size registered")
	}
	n.Transmit(kernel.Frame{Conn: conn, Bytes: want}, 0)
	if n.Completed != 1 {
		t.Fatalf("completed = %d", n.Completed)
	}
	if n.FileSize(conn) != 0 {
		t.Fatal("file registration not cleaned up")
	}
	// Think time: no new request on the very next tick (pending TCP acks
	// may flush, but no Open frame).
	for _, fr := range n.Tick(1) {
		if fr.Open {
			t.Fatal("client ignored think time")
		}
	}
	// Acks for the received segment flush on the next tick, then a new
	// request once think time passes.
	var sawNew bool
	for i := uint64(2); i < 5 && !sawNew; i++ {
		for _, fr := range n.Tick(i) {
			if fr.Open {
				sawNew = true
			}
		}
	}
	if !sawNew {
		t.Fatal("client never issued its next request")
	}
}

func TestPartialResponseAccumulates(t *testing.T) {
	n := New(Config{Clients: 1, Seed: 3})
	frames := n.Tick(0)
	conn := frames[0].Conn
	want := n.FileSize(conn)
	n.Transmit(kernel.Frame{Conn: conn, Bytes: want / 2}, 0)
	if n.Completed != 0 {
		t.Fatal("half a response completed the request")
	}
	n.Transmit(kernel.Frame{Conn: conn, Bytes: want - want/2}, 0)
	if n.Completed != 1 {
		t.Fatal("full response did not complete")
	}
}

func TestCloseCompletes(t *testing.T) {
	n := New(Config{Clients: 1, Seed: 4})
	frames := n.Tick(0)
	conn := frames[0].Conn
	n.Transmit(kernel.Frame{Conn: conn, Close: true}, 0)
	if n.Completed != 1 {
		t.Fatal("close did not complete the request")
	}
}

func TestFileMixFollowsSPECWebClasses(t *testing.T) {
	n := New(Config{Clients: 1, Seed: 5})
	counts := [4]int{}
	for i := 0; i < 20000; i++ {
		s := n.sampleFile()
		counts[classOf(s)]++
		if s < 100 || s > 900_000 {
			t.Fatalf("file size %d outside SPECWeb range", s)
		}
	}
	// 35/50/14/1 mix with slack.
	if counts[0] < 5000 || counts[1] < 8000 || counts[2] < 1500 {
		t.Fatalf("class counts off: %v", counts)
	}
	if counts[3] == 0 || counts[3] > 600 {
		t.Fatalf("class 3 count %d, want ~1%%", counts[3])
	}
}

func TestDeterministicDriver(t *testing.T) {
	run := func() uint64 {
		n := New(Config{Clients: 8, Seed: 9})
		var sum uint64
		for i := uint64(0); i < 50; i++ {
			frames := n.Tick(i)
			for _, f := range frames {
				sum += uint64(f.Bytes) + uint64(f.Conn)
				n.Transmit(kernel.Frame{Conn: f.Conn, Bytes: n.FileSize(f.Conn)}, i)
			}
		}
		return sum + n.Completed
	}
	if run() != run() {
		t.Fatal("driver nondeterministic")
	}
}

func TestDefaultsApplied(t *testing.T) {
	n := New(Config{})
	if len(n.clients) != 128 || n.cfg.RequestBytes != 300 {
		t.Fatalf("defaults not applied: %d clients, %d bytes", len(n.clients), n.cfg.RequestBytes)
	}
}

func TestKeepAliveConnectionsReused(t *testing.T) {
	n := New(Config{Clients: 1, Seed: 6, RequestsPerConn: 3})
	served := 0
	opens, closes := 0, 0
	reusedConn := -1
	for tick := uint64(0); tick < 20 && n.Completed < 3; tick++ {
		for _, fr := range n.Tick(tick) {
			switch {
			case fr.Ack:
			case fr.Close:
				closes++
			case fr.Open:
				opens++
				reusedConn = fr.Conn
				n.Transmit(kernel.Frame{Conn: fr.Conn, Bytes: n.FileSize(fr.Conn)}, tick)
				served++
			default: // next request on the kept-alive connection
				if fr.Conn != reusedConn {
					t.Fatalf("request on unexpected conn %d (want %d)", fr.Conn, reusedConn)
				}
				n.Transmit(kernel.Frame{Conn: fr.Conn, Bytes: n.FileSize(fr.Conn)}, tick)
				served++
			}
		}
	}
	if n.Completed != 3 || served != 3 {
		t.Fatalf("completed=%d served=%d, want 3", n.Completed, served)
	}
	if opens != 1 {
		t.Fatalf("opens = %d, want 1 (connection reuse)", opens)
	}
	// The FIN arrives with (or before) the next request cycle.
	sawClose := closes > 0
	for tick := uint64(20); tick < 26 && !sawClose; tick++ {
		for _, fr := range n.Tick(tick) {
			if fr.Close {
				sawClose = true
			}
		}
	}
	if !sawClose {
		t.Fatal("client never closed the kept-alive connection")
	}
}

// TestTickZeroAlloc pins the event-driven tick at zero allocations once
// warm, dynamically, next to the static hotalloc root on Tick: a 100k-client
// staggered fleet (250 arrivals per tick) answered by a responder that
// keeps its state in preallocated slices.
func TestTickZeroAlloc(t *testing.T) {
	const clients, stagger = 100_000, 400
	n := New(Config{Clients: clients, Seed: 7, RequestBytes: 300, ThinkTicks: stagger, StaggerTicks: stagger})
	n.SetReferenceScan(false)
	type resp struct{ conn, left int }
	active := make([]resp, 0, 1<<14)
	tick := uint64(0)
	step := func() {
		tick++
		for _, fr := range n.Tick(tick) {
			if fr.Open && fr.Bytes > 0 {
				active = append(active, resp{fr.Conn, n.FileSize(fr.Conn)})
			}
		}
		kept := active[:0]
		for _, r := range active {
			for seg := 0; seg < 2 && r.left > 0; seg++ {
				chunk := min(1460, r.left)
				r.left -= chunk
				n.Transmit(kernel.Frame{Conn: r.conn, Bytes: chunk}, 0)
			}
			if r.left > 0 {
				kept = append(kept, r)
			}
		}
		active = kept
	}
	for i := 0; i < 4*stagger; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(400, step); avg != 0 {
		t.Fatalf("warm Tick allocates %.3f times per tick, want 0", avg)
	}
	if n.Completed == 0 {
		t.Fatal("no request completed: the fleet never reached steady state")
	}
}
