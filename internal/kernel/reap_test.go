package kernel

import (
	"testing"

	"repro/internal/sys"
)

// TestCrashTeardownTouchesOnlyOwnedSockets pins the O(owned) complexity of
// crash cleanup: with 100k idle sockets owned by a healthy worker, reaping a
// dead thread visits exactly the dead thread's descriptors — the intrusive
// owned-socket list replaces the old full-table scan, and t.sock replaces
// the old every-waiter-queue sweep.
func TestCrashTeardownTouchesOnlyOwnedSockets(t *testing.T) {
	const bulk = 100_000
	cfg := netCfg()
	cfg.SocketTableSize = 1 << 18
	cfg.AcceptBacklog = 1 << 18
	cfg.FDLimit = 1 << 18
	k := New(cfg)
	survivor := k.threads[0]

	// 100k accepted, idle connections owned by the surviving thread.
	openFrames(k, bulk)
	for i := 0; i < bulk; i++ {
		accept(t, k, survivor)
	}

	// A second thread owns three data connections plus one quiet one it is
	// blocked reading (exercises the t.sock waiter-removal path too).
	dead := &Thread{tid: 4242, sock: -1}
	k.threads = append(k.threads, dead)
	k.deliverFrames([]Frame{
		{Conn: bulk + 1, Bytes: 300, Open: true},
		{Conn: bulk + 2, Bytes: 300, Open: true},
		{Conn: bulk + 3, Bytes: 300, Open: true},
		{Conn: bulk + 4, Open: true}, // bare SYN: no request bytes yet
	})
	deadSids := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		deadSids = append(deadSids, accept(t, k, dead))
	}
	quiet := deadSids[3]
	if _, block := k.syscallEffect(dead, sys.Request{
		Num: sys.SysRead, Resource: sys.ResNet, FD: quiet, Blocking: true,
	}); !block {
		t.Fatal("read on the quiet socket did not block")
	}
	if dead.sock != quiet {
		t.Fatalf("blocked reader's t.sock = %d, want %d", dead.sock, quiet)
	}

	before := k.net.sockInUse()
	visited := k.reapSockets(dead)
	if visited != len(deadSids) {
		t.Fatalf("crash teardown visited %d sockets, want exactly the %d owned by the dead thread",
			visited, len(deadSids))
	}
	if got := before - k.net.sockInUse(); got != len(deadSids) {
		t.Fatalf("teardown freed %d sockets, want %d", got, len(deadSids))
	}
	for _, sid := range deadSids {
		if !k.net.socks[sid].free {
			t.Fatalf("dead thread's socket %d not recycled", sid)
		}
	}
	if dead.sock != -1 || dead.fds != 0 || dead.ownHead != 0 {
		t.Fatalf("dead thread state not cleared: sock=%d fds=%d ownHead=%d",
			dead.sock, dead.fds, dead.ownHead)
	}
	if len(k.net.socks[quiet].waiters) != 0 {
		t.Fatal("dead thread still parked on a waiter queue")
	}
	// The survivor's fleet is untouched.
	if survivor.fds != bulk {
		t.Fatalf("survivor lost descriptors: fds=%d, want %d", survivor.fds, bulk)
	}
	if _, ok := k.net.byConn.Get(1); !ok {
		t.Fatal("survivor's connection lost its demux entry")
	}
}

// TestIdleReapFinsAscending pins the idle reaper's teardown order on a
// socket table past one DueSet summary word (4096 ids): the batch that
// fires at tick 3 comes off the wheel out of id order — sockets accepted at
// tick 1 first, then older sockets whose entries re-armed lazily at tick 2 —
// yet the FINs must leave in ascending socket id order, as the table scan
// sent them, and a kernel restored just before must do the same.
func TestIdleReapFinsAscending(t *testing.T) {
	const old, fresh = 4000, 200
	cfg := netCfg()
	cfg.IdleTimeoutTicks = 2
	cfg.SocketTableSize = 1 << 13
	cfg.AcceptBacklog = 1 << 13
	cfg.FDLimit = 1 << 13
	k := New(cfg)
	nic := &scriptNIC{}
	k.SetNIC(nic)
	owner := k.threads[0]

	openFrames(k, old) // conns 1..old, sockets 1..old, idle deadline 2
	for i := 0; i < old; i++ {
		accept(t, k, owner)
	}
	k.net.tick(1)
	k.reapIdle()
	touch := make([]Frame, 0, old+fresh)
	for c := 1; c <= old; c++ {
		touch = append(touch, Frame{Conn: c, Bytes: 10})
	}
	for c := old + 1; c <= old+fresh; c++ {
		touch = append(touch, Frame{Conn: c, Bytes: 300, Open: true})
	}
	k.deliverFrames(touch)
	for i := 0; i < fresh; i++ {
		accept(t, k, owner) // idle deadline 3, scheduled at tick 1
	}
	k.net.tick(2)
	k.reapIdle() // old sockets were active at tick 1: re-arm to 3
	if len(nic.sent) != 0 {
		t.Fatalf("reaped %d sockets before their timeout", len(nic.sent))
	}
	// A kernel restored here rebuilds its idle wheel and DueSet from the
	// socket table; it must reap the same sockets in the same order.
	k2 := New(cfg)
	if _, err := k2.RestoreState(k.Snapshot(), nil); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	nic2 := &scriptNIC{}
	k2.SetNIC(nic2)
	for _, run := range []struct {
		name string
		k    *Kernel
		nic  *scriptNIC
	}{{"live", k, nic}, {"restored", k2, nic2}} {
		name := run.name
		run.k.net.tick(3)
		run.k.reapIdle()
		if len(run.nic.sent) != old+fresh {
			t.Fatalf("%s: reaped %d sockets at tick 3, want %d", name, len(run.nic.sent), old+fresh)
		}
		for i, fr := range run.nic.sent {
			if !fr.Close || fr.Conn != i+1 {
				t.Fatalf("%s: FIN %d went to conn %d (close=%v), want conn %d: not ascending", name, i, fr.Conn, fr.Close, i+1)
			}
		}
	}
}
