// Checkpoint serialization for the kernel: threads, per-context generation
// state (including mid-flight generation stacks), the network stack, the
// codebase walkers, and every counter. Pointers (threads, walkers) are
// serialized as identifiers — TIDs for threads, (region, context) pairs for
// kernel-code walkers — and relinked on restore.
package kernel

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sort"

	"repro/internal/flatmap"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sys"
	"repro/internal/workload"
)

// Generation-stack entry wrappers and generator sources (see GenSnap).
const (
	wrapNone uint8 = iota // bare *workload.Limit
	wrapTail              // *workload.Tail (optionally around a Limit)
	wrapMode              // *modeForce around a Limit
)

const (
	srcRegion uint8 = iota // Limit around a kernel-code region walker
	srcProg                // Limit around a user program's walker
)

// GenSnap is the serialized form of one generation-stack entry. The walker a
// Limit draws from is identified either by kernel region name plus walker
// index (srcRegion) or by the owning thread (srcProg); the walker's own
// state is serialized elsewhere (CodeWalkers / ThreadSnap).
type GenSnap struct {
	Wrap     uint8
	Mode     isa.Mode   // wrapMode: forced instruction mode
	Extra    []isa.Inst // wrapTail: trailing instructions
	TailPos  int        // wrapTail: next Extra index
	HasInner bool       // an inner Limit exists (Tail may have drained its G)
	Src      uint8
	Region   string // srcRegion: region name
	WCtx     int    // srcRegion: walker index within the region
	TID      uint32 // srcProg: owning thread
	N        uint64 // remaining Limit budget
	Tmpl     pipeline.FedInst
	Done     action
}

// ProgSnap is the serialized form of a user program: identity for the
// factory rebuild, walker state, and the gob-encoded script state.
type ProgSnap struct {
	Name   string
	Slot   int
	Walker workload.WalkerSnap
	State  []byte
}

// ThreadSnap is the serialized form of one thread.
type ThreadSnap struct {
	TID        uint32
	PID        uint64
	ASN        uint16
	Kind       uint8
	State      uint8
	Burst      uint64
	SinceSched uint64
	LastCtx    int
	HasWake    bool
	WakeReq    sys.Request
	WakeResult int
	Sock       int
	Worker     bool
	Released   bool
	FDs        int
	Slot       int
	HasProg    bool
	Prog       ProgSnap
}

// FeedSnap is the serialized form of one context's generation state.
type FeedSnap struct {
	Buf            []pipeline.FedInst
	Base           uint64
	Stack          []GenSnap
	CurTID         uint32 // 0 = none
	IdleTID        uint32
	Paused         bool
	PendingReq     sys.Request
	SyscallRetired bool
	IntrNet        bool
}

// SocketSnap is the serialized form of one kernel socket. AcceptQ holds
// only the live window acceptQ[acceptHead:]; the head index is normalized
// away.
type SocketSnap struct {
	ID         int
	Listen     bool
	Conn       int
	AcceptQ    []int
	Data       int
	Closed     bool
	Waiters    []uint32
	Owner      uint32
	LastActive uint64
	ReqBytes   int
	Served     bool
	Free       bool
}

// NetSnap is the serialized form of the kernel network stack.
type NetSnap struct {
	Socks     []SocketSnap
	ByConn    []ConnSock // sorted by Conn
	SockFree  []int      // socket-table freelist, LIFO order preserved
	Pending   []Frame
	Now       uint64
	Ticks     uint64
	Delivered uint64
	Dropped   uint64
}

// ConnSock is one connection-id-to-socket-id mapping.
type ConnSock struct {
	Conn, Sock int
}

// CodeWalkerSnap is the state of one kernel-code walker.
type CodeWalkerSnap struct {
	Region string
	Ctx    int
	W      workload.WalkerSnap
}

// Snapshot is the kernel's complete mutable state.
type Snapshot struct {
	RNG         [4]uint64
	Mem         mem.Snapshot
	CodeWalkers []CodeWalkerSnap
	Threads     []ThreadSnap
	RunQ        []uint32
	Feeds       []FeedSnap
	Net         NetSnap

	NextASN  uint16
	ASNEpoch uint64
	NextTID  uint32
	NextPID  uint64
	RRIntCtx int
	LastTick uint64

	ContextSwitches uint64
	Preemptions     uint64
	SyscallCount    [sys.NumSyscalls]uint64
	VMFaults        [3]uint64
	ASNRecycles     uint64
	ClockInterrupts uint64
	NetInterrupts   uint64
	IdleScheduled   uint64
	SvcInstByRes    [5]uint64
	LockHolder      [5]uint32
	LockContentions uint64
	SpinInsts       uint64
	DiskReads       uint64
	WorkerCrashes   uint64
	WorkerRespawns  uint64
	ConnsRefused    uint64
	ReapedIdle      uint64
	ReapedSlowloris uint64

	// Finite-resource state: process table, effective (possibly squeezed)
	// pool capacities, and the exhaustion counters/gauges.
	ProcSlots       []uint32
	ProcFree        []int // process-table freelist, LIFO order preserved
	LiveUsers       int
	PendingRespawns int
	SockCapEff      int
	MbufCapEff      int
	FDLimEff        int
	ProcCapEff      int
	Squeezed        bool
	SockPoolRejects uint64
	MbufDrops       uint64
	FDRejects       uint64
	ForkRejects     uint64
	SockHighwater   int
	MbufHighwater   int
}

// ProgFactory rebuilds the structure of a user program identified by
// (name, slot); the checkpoint layer then overwrites its walker and script
// state. core provides one per workload.
type ProgFactory func(name string, slot int) *workload.ScriptProgram

// Snapshot captures the kernel's mutable state.
func (k *Kernel) Snapshot() Snapshot {
	s := Snapshot{
		RNG:             k.rng.State(),
		Mem:             k.Mem.Snapshot(),
		NextASN:         k.nextASN,
		ASNEpoch:        k.asnEpoch,
		NextTID:         k.nextTID,
		NextPID:         k.nextPID,
		RRIntCtx:        k.rrIntCtx,
		LastTick:        k.lastTick,
		ContextSwitches: k.ContextSwitches,
		Preemptions:     k.Preemptions,
		SyscallCount:    k.SyscallCount,
		VMFaults:        k.VMFaults,
		ASNRecycles:     k.ASNRecycles,
		ClockInterrupts: k.ClockInterrupts,
		NetInterrupts:   k.NetInterrupts,
		IdleScheduled:   k.IdleScheduled,
		SvcInstByRes:    k.SvcInstByRes,
		LockHolder:      k.lockHolder,
		LockContentions: k.LockContentions,
		SpinInsts:       k.SpinInsts,
		DiskReads:       k.DiskReads,
		WorkerCrashes:   k.WorkerCrashes,
		WorkerRespawns:  k.WorkerRespawns,
		ConnsRefused:    k.ConnsRefused,
		ReapedIdle:      k.ReapedIdle,
		ReapedSlowloris: k.ReapedSlowloris,
		ProcSlots:       append([]uint32(nil), k.procSlots...),
		ProcFree:        append([]int(nil), k.procFree...),
		LiveUsers:       k.liveUsers,
		PendingRespawns: k.pendingRespawns,
		SockCapEff:      k.sockCapEff,
		MbufCapEff:      k.mbufCapEff,
		FDLimEff:        k.fdLimEff,
		ProcCapEff:      k.procCapEff,
		Squeezed:        k.squeezed,
		SockPoolRejects: k.SockPoolRejects,
		MbufDrops:       k.MbufDrops,
		FDRejects:       k.FDRejects,
		ForkRejects:     k.ForkRejects,
		SockHighwater:   k.SockHighwater,
		MbufHighwater:   k.MbufHighwater,
	}

	// Kernel-code walkers, in deterministic (region, ctx) order.
	names := make([]string, 0, len(k.code.byName))
	for name := range k.code.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	regionOf := map[*workload.Walker]CodeWalkerSnap{}
	for _, name := range names {
		rw := k.code.byName[name]
		for c, w := range rw.ws {
			s.CodeWalkers = append(s.CodeWalkers, CodeWalkerSnap{Region: name, Ctx: c, W: w.Snapshot()})
			regionOf[w] = CodeWalkerSnap{Region: name, Ctx: c}
		}
	}
	progOf := map[*workload.Walker]uint32{}
	for _, t := range k.threads {
		if t.prog != nil {
			progOf[t.prog.Walker()] = t.tid
		}
	}

	for _, t := range k.threads {
		ts := ThreadSnap{
			TID: t.tid, PID: t.pid, ASN: t.asn,
			Kind: uint8(t.kind), State: uint8(t.state),
			Burst: t.burst, SinceSched: t.sinceSched, LastCtx: t.lastCtx,
			WakeResult: t.wakeResult, Sock: t.sock, Worker: t.worker,
			Released: t.released, FDs: t.fds, Slot: t.slot,
		}
		if t.wakeReq != nil {
			ts.HasWake = true
			ts.WakeReq = *t.wakeReq
		}
		if t.prog != nil {
			sp, ok := t.prog.(*workload.ScriptProgram)
			if !ok {
				panic(fmt.Sprintf("kernel: thread %d runs a non-script program %T", t.tid, t.prog))
			}
			ts.HasProg = true
			ts.Prog = ProgSnap{
				Name:   sp.ProgName,
				Slot:   sp.Slot,
				Walker: sp.W.Snapshot(),
				State:  encodeProgState(sp.State),
			}
		}
		s.Threads = append(s.Threads, ts)
	}
	for _, t := range k.runQ {
		s.RunQ = append(s.RunQ, t.tid)
	}

	s.Feeds = make([]FeedSnap, len(k.feeds))
	for i := range k.feeds {
		f := &k.feeds[i]
		fs := &s.Feeds[i]
		fs.Buf = append([]pipeline.FedInst(nil), f.buf[f.head:]...)
		fs.Base = f.base
		fs.Paused = f.paused
		fs.PendingReq = f.pendingReq
		fs.SyscallRetired = f.syscallRetired
		fs.IntrNet = f.intrNet
		if f.cur != nil {
			fs.CurTID = f.cur.tid
		}
		if f.idle != nil {
			fs.IdleTID = f.idle.tid
		}
		for _, e := range f.stack {
			fs.Stack = append(fs.Stack, snapGen(e, regionOf, progOf))
		}
	}

	ns := k.net
	s.Net = NetSnap{Pending: append([]Frame(nil), ns.pending...), Now: ns.now,
		Ticks: ns.ticks, Delivered: ns.Delivered, Dropped: ns.Dropped,
		SockFree: append([]int(nil), ns.sockFree...)}
	for _, so := range ns.socks {
		ss := SocketSnap{
			ID: so.id, Listen: so.listen, Conn: so.conn,
			AcceptQ: append([]int(nil), so.acceptQ[so.acceptHead:]...),
			Data:    so.data, Closed: so.closed, Owner: so.owner,
			LastActive: so.lastActive, ReqBytes: so.reqBytes, Served: so.served,
			Free: so.free,
		}
		for _, w := range so.waiters {
			ss.Waiters = append(ss.Waiters, w.tid)
		}
		s.Net.Socks = append(s.Net.Socks, ss)
	}
	ns.byConn.Range(func(conn, sock int) {
		s.Net.ByConn = append(s.Net.ByConn, ConnSock{Conn: conn, Sock: sock})
	})
	sort.Slice(s.Net.ByConn, func(i, j int) bool { return s.Net.ByConn[i].Conn < s.Net.ByConn[j].Conn })
	return s
}

// snapGen serializes one generation-stack entry. The generator shapes are a
// closed set (see the push sites in feed.go and net.go): a Limit over a
// walker, optionally wrapped in a Tail or a modeForce.
func snapGen(e genEntry, regionOf map[*workload.Walker]CodeWalkerSnap, progOf map[*workload.Walker]uint32) GenSnap {
	s := GenSnap{Tmpl: e.tmpl, Done: e.done}
	var inner *workload.Limit
	switch g := e.g.(type) {
	case *workload.Limit:
		s.Wrap = wrapNone
		inner = g
	case *workload.Tail:
		s.Wrap = wrapTail
		s.Extra = append([]isa.Inst(nil), g.Extra...)
		s.TailPos = g.Pos
		if g.G != nil {
			inner, _ = g.G.(*workload.Limit)
			if inner == nil {
				panic(fmt.Sprintf("kernel: unsnapshotable tail inner generator %T", g.G))
			}
		}
	case *modeForce:
		s.Wrap = wrapMode
		s.Mode = g.mode
		inner, _ = g.g.(*workload.Limit)
		if inner == nil {
			panic(fmt.Sprintf("kernel: unsnapshotable modeForce inner generator %T", g.g))
		}
	default:
		panic(fmt.Sprintf("kernel: unsnapshotable generator %T", e.g))
	}
	if inner == nil {
		return s
	}
	s.HasInner = true
	s.N = inner.N
	w, ok := inner.G.(*workload.Walker)
	if !ok {
		panic(fmt.Sprintf("kernel: unsnapshotable limit source %T", inner.G))
	}
	if ref, ok := regionOf[w]; ok {
		s.Src = srcRegion
		s.Region = ref.Region
		s.WCtx = ref.Ctx
		return s
	}
	if tid, ok := progOf[w]; ok {
		s.Src = srcProg
		s.TID = tid
		return s
	}
	panic("kernel: stack walker is neither kernel code nor a program")
}

// RestoreState overwrites the kernel's mutable state from a snapshot taken
// on a kernel with the same configuration. User programs are rebuilt through
// factory and their walker/script state overwritten; it returns the restored
// programs in thread order so the caller can rebuild its own program list.
func (k *Kernel) RestoreState(s Snapshot, factory ProgFactory) ([]*workload.ScriptProgram, error) {
	if len(s.Feeds) != len(k.feeds) {
		return nil, fmt.Errorf("kernel: snapshot has %d contexts, kernel has %d", len(s.Feeds), len(k.feeds))
	}
	k.rng.SetState(s.RNG)
	k.Mem.Restore(s.Mem)
	for _, cw := range s.CodeWalkers {
		rw := k.code.byName[cw.Region]
		if rw == nil || cw.Ctx < 0 || cw.Ctx >= len(rw.ws) {
			return nil, fmt.Errorf("kernel: snapshot references unknown code walker %s/%d", cw.Region, cw.Ctx)
		}
		rw.ws[cw.Ctx].Restore(cw.W)
	}

	var progs []*workload.ScriptProgram
	k.threads = k.threads[:0]
	for _, ts := range s.Threads {
		t := &Thread{
			tid: ts.TID, pid: ts.PID, asn: ts.ASN,
			kind: threadKind(ts.Kind), state: threadState(ts.State),
			burst: ts.Burst, sinceSched: ts.SinceSched, lastCtx: ts.LastCtx,
			wakeResult: ts.WakeResult, sock: ts.Sock, worker: ts.Worker,
			released: ts.Released, fds: ts.FDs, slot: ts.Slot,
		}
		if ts.HasWake {
			t.wakeReq = &sys.Request{}
			*t.wakeReq = ts.WakeReq
		}
		if ts.HasProg {
			prog := factory(ts.Prog.Name, ts.Prog.Slot)
			if prog == nil {
				return nil, fmt.Errorf("kernel: no factory rebuild for program %q slot %d", ts.Prog.Name, ts.Prog.Slot)
			}
			prog.W.Restore(ts.Prog.Walker)
			if err := decodeProgState(ts.Prog.State, prog.State); err != nil {
				return nil, fmt.Errorf("kernel: program %q slot %d state: %w", ts.Prog.Name, ts.Prog.Slot, err)
			}
			t.prog = prog
			progs = append(progs, prog)
		}
		k.threads = append(k.threads, t)
	}

	k.runQ = k.runQ[:0]
	for _, tid := range s.RunQ {
		t := k.threadByTID(tid)
		if t == nil {
			return nil, fmt.Errorf("kernel: run queue references unknown thread %d", tid)
		}
		k.runQ = append(k.runQ, t)
	}

	for i := range k.feeds {
		f := &k.feeds[i]
		fs := &s.Feeds[i]
		f.buf = append(f.buf[:0], fs.Buf...)
		f.head = 0
		f.base = fs.Base
		f.paused = fs.Paused
		f.pendingReq = fs.PendingReq
		f.syscallRetired = fs.SyscallRetired
		f.intrNet = fs.IntrNet
		f.cur = k.threadByTID(fs.CurTID)
		f.idle = k.threadByTID(fs.IdleTID)
		f.stack = f.stack[:0]
		for _, gs := range fs.Stack {
			e, err := k.rebuildGen(gs)
			if err != nil {
				return nil, fmt.Errorf("kernel: context %d stack: %w", i, err)
			}
			f.stack = append(f.stack, e)
		}
	}

	ns := k.net
	ns.socks = ns.socks[:0]
	for _, ss := range s.Net.Socks {
		so := &socket{
			id: ss.ID, listen: ss.Listen, conn: ss.Conn,
			acceptQ: append([]int(nil), ss.AcceptQ...),
			data:    ss.Data, closed: ss.Closed, owner: ss.Owner,
			lastActive: ss.LastActive, reqBytes: ss.ReqBytes, served: ss.Served,
			free: ss.Free,
		}
		for _, tid := range ss.Waiters {
			t := k.threadByTID(tid)
			if t == nil {
				return nil, fmt.Errorf("kernel: socket %d waiter references unknown thread %d", ss.ID, tid)
			}
			so.waiters = append(so.waiters, t)
		}
		ns.socks = append(ns.socks, so)
	}
	ns.byConn = flatmap.New(len(s.Net.ByConn))
	for _, cs := range s.Net.ByConn {
		ns.byConn.Put(cs.Conn, cs.Sock)
	}
	ns.sockFree = append(ns.sockFree[:0], s.Net.SockFree...)
	ns.pending = append(ns.pending[:0], s.Net.Pending...)
	ns.now = s.Net.Now
	ns.ticks = s.Net.Ticks
	ns.Delivered = s.Net.Delivered
	ns.Dropped = s.Net.Dropped

	// Rebuild derived network state the snapshot format knows nothing about
	// (checkpoint-by-derivation): per-thread owned-socket lists, and the
	// idle-timeout wheel. Fresh Thread/socket structs above already zeroed
	// ownHead, the intrusive links, idleWakeAt, and the dirty flag; the
	// scratch rings are always empty between cycles.
	ns.dirtyRing = ns.dirtyRing[:0]
	ns.idleDue = ns.idleDue[:0]
	ns.reapScratch = ns.reapScratch[:0]
	ns.idleSet.Grow(len(ns.socks))
	ns.idleWheel.Reset(ns.ticks)
	for _, so := range ns.socks {
		if so.free || so.listen || so.owner == 0 {
			continue
		}
		t := k.threadByTID(so.owner)
		if t == nil {
			// An orphaned socket (owner thread gone) is a state-consistency
			// problem for the auditor to flag, not a restore failure; the old
			// map-based restore tolerated it the same way.
			continue
		}
		ns.linkOwned(t, so)
		if !so.closed {
			// Canonical re-arm at lastActive+timeout: the live wheel may have
			// held a staler deadline, but a stale fire only re-arms lazily to
			// this same tick, so reap ticks are identical either way.
			k.armIdle(so)
		}
	}

	k.nextASN = s.NextASN
	k.asnEpoch = s.ASNEpoch
	k.nextTID = s.NextTID
	k.nextPID = s.NextPID
	k.rrIntCtx = s.RRIntCtx
	k.lastTick = s.LastTick
	k.ContextSwitches = s.ContextSwitches
	k.Preemptions = s.Preemptions
	k.SyscallCount = s.SyscallCount
	k.VMFaults = s.VMFaults
	k.ASNRecycles = s.ASNRecycles
	k.ClockInterrupts = s.ClockInterrupts
	k.NetInterrupts = s.NetInterrupts
	k.IdleScheduled = s.IdleScheduled
	k.SvcInstByRes = s.SvcInstByRes
	k.lockHolder = s.LockHolder
	k.LockContentions = s.LockContentions
	k.SpinInsts = s.SpinInsts
	k.DiskReads = s.DiskReads
	k.WorkerCrashes = s.WorkerCrashes
	k.WorkerRespawns = s.WorkerRespawns
	k.ConnsRefused = s.ConnsRefused
	k.ReapedIdle = s.ReapedIdle
	k.ReapedSlowloris = s.ReapedSlowloris
	k.procSlots = append(k.procSlots[:0], s.ProcSlots...)
	k.procFree = append(k.procFree[:0], s.ProcFree...)
	k.liveUsers = s.LiveUsers
	k.pendingRespawns = s.PendingRespawns
	k.sockCapEff = s.SockCapEff
	k.mbufCapEff = s.MbufCapEff
	k.fdLimEff = s.FDLimEff
	k.procCapEff = s.ProcCapEff
	k.squeezed = s.Squeezed
	k.SockPoolRejects = s.SockPoolRejects
	k.MbufDrops = s.MbufDrops
	k.FDRejects = s.FDRejects
	k.ForkRejects = s.ForkRejects
	k.SockHighwater = s.SockHighwater
	k.MbufHighwater = s.MbufHighwater
	return progs, nil
}

// rebuildGen reconstructs one generation-stack entry from its snapshot.
func (k *Kernel) rebuildGen(s GenSnap) (genEntry, error) {
	var inner *workload.Limit
	if s.HasInner {
		var w *workload.Walker
		switch s.Src {
		case srcRegion:
			rw := k.code.byName[s.Region]
			if rw == nil || s.WCtx < 0 || s.WCtx >= len(rw.ws) {
				return genEntry{}, fmt.Errorf("unknown code walker %s/%d", s.Region, s.WCtx)
			}
			w = rw.ws[s.WCtx]
		case srcProg:
			t := k.threadByTID(s.TID)
			if t == nil || t.prog == nil {
				return genEntry{}, fmt.Errorf("unknown program walker for thread %d", s.TID)
			}
			w = t.prog.Walker()
		default:
			return genEntry{}, fmt.Errorf("unknown generator source %d", s.Src)
		}
		inner = &workload.Limit{G: w, N: s.N}
	}
	e := genEntry{tmpl: s.Tmpl, done: s.Done}
	switch s.Wrap {
	case wrapNone:
		if inner == nil {
			return genEntry{}, fmt.Errorf("bare entry with no inner generator")
		}
		e.g = inner
	case wrapTail:
		tl := &workload.Tail{Extra: append([]isa.Inst(nil), s.Extra...), Pos: s.TailPos}
		if inner != nil {
			tl.G = inner
		}
		e.g = tl
	case wrapMode:
		if inner == nil {
			return genEntry{}, fmt.Errorf("modeForce entry with no inner generator")
		}
		e.g = &modeForce{g: inner, mode: s.Mode}
	default:
		return genEntry{}, fmt.Errorf("unknown generator wrapper %d", s.Wrap)
	}
	return e, nil
}

// encodeProgState gob-encodes a program's script state (nil encodes empty).
func encodeProgState(v any) []byte {
	if v == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		panic(fmt.Sprintf("kernel: encoding program state %T: %v", v, err))
	}
	return buf.Bytes()
}

// decodeProgState decodes a gob-encoded script state into the freshly built
// program's state pointer (both are pointers to the same concrete type).
func decodeProgState(b []byte, dst any) error {
	if len(b) == 0 {
		if dst != nil {
			return fmt.Errorf("snapshot has no state but program expects %T", dst)
		}
		return nil
	}
	if dst == nil {
		return fmt.Errorf("snapshot has state but program has none")
	}
	var v any
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return err
	}
	dv := reflect.ValueOf(v)
	dd := reflect.ValueOf(dst)
	if dv.Type() != dd.Type() {
		return fmt.Errorf("state type mismatch: snapshot %T, program %T", v, dst)
	}
	dd.Elem().Set(dv.Elem())
	return nil
}
