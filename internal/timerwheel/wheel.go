// Package timerwheel is a deterministic hierarchical timer wheel keyed on
// the simulation's 10 ms network ticks.
//
// It is the event-driven substrate of the million-client network layer (see
// DESIGN.md, "Event-driven netsim"): instead of scanning the whole client
// fleet (or socket table) every tick, timers are hashed into slots and each
// tick touches only the entries that actually fire or cascade, so per-tick
// cost is O(expiring), independent of the dormant population.
//
// Determinism contract:
//   - No maps, no randomness, no wall clock: slot placement is pure
//     arithmetic on the tick value.
//   - Entries within a slot keep FIFO insertion order and cascades preserve
//     it, so the fire order of same-deadline entries is a pure function of
//     the schedule order. Callers that need a canonical order (the netsim
//     client scan runs in ascending client index) add the fired IDs to a
//     DueSet and drain them in ascending order, so no fired batch is ever
//     sorted.
//   - Advance reuses one internal scratch buffer; nothing on the
//     schedule/advance path allocates in steady state beyond amortized slot
//     growth (the hotalloc analyzer pins this — see ANALYSIS.md).
//
// The wheel is deliberately not serialized: checkpoint users rebuild it from
// their own serialized deadlines on restore (canonical re-arm), which keeps
// the checkpoint format independent of the wheel's internal layout. Stale
// entries are the caller's concern: the convention is to stamp each object
// with its earliest scheduled tick and skip fired entries that no longer
// match (see netsim's client.wakeAt and the kernel's socket.idleWakeAt).
package timerwheel

const (
	slotBits = 8
	numSlots = 1 << slotBits // 256 slots per level
	slotMask = numSlots - 1
	// levels covers deadlines up to 2^32 ticks past now; anything further
	// parks in the overflow list and re-files when the top level wraps.
	levels = 4
)

// horizon is the furthest relative deadline the leveled slots can hold.
const horizon = uint64(1) << (slotBits * levels)

// Entry is one scheduled timer: an opaque id firing at tick Due.
type Entry struct {
	Due uint64
	ID  int32
}

// Wheel is a hierarchical timer wheel.
type Wheel struct {
	now      uint64
	slots    [levels][numSlots][]Entry
	overflow []Entry // deadlines beyond the wheel horizon
	fired    []Entry // scratch returned by Advance, valid until the next call
	n        int     // live entries (stale ones not yet fired included)
}

// New returns a wheel whose clock starts at now: the first advanceable tick
// is now+1.
func New(now uint64) *Wheel {
	w := &Wheel{}
	w.now = now
	return w
}

// Now returns the wheel's current tick.
func (w *Wheel) Now() uint64 { return w.now }

// Len returns the number of scheduled entries, stale ones included.
func (w *Wheel) Len() int { return w.n }

// Schedule inserts an entry firing at tick due. Deadlines at or before the
// current tick are clamped to now+1 (the next advance): a past deadline
// means "fire at the next opportunity", which is what a full scan would
// have done with it.
func (w *Wheel) Schedule(due uint64, id int32) {
	if due <= w.now {
		due = w.now + 1
	}
	w.n++
	w.place(Entry{Due: due, ID: id})
}

// place files an entry into the level whose resolution matches its distance
// from now, preserving FIFO order within the slot. Level l holds deltas in
// (256^l - 1, 256^(l+1) - 1]; the sub-slot remainder rides along and
// resolves when the entry cascades down.
func (w *Wheel) place(e Entry) {
	delta := e.Due - w.now
	if delta >= horizon {
		w.overflow = append(w.overflow, e)
		return
	}
	for l := 0; l < levels; l++ {
		if delta < uint64(1)<<(slotBits*(l+1)) {
			idx := (e.Due >> (slotBits * l)) & slotMask
			w.slots[l][idx] = append(w.slots[l][idx], e)
			return
		}
	}
	w.overflow = append(w.overflow, e)
}

// Advance moves the clock to tick `to` (>= now) and returns every entry with
// deadline <= to, grouped by deadline in firing order and FIFO within one
// deadline. The returned slice is internal scratch, valid until the next
// Advance call.
func (w *Wheel) Advance(to uint64) []Entry {
	w.fired = w.fired[:0]
	for w.now < to {
		w.now++
		t := w.now
		// Cascade a higher level's slot down when all lower digits of t
		// wrap to zero. An entry placed at level l has delta >= 256^l, so
		// its cascade tick floor(due/256^l)*256^l is strictly after its
		// placement tick: a cascade is never missed.
		for l := 1; l < levels; l++ {
			if t&(uint64(1)<<(slotBits*l)-1) != 0 {
				break
			}
			idx := (t >> (slotBits * l)) & slotMask
			w.cascade(&w.slots[l][idx])
			if l == levels-1 && idx == 0 {
				// The whole wheel wrapped: pull the overflow back in.
				w.cascade(&w.overflow)
			}
		}
		// Every entry in the current level-0 slot is due exactly now: level
		// 0 holds deltas <= 255, which fire before the slot index can
		// recur.
		slot := &w.slots[0][t&slotMask]
		w.fired = append(w.fired, *slot...)
		w.n -= len(*slot)
		*slot = (*slot)[:0]
	}
	return w.fired
}

// cascade re-files one higher-level slot (or the overflow list) relative to
// the new now, preserving FIFO order. Entries due exactly now land in the
// current level-0 slot, which Advance drains immediately after.
func (w *Wheel) cascade(slot *[]Entry) {
	pending := *slot
	*slot = (*slot)[:0]
	for _, e := range pending {
		w.place(e)
	}
}

// Reset empties the wheel and restarts its clock at now. Checkpoint restore
// uses it before canonically re-arming from serialized deadlines.
func (w *Wheel) Reset(now uint64) {
	for l := range w.slots {
		for i := range w.slots[l] {
			w.slots[l][i] = w.slots[l][i][:0]
		}
	}
	w.overflow = w.overflow[:0]
	w.fired = w.fired[:0]
	w.n = 0
	w.now = now
}
