// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock by executing events in (time, sequence)
// order. On top of the raw event loop it offers a process abstraction
// (Simulator.Spawn) in which simulation logic is written as ordinary
// sequential Go code that blocks on virtual time (Proc.Sleep) or on
// one-shot signals (Proc.Wait). Exactly one process runs at any instant and
// the scheduler hands control back and forth with strict channel handshakes,
// so simulations are fully deterministic and race-free even though each
// process is backed by a goroutine.
//
// Time is modeled as float64 seconds. Event ties are broken by insertion
// order, so two events scheduled for the same instant run in the order they
// were scheduled.
//
// Event structs are pooled: an executed or compacted-away event is recycled
// for the next Schedule/At call, so steady-state scheduling does not
// allocate. Canceled events stay queued until they reach the head, but when
// they outnumber live events the queue is compacted in place, bounding its
// growth under heavy cancel/reschedule churn (the fluid re-rating pattern).
//
// Pending events are slots that hold the ordering key inline — {at, seq,
// id} — where id indexes the simulator's registry of pooled event structs.
// Slots carry no pointers, so queue operations move plain values (no GC
// write barriers) and compare keys without dereferencing an event; the
// registry is only consulted at the head, to skip canceled events and to
// run the callback. Slots wait in one of two lanes. An event scheduled for
// the current instant (zero delay: signal waiters, process steps) is
// appended to a FIFO ready lane; every other event goes into a typed 4-ary
// min-heap. The ready lane stays sorted without any sifting: its events
// share one time (the clock cannot pass them while they wait) and are
// appended in seq order. The next event is the lower of the two lane
// heads under (at, seq), a total order — seq is unique per simulator — so
// the run order is the same as with a single heap of any shape.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time = float64

// Duration is a span of virtual time, in seconds.
type Duration = float64

// event is a scheduled callback. Events are created via Simulator.Schedule
// and Simulator.At and recycled through the simulator's free list after
// they run or are compacted away; gen disambiguates a recycled struct from
// the event an old handle referred to.
type event struct {
	fn  func()
	sim *Simulator
	gen uint64
	id  uint32 // index in sim.events, fixed for the struct's lifetime
	// canceled events stay queued but are skipped at the head.
	canceled bool
}

// EventHandle allows a scheduled event to be canceled before it fires.
// The zero EventHandle is valid and canceling it is a no-op.
//
// Handles are shard-local: a handle may only be canceled from the
// goroutine currently running its simulator (an event callback or process
// of the same shard, or the coordinator between epochs). Event structs
// are pooled per shard, so the generation check below stays single-shard
// and lock-free.
type EventHandle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from running. Canceling an already-executed or
// already-canceled event is a no-op. Pooled-event reuse cannot be
// mis-canceled (the ABA case): every recycle bumps the struct's
// generation, each handle pins the generation it was issued against, and
// a mismatch makes the stale handle inert — even when the struct has been
// recycled several times, e.g. across cluster epochs where the shard
// router delivers cross-shard events into the same pool.
func (h EventHandle) Cancel() {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.canceled {
		return
	}
	ev.canceled = true
	ev.fn = nil // release the closure now; the shell stays queued
	s := ev.sim
	s.canceled++
	// Compact when cancellations dominate the queue. The threshold keeps
	// compaction amortized O(1) per cancel while bounding memory at ~2x
	// the live event count.
	if queued := s.queued(); s.canceled > queued/2 && queued >= compactMinQueue {
		s.compact()
	}
}

// compactMinQueue is the minimum queue size before cancel-triggered
// compaction kicks in; below it the wasted slots are too small to matter.
const compactMinQueue = 64

// slot is one queue entry: the ordering key of a pending event plus the
// event's index in the simulator's registry.
type slot struct {
	at  Time
	seq uint64
	id  uint32
}

// before reports whether a runs before b: earlier time, then earlier
// scheduling.
func (a slot) before(b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of slots ordered by before. A wider node
// halves the tree depth of a binary heap, and the four children of a node
// share a cache line or two, so a pop costs fewer dependent loads.
type eventQueue []slot

func (q *eventQueue) push(x slot) {
	h := append(*q, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	*q = h
}

// pop removes the head slot; the queue must not be empty.
func (q *eventQueue) pop() {
	h := *q
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		h.siftDown(0, last)
	}
	*q = h
}

// siftDown places x at index i or below, moving smaller children up.
func (h eventQueue) siftDown(i int, x slot) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// init restores the heap invariant over arbitrary contents.
func (h eventQueue) init() {
	for i := (len(h)+2)/4 - 1; i >= 0; i-- { // the last node with a child
		h.siftDown(i, h[i])
	}
}

// Simulator owns the virtual clock and the pending event queue.
// A Simulator must not be shared between OS threads while running;
// all interaction during a run happens from event callbacks and processes.
// (A Cluster runs several Simulators on several threads, but each
// Simulator is still only ever touched by one goroutine at a time — see
// shard.go.)
type Simulator struct {
	now   Time
	queue eventQueue // events scheduled past the instant they were scheduled at
	// ready holds the events scheduled for the current instant, in seq
	// order, from index readyHead on.
	ready     []slot
	readyHead int
	seq       uint64
	running   bool
	// procs counts live (spawned, not yet finished) processes, used for
	// deadlock detection when the event queue drains.
	procs   int
	blocked int // processes currently waiting on a Signal (not a timer)
	err     error
	stopped bool

	canceled int      // canceled events still queued
	events   []*event // registry of every pooled event struct, by id
	free     []*event // recycled event structs

	// executed counts events run so far (diagnostics; epoch accounting).
	executed uint64

	// Cluster membership (nil/0 for a standalone simulator). The shard ID
	// participates in the cluster's global (time, shard, seq) event-order
	// tie-break; the outbox buffers conservatively-scheduled cross-shard
	// events until the next epoch barrier.
	cluster *Cluster
	shard   int
	xseq    uint64 // per-shard sequence for outbox entries
	outbox  []remoteEvent
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of scheduled, not-yet-executed events.
// It is O(1): the simulator tracks cancellations with a live counter.
func (s *Simulator) Pending() int {
	return s.queued() - s.canceled
}

// queued returns the number of slots in both lanes, canceled ones included.
func (s *Simulator) queued() int {
	return len(s.queue) + len(s.ready) - s.readyHead
}

// Executed returns the number of events run since creation (diagnostics;
// the cluster epoch reporter differences it per epoch).
func (s *Simulator) Executed() uint64 { return s.executed }

// Shard returns the simulator's shard ID within its cluster (0 for a
// standalone simulator).
func (s *Simulator) Shard() int { return s.shard }

// NextEventTime returns the timestamp of the earliest pending event, or
// ok=false when none remain. Canceled events found at the head of the
// queue are retired on the way (they would be skipped by Run anyway).
func (s *Simulator) NextEventTime() (Time, bool) {
	top, ev, _ := s.head()
	return top.at, ev != nil
}

// head returns the earliest live event's slot and struct, the lower of the
// two lane heads, retiring canceled events found there on the way; ready
// reports whether it heads the ready lane. With no live event left it
// returns the zero slot and a nil event.
func (s *Simulator) head() (top slot, ev *event, ready bool) {
	for {
		switch {
		case s.readyHead < len(s.ready) && (len(s.queue) == 0 || s.ready[s.readyHead].before(s.queue[0])):
			top, ready = s.ready[s.readyHead], true
		case len(s.queue) > 0:
			top, ready = s.queue[0], false
		default:
			return slot{}, nil, false
		}
		ev = s.events[top.id]
		if !ev.canceled {
			return top, ev, ready
		}
		s.dropHead(ready)
		s.canceled--
		s.recycle(ev)
	}
}

// dropHead removes the head of the ready lane or of the heap.
func (s *Simulator) dropHead(ready bool) {
	if ready {
		s.readyHead++
	} else {
		s.queue.pop()
	}
}

// newEvent takes an event struct from the free list or allocates one.
func (s *Simulator) newEvent() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	ev := &event{sim: s, id: uint32(len(s.events))}
	s.events = append(s.events, ev)
	return ev
}

// recycle retires an event struct (already removed from its lane) to the
// free list, invalidating any outstanding handles to it.
func (s *Simulator) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	s.free = append(s.free, ev)
}

// compact removes canceled events from both lanes in place, recycling
// their structs, and restores the heap invariant.
func (s *Simulator) compact() {
	s.queue = s.dropCanceled(s.queue)
	s.queue.init()
	s.shiftReady()
	s.ready = s.dropCanceled(s.ready)
	s.canceled = 0
}

// shiftReady moves the ready lane's unconsumed slots to the front of its
// slice.
func (s *Simulator) shiftReady() {
	s.ready = s.ready[:copy(s.ready, s.ready[s.readyHead:])]
	s.readyHead = 0
}

// dropCanceled recycles the canceled events among slots and returns the
// live ones in their order, in place.
func (s *Simulator) dropCanceled(slots []slot) []slot {
	live := slots[:0]
	for _, x := range slots {
		if ev := s.events[x.id]; ev.canceled {
			s.recycle(ev)
		} else {
			live = append(live, x)
		}
	}
	return live
}

// Schedule runs fn after delay units of virtual time. A negative delay is
// treated as zero. It returns a handle that can cancel the event.
func (s *Simulator) Schedule(delay Duration, fn func()) EventHandle {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the current instant.
func (s *Simulator) At(t Time, fn func()) EventHandle {
	if t < s.now || math.IsNaN(t) {
		t = s.now
	}
	ev := s.newEvent()
	ev.fn = fn
	x := slot{at: t, seq: s.seq, id: ev.id}
	s.seq++
	if t != s.now {
		s.queue.push(x)
	} else {
		// Reclaim the consumed prefix once it is half the lane, so a long
		// same-instant cascade reuses the slice (amortized O(1) a slot).
		if s.readyHead > 0 && s.readyHead >= len(s.ready)/2 {
			s.shiftReady()
		}
		s.ready = append(s.ready, x)
	}
	return EventHandle{ev: ev, gen: ev.gen}
}

// Stop makes Run return after the currently executing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// fail records the first error and stops the run.
func (s *Simulator) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.stopped = true
}

// ErrDeadlock is returned by Run when live processes remain blocked but no
// events are pending, i.e. virtual time can no longer advance.
var ErrDeadlock = errors.New("sim: deadlock: blocked processes with empty event queue")

// Run executes events until the queue drains, Stop is called, or an error
// occurs. It returns ErrDeadlock if processes remain blocked with no
// pending events, or the first error recorded by a process.
func (s *Simulator) Run() error {
	return s.RunUntil(math.Inf(1))
}

// RunUntil executes events with timestamps <= limit. The clock is left at
// the time of the last executed event (or at limit if nothing remained).
func (s *Simulator) RunUntil(limit Time) error {
	return s.runLimit(limit, true)
}

// runLimit is the core event loop. With inclusive=true events at exactly
// limit run (RunUntil semantics); with inclusive=false they stay queued —
// the cluster epoch scheduler uses the exclusive form so that an event at
// the epoch horizon is ordered against cross-shard events arriving at that
// same instant instead of racing ahead of them.
func (s *Simulator) runLimit(limit Time, inclusive bool) error {
	if s.running {
		return errors.New("sim: Run called re-entrantly")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()

	for !s.stopped {
		top, ev, ready := s.head()
		if ev == nil {
			// A clustered shard with a drained queue may still receive
			// cross-shard events at the next epoch barrier; the cluster
			// performs the global deadlock check instead.
			if s.procs > 0 && s.err == nil && s.cluster == nil {
				s.err = fmt.Errorf("%w (%d live processes)", ErrDeadlock, s.procs)
			}
			break
		}
		if top.at > limit || (!inclusive && top.at == limit) {
			// Leave it queued for a later run.
			if s.now < limit {
				s.now = limit
			}
			break
		}
		s.dropHead(ready)
		s.now = top.at
		fn := ev.fn
		// Recycle before running: the callback may schedule new events,
		// which can then reuse this struct. The handle to this event is
		// already invalidated by the generation bump.
		s.recycle(ev)
		s.executed++
		fn()
	}
	return s.err
}

// Err returns the first error recorded during the run, if any.
func (s *Simulator) Err() error { return s.err }
