// Package sim provides the discrete-event simulation core used by every
// substrate in this repository: a nanosecond virtual clock, a split event
// queue (a binary heap of one-shot events, a binary heap of restartable
// timers, and constant-delay FIFO lanes), and a deterministic RNG.
//
// The simulator is single-threaded: all events run on the goroutine that
// calls Run. Determinism is guaranteed by ordering events first by time and
// then by sequence number, so two events scheduled for the same instant
// fire in the order they were scheduled.
//
// # Three queues, one order
//
// Every pending firing lives in exactly one queue:
//
//   - At/Schedule events sit in the event heap;
//   - armed Timers sit in the timer heap (Reset, Stop and expiry touch only
//     it);
//   - Lane.Push entries sit in the FIFO lane of their constant delay.
//
// All three draw sequence numbers from one counter at the moment they are
// scheduled, and Run fires the smallest (when, seq) head among them. The
// firing order is therefore exactly that of a single queue holding every
// event. A lane needs no heap: its delay is constant and the clock and the
// sequence counter only grow, so entries arrive already sorted and push and
// pop are O(1). Splitting the queues keeps the per-packet heap small: link
// deliveries (one per packet in flight) go to a lane, and per-connection
// timers, which are armed on every segment but almost never fire, stay out
// of the heap that serialization completions churn through.
//
// Two read paths are safe from other goroutines, which is what lets a
// long-lived service (cmd/acdcd, internal/soak) observe and interrupt a
// running simulation: Now and Allocated are atomic loads, and Stop may be
// called concurrently to make Run return after the current event. Every
// other method — scheduling, cancelling, Run itself — remains owned by the
// simulation goroutine.
//
// # Event recycling
//
// At/Schedule Event structs are pooled on a per-Simulator free list: firing
// or cancelling an event returns it to the pool, and the next Schedule/At
// reuses it. Timers embed their own heap entry and lane entries are values
// in a ring, so neither touches the pool. In the steady state a sim workload
// therefore schedules with zero allocations. The contract this imposes on
// callers: an *Event handle is valid only while the event is pending. Once it
// has fired or been cancelled, the handle must be dropped (nil it out) —
// calling Cancel through a stale handle is a no-op at best and can target an
// unrelated reused event at worst.
package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time, in nanoseconds.
type Duration = Time

// Handy duration units, mirroring time.Nanosecond etc. but for simulated time.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// String renders t with an adaptive unit, e.g. "1.250ms".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Event is a scheduled callback. It is returned by Schedule/At so callers can
// cancel it before it fires (e.g. a link's serialization completion when the
// link goes down). Handles are only valid while the event is pending; see the
// package comment.
type Event struct {
	when     Time
	seq      uint64
	index    int // heap index; -1 when not queued
	fn       func()
	canceled bool
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// When returns the simulated time the event fires (or fired).
func (e *Event) When() Time { return e.when }

// maxFreeEvents bounds the event free list so a one-off scheduling burst does
// not pin memory for the lifetime of the simulator.
const maxFreeEvents = 1 << 14

// Simulator owns the virtual clock and the pending-event queues.
type Simulator struct {
	// now is the virtual clock. It is written only by the simulation
	// goroutine but read (via Now) by observers on other goroutines — an
	// admin API reporting status, a flow snapshot taken mid-run — so it is
	// an atomic Time in nanoseconds.
	now     atomic.Int64
	events  eventHeap // At/Schedule events
	timers  eventHeap // armed Timers' embedded events
	lanes   []*Lane   // constant-delay FIFOs, one per distinct delay
	free    []*Event  // recycled events, reused by At/Schedule
	seq     uint64
	rng     *rand.Rand
	stopped atomic.Bool
	// Processed counts events executed; useful for perf accounting in tests.
	Processed uint64
	// allocated counts Event structs ever heap-allocated (free-list misses).
	// Atomic so soak harnesses can watch the high-water mark while running.
	allocated atomic.Int64
}

// Allocated returns the number of Event structs this simulator has ever
// heap-allocated — the free-list miss count. In steady state it stops
// growing, which TestEventRecycling pins. Safe to call from any goroutine.
func (s *Simulator) Allocated() int64 { return s.allocated.Load() }

// New creates a simulator whose RNG is seeded with seed (deterministic runs).
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time. Safe to call from any goroutine;
// observers on other goroutines see the time of the most recent event.
func (s *Simulator) Now() Time { return Time(s.now.Load()) }

// setNow advances the clock (simulation goroutine only).
func (s *Simulator) setNow(t Time) { s.now.Store(int64(t)) }

// Rand returns the simulation RNG. All stochastic behaviour (workload
// arrivals, hash seeds) must draw from it so runs are reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Schedule runs fn after delay d. A negative delay is treated as zero.
func (s *Simulator) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.Now()+d, fn)
}

// At runs fn at absolute time t. Scheduling in the past fires at the current
// time (events never run retroactively).
func (s *Simulator) At(t Time, fn func()) *Event {
	if now := s.Now(); t < now {
		t = now
	}
	s.seq++
	var ev *Event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &Event{}
		s.allocated.Add(1)
	}
	ev.when, ev.seq, ev.fn, ev.canceled = t, s.seq, fn, false
	s.events.push(ev)
	return ev
}

// recycle returns a fired or cancelled At/Schedule event to the free list.
func (s *Simulator) recycle(ev *Event) {
	ev.fn = nil
	if len(s.free) < maxFreeEvents {
		s.free = append(s.free, ev)
	}
}

// Cancel removes a pending At/Schedule event so it will not fire and
// recycles it. Safe to call with nil or on events that already fired or were
// cancelled (no-op) — but see the package comment: a stale handle may alias a
// reused event. Timers are stopped with Timer.Stop, and lane entries cannot
// be cancelled.
func (s *Simulator) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	ev.canceled = true
	s.events.remove(ev.index)
	s.recycle(ev)
}

// Stop makes Run return after the currently executing event completes. Safe
// to call from any goroutine (e.g. a daemon shutting its pacer loop down).
func (s *Simulator) Stop() { s.stopped.Store(true) }

// Pending returns the number of queued firings across all three queues.
func (s *Simulator) Pending() int {
	n := len(s.events) + len(s.timers)
	for _, l := range s.lanes {
		n += l.n
	}
	return n
}

// Run executes events in time order until the queues drain, Stop is called,
// or the next event would fire after `until` (pass a huge value to run to
// completion). The clock is left at the time of the last executed event, or
// at `until` if the queues were exhausted (or cut short by the horizon) so
// callers measuring rates over [0, until] divide by the right span. A Stop
// leaves the clock at the stopping event.
func (s *Simulator) Run(until Time) {
	s.stopped.Store(false)
	for !s.stopped.Load() {
		q, lane, when := s.next()
		if q == nil && lane == nil {
			break
		}
		if when > until {
			s.setNow(until)
			return
		}
		s.fire(q, lane)
	}
	if !s.stopped.Load() && s.Now() < until {
		s.setNow(until)
	}
}

// RunFor is shorthand for Run(Now()+d).
func (s *Simulator) RunFor(d Duration) { s.Run(s.Now() + d) }

// RunAll drains the queues completely (or until Stop), leaving the clock at
// the time of the last executed event. Unlike Run, it never advances the
// clock past the final event.
func (s *Simulator) RunAll() {
	s.stopped.Store(false)
	for !s.stopped.Load() {
		q, lane, _ := s.next()
		if q == nil && lane == nil {
			return
		}
		s.fire(q, lane)
	}
}

// next picks the queue holding the earliest pending firing by (when, seq):
// one of the two heaps, or a lane, and the time that firing is due. Both
// queue results are nil when nothing is pending.
func (s *Simulator) next() (q *eventHeap, lane *Lane, when Time) {
	var seq uint64
	if len(s.events) > 0 {
		ev := s.events[0]
		q, when, seq = &s.events, ev.when, ev.seq
	}
	if len(s.timers) > 0 {
		if ev := s.timers[0]; q == nil || before(ev.when, ev.seq, when, seq) {
			q, when, seq = &s.timers, ev.when, ev.seq
		}
	}
	for _, l := range s.lanes {
		if l.n == 0 {
			continue
		}
		if e := &l.buf[l.head]; (q == nil && lane == nil) || before(e.when, e.seq, when, seq) {
			q, lane, when, seq = nil, l, e.when, e.seq
		}
	}
	return q, lane, when
}

// fire pops the head next selected, advances the clock to it and runs it.
func (s *Simulator) fire(q *eventHeap, lane *Lane) {
	var fn func()
	if lane != nil {
		var when Time
		when, fn = lane.pop()
		s.setNow(when)
	} else {
		ev := (*q)[0]
		q.popHead()
		s.setNow(ev.when)
		fn = ev.fn
		if q == &s.events {
			s.recycle(ev)
		}
	}
	s.Processed++
	fn()
}

// before orders firings by (when, seq): time first, scheduling order second.
func before(aWhen Time, aSeq uint64, bWhen Time, bSeq uint64) bool {
	if aWhen != bWhen {
		return aWhen < bWhen
	}
	return aSeq < bSeq
}
