package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refSim is the reference model the split queue must be indistinguishable
// from: every pending firing in one slice kept sorted by (when, seq), with
// the pre-split single-queue semantics for clamping, horizons and Stop.
type refSim struct {
	now       Time
	seq       uint64
	q         []*refEv
	stopped   bool
	processed uint64
}

type refEv struct {
	when Time
	seq  uint64
	fn   func()
	live bool
}

func (r *refSim) at(t Time, fn func()) *refEv {
	if t < r.now {
		t = r.now
	}
	r.seq++
	ev := &refEv{when: t, seq: r.seq, fn: fn, live: true}
	i := 0
	for i < len(r.q) && (r.q[i].when < t || r.q[i].when == t && r.q[i].seq < ev.seq) {
		i++
	}
	r.q = slices.Insert(r.q, i, ev)
	return ev
}

func (r *refSim) cancel(ev *refEv) {
	if !ev.live {
		return
	}
	ev.live = false
	i := slices.Index(r.q, ev)
	r.q = slices.Delete(r.q, i, i+1)
}

func (r *refSim) run(until Time) {
	r.stopped = false
	for len(r.q) > 0 && !r.stopped {
		ev := r.q[0]
		if ev.when > until {
			r.now = until
			return
		}
		r.q = r.q[1:]
		ev.live = false
		r.now = ev.when
		r.processed++
		ev.fn()
	}
	if !r.stopped && r.now < until {
		r.now = until
	}
}

// refTimer is the lazy-rearm timer on the single list: an earlier deadline
// cancels and reschedules, a later one is recorded and picked up by a stale
// wakeup that re-arms.
type refTimer struct {
	r        *refSim
	fn       func()
	ev       *refEv
	deadline Time
}

func (t *refTimer) resetAt(at Time) {
	t.deadline = at
	if t.ev != nil {
		if t.ev.when <= at {
			return
		}
		t.r.cancel(t.ev)
	}
	t.ev = t.r.at(at, t.fire)
}

func (t *refTimer) stop() {
	if t.ev != nil {
		t.r.cancel(t.ev)
		t.ev = nil
	}
}

func (t *refTimer) fire() {
	t.ev = nil
	if t.deadline > t.r.now {
		t.ev = t.r.at(t.deadline, t.fire)
		return
	}
	t.fn()
}

// queueAPI is the surface the ordering test drives, implemented once over
// the real Simulator and once over refSim.
type queueAPI interface {
	now() Time
	at(t Time, fn func()) (cancel func())
	schedule(d Duration, fn func()) (cancel func())
	push(lane int, fn func())
	newTimer(fn func())
	reset(timer int, d Duration)
	resetAt(timer int, at Time)
	stopTimer(timer int)
	run(until Time)
	stop()
	pending() int
	processed() uint64
}

// laneDelays are the constant delays pushed on: zero, a negative delay that
// must share zero's lane, and two positive ones.
var laneDelays = []Duration{0, -3, 10, 37}

type realAPI struct {
	s      *Simulator
	timers []*Timer
}

func (a *realAPI) now() Time { return a.s.Now() }
func (a *realAPI) at(t Time, fn func()) func() {
	ev := a.s.At(t, fn)
	return func() { a.s.Cancel(ev) }
}
func (a *realAPI) schedule(d Duration, fn func()) func() {
	ev := a.s.Schedule(d, fn)
	return func() { a.s.Cancel(ev) }
}
func (a *realAPI) push(lane int, fn func()) { a.s.Lane(laneDelays[lane]).Push(fn) }
func (a *realAPI) newTimer(fn func())       { a.timers = append(a.timers, NewTimer(a.s, fn)) }
func (a *realAPI) reset(i int, d Duration)  { a.timers[i].Reset(d) }
func (a *realAPI) resetAt(i int, at Time)   { a.timers[i].ResetAt(at) }
func (a *realAPI) stopTimer(i int)          { a.timers[i].Stop() }
func (a *realAPI) run(until Time)           { a.s.Run(until) }
func (a *realAPI) stop()                    { a.s.Stop() }
func (a *realAPI) pending() int             { return a.s.Pending() }
func (a *realAPI) processed() uint64        { return a.s.Processed }

type refAPI struct {
	r      *refSim
	timers []*refTimer
}

func (a *refAPI) now() Time { return a.r.now }
func (a *refAPI) at(t Time, fn func()) func() {
	ev := a.r.at(t, fn)
	return func() { a.r.cancel(ev) }
}
func (a *refAPI) schedule(d Duration, fn func()) func() { return a.at(a.r.now+max(d, 0), fn) }
func (a *refAPI) push(lane int, fn func())              { a.r.at(a.r.now+laneDelays[lane], fn) }
func (a *refAPI) newTimer(fn func())                    { a.timers = append(a.timers, &refTimer{r: a.r, fn: fn}) }
func (a *refAPI) reset(i int, d Duration)               { a.timers[i].resetAt(a.r.now + max(d, 0)) }
func (a *refAPI) resetAt(i int, at Time)                { a.timers[i].resetAt(at) }
func (a *refAPI) stopTimer(i int)                       { a.timers[i].stop() }
func (a *refAPI) run(until Time)                        { a.r.run(until) }
func (a *refAPI) stop()                                 { a.r.stopped = true }
func (a *refAPI) pending() int                          { return len(a.r.q) }
func (a *refAPI) processed() uint64                     { return a.r.processed }

// driveQueue runs a seeded random program against q and returns its trace:
// every callback with the clock and Pending() it observed, and Pending() and
// Processed after every top-level operation. Callbacks themselves schedule,
// cancel, push, reset timers and Stop, drawing from the same RNG, so two
// queues produce the same trace exactly when they fire in the same order.
func driveQueue(q queueAPI, seed int64, steps int) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	nextID := 0
	budget := 4 * steps // bounds the callbacks' own scheduling
	cancels := map[int]func(){}
	var live []int // ids of pending At/Schedule events, in schedule order

	var op func(nested bool)
	callback := func(id int) func() {
		return func() {
			if i := slices.Index(live, id); i >= 0 {
				live = slices.Delete(live, i, i+1)
				delete(cancels, id)
			}
			trace = append(trace, fmt.Sprintf("fire %d at %d pending %d", id, q.now(), q.pending()))
			if budget > 0 && rng.Intn(3) == 0 {
				budget--
				op(true)
			}
		}
	}
	const timers = 4
	for i := 0; i < timers; i++ {
		q.newTimer(callback(-1 - i))
	}
	delay := func() Duration { return Duration(rng.Intn(60)) - 5 }

	op = func(nested bool) {
		id := nextID
		nextID++
		switch k := rng.Intn(10); k {
		case 0, 1:
			var cancel func()
			if k == 0 {
				cancel = q.at(q.now()+delay(), callback(id))
			} else {
				cancel = q.schedule(delay(), callback(id))
			}
			cancels[id] = cancel
			live = append(live, id)
		case 2:
			if len(live) > 0 {
				i := rng.Intn(len(live))
				cancels[live[i]]()
				delete(cancels, live[i])
				live = slices.Delete(live, i, i+1)
			}
		case 3:
			q.push(rng.Intn(len(laneDelays)), callback(id))
		case 4: // a burst, so lane rings grow while wrapped
			lane := rng.Intn(len(laneDelays))
			for n := rng.Intn(24); n >= 0; n-- {
				q.push(lane, callback(id))
			}
		case 5:
			q.reset(rng.Intn(timers), delay())
		case 6:
			q.resetAt(rng.Intn(timers), q.now()+delay())
		case 7:
			q.stopTimer(rng.Intn(timers))
		case 8:
			if nested {
				q.stop()
			} else {
				q.run(q.now() + Duration(rng.Intn(80)))
			}
		case 9:
			if !nested {
				q.run(q.now() + Duration(rng.Intn(20)))
			}
		}
	}
	for i := 0; i < steps; i++ {
		op(false)
		trace = append(trace, fmt.Sprintf("step %d now %d pending %d processed %d", i, q.now(), q.pending(), q.processed()))
	}
	for q.pending() > 0 {
		q.run(q.now() + 1000)
		trace = append(trace, fmt.Sprintf("drain now %d pending %d processed %d", q.now(), q.pending(), q.processed()))
	}
	return trace
}

// TestSplitQueueMatchesReferenceModel drives the event heap, the timer heap
// and the lanes with random programs — At/Schedule with past and future
// times, Cancel, timers reset earlier and later and stopped, lane pushes and
// bursts on several delays (zero and negative included), scheduling from
// inside callbacks, Run horizons and Stop from a callback — and checks every
// firing, clock reading and Pending() count against a single sorted list.
func TestSplitQueueMatchesReferenceModel(t *testing.T) {
	prop := func(seed int64) bool {
		got := driveQueue(&realAPI{s: New(1)}, seed, 300)
		want := driveQueue(&refAPI{r: &refSim{}}, seed, 300)
		if i := firstDiff(got, want); i >= 0 {
			t.Logf("seed %d diverges at trace line %d:\n  got  %s\n  want %s", seed, i, at(got, i), at(want, i))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func firstDiff(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<end>"
}
