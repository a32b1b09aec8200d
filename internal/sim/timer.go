package sim

// Timer is a restartable one-shot timer bound to a Simulator, modelled after
// the kernel timers TCP uses for retransmission and delayed ACKs. Unlike raw
// Events, a Timer can be reset repeatedly and remembers its callback. An
// armed timer lives in the simulator's timer heap, apart from the At/Schedule
// events, so arming and stopping it never sifts through the per-packet
// events.
//
// Rearming is lazy, the way kernel TCP keepalive timers are: Reset only
// records the new logical deadline when the already-pending expiry is no
// later than it, and the expiry handler re-arms to the recorded deadline
// instead of running the callback early. Per-segment timers (inactivity,
// delayed ACK) are reset on every packet but almost never fire, so the common
// case — deadline pushed further out — costs two stores instead of a
// heap-sift.
type Timer struct {
	sim *Simulator
	fn  func()
	// ev is the timer's own entry in the timer heap (ev.index >= 0 while
	// armed); its callback is t.fire, bound once at construction so arming
	// never allocates.
	ev Event
	// deadline is the logical expiry; ev.when may be earlier (a stale,
	// not-yet-collapsed arm), in which case fire re-arms instead of running fn.
	deadline Time
}

// NewTimer creates a stopped timer that runs fn when it expires.
func NewTimer(s *Simulator, fn func()) *Timer {
	t := &Timer{sim: s, fn: fn}
	t.ev.index = -1
	t.ev.fn = t.fire
	return t
}

// Reset (re)arms the timer to fire after d, superseding any pending expiry.
func (t *Timer) Reset(d Duration) {
	if d < 0 {
		d = 0
	}
	t.ResetAt(t.sim.Now() + d)
}

// ResetAt (re)arms the timer to fire at absolute time at. Times in the past
// clamp to now, like At.
func (t *Timer) ResetAt(at Time) {
	t.deadline = at
	if t.Pending() && t.ev.when <= at {
		// The pending expiry is no later than the new deadline; fire will
		// notice the deadline moved and re-arm. Deferring the heap update
		// to then is what makes the per-packet rearm O(1).
		return
	}
	t.arm(at)
}

// arm gives the timer's entry time at and a fresh sequence number, exactly
// as a cancel plus At would, and places it in the timer heap: pushed when
// idle, re-sifted in place when it is already pending (an earlier deadline).
func (t *Timer) arm(at Time) {
	s := t.sim
	if now := s.Now(); at < now {
		at = now
	}
	s.seq++
	t.ev.when, t.ev.seq = at, s.seq
	if t.Pending() {
		s.timers.fix(t.ev.index)
		return
	}
	s.timers.push(&t.ev)
}

// ArmIfIdle arms the timer for d only if it is not already pending.
func (t *Timer) ArmIfIdle(d Duration) {
	if !t.Pending() {
		t.Reset(d)
	}
}

// Stop cancels a pending expiry. Safe on stopped timers.
func (t *Timer) Stop() {
	if t.Pending() {
		t.sim.timers.remove(t.ev.index)
	}
}

// Pending reports whether the timer is armed and has not yet fired.
func (t *Timer) Pending() bool { return t.ev.index >= 0 }

// Deadline returns the expiry time of a pending timer; valid only when
// Pending() is true.
func (t *Timer) Deadline() Time {
	if !t.Pending() {
		return 0
	}
	return t.deadline
}

// fire runs when the timer's entry reaches the head of the timer heap (Run
// has already popped it, so the timer is idle). If Reset pushed the logical
// deadline past the expiry that just fired, this is a stale wakeup: re-arm at
// the real deadline and stay silent. Otherwise run the callback.
func (t *Timer) fire() {
	if d := t.deadline; d > t.sim.Now() {
		t.arm(d)
		return
	}
	t.fn()
}
