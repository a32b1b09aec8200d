package sim

// Lane is a FIFO of callbacks that all fire a fixed delay after they are
// pushed — a link's propagation delay, for instance. Because the delay is
// constant, and both the clock and the simulator's sequence counter only
// grow, entries are pushed in (when, seq) order and the lane is always
// sorted: Run compares only its head against the other queues, and push and
// pop are O(1) with no heap sift. Entries cannot be cancelled.
type Lane struct {
	sim   *Simulator
	delay Duration
	buf   []laneEntry // ring; len is a power of two
	head  int
	n     int
}

type laneEntry struct {
	when Time
	seq  uint64
	fn   func()
}

// Lane returns the simulator's lane for delay d, creating it on first use.
// A negative delay is treated as zero, like Schedule.
func (s *Simulator) Lane(d Duration) *Lane {
	if d < 0 {
		d = 0
	}
	for _, l := range s.lanes {
		if l.delay == d {
			return l
		}
	}
	l := &Lane{sim: s, delay: d}
	s.lanes = append(s.lanes, l)
	return l
}

// Push schedules fn to run the lane's delay from now. It takes its sequence
// number now, so it fires exactly where Schedule with that delay would have.
func (l *Lane) Push(fn func()) {
	if l.n == len(l.buf) {
		l.grow()
	}
	s := l.sim
	s.seq++
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = laneEntry{when: s.Now() + l.delay, seq: s.seq, fn: fn}
	l.n++
}

// pop removes the head entry and returns its time and callback.
func (l *Lane) pop() (Time, func()) {
	e := &l.buf[l.head]
	when, fn := e.when, e.fn
	e.fn = nil
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return when, fn
}

func (l *Lane) grow() {
	grown := make([]laneEntry, max(16, 2*len(l.buf)))
	for i := 0; i < l.n; i++ {
		grown[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf, l.head = grown, 0
}
