package sim

// eventHeap is a monomorphic binary min-heap of events ordered by
// (when, seq). Each event records its own index so Cancel, Timer.Stop and
// an earlier Timer.Reset can remove or re-sift it in place.
type eventHeap []*Event

func eventLess(a, b *Event) bool { return before(a.when, a.seq, b.when, b.seq) }

// push inserts ev.
func (h *eventHeap) push(ev *Event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.siftUp(ev.index)
}

// popHead removes the minimum (the caller already read (*h)[0]).
func (h *eventHeap) popHead() {
	q := *h
	n := len(q) - 1
	head := q[0]
	q[0] = q[n]
	q[0].index = 0
	q[n] = nil
	*h = q[:n]
	head.index = -1
	if n > 1 {
		h.siftDown(0)
	}
}

// remove deletes the event at index i.
func (h *eventHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	ev := q[i]
	if i != n {
		q[i] = q[n]
		q[i].index = i
	}
	q[n] = nil
	*h = q[:n]
	ev.index = -1
	if i < n {
		h.fix(i)
	}
}

// fix restores the heap property after the key at index i changed.
func (h *eventHeap) fix(i int) {
	if !h.siftDown(i) {
		h.siftUp(i)
	}
}

// siftUp restores the heap property upward from index i.
func (h *eventHeap) siftUp(i int) {
	q := *h
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// siftDown restores the heap property downward from index i; it reports
// whether the element moved.
func (h *eventHeap) siftDown(i int) bool {
	q := *h
	ev := q[i]
	start := i
	n := len(q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(q[r], q[child]) {
			child = r
		}
		if !eventLess(q[child], ev) {
			break
		}
		q[i] = q[child]
		q[i].index = i
		i = child
	}
	q[i] = ev
	ev.index = i
	return i > start
}
