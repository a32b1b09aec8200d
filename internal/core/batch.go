package core

import (
	"acdc/internal/metrics"
	"acdc/internal/packet"
)

// Batch datapath: the OVS datapath the paper modifies processes packets in
// bursts so per-packet overheads (flow lookup, locking, stat updates)
// amortize; EgressBatch/IngressBatch are our equivalent. A batch call is
// semantically a loop of the per-packet path — same rewrites, same final
// metric values, same per-packet audit events — but it:
//
//   - classifies every packet up front (one header parse each),
//   - prefetches both flow directions for the whole burst through
//     Table.GetBatch, taking each touched shard's read lock once per burst
//     instead of twice per packet,
//   - folds the per-packet EgressSegs/IngressSegs increments into one Add,
//     and hoists the (asynchronous) sweep-arm consumption out of the loop.
//
// Prefetched flow pointers are hints, not truth: a hint is used only while
// the table's deletion generation is unchanged since the prefetch (eviction
// or GC mid-burst invalidates every outstanding hint), and a nil hint always
// falls back to the live lookup the sequential path would do — which covers
// flows created by an earlier packet of the same burst.
//
// Ownership follows netsim.PathHook exactly, per input packet: each input
// yields an (out, extra) pair appended to pairs.

// batchScratch is the VSwitch's reusable batch working set. It lives on the
// VSwitch (single datapath goroutine) so steady-state batches allocate
// nothing; re-entrant batch calls are routed to the per-packet path by the
// inBatch guard instead of corrupting it.
type batchScratch struct {
	meta  []pktMeta
	keys  []FlowKey // 2 slots per packet: forward key, reverse key
	flows []*Flow   // parallel to keys
	lk    lookupScratch
	// bytes is the burst's byte count (every class but bad-IP), summed during
	// classification so the direction's byte counter is one Add per burst.
	bytes  int64
	deltas batchDeltas
	// sink absorbs the lookahead touch loads so the compiler cannot
	// dead-code-eliminate them; the value itself is meaningless.
	sink uint64
}

// batchDeltas accumulates every-packet counter increments across a burst so
// the batch loop pays one striped-atomic Add per counter per burst instead
// of one per packet. Only hot-path counters fold here; cold ones (fail-open,
// malformed options, untracked segments) increment live in the run
// functions. The fold is invisible at batch boundaries — final counter
// values match a per-packet replay exactly — but an auditor reading Stats()
// from inside a PacketEvent callback sees the burst's deltas applied at the
// end of the batch rather than per packet.
type batchDeltas struct {
	ectMarks int64 // ECTMarks
	packs    int64 // PacksConsumed
}

// batchLookahead is how many packets ahead of the loop cursor the batch loop
// touches its prefetched flows. With 10k+ flows the burst's Flow structs are
// scattered cold cache lines; reading one word of each flow a few iterations
// early overlaps those misses with the current packet's processing — a
// software prefetch the sequential path (which learns the flow pointer only
// at the moment it needs it) cannot express.
const batchLookahead = 4

// touchFlows warms the flow pair for packet j (one word from each direction's
// Flow — the line holding the mutex and key words the datapath locks first).
func (b *batchScratch) touchFlows(j int) {
	if k := 2 * j; k < len(b.flows) {
		if f := b.flows[k]; f != nil {
			b.sink += uint64(f.Key.SPort)
		}
		if f := b.flows[k+1]; f != nil {
			b.sink += uint64(f.Key.SPort)
		}
	}
}

func (b *batchScratch) grow(n int) {
	if cap(b.meta) < n {
		b.meta = make([]pktMeta, n)
		b.keys = make([]FlowKey, 2*n)
		b.flows = make([]*Flow, 2*n)
	}
	b.meta = b.meta[:n]
	b.keys = b.keys[:2*n]
	b.flows = b.flows[:2*n]
}

// classifyBatch parses every packet and lays out the forward/reverse lookup
// keys. Non-TCP slots keep the zero key: the wasted map probe is cheaper
// than compacting, and the zero key can only collide with a flow whose
// packets are themselves classTCP, where the hint is simply unused.
func (v *VSwitch) classifyBatch(ps []*packet.Packet) {
	sc := &v.batch
	sc.grow(len(ps))
	sc.bytes = 0
	for i, p := range ps {
		m := &sc.meta[i]
		*m = pktMeta{}
		classify(p, v.Cfg.UDPTunnel, m)
		if m.class != classBadIP {
			sc.bytes += m.iplen
		}
		k := 2 * i
		if m.class == classTCP {
			sc.keys[k] = m.key
			sc.keys[k+1] = m.key.Reverse()
		} else {
			sc.keys[k] = FlowKey{}
			sc.keys[k+1] = FlowKey{}
		}
	}
}

// EgressBatch runs the egress datapath over a burst, appending one
// (out, extra) pair per input packet to pairs and returning it. Equivalent
// to calling EgressPath on each packet in order; Attach installs it as the
// host's batch egress hook.
func (v *VSwitch) EgressBatch(ps, pairs []*packet.Packet) []*packet.Packet {
	return v.processBatch(ps, pairs, v.Metrics.EgressSegs, v.Metrics.EgressBytes, (*VSwitch).egressRun, AuditEgress)
}

// IngressBatch is the ingress counterpart of EgressBatch.
func (v *VSwitch) IngressBatch(ps, pairs []*packet.Packet) []*packet.Packet {
	return v.processBatch(ps, pairs, v.Metrics.IngressSegs, v.Metrics.IngressBytes, (*VSwitch).ingressRun, AuditIngress)
}

// processBatch is the batch datapath shared by both directions, taking the
// same direction arguments as process. Detached, every packet passes
// through untouched; a single packet or a re-entrant call runs the
// per-packet body.
func (v *VSwitch) processBatch(ps, pairs []*packet.Packet, segs, bytes *metrics.Counter, run runFunc, dir AuditDir) []*packet.Packet {
	if !v.attached.Load() {
		for _, p := range ps {
			pairs = append(pairs, p, nil)
		}
		return pairs
	}
	if len(ps) <= 1 || v.inBatch {
		for _, p := range ps {
			out, extra := v.process(p, segs, bytes, run, dir)
			pairs = append(pairs, out, extra)
		}
		return pairs
	}
	v.inBatch = true
	defer func() { v.inBatch = false }()

	segs.Add(int64(len(ps)))
	v.consumeSweepArm()
	v.classifyBatch(ps)
	sc := &v.batch
	bytes.Add(sc.bytes)
	bd := &sc.deltas
	*bd = batchDeltas{}
	gen := v.Table.genNow()
	v.Table.GetBatch(sc.keys, sc.flows, &sc.lk)
	a := v.Audit
	for i, p := range ps {
		var pre PacketPre
		if a != nil {
			pre = v.CapturePre(p)
		}
		sc.touchFlows(i + batchLookahead)
		v.tickSweep()
		out, extra := run(v, p, sc.meta[i], sc.flows[2*i], sc.flows[2*i+1], gen, bd)
		if a != nil {
			a.PacketEvent(v, dir, pre, out, extra, out == p)
		}
		pairs = append(pairs, out, extra)
	}
	if bd.ectMarks != 0 {
		v.Metrics.ECTMarks.Add(bd.ectMarks)
	}
	if bd.packs != 0 {
		v.Metrics.PacksConsumed.Add(bd.packs)
	}
	return pairs
}
