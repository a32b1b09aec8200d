// Package benchkit holds the datapath-overhead benchmark fixture shared by
// the repo-root Figure 11/12 benchmarks (`go test -bench`) and the
// cmd/acdcbench reporting binary, so both measure exactly the same loop.
package benchkit

import (
	"acdc/internal/core"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// OverheadBench is per-flow template traffic through one AC/DC vSwitch with
// an established flow table: the paper's Figure 11 (sender side) and Figure
// 12 (receiver side) per-segment overhead measurement.
type OverheadBench struct {
	V      *core.VSwitch
	Pool   *packet.Pool     // the host's packet pool (steady-state clones are free)
	Data   []*packet.Packet // egress data segments, Train per flow (sender side)
	Acks   []*packet.Packet // ingress ACK with PACK per flow (sender side)
	InData []*packet.Packet // ingress data, Train per flow (receiver side)
	OutAck []*packet.Packet // egress ACK per flow (receiver side)

	// Train is how many back-to-back segments each flow contributes to the
	// stream before it moves to the next flow — the shape a ring drain of a
	// sender's cwnd burst (or a GRO-coalesced receive) hands the datapath.
	// Data/InData hold Train templates per flow (index f*Train+j) so a train
	// is distinct in-order segments, not one buffer aliased. Train is 1 for
	// the classic fixtures, whose *Round methods index Data by flow directly.
	Train int

	payload uint32 // data segment payload length (sequence bump per round)

	sCur, rCur int // stream cursors (packet position) for the *Stream methods

	// Reusable batch scratch for the *RoundBatch methods, so the batch path
	// is as allocation-free as the per-packet one.
	ps    []*packet.Packet
	pairs []*packet.Packet
}

// NewOverheadBench builds the fixture with nFlows established flows.
func NewOverheadBench(nFlows int) *OverheadBench {
	return NewOverheadBenchCfg(nFlows, nil)
}

// NewOverheadBenchCfg is NewOverheadBench with a Config hook, for ablations
// that flip datapath features (metrics, policing, …).
func NewOverheadBenchCfg(nFlows int, mutate func(*core.Config)) *OverheadBench {
	return newOverheadBench(nFlows, 1, mutate)
}

// NewOverheadBenchTrains is NewOverheadBench with train-length control for
// the *Stream methods: successive stream positions visit each flow train
// times before moving on, modelling burst arrivals. Use the Stream methods
// (not the per-flow Round methods) on a fixture with train > 1.
func NewOverheadBenchTrains(nFlows, train int) *OverheadBench {
	return newOverheadBench(nFlows, train, nil)
}

func newOverheadBench(nFlows, train int, mutate func(*core.Config)) *OverheadBench {
	s := sim.New(1)
	host := netsim.NewHost(s, "h", packet.MakeAddr(10, 0, 0, 1))
	host.Pool = packet.NewPool()
	host.NIC = netsim.NewLink(s, "nic", 10e9, sim.Microsecond,
		netsim.HandlerFunc(func(*packet.Packet) {}))
	cfg := core.DefaultConfig()
	cfg.MTU = 1500 // the paper reports 1.5KB MTU (worst case: most packets)
	if mutate != nil {
		mutate(&cfg)
	}
	v := core.Attach(s, host, cfg)

	if train < 1 {
		train = 1
	}
	ob := &OverheadBench{V: v, Pool: host.Pool, payload: 1460, Train: train}
	for i := 0; i < nFlows; i++ {
		la := host.Addr
		ra := packet.MakeAddr(10, 0, byte(1+i/250), byte(1+i%250))
		sport := uint16(30000 + i%20000)
		// Establish state via the real datapath: egress SYN, ingress SYN-ACK.
		syn := packet.Build(la, ra, packet.NotECT, packet.TCPFields{
			SrcPort: sport, DstPort: 5001, Seq: 1000, Flags: packet.FlagSYN,
			Window: 65535, Options: packet.BuildSynOptions(1460, 7, true),
		}, 0)
		v.EgressPath(syn)
		synack := packet.Build(ra, la, packet.NotECT, packet.TCPFields{
			SrcPort: 5001, DstPort: sport, Seq: 5000, Ack: 1001,
			Flags: packet.FlagSYN | packet.FlagACK, Window: 65535,
			Options: packet.BuildSynOptions(1460, 7, true),
		}, 0)
		v.IngressPath(synack)

		// Train templates are staggered by one payload each; every use bumps
		// by train*payload, so the interleaved stream stays in order.
		for j := 0; j < train; j++ {
			ob.Data = append(ob.Data, packet.Build(la, ra, packet.NotECT, packet.TCPFields{
				SrcPort: sport, DstPort: 5001, Seq: 1001 + uint32(j)*1460, Ack: 5001,
				Flags: packet.FlagACK | packet.FlagPSH, Window: 65535,
			}, 1460))
		}
		ack := packet.Build(ra, la, packet.NotECT, packet.TCPFields{
			SrcPort: 5001, DstPort: sport, Seq: 5001, Ack: 1001,
			Flags: packet.FlagACK, Window: 65535,
		}, 0)
		var opt [packet.PACKOptionLen]byte
		packet.EncodePACK(opt[:], packet.PACKInfo{TotalBytes: 1460, MarkedBytes: 0})
		ack.Buf = packet.InsertTCPOption(ack.Buf, opt[:])
		ob.Acks = append(ob.Acks, ack)

		// Receiver-module traffic for the reverse direction.
		for j := 0; j < train; j++ {
			ob.InData = append(ob.InData, packet.Build(ra, la, packet.ECT0, packet.TCPFields{
				SrcPort: 5001, DstPort: sport, Seq: 5001 + uint32(j)*1460, Ack: 1001,
				Flags: packet.FlagACK | packet.FlagPSH, Window: 65535,
			}, 1460))
		}
		ob.OutAck = append(ob.OutAck, packet.Build(la, ra, packet.NotECT, packet.TCPFields{
			SrcPort: sport, DstPort: 5001, Seq: 1001, Ack: 6461,
			Flags: packet.FlagACK, Window: 65535,
		}, 0))
	}
	return ob
}

// TierPayload is the data-segment payload used by the flow-count tiers:
// small enough that a million flows' worth of template packets stays within
// a modest memory budget, while the datapath work per packet (lookup, lock,
// option rewrite, accounting) is unchanged.
const TierPayload = 128

// NewTierBench builds a sender-side fixture with nFlows established flows
// for the 100k/1M-flow tiers. It differs from NewOverheadBench in scale
// only: unique private addressing good for 16M flows, TierPayload-byte
// segments, and no receiver-side templates (halving fixture memory). Only
// SenderRound/SenderRoundBatch may be used on the result.
func NewTierBench(nFlows int) *OverheadBench {
	s := sim.New(1)
	host := netsim.NewHost(s, "h", packet.MakeAddr(10, 0, 0, 1))
	host.Pool = packet.NewPool()
	host.NIC = netsim.NewLink(s, "nic", 10e9, sim.Microsecond,
		netsim.HandlerFunc(func(*packet.Packet) {}))
	cfg := core.DefaultConfig()
	cfg.MTU = 1500
	v := core.Attach(s, host, cfg)

	ob := &OverheadBench{V: v, Pool: host.Pool, payload: TierPayload}
	ob.Data = make([]*packet.Packet, 0, nFlows)
	ob.Acks = make([]*packet.Packet, 0, nFlows)
	la := host.Addr
	const sport = uint16(30000)
	for i := 0; i < nFlows; i++ {
		// First octet 11 keeps tier peers disjoint from the local 10.0.0.1.
		ra := packet.MakeAddr(11, byte(i>>16), byte(i>>8), byte(i))
		syn := packet.Build(la, ra, packet.NotECT, packet.TCPFields{
			SrcPort: sport, DstPort: 5001, Seq: 1000, Flags: packet.FlagSYN,
			Window: 65535, Options: packet.BuildSynOptions(1460, 7, true),
		}, 0)
		v.EgressPath(syn)
		synack := packet.Build(ra, la, packet.NotECT, packet.TCPFields{
			SrcPort: 5001, DstPort: sport, Seq: 5000, Ack: 1001,
			Flags: packet.FlagSYN | packet.FlagACK, Window: 65535,
			Options: packet.BuildSynOptions(1460, 7, true),
		}, 0)
		v.IngressPath(synack)

		ob.Data = append(ob.Data, packet.Build(la, ra, packet.NotECT, packet.TCPFields{
			SrcPort: sport, DstPort: 5001, Seq: 1001, Ack: 5001,
			Flags: packet.FlagACK | packet.FlagPSH, Window: 65535,
		}, TierPayload))
		ack := packet.Build(ra, la, packet.NotECT, packet.TCPFields{
			SrcPort: 5001, DstPort: sport, Seq: 5001, Ack: 1001,
			Flags: packet.FlagACK, Window: 65535,
		}, 0)
		var opt [packet.PACKOptionLen]byte
		packet.EncodePACK(opt[:], packet.PACKInfo{TotalBytes: TierPayload, MarkedBytes: 0})
		ack.Buf = packet.InsertTCPOption(ack.Buf, opt[:])
		ob.Acks = append(ob.Acks, ack)
	}
	// Prime one data/ACK round per flow so per-flow lazy state (the
	// inactivity timer and its callback closure, feedback baselines) exists
	// before measurement — at tier scale a benchmark run visits most flows
	// only once, so first-touch allocations would never amortize away.
	for i := 0; i < nFlows; i++ {
		ob.SenderRound(i)
	}
	return ob
}

// BumpSeq advances a data packet's sequence number so connection tracking
// does real work each round (and fixes the checksum like a real sender —
// incrementally, so fixture overhead stays out of the measured datapath).
func BumpSeq(p *packet.Packet, delta uint32) {
	t := p.TCP()
	t.SetSeq(t.Seq() + delta)
}

// CloneIngress runs one pooled round trip through the ingress path: clone a
// template from the pool, process it, release whatever comes out. This is
// the steady-state shape of the real datapath (every packet a host
// terminates goes back to the same pool it was built from).
func (ob *OverheadBench) CloneIngress(tmpl *packet.Packet) {
	q := ob.Pool.Clone(tmpl)
	out, extra := ob.V.IngressPath(q)
	if out == nil && extra == nil {
		ob.Pool.Put(q)
		return
	}
	ob.Pool.Put(out)
	ob.Pool.Put(extra)
}

// CloneEgress is CloneIngress for the egress path.
func (ob *OverheadBench) CloneEgress(tmpl *packet.Packet) {
	q := ob.Pool.Clone(tmpl)
	out, extra := ob.V.EgressPath(q)
	if out == nil && extra == nil {
		return // egress hooks may retain; templates here never are, GC takes it
	}
	ob.Pool.Put(out)
	ob.Pool.Put(extra)
}

// SenderRound is one Figure 11 iteration for flow f: egress one data
// segment, ingress one PACK-carrying ACK.
func (ob *OverheadBench) SenderRound(f int) {
	BumpSeq(ob.Data[f], ob.payload)
	ob.V.EgressPath(ob.Data[f])
	BumpSeq(ob.Acks[f], 0)
	ob.CloneIngress(ob.Acks[f])
}

// ReceiverRound is one Figure 12 iteration for flow f: ingress one data
// segment, egress one ACK (PACK attach in place).
func (ob *OverheadBench) ReceiverRound(f int) {
	BumpSeq(ob.InData[f], ob.payload)
	ob.V.IngressPath(ob.InData[f])
	ob.CloneEgress(ob.OutAck[f])
}

// SenderRoundBatch is k SenderRound iterations for flows [start, start+k)
// (mod nFlows) through the batch path: one egress burst of data segments,
// one ingress burst of PACK-carrying ACKs. Packet-for-packet it does the
// same work as k calls to SenderRound.
func (ob *OverheadBench) SenderRoundBatch(start, k int) {
	n := len(ob.Data)
	ob.ps = ob.ps[:0]
	for j := 0; j < k; j++ {
		f := (start + j) % n
		BumpSeq(ob.Data[f], ob.payload)
		ob.ps = append(ob.ps, ob.Data[f])
	}
	ob.pairs = ob.V.EgressBatch(ob.ps, ob.pairs[:0])
	// Outputs are the in-place rewritten templates; nothing pooled to release.

	ob.ps = ob.ps[:0]
	for j := 0; j < k; j++ {
		f := (start + j) % n
		BumpSeq(ob.Acks[f], 0)
		ob.ps = append(ob.ps, ob.Pool.Clone(ob.Acks[f]))
	}
	ob.pairs = ob.V.IngressBatch(ob.ps, ob.pairs[:0])
	for j, q := range ob.ps {
		out, extra := ob.pairs[2*j], ob.pairs[2*j+1]
		if out == nil && extra == nil {
			ob.Pool.Put(q)
			continue
		}
		ob.Pool.Put(out)
		ob.Pool.Put(extra)
	}
}

// ReceiverRoundBatch is k ReceiverRound iterations through the batch path:
// one ingress burst of data segments, one egress burst of ACKs.
func (ob *OverheadBench) ReceiverRoundBatch(start, k int) {
	n := len(ob.InData)
	ob.ps = ob.ps[:0]
	for j := 0; j < k; j++ {
		f := (start + j) % n
		BumpSeq(ob.InData[f], ob.payload)
		ob.ps = append(ob.ps, ob.InData[f])
	}
	ob.pairs = ob.V.IngressBatch(ob.ps, ob.pairs[:0])
	// Outputs are the templates themselves, headed for the guest; not pooled.

	ob.ps = ob.ps[:0]
	for j := 0; j < k; j++ {
		f := (start + j) % n
		ob.ps = append(ob.ps, ob.Pool.Clone(ob.OutAck[f]))
	}
	ob.pairs = ob.V.EgressBatch(ob.ps, ob.pairs[:0])
	for j := range ob.ps {
		out, extra := ob.pairs[2*j], ob.pairs[2*j+1]
		if out == nil && extra == nil {
			continue // egress may retain (see CloneEgress); never these
		}
		ob.Pool.Put(out)
		ob.Pool.Put(extra)
	}
}

// SenderStreamRound processes the next data/ACK pair of the sender train
// stream through the per-packet path. The stream visits each flow Train
// consecutive positions before moving to the next, so both the per-packet
// and the batch consumer of the same fixture see identical traffic; only
// the processing API differs.
func (ob *OverheadBench) SenderStreamRound() {
	n := len(ob.Acks)
	pos := ob.sCur
	ob.sCur = pos + 1
	f, j := (pos/ob.Train)%n, pos%ob.Train
	d := ob.Data[f*ob.Train+j]
	BumpSeq(d, uint32(ob.Train)*ob.payload)
	ob.V.EgressPath(d)
	BumpSeq(ob.Acks[f], 0)
	ob.CloneIngress(ob.Acks[f])
}

// SenderStreamBatch consumes the next k positions of the same stream through
// the batch path: one egress burst of data segments, one ingress burst of
// PACK-carrying ACKs.
func (ob *OverheadBench) SenderStreamBatch(k int) {
	n := len(ob.Acks)
	start := ob.sCur
	ob.sCur = start + k
	ob.ps = ob.ps[:0]
	for i := 0; i < k; i++ {
		pos := start + i
		f, j := (pos/ob.Train)%n, pos%ob.Train
		d := ob.Data[f*ob.Train+j]
		BumpSeq(d, uint32(ob.Train)*ob.payload)
		ob.ps = append(ob.ps, d)
	}
	ob.pairs = ob.V.EgressBatch(ob.ps, ob.pairs[:0])
	// Outputs are the in-place rewritten templates; nothing pooled to release.

	ob.ps = ob.ps[:0]
	for i := 0; i < k; i++ {
		f := ((start + i) / ob.Train) % n
		BumpSeq(ob.Acks[f], 0)
		ob.ps = append(ob.ps, ob.Pool.Clone(ob.Acks[f]))
	}
	ob.pairs = ob.V.IngressBatch(ob.ps, ob.pairs[:0])
	for j, q := range ob.ps {
		out, extra := ob.pairs[2*j], ob.pairs[2*j+1]
		if out == nil && extra == nil {
			ob.Pool.Put(q)
			continue
		}
		ob.Pool.Put(out)
		ob.Pool.Put(extra)
	}
}

// ReceiverStreamRound is SenderStreamRound for the receiver side: ingress
// the next data segment of the train stream, egress one ACK.
func (ob *OverheadBench) ReceiverStreamRound() {
	n := len(ob.OutAck)
	pos := ob.rCur
	ob.rCur = pos + 1
	f, j := (pos/ob.Train)%n, pos%ob.Train
	d := ob.InData[f*ob.Train+j]
	BumpSeq(d, uint32(ob.Train)*ob.payload)
	ob.V.IngressPath(d)
	ob.CloneEgress(ob.OutAck[f])
}

// ReceiverStreamBatch consumes the next k positions of the receiver stream
// through the batch path.
func (ob *OverheadBench) ReceiverStreamBatch(k int) {
	n := len(ob.OutAck)
	start := ob.rCur
	ob.rCur = start + k
	ob.ps = ob.ps[:0]
	for i := 0; i < k; i++ {
		pos := start + i
		f, j := (pos/ob.Train)%n, pos%ob.Train
		d := ob.InData[f*ob.Train+j]
		BumpSeq(d, uint32(ob.Train)*ob.payload)
		ob.ps = append(ob.ps, d)
	}
	ob.pairs = ob.V.IngressBatch(ob.ps, ob.pairs[:0])
	// Outputs are the templates themselves, headed for the guest; not pooled.

	ob.ps = ob.ps[:0]
	for i := 0; i < k; i++ {
		f := ((start + i) / ob.Train) % n
		ob.ps = append(ob.ps, ob.Pool.Clone(ob.OutAck[f]))
	}
	ob.pairs = ob.V.EgressBatch(ob.ps, ob.pairs[:0])
	for j := range ob.ps {
		out, extra := ob.pairs[2*j], ob.pairs[2*j+1]
		if out == nil && extra == nil {
			continue // egress may retain (see CloneEgress); never these
		}
		ob.Pool.Put(out)
		ob.Pool.Put(extra)
	}
}

// BaselineForward models what a plain vSwitch does per packet: validate and
// parse the headers to make a forwarding decision.
func BaselineForward(p *packet.Packet) (uint16, uint16) {
	ip := p.IP()
	if !ip.Valid() || ip.Protocol() != packet.ProtoTCP {
		return 0, 0
	}
	t := ip.TCP()
	if !t.Valid() {
		return 0, 0
	}
	return t.SrcPort(), t.DstPort()
}
