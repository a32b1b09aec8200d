package main

import (
	"time"

	"acdc/internal/netsim"
	"acdc/internal/packet"
)

// layer names one traced boundary.
type layer int

const (
	layerSim    layer = iota // Sim.RunFor slices
	layerCoreEg              // Host.Egress / Host.EgressBatch
	layerCoreIn              // Host.Ingress / Host.IngressBatch
	layerRx                  // Host.Demux (tcpstack receive)
	layerTxDone              // NIC Link.OnTxDone (tcpstack TSQ completion)
	layerSwitch              // Link.Dst of switch-bound links
	numLayers
)

// tracer aggregates spans per layer. Spans nest on one goroutine (the
// simulation's), so a stack is enough to attribute each span's time to its
// parent as child time; self time is total minus child.
type tracer struct {
	total, child [numLayers]time.Duration
	calls, pkts  [numLayers]int64
	stack        []frame
}

type frame struct {
	l     layer
	start time.Time
	child time.Duration
}

func (t *tracer) begin(l layer) {
	t.stack = append(t.stack, frame{l: l, start: time.Now()})
}

func (t *tracer) end(pkts int) {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := time.Since(f.start)
	t.total[f.l] += d
	t.child[f.l] += f.child
	t.calls[f.l]++
	t.pkts[f.l] += int64(pkts)
	if n > 0 {
		t.stack[n-1].child += d
	}
}

func (t *tracer) self(l layer) time.Duration { return t.total[l] - t.child[l] }

// wrap installs span wrappers on every public hook point of the built
// topology. It only observes: each wrapper calls the hook it replaced with
// the same arguments and returns its results, so the model is unchanged.
// The per-packet and batch hooks are replaced together (the BatchPathHook
// invariant in netsim), otherwise bursts would bypass the per-packet wrapper
// and core would be undercounted.
func (t *tracer) wrap(in *instance) {
	for _, h := range in.net.Hosts {
		if eg := h.Egress; eg != nil {
			h.Egress = func(p *packet.Packet) (out, extra *packet.Packet) {
				t.begin(layerCoreEg)
				out, extra = eg(p)
				t.end(1)
				return out, extra
			}
		}
		if egb := h.EgressBatch; egb != nil {
			h.EgressBatch = func(ps, pairs []*packet.Packet) []*packet.Packet {
				t.begin(layerCoreEg)
				pairs = egb(ps, pairs)
				t.end(len(ps))
				return pairs
			}
		}
		if ig := h.Ingress; ig != nil {
			h.Ingress = func(p *packet.Packet) (out, extra *packet.Packet) {
				t.begin(layerCoreIn)
				out, extra = ig(p)
				t.end(1)
				return out, extra
			}
		}
		if igb := h.IngressBatch; igb != nil {
			h.IngressBatch = func(ps, pairs []*packet.Packet) []*packet.Packet {
				t.begin(layerCoreIn)
				pairs = igb(ps, pairs)
				t.end(len(ps))
				return pairs
			}
		}
		demux := h.Demux
		h.Demux = netsim.HandlerFunc(func(p *packet.Packet) {
			t.begin(layerRx)
			demux.HandlePacket(p)
			t.end(1)
		})
		if txDone := h.NIC.OnTxDone; txDone != nil {
			h.NIC.OnTxDone = func(p *packet.Packet) {
				t.begin(layerTxDone)
				txDone(p)
				t.end(1)
			}
		}
	}
	for _, l := range in.net.Links {
		if sw, ok := l.Dst.(*netsim.Switch); ok {
			l.Dst = netsim.HandlerFunc(func(p *packet.Packet) {
				t.begin(layerSwitch)
				sw.HandlePacket(p)
				t.end(1)
			})
		}
	}
}
