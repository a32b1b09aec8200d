package main

import (
	"math/rand"
	"time"

	"acdc/internal/experiments"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
	"acdc/internal/trace"
	"acdc/internal/workload"
)

// spec is one benchmark workload: a fixed simulated window over a topology
// and traffic mix generated from the seed.
type spec struct {
	name string
	// window is the simulated time one repetition runs.
	window sim.Duration
	// tailPct is the fixed tail percentile of sim_lat_tail_us. It is the
	// highest percentile that keeps at least minBeyond samples beyond it at
	// every seed the benchmark was checked with; verify refuses a run that
	// does not.
	tailPct float64
	// vswitch reports whether an AC/DC module is attached to every host, so
	// the core datapath must do work (and must not when false).
	vswitch bool
	build   func(seed int64) *instance
}

// instance is one built workload, ready for its first Run. The drivers below
// mirror workload.Prober, TraceDriven and Stride rather than call them,
// because the digest and the tcpstack counters need every connection and
// every raw latency sample, which those drivers keep to themselves.
type instance struct {
	net *topo.Net
	// flows are every connection the drivers opened, in creation order.
	flows []*workload.Messenger
	// lat collects the simulated latency samples in ns: prober round trips
	// or mice flow completion times.
	lat []float64
	// topoDur and launchDur split set-up into topology build (including
	// vSwitch attach) and listener plus driver launch.
	topoDur, launchDur time.Duration
}

// Mice are messages under 10KB, as in the paper's trace-driven figures.
const miceCutoff = 10 << 10

var specs = []spec{
	{name: "congested-ports", window: 300 * sim.Millisecond, tailPct: 99, vswitch: true, build: buildCongestedPorts},
	{name: "trace-websearch", window: 400 * sim.Millisecond, tailPct: 98, vswitch: true, build: buildTraceWebSearch},
	{name: "fattree-stride", window: 300 * sim.Millisecond, tailPct: 99.5, vswitch: false, build: buildFatTreeStride},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// fabricSeed seeds the simulator itself (ISNs, ECMP hash seeds). It is the
// same for every benchmark seed: the seed generates the traffic, not the
// fabric, so two seeds compare two inputs on one system rather than two
// ECMP path placements.
const fabricSeed = 1

func options(s experiments.Scheme) topo.Options {
	return topo.Options{Guest: s.Guest, ACDC: s.ACDC, RED: s.RED, Seed: fabricSeed}
}

// open dials one tracked connection.
func (in *instance) open(m *workload.Manager, from, to int) *workload.Messenger {
	ms := m.Open(from, to)
	in.flows = append(in.flows, ms)
	return ms
}

// buildCongestedPorts is the Figure 20 shape under AC/DC: 16 group-A hosts
// each run 4 intra-group bulk flows plus 1 into the hot host B1, and B2
// probes B1 through the hot port from 100ms on. Each bulk flow starts at a
// seeded offset within the first 2ms.
func buildCongestedPorts(seed int64) *instance {
	const groupA = 16
	in := &instance{}
	t0 := time.Now()
	net := topo.Star(groupA+2, options(experiments.SchemeACDC(9000, "cubic", tcpstack.ECNOff)))
	in.net = net
	t1 := time.Now()
	m := workload.NewManager(net)
	rng := rand.New(rand.NewSource(seed))
	bulk := func(from, to int) {
		ms := in.open(m, from, to)
		net.Sim.Schedule(sim.Duration(rng.Int63n(int64(2*sim.Millisecond))), func() { ms.SendBulk(1 << 42) })
	}
	b1, b2 := groupA, groupA+1
	for i := 0; i < groupA; i++ {
		for j := 1; j <= 4; j++ {
			bulk(i, (i+j)%groupA)
		}
		bulk(i, b1)
	}
	p := in.newProber(m, b2, b1) // dialed before congestion, like sockperf
	net.Sim.Schedule(100*sim.Millisecond, p.send)
	in.topoDur, in.launchDur = t1.Sub(t0), time.Since(t1)
	return in
}

// buildTraceWebSearch is the Figure 23 web-search half under AC/DC: 17
// hosts, 5 closed-loop apps per host, each app holding a connection to every
// other host and sending web-search-sized messages to random destinations
// back to back. The draws follow workload.TraceDriven's order, from the
// benchmark seed.
func buildTraceWebSearch(seed int64) *instance {
	const hosts, apps = 17, 5
	in := &instance{}
	t0 := time.Now()
	net := topo.Star(hosts, options(experiments.SchemeACDC(9000, "cubic", tcpstack.ECNOff)))
	in.net = net
	t1 := time.Now()
	m := workload.NewManager(net)
	rng := rand.New(rand.NewSource(seed))
	dist := trace.WebSearch()
	for i := 0; i < hosts; i++ {
		for a := 0; a < apps; a++ {
			conns := make([]*workload.Messenger, hosts)
			for d := 0; d < hosts; d++ {
				if d != i {
					conns[d] = in.open(m, i, d)
				}
			}
			var next func()
			next = func() {
				size := dist.Sample(rng)
				d := rng.Intn(hosts - 1)
				if d >= i {
					d++
				}
				conns[d].SendMessage(size, func(fct sim.Duration) {
					if size < miceCutoff {
						in.lat = append(in.lat, float64(fct))
					}
					next()
				})
			}
			net.Sim.Schedule(sim.Duration(rng.Int63n(int64(sim.Millisecond))), next)
		}
	}
	in.topoDur, in.launchDur = t1.Sub(t0), time.Since(t1)
	return in
}

// buildFatTreeStride is the concurrent-stride mix on a k=4 fat-tree (16
// hosts, ECMP) under host DCTCP with no vSwitch: host i streams 8MB
// background messages back to back to each of i+1..i+4 and a 16KB mouse to
// i+8 every 2ms from a phase drawn from the seed. The pattern matches
// workload.Stride.
func buildFatTreeStride(seed int64) *instance {
	const (
		bgBytes    = 8 << 20
		miceBytes  = 16 << 10
		micePeriod = 2 * sim.Millisecond
	)
	in := &instance{}
	cfg := topo.FatTreeConfig{K: 4}
	t0 := time.Now()
	net := topo.FatTree(cfg, options(experiments.SchemeDCTCP(9000)))
	in.net = net
	t1 := time.Now()
	m := workload.NewManager(net)
	rng := rand.New(rand.NewSource(seed))
	n := cfg.Hosts()
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			conn := in.open(m, i, (i+1+j)%n)
			var next func()
			next = func() { conn.SendMessage(bgBytes, func(sim.Duration) { next() }) }
			next()
		}
		mice := in.open(m, i, (i+8)%n)
		var tick func()
		tick = func() {
			mice.SendMessage(miceBytes, func(fct sim.Duration) { in.lat = append(in.lat, float64(fct)) })
			net.Sim.Schedule(micePeriod, tick)
		}
		net.Sim.Schedule(sim.Duration(rng.Int63n(int64(micePeriod))), tick)
	}
	in.topoDur, in.launchDur = t1.Sub(t0), time.Since(t1)
	return in
}

// prober is a sockperf-style ping-pong over one connection: a 64-byte
// request, an immediate 64-byte reply, the next request only after the
// reply. It mirrors workload.Prober but records into the instance.
type prober struct {
	in      *instance
	ms      *workload.Messenger
	respEnd int64
	started sim.Time
}

const probeBytes = 64

func (in *instance) newProber(m *workload.Manager, from, to int) *prober {
	p := &prober{in: in, ms: in.open(m, from, to)}
	p.ms.Cli.OnRecv = func(int) {
		if p.respEnd > 0 && p.ms.Cli.Delivered >= p.respEnd {
			in.lat = append(in.lat, float64(p.ms.Sim.Now()-p.started))
			p.send()
		}
	}
	p.ms.OnMessage = func(int64) {
		p.respEnd += probeBytes
		p.ms.Srv().Send(probeBytes)
	}
	return p
}

func (p *prober) send() {
	p.started = p.ms.Sim.Now()
	p.ms.SendMessage(probeBytes, nil)
}
