package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"acdc/internal/sim"
	"acdc/internal/tcpstack"
)

// slice is the simulated span of one RunFor call. Slicing does not perturb
// the model (no event runs between slices); the slice boundaries are where
// the pending-queue depth and the live heap are sampled.
const slice = 100 * sim.Microsecond

// setupsPerRep is how many times a repetition builds the workload; every
// build is timed and the last one is run.
const setupsPerRep = 20

// minBeyond is the fewest samples a tail percentile must leave beyond it.
const minBeyond = 10

// counts are the exact model counters of one repetition. For one seed they
// are identical on every repetition, traced or not.
type counts struct {
	Events, EventAllocs, PendingPeak                              int64 // sim
	Hops, SwitchPkts, EcmpPkts, EcnMarks, Drops, QueuePeakBytes   int64 // netsim
	CoreEgress, CoreIngress, RwndRewrites, RwndNoop, FlowsCreated int64 // core
	Facks                                                         int64 // core
	NicTx, HostRx, RetransSegs, Timeouts                          int64 // tcpstack
	PoolGets, PoolNews                                            int64 // packet
	Delivered, LatN                                               int64 // outcome
	Digest                                                        uint64
}

// rep is one repetition: set-up, the simulated window and its outcome.
type rep struct {
	// setups are the CPU times of the builds; topo and launch split each
	// build's wall time between the topology and the drivers.
	setups       []time.Duration
	topo, launch []time.Duration
	// run is the CPU time the window took, wall the elapsed time.
	run, wall  time.Duration
	heapPeak   uint64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	c          counts
	lat        []float64
	mode       repMode
	trace      *tracer
	// coreEgDelta and coreInDelta are the core segment counters over the
	// window only, to check that the traced wrappers saw every packet.
	coreEgDelta, coreInDelta int64
}

// repMode says what a repetition records besides the exact counts.
type repMode string

const (
	modePlain   repMode = "plain"
	modeProfile repMode = "profiled" // CPU profile of the window
	modeTrace   repMode = "traced"   // per-layer spans
)

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func readLiveHeap() uint64 {
	metrics.Read(liveHeap)
	if liveHeap[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return liveHeap[0].Value.Uint64()
}

// runRep builds the workload setupsPerRep times, then runs the last build
// for the spec's window. profile, when non-empty, is the file the window's
// CPU profile goes to.
func runRep(s spec, seed int64, mode repMode, profile string) (*rep, error) {
	r := &rep{mode: mode}
	var in *instance
	for i := 0; i < setupsPerRep; i++ {
		in = nil // let the previous build be collected before timing the next
		runtime.GC()
		cpu0 := cpuTime()
		in = s.build(seed)
		r.setups = append(r.setups, cpuTime()-cpu0)
		r.topo = append(r.topo, in.topoDur)
		r.launch = append(r.launch, in.launchDur)
	}
	eg0, ig0 := coreSegs(in)
	if mode == modeTrace {
		r.trace = &tracer{}
		r.trace.wrap(in)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.heapPeak = readLiveHeap()
	var prof *os.File
	if mode == modeProfile {
		f, err := os.Create(profile)
		if err != nil {
			return nil, fmt.Errorf("create profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("start profile: %w", err)
		}
		prof = f
	}
	s0 := in.net.Sim
	var pendingPeak int
	t0, cpu0 := time.Now(), cpuTime()
	for s0.Now() < s.window {
		if tr := r.trace; tr != nil {
			tr.begin(layerSim)
			s0.RunFor(slice)
			tr.end(0)
		} else {
			s0.RunFor(slice)
		}
		pendingPeak = max(pendingPeak, s0.Pending())
		r.heapPeak = max(r.heapPeak, readLiveHeap())
	}
	r.wall = time.Since(t0)
	r.run = cpuTime() - cpu0
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, fmt.Errorf("write profile: %w", err)
		}
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	r.heapPeak = max(r.heapPeak, readLiveHeap())
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	r.c = collect(in, int64(pendingPeak))
	eg1, ig1 := coreSegs(in)
	r.coreEgDelta, r.coreInDelta = eg1-eg0, ig1-ig0
	r.lat = in.lat
	return r, nil
}

func coreSegs(in *instance) (eg, ig int64) {
	for _, v := range in.net.ACDC {
		if v != nil {
			st := v.Stats()
			eg += st.EgressSegs
			ig += st.IngressSegs
		}
	}
	return eg, ig
}

// collect reads every exact counter and folds the simulated statistics into
// the digest: per-link sent, drop and mark counts, per-flow delivered bytes
// and the latency samples.
func collect(in *instance, pendingPeak int64) counts {
	n := in.net
	c := counts{
		Events:      int64(n.Sim.Processed),
		EventAllocs: n.Sim.Allocated(),
		PendingPeak: pendingPeak,
		PoolGets:    n.Pool.Gets,
		PoolNews:    n.Pool.News,
		LatN:        int64(len(in.lat)),
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, l := range n.Links {
		st := &l.Stats
		c.Hops += st.SentPackets
		c.EcnMarks += st.Marks
		c.Drops += st.Drops + st.DropsFault + st.DropsDown
		c.QueuePeakBytes = max(c.QueuePeakBytes, int64(st.MaxQueueBytes))
		put(st.SentPackets)
		put(st.Drops + st.DropsFault + st.DropsDown)
		put(st.Marks)
	}
	for _, h := range n.Hosts {
		c.NicTx += h.NIC.Stats.SentPackets
		c.HostRx += h.RecvPackets
	}
	for _, sw := range n.Switches {
		st := &sw.Stats
		c.SwitchPkts += st.Forwarded + st.NoRoute + st.TTLDrops + st.Blackholes
		c.Drops += st.NoRoute + st.TTLDrops + st.Blackholes
		c.EcmpPkts += st.EcmpForwarded
	}
	for _, v := range n.ACDC {
		if v == nil {
			continue
		}
		st := v.Stats()
		c.CoreEgress += st.EgressSegs
		c.CoreIngress += st.IngressSegs
		c.RwndRewrites += st.RwndRewrites
		c.RwndNoop += st.RwndUnchanged
		c.FlowsCreated += st.FlowsCreated
		c.Facks += st.FacksSent
	}
	for _, ms := range in.flows {
		c.Delivered += ms.Delivered()
		put(ms.Delivered())
		for _, conn := range []*tcpstack.Conn{ms.Cli, ms.Srv()} {
			if conn != nil {
				c.RetransSegs += conn.RetransSegs
				c.Timeouts += conn.Timeouts
			}
		}
	}
	for _, x := range in.lat {
		put(int64(x))
	}
	c.Digest = h.Sum64()
	return c
}

// percentile returns the p-th percentile of xs by nearest rank. It refuses a
// tail percentile that leaves fewer than minBeyond samples beyond it, since
// such a tail is set by a handful of samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	rank = min(max(rank, 1), n)
	if p > 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the CPU time the process has used, user plus system, over all
// its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
