// Command perfbench is the repository's end-to-end benchmark. It builds one
// of three fixed simulator workloads from a seed through the public topo,
// workload and sim APIs, runs it for a fixed simulated window as fast as the
// host allows, checks the simulated outcome, and prints host-time and
// simulated-outcome metrics. With --trace 1 it instead reports per-layer
// counts, span times and a per-package CPU profile.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload congested-ports --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// named is one reported metric, kept in report order for the text output.
type named struct {
	name string
	metric
}

// report is one run's result: the JSON line, its metrics in report order,
// and the digest every repetition reproduced.
type report struct {
	res    result
	list   []named
	digest uint64
}

func main() {
	wl := flag.String("workload", "", "workload name: congested-ports, trace-websearch or fattree-stride")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "host seconds to spend on repetitions")
	traced := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for CPU profiles")
	flag.Parse()
	s, ok := specByName(*wl)
	if !ok || (*traced != 0 && *traced != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --trace 0|1 and --seconds >= 1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rp, err := bench(s, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range rp.list {
		fmt.Printf("%-28s %16.6g %s\n", m.name, m.Value, m.Unit)
	}
	// fail_ratio is failed ÷ attempted. It is printed here and carried by
	// the attempted/failed fields, not as a metric: a healthy run reads 0.
	fmt.Printf("%-28s %16.6g ratio\n", "fail_ratio", float64(rp.res.Failed)/float64(rp.res.Attempted))
	fmt.Printf("%-28s %16x\n", "digest", rp.digest)
	line, err := json.Marshal(rp.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// bench runs repetitions of s at one seed until budget is spent (at least
// three untraced ones, or one plain/profiled/traced cycle with trace on),
// verifies every repetition and summarizes them.
func bench(s spec, seed int64, budget time.Duration, traced bool, outDir string) (report, error) {
	modes := []repMode{modePlain}
	minCycles := 3
	if traced {
		modes = []repMode{modePlain, modeProfile, modeTrace}
		minCycles = 1
	}
	start := time.Now()
	var (
		reps     []*rep
		ref      *counts
		profiles []string
		cycles   []float64
		failed   int
	)
	for cycle := 0; ; cycle++ {
		if cycle >= minCycles && time.Since(start)+time.Duration(median(cycles)) > budget {
			break
		}
		t0 := time.Now()
		for _, mode := range modes {
			prof := ""
			if mode == modeProfile {
				prof = filepath.Join(outDir, fmt.Sprintf("%s-%d-%d.pprof", s.name, seed, cycle))
				profiles = append(profiles, prof)
			}
			r, err := runRep(s, seed, mode, prof)
			if err != nil {
				return report{}, err
			}
			if ref == nil {
				ref = &r.c
			}
			if problems := verify(s, r, *ref); len(problems) > 0 {
				failed++
				for _, p := range problems {
					fmt.Fprintf(os.Stderr, "perfbench: %s seed %d rep %d: %s\n", s.name, seed, len(reps), p)
				}
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d rep %d %s: setup %.6fs, window %.3fs CPU, %.3fs wall\n",
				s.name, seed, len(reps), mode, median(secs(r.setups)), r.run.Seconds(), r.wall.Seconds())
			reps = append(reps, r)
		}
		cycles = append(cycles, float64(time.Since(t0)))
	}
	rp := report{digest: ref.Digest}
	add := func(name string, v float64, unit string) {
		rp.list = append(rp.list, named{name, metric{v, unit}})
	}
	if traced {
		shares, err := cpuShares(profiles)
		if err != nil {
			return report{}, err
		}
		for _, p := range profiles {
			os.Remove(p) // scratch output; a leftover file is harmless
		}
		layerMetrics(add, reps, shares)
	} else {
		endToEnd(add, s, reps)
	}
	rp.res = result{Correct: failed == 0, Attempted: len(reps), Failed: failed, Metrics: map[string]metric{}}
	for _, m := range rp.list {
		rp.res.Metrics[m.name] = m.metric
	}
	return rp, nil
}

// verify checks one repetition's simulated outcome. ref is the first
// repetition's counts at the same seed, which every repetition (traced or
// not) must reproduce exactly.
func verify(s spec, r *rep, ref counts) []string {
	var bad []string
	c := r.c
	if c.Drops != 0 {
		bad = append(bad, fmt.Sprintf("%d packets dropped in the fabric, want 0", c.Drops))
	}
	if c.Delivered <= 0 {
		bad = append(bad, "no application bytes delivered")
	}
	if _, err := percentile(r.lat, s.tailPct); err != nil {
		bad = append(bad, "latency tail: "+err.Error())
	}
	core := []int64{c.CoreEgress, c.CoreIngress, c.RwndRewrites, c.FlowsCreated}
	for _, v := range core {
		if (v != 0) != s.vswitch {
			bad = append(bad, fmt.Sprintf("core counters %v: want all non-zero exactly when a vSwitch is attached (%v)", core, s.vswitch))
			break
		}
	}
	if c != ref {
		bad = append(bad, fmt.Sprintf("counts %+v differ from the first repetition's %+v", c, ref))
	}
	return append(bad, traceCoverage(r)...)
}

// traceCoverage checks that a traced repetition's wrappers saw every packet
// the model counted at the same boundary. A missed batch hook shows here as
// fewer traced core packets than the datapath processed.
func traceCoverage(r *rep) []string {
	t := r.trace
	if t == nil {
		return nil
	}
	var bad []string
	if t.pkts[layerCoreEg] != r.coreEgDelta || t.pkts[layerCoreIn] != r.coreInDelta {
		bad = append(bad, fmt.Sprintf("traced core packets %d/%d, datapath counted %d/%d",
			t.pkts[layerCoreEg], t.pkts[layerCoreIn], r.coreEgDelta, r.coreInDelta))
	}
	if t.pkts[layerSwitch] != r.c.SwitchPkts {
		bad = append(bad, fmt.Sprintf("traced switch packets %d, switches counted %d", t.pkts[layerSwitch], r.c.SwitchPkts))
	}
	if t.pkts[layerTxDone] != r.c.NicTx {
		bad = append(bad, fmt.Sprintf("traced NIC completions %d, NICs sent %d", t.pkts[layerTxDone], r.c.NicTx))
	}
	return bad
}

// endToEnd adds the end-to-end metrics: host-time medians over the
// repetitions and the simulated outcome, which is the same on every
// repetition of a seed.
func endToEnd(add func(string, float64, string), s spec, reps []*rep) {
	var setups, runs, hops, heaps []float64
	for _, r := range reps {
		setups = append(setups, secs(r.setups)...)
		runs = append(runs, r.run.Seconds())
		hops = append(hops, float64(r.c.Hops)/r.run.Seconds())
		heaps = append(heaps, float64(r.heapPeak)/1e6)
	}
	// A latency set that cannot support its percentiles has already failed
	// verify; the fallbacks only keep the metrics defined.
	lat := reps[0].lat
	p50, _ := percentile(lat, 50)
	tail, err := percentile(lat, s.tailPct)
	if err != nil && len(lat) > 0 {
		tail = slices.Max(lat)
	}
	add("setup_s", median(setups), "s")
	add("run_s", median(runs), "s")
	add("hops_per_s", median(hops), "hops/s")
	add("heap_peak_mb", median(heaps), "MB")
	add("sim_goodput_gbps", float64(reps[0].c.Delivered)*8/s.window.Seconds()/1e9, "Gbps")
	add("sim_lat_p50_us", p50/1e3, "us")
	add("sim_lat_tail_us", tail/1e3, "us")
}

// layerMetrics adds the per-layer metrics: exact counts from the first
// repetition (every repetition matched it, or verify failed it), span times
// as medians over the traced repetitions, runtime figures as medians over
// the plain ones.
func layerMetrics(add func(string, float64, string), reps []*rep, shares map[string]float64) {
	c := reps[0].c
	var plain, traced []*rep
	var topoMs, launchMs []float64
	for _, r := range reps {
		switch r.mode {
		case modeTrace:
			traced = append(traced, r)
		case modePlain:
			plain = append(plain, r)
		}
		for i := range r.topo {
			topoMs = append(topoMs, ms(r.topo[i]))
			launchMs = append(launchMs, ms(r.launch[i]))
		}
	}
	over := func(rs []*rep, f func(*rep) float64) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	span := func(f func(*tracer) float64) float64 {
		return over(traced, func(r *rep) float64 { return f(r.trace) })
	}
	// ratio is a/b, or 0 where the layer did no work (core on
	// fattree-stride), so every metric stays a number.
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	perPkt := func(d time.Duration, n int64) float64 { return ratio(d.Nanoseconds(), n) }
	t0 := traced[0].trace

	add("sim.events", float64(c.Events), "count")
	add("sim.events_per_hop", ratio(c.Events, c.Hops), "ratio")
	add("sim.pending_peak", float64(c.PendingPeak), "count")
	add("sim.event_allocs", float64(c.EventAllocs), "count")
	add("sim.ns_per_event", span(func(t *tracer) float64 { return perPkt(t.self(layerSim), c.Events) }), "ns")
	add("sim.self_ms", span(func(t *tracer) float64 { return ms(t.self(layerSim)) }), "ms")

	add("netsim.hops", float64(c.Hops), "count")
	add("netsim.switch_pkts", float64(c.SwitchPkts), "count")
	add("netsim.switch_ms", span(func(t *tracer) float64 { return ms(t.self(layerSwitch)) }), "ms")
	add("netsim.switch_ns_per_pkt", span(func(t *tracer) float64 {
		return perPkt(t.self(layerSwitch), t.pkts[layerSwitch])
	}), "ns")
	add("netsim.ecmp_pkts", float64(c.EcmpPkts), "count")
	add("netsim.ecn_marks", float64(c.EcnMarks), "count")
	add("netsim.drops", float64(c.Drops), "count")
	add("netsim.queue_peak_kb", float64(c.QueuePeakBytes)/1e3, "kB")

	add("core.egress_pkts", float64(c.CoreEgress), "count")
	add("core.ingress_pkts", float64(c.CoreIngress), "count")
	add("core.egress_ms", span(func(t *tracer) float64 { return ms(t.self(layerCoreEg)) }), "ms")
	add("core.ingress_ms", span(func(t *tracer) float64 { return ms(t.self(layerCoreIn)) }), "ms")
	add("core.ns_per_pkt", span(func(t *tracer) float64 {
		return perPkt(t.self(layerCoreEg)+t.self(layerCoreIn), t.pkts[layerCoreEg]+t.pkts[layerCoreIn])
	}), "ns")
	add("core.pkts_per_call", ratio(t0.pkts[layerCoreEg]+t0.pkts[layerCoreIn], t0.calls[layerCoreEg]+t0.calls[layerCoreIn]), "ratio")
	add("core.rwnd_rewrites", float64(c.RwndRewrites), "count")
	add("core.rewrite_ratio", ratio(c.RwndRewrites, c.RwndRewrites+c.RwndNoop), "ratio")
	add("core.flows_created", float64(c.FlowsCreated), "count")
	add("core.facks", float64(c.Facks), "count")

	add("tcpstack.rx_pkts", float64(c.HostRx), "count")
	add("tcpstack.rx_self_ms", span(func(t *tracer) float64 { return ms(t.self(layerRx)) }), "ms")
	add("tcpstack.txdone_pkts", float64(c.NicTx), "count")
	add("tcpstack.txdone_ms", span(func(t *tracer) float64 { return ms(t.self(layerTxDone)) }), "ms")
	add("tcpstack.retrans_segs", float64(c.RetransSegs), "count")
	add("tcpstack.timeouts", float64(c.Timeouts), "count")

	add("packet.pool_gets", float64(c.PoolGets), "count")
	add("packet.pool_news", float64(c.PoolNews), "count")
	add("packet.reuse_ratio", ratio(c.PoolGets-c.PoolNews, c.PoolGets), "ratio")

	add("topo.build_ms", median(topoMs), "ms")
	add("workload.launch_ms", median(launchMs), "ms")

	add("runtime.mallocs", over(plain, func(r *rep) float64 { return float64(r.mallocs) }), "count")
	add("runtime.alloc_mb", over(plain, func(r *rep) float64 { return float64(r.allocBytes) / 1e6 }), "MB")
	add("runtime.gc_cycles", over(plain, func(r *rep) float64 { return float64(r.gcCycles) }), "count")
	add("runtime.gc_pause_ms", over(plain, func(r *rep) float64 { return ms(r.gcPause) }), "ms")

	for _, b := range cpuBuckets {
		add("cpu."+b.name+"_pct", shares[b.name], "%")
	}
	add("cpu.runtime_pct", shares["runtime"], "%")
	add("cpu.other_pct", shares["other"], "%")

	runS := func(r *rep) float64 { return r.run.Seconds() }
	add("trace.overhead_ratio", over(traced, runS)/over(plain, runS), "ratio")
}

func secs(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
