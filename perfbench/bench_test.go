package main

import (
	"math"
	"strings"
	"testing"

	"acdc/internal/sim"
)

// TestTracedRunMatchesUntraced runs a short window of each workload twice
// untraced and once traced: every exact count and the digest must agree, the
// wrappers must see every packet the model counted, and core must work
// exactly when a vSwitch is attached.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			s.window = 20 * sim.Millisecond
			var reps []*rep
			for _, mode := range []repMode{modePlain, modePlain, modeTrace} {
				r, err := runRep(s, 7, mode, "")
				if err != nil {
					t.Fatal(err)
				}
				reps = append(reps, r)
			}
			ref := reps[0].c
			if ref.Events == 0 || ref.Hops == 0 || ref.PoolGets == 0 {
				t.Fatalf("window did no work: %+v", ref)
			}
			for i, r := range reps[1:] {
				if r.c != ref {
					t.Errorf("rep %d counts %+v, want %+v", i+1, r.c, ref)
				}
			}
			if bad := traceCoverage(reps[2]); len(bad) > 0 {
				t.Errorf("traced run: %s", strings.Join(bad, "; "))
			}
			tr := reps[2].trace
			coreWork := []int64{ref.CoreEgress, ref.CoreIngress, ref.FlowsCreated, tr.pkts[layerCoreEg], tr.pkts[layerCoreIn]}
			for _, v := range coreWork {
				if (v != 0) != s.vswitch {
					t.Errorf("core work %v with vswitch=%v", coreWork, s.vswitch)
					break
				}
			}
			if tr.calls[layerSim] == 0 || tr.pkts[layerSwitch] == 0 || tr.pkts[layerRx] == 0 {
				t.Errorf("traced run recorded no spans: calls %v pkts %v", tr.calls, tr.pkts)
			}
		})
	}
}

// TestDifferentSeedsDiffer guards against a seed that does not reach the
// generated traffic.
func TestDifferentSeedsDiffer(t *testing.T) {
	for _, s := range specs {
		s.window = 20 * sim.Millisecond
		a, err := runRep(s, 1, modePlain, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := runRep(s, 2, modePlain, "")
		if err != nil {
			t.Fatal(err)
		}
		if a.c.Digest == b.c.Digest {
			t.Errorf("%s: seeds 1 and 2 give the same digest", s.name)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n     int
		p     float64
		valid bool
	}{
		{1000, 50, true},
		{1000, 99, true},    // exactly 10 beyond
		{1000, 99.5, false}, // 5 beyond
		{100, 95, false},    // 5 beyond
		{100, 90, true},     // 10 beyond
		{2400, 99.5, true},  // 12 beyond
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: percentile must sort
		}
		got, err := percentile(xs, tc.p)
		if (err == nil) != tc.valid {
			t.Errorf("p%g of %d: err %v, want valid=%v", tc.p, tc.n, err, tc.valid)
			continue
		}
		if want := math.Ceil(tc.p * float64(tc.n) / 100); tc.valid && got != want {
			t.Errorf("p%g of %d = %g, want %g", tc.p, tc.n, got, want)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples succeeded")
	}
}

const sampleTop = `File: perfbench
Type: cpu
Duration: 5.06s, Total samples = 4000ms (79.05%)
Showing nodes accounting for 4000ms, 100% of 4000ms total
      flat  flat%   sum%        cum   cum%
    1200ms 30.00% 30.00%     1500ms 37.50%  acdc/internal/sim.(*Simulator).siftDown
     800ms 20.00% 50.00%      800ms 20.00%  acdc/internal/core.(*VSwitch).processAckLocked
     600ms 15.00% 65.00%      600ms 15.00%  runtime.mallocgc
     400ms 10.00% 75.00%      400ms 10.00%  aeshashbody
     400ms 10.00% 85.00%     2000ms 50.00%  acdc/internal/netsim.(*Link).deliverHead
     300ms  7.50% 92.50%      300ms  7.50%  internal/runtime/maps.(*Map).getWithKeySmall
     200ms  5.00% 97.50%      200ms  5.00%  sync/atomic.(*Int32).Add (inline)
     100ms  2.50%   100%      100ms  2.50%  acdc/internal/packet.sum (inline)
         0     0%   100%     3900ms 97.50%  acdc/internal/sim.(*Simulator).Run
`

func TestParseTopSharesByPackage(t *testing.T) {
	shares, err := parseTop(sampleTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 30, "core": 20, "runtime": 32.5, "netsim": 10, "other": 5, "packet": 2.5}
	var sum float64
	for k, v := range shares {
		sum += v
		if math.Abs(v-want[k]) > 1e-9 {
			t.Errorf("%s = %g%%, want %g%%", k, v, want[k])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %g%%", sum)
	}
	if _, err := parseTop(strings.Replace(sampleTop, "    1200ms 30.00%", "     200ms  5.00%", 1)); err == nil {
		t.Error("rows covering 75% of samples were accepted")
	}
}
