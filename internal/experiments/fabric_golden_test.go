package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acdc/internal/sim"
	"acdc/internal/topo"
	"acdc/internal/workload"
)

// TestFatTreeStrideGolden pins fabric-level behaviour the way
// TestDumbbellFiguresGolden pins the single-path figures: a k=4 ECMP
// fat-tree under host DCTCP runs workload.Stride for a short window at seed
// 1, and every link's sent/drop/mark counters plus the sorted mice FCTs are
// compared byte for byte with a checked-in golden. Multi-hop ECMP paths,
// switch-to-switch links and many concurrent in-flight packets are what the
// dumbbells do not cover, so a change to event ordering in the simulator
// core shows up here first. Regenerate deliberately with
//
//	go test ./internal/experiments/ -run TestFatTreeStrideGolden -update
//
// and justify the diff in the PR.
func TestFatTreeStrideGolden(t *testing.T) {
	got := renderFatTreeStride(1)
	path := filepath.Join("testdata", "fattree_stride_seed1.golden")
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("fat-tree stride diverged from golden %s\n--- golden ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
}

func renderFatTreeStride(seed int64) string {
	s := SchemeDCTCP(9000)
	cfg := topo.FatTreeConfig{K: 4}
	net := topo.FatTree(cfg, topo.Options{Guest: s.Guest, RED: s.RED, Seed: seed})
	var fcts workload.FCTs
	workload.Stride(workload.NewManager(net), workload.StrideConfig{
		N:          cfg.Hosts(),
		BgBytes:    1 << 20,
		MiceBytes:  16 << 10,
		MicePeriod: 2 * sim.Millisecond,
	}, &fcts)
	net.Sim.Run(20 * sim.Millisecond)

	var b strings.Builder
	fmt.Fprintf(&b, "fat-tree k=4 stride seed=%d window=%v events=%d\n", seed, net.Sim.Now(), net.Sim.Processed)
	b.WriteString("link sent drops marks\n")
	for _, l := range net.Links {
		fmt.Fprintf(&b, "%s %d %d %d\n", l.Name, l.Stats.SentPackets, l.Stats.Drops, l.Stats.Marks)
	}
	fmt.Fprintf(&b, "background completed=%d\n", fcts.Background.N())
	fmt.Fprintf(&b, "mice completed=%d fct_ns:\n", fcts.Mice.N())
	for _, p := range fcts.Mice.CDF(fcts.Mice.N()) {
		fmt.Fprintf(&b, "%.0f\n", p[0])
	}
	return b.String()
}
