package main

import (
	"context"
	"fmt"
	"os/exec"
	"regexp"
	"strings"
	"time"
)

// cpuBuckets are the per-package groups the profile is aggregated into, in
// the order the metrics are reported. Anything else falls into "other".
var cpuBuckets = []struct{ name, pkg string }{
	{"sim", "acdc/internal/sim"},
	{"netsim", "acdc/internal/netsim"},
	{"core", "acdc/internal/core"},
	{"packet", "acdc/internal/packet"},
	{"tcpstack", "acdc/internal/tcpstack"},
	{"metrics", "acdc/internal/metrics"},
}

var totalRe = regexp.MustCompile(`of ([0-9.]+ms) total`)

// cpuShares aggregates the flat time of the CPU profiles in files by
// package, using the toolchain's own `go tool pprof -top` with every time in
// milliseconds (so that no row switches to a unit ParseDuration lacks, such
// as minutes). It returns the
// percentage of total samples per bucket (plus "runtime" and "other"), which
// sum to 100 within the rounding of pprof's printed durations.
func cpuShares(files []string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	args := append([]string{"tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, files...)
	out, err := exec.CommandContext(ctx, "go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(string(out))
}

// parseTop reads `pprof -top` text: a header naming the total sample time,
// then one row per function, "flat flat% sum% cum cum% name".
func parseTop(text string) (map[string]float64, error) {
	m := totalRe.FindStringSubmatch(text)
	if m == nil {
		return nil, fmt.Errorf("pprof output has no total line")
	}
	total, err := time.ParseDuration(m[1])
	if err != nil || total <= 0 {
		return nil, fmt.Errorf("pprof total %q: %v", m[1], err)
	}
	shares := map[string]float64{}
	var sum time.Duration
	rows := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		flat, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		sum += flat
		shares[bucketOf(pkgOf(strings.Join(f[5:], " ")))] += 100 * float64(flat) / float64(total)
	}
	if !rows {
		return nil, fmt.Errorf("pprof output has no rows")
	}
	if got := 100 * float64(sum) / float64(total); got < 99 || got > 101 {
		return nil, fmt.Errorf("pprof rows cover %.1f%% of samples, want ~100%%", got)
	}
	return shares, nil
}

// pkgOf extracts the import path from a symbol such as
// "acdc/internal/sim.(*Simulator).Run" or "runtime.mallocgc". Symbols
// without a package qualifier are the runtime's assembly routines
// ("aeshashbody", "memeqbody").
func pkgOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return "runtime"
}

func bucketOf(pkg string) string {
	for _, b := range cpuBuckets {
		if pkg == b.pkg {
			return b.name
		}
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}
