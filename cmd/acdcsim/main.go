// Command acdcsim runs the paper-reproduction experiments.
//
// Usage:
//
//	acdcsim -list              list experiment IDs
//	acdcsim fig8 table1 …      run selected experiments
//	acdcsim -all               run the whole registry
//	acdcsim -long fig14        closer-to-paper durations (~10×)
//	acdcsim -seed 7 fig1       change the simulation seed
//	acdcsim -parallel 0 -all   run experiments on one worker per CPU
//	acdcsim -faults loss fig8  inject a named fault profile (chaos run)
//	acdcsim -faults drop=0.01,jitter=50us fig8
//	acdcsim -restart warm@1ms fig8       restart every vSwitch mid-run
//	acdcsim -restart stale@1ms,age=500us,down=50us fig8
//	acdcsim -fabric link-down@5ms,link=left>right,for=1ms fig8
//	acdcsim -audit fig8        check datapath invariants, log violations
//	acdcsim -audit-panic fig8  ...or abort on the first violation
//
// -parallel N runs the selected experiments over N workers (0 = one per
// CPU; the default 1 is the sequential path). Each experiment owns its own
// simulator, so results and their printed order are identical to a
// sequential run — only wall time changes.
//
// Run `acdcsim -faults list` to list the built-in profiles,
// `acdcsim -restart list` to list the restart variants, and
// `acdcsim -fabric list` for the fabric fault-domain syntax. Fabric plans
// address links by topology-specific names (the dumbbell trunk is
// "left>right"); a plan matching zero links aborts the run rather than
// silently reporting a clean fabric.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"acdc/internal/experiments"
	"acdc/internal/runopts"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	all := flag.Bool("all", false, "run every experiment")
	long := flag.Bool("long", false, "run closer-to-paper durations (~10x)")
	opts := runopts.Register(flag.CommandLine)
	flag.Parse()

	cfg, listed, err := opts.Config(os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acdcsim: %v\n", err)
		os.Exit(2)
	}
	if listed {
		return
	}
	cfg.Long = *long

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	ids := flag.Args()
	if *all {
		ids = nil
		for _, e := range experiments.Registry {
			ids = append(ids, e.ID)
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: acdcsim [-long] [-seed N] [-faults P] [-restart R] [-fabric D] [-audit] (-list | -all | <experiment-id>...)")
		fmt.Fprintln(os.Stderr, "run `acdcsim -list` for available experiments")
		os.Exit(2)
	}

	on := strings.Join(ids, " ")
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		// Announce chaos runs up front (and only then, so fault-free output
		// is byte-identical to a build without the flag).
		fmt.Printf("fault injection: %s (seed %d) on %s\n\n", cfg.Faults.String(), cfg.Seed, on)
	}
	if cfg.Restart != nil {
		fmt.Printf("vSwitch restart: %s on %s\n\n", cfg.Restart.String(), on)
	}
	if cfg.Backend != "" {
		// Announced only when set, so default-backend output stays
		// byte-identical to a build without the flag.
		fmt.Printf("enforcement backend: %s on %s\n\n", cfg.Backend, on)
	}
	if len(cfg.Fabric) > 0 {
		fmt.Printf("fabric fault domains: %s (seed %d) on %s\n\n", runopts.FabricString(cfg.Fabric), cfg.Seed, on)
	}
	if cfg.Audit != nil {
		fmt.Printf("invariant audit: enabled (%s mode) on %s\n\n", runopts.AuditMode(cfg.Audit), on)
	}
	exit := 0
	var jobs []experiments.Job
	for _, id := range ids {
		e := experiments.ByID(id)
		if e == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			exit = 1
			continue
		}
		jobs = append(jobs, experiments.Job{Exp: *e, Cfg: cfg})
	}
	// Wrap each run with per-experiment timing; results stream out strictly
	// in job order, so parallel output matches sequential output (modulo the
	// wall-time lines, which also vary run to run sequentially).
	durs := make([]time.Duration, len(jobs))
	for i := range jobs {
		i, run := i, jobs[i].Exp.Run
		jobs[i].Exp.Run = func(c experiments.RunConfig) *experiments.Result {
			start := time.Now()
			res := run(c)
			durs[i] = time.Since(start)
			return res
		}
	}
	experiments.Sweep(jobs, opts.Parallel, func(i int, res *experiments.Result) {
		fmt.Print(res.String())
		fmt.Printf("(wall time %.1fs)\n\n", durs[i].Seconds())
	})
	os.Exit(exit)
}
