// Package runopts is the run-option set the command-line tools share:
// -seed, -parallel, -faults, -restart, -fabric, -audit, -audit-panic and
// -backend, parsed and validated once and turned into an
// experiments.RunConfig. acdcsim and acdcreport register the whole set;
// acdcsuite and acdcd reuse the pieces they have (the -backend flag, the
// `list` convention of the plan flags, the -fabric parser).
package runopts

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"acdc/internal/audit"
	"acdc/internal/core"
	"acdc/internal/experiments"
	"acdc/internal/faults"
)

// Options holds the shared flags of an experiment run. Parallel is the
// worker count for experiments.Sweep; the rest reach the run through Config.
type Options struct {
	Parallel int

	seed                               int64
	backend                            *string
	faultSpec, restartSpec, fabricSpec string
	audit, auditPanic                  bool
}

// Register binds the whole shared set on fs with the experiment tools'
// defaults (seed 1, sequential workers).
func Register(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.Parallel, "parallel", 1, "experiment workers (0 = one per CPU, 1 = sequential)")
	// A backquoted `list` makes the flag package show it as the value
	// placeholder in -h output.
	fs.StringVar(&o.faultSpec, "faults", "", "fault profile: a built-in name or k=v list (`list` to enumerate)")
	fs.StringVar(&o.restartSpec, "restart", "", "vSwitch restart plan: mode[@time][,key=val...] (`list` to enumerate)")
	fs.StringVar(&o.fabricSpec, "fabric", "", "fabric fault domains: kind[@time],key=val,...;... (`list` for syntax)")
	fs.BoolVar(&o.audit, "audit", false, "attach the datapath invariant auditor to every AC/DC vSwitch (violations logged to stderr)")
	fs.BoolVar(&o.auditPanic, "audit-panic", false, "like -audit, but the first violation aborts the run")
	o.backend = Backend(fs, "enforcement backend on every AC/DC vSwitch (%s; empty = dctcp-cut)")
	return o
}

// Backend defines -backend on fs. usage holds one %s, filled with the
// selectable backends from core.BackendNames.
func Backend(fs *flag.FlagSet, usage string) *string {
	return fs.String("backend", "", fmt.Sprintf(usage, strings.Join(core.BackendNames(), ", ")))
}

// Listed reports whether a plan flag's value asks for its syntax (`list`,
// or `help`), printing help() to w if so.
func Listed(w io.Writer, spec string, help func() string) bool {
	if spec != "list" && spec != "help" {
		return false
	}
	fmt.Fprint(w, help())
	return true
}

// Config validates the parsed flags and builds the run configuration (Long
// is the caller's). When a plan flag asks for its syntax, the syntax goes
// to w and listed is true: the caller exits without running. Errors name
// the offending flag; the caller prefixes its program name and exits 2.
func (o *Options) Config(w io.Writer) (cfg experiments.RunConfig, listed bool, err error) {
	cfg = experiments.RunConfig{Seed: o.seed, Backend: *o.backend}
	if _, err := core.ParseBackend(cfg.Backend); err != nil {
		return cfg, false, fmt.Errorf("bad -backend: %v", err)
	}
	if o.faultSpec != "" {
		if Listed(w, o.faultSpec, faults.ProfilesHelp) {
			return cfg, true, nil
		}
		p, err := faults.Parse(o.faultSpec)
		if err != nil {
			return cfg, false, fmt.Errorf("bad -faults %q: %v", o.faultSpec, err)
		}
		cfg.Faults = &p
	}
	if o.restartSpec != "" {
		if Listed(w, o.restartSpec, faults.RestartHelp) {
			return cfg, true, nil
		}
		p, err := faults.ParseRestart(o.restartSpec)
		if err != nil {
			return cfg, false, fmt.Errorf("bad -restart %q: %v", o.restartSpec, err)
		}
		cfg.Restart = &p
	}
	if cfg.Fabric, listed, err = Fabric(w, o.fabricSpec); listed || err != nil {
		return cfg, listed, err
	}
	if o.audit || o.auditPanic {
		cfg.Audit = &audit.Config{Panic: o.auditPanic}
	}
	return cfg, false, nil
}

// Fabric parses a -fabric value ("" arms nothing), with Config's `list`
// and error conventions.
func Fabric(w io.Writer, spec string) (ds []faults.FaultDomain, listed bool, err error) {
	if spec == "" {
		return nil, false, nil
	}
	if Listed(w, spec, faults.DomainHelp) {
		return nil, true, nil
	}
	if ds, err = faults.ParseDomains(spec); err != nil {
		return nil, false, fmt.Errorf("bad -fabric %q: %v", spec, err)
	}
	return ds, false, nil
}

// FabricString renders a parsed fabric plan the way run headers print it.
func FabricString(ds []faults.FaultDomain) string {
	plans := make([]string, len(ds))
	for i, d := range ds {
		plans[i] = d.String()
	}
	return strings.Join(plans, ";")
}

// AuditMode names an audit configuration's mode for run headers.
func AuditMode(c *audit.Config) string {
	if c.Panic {
		return "panic"
	}
	return "log"
}
