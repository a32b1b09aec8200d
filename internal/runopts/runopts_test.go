package runopts

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"acdc/internal/core"
	"acdc/internal/faults"
)

func parse(t *testing.T, args ...string) *Options {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestConfigBuildsRunConfig(t *testing.T) {
	o := parse(t, "-seed", "7", "-parallel", "0", "-faults", "loss", "-restart", "warm@1ms",
		"-fabric", "link-down@5ms,link=left>right,for=1ms", "-audit-panic", "-backend", "pace")
	var out bytes.Buffer
	cfg, listed, err := o.Config(&out)
	if err != nil || listed || out.Len() != 0 {
		t.Fatalf("Config: listed=%v err=%v out=%q", listed, err, out.String())
	}
	if cfg.Seed != 7 || o.Parallel != 0 || cfg.Backend != "pace" {
		t.Errorf("seed %d parallel %d backend %q", cfg.Seed, o.Parallel, cfg.Backend)
	}
	if cfg.Faults == nil || cfg.Faults.String() != "loss(drop=0.01)" {
		t.Errorf("faults %v", cfg.Faults)
	}
	if cfg.Restart == nil || cfg.Restart.String() != "warm@1.000ms" {
		t.Errorf("restart %v", cfg.Restart)
	}
	if got := FabricString(cfg.Fabric); got != "link-down@5.000ms,link=left>right,for=1.000ms" {
		t.Errorf("fabric %q", got)
	}
	if cfg.Audit == nil || AuditMode(cfg.Audit) != "panic" {
		t.Errorf("audit %+v", cfg.Audit)
	}
}

func TestConfigDefaultsAreQuiet(t *testing.T) {
	cfg, listed, err := parse(t).Config(&bytes.Buffer{})
	if err != nil || listed {
		t.Fatalf("listed=%v err=%v", listed, err)
	}
	if cfg.Seed != 1 || cfg.Faults != nil || cfg.Restart != nil || cfg.Fabric != nil || cfg.Audit != nil || cfg.Backend != "" {
		t.Fatalf("default config %+v, want seed 1 and nothing armed", cfg)
	}
}

func TestConfigListsPlanSyntax(t *testing.T) {
	for flagName, help := range map[string]func() string{
		"faults": faults.ProfilesHelp, "restart": faults.RestartHelp, "fabric": faults.DomainHelp,
	} {
		for _, v := range []string{"list", "help"} {
			var out bytes.Buffer
			_, listed, err := parse(t, "-"+flagName, v).Config(&out)
			if err != nil || !listed || out.String() != help() {
				t.Errorf("-%s %s: listed=%v err=%v, output mismatch=%v", flagName, v, listed, err, out.String() != help())
			}
		}
	}
}

func TestConfigRejectsBadValues(t *testing.T) {
	for _, c := range [][2]string{
		{"-backend", "pase"}, {"-faults", "bogus"}, {"-restart", "nope"}, {"-fabric", "zzz"},
	} {
		_, listed, err := parse(t, c[0], c[1]).Config(&bytes.Buffer{})
		if err == nil || listed || !strings.HasPrefix(err.Error(), "bad "+c[0]) {
			t.Errorf("%s %s: listed=%v err=%v, want a \"bad %s\" error", c[0], c[1], listed, err, c[0])
		}
	}
}

func TestBackendUsageListsRegistry(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Backend(fs, "backend (%s)")
	want := "backend (" + strings.Join(core.BackendNames(), ", ") + ")"
	if got := fs.Lookup("backend").Usage; got != want {
		t.Fatalf("usage %q, want %q", got, want)
	}
}
