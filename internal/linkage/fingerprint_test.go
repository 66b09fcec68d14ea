package linkage

import (
	"testing"

	"censuslink/internal/hgraph"
	"censuslink/internal/obs"
)

// TestFingerprintSeesOutputAffectingKnobs: every configuration field that
// changes what the pipeline produces must change the fingerprint, so a
// stale snapshot can never be served for a different configuration.
func TestFingerprintSeesOutputAffectingKnobs(t *testing.T) {
	base := DefaultConfig().Fingerprint()
	if base != DefaultConfig().Fingerprint() {
		t.Fatal("fingerprint is not deterministic")
	}
	mutations := map[string]func(*Config){
		"delta-high":       func(c *Config) { c.DeltaHigh = 0.9 },
		"delta-low":        func(c *Config) { c.DeltaLow = 0.4 },
		"delta-step":       func(c *Config) { c.DeltaStep = 0.1 },
		"alpha":            func(c *Config) { c.Alpha = 0.3 },
		"beta":             func(c *Config) { c.Beta = 0.5 },
		"age-tolerance":    func(c *Config) { c.AgeTolerance = 5 },
		"sim-delta":        func(c *Config) { c.Sim.Delta = 0.66 },
		"sim-weights":      func(c *Config) { c.Sim.Matchers[0].Weight *= 2 },
		"remainder":        func(c *Config) { c.Remainder.Delta = 0.9 },
		"stop-on-empty":    func(c *Config) { c.StopOnEmpty = !c.StopOnEmpty },
		"direct-vertices":  func(c *Config) { c.DirectVerticesOnly = !c.DirectVerticesOnly },
		"blocking":         func(c *Config) { c.Strategies = c.Strategies[:1] },
		"matcher-identity": func(c *Config) { c.Sim.Matchers[0].Name = "levenshtein" },
	}
	seen := map[string]string{"": base}
	for name, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		fp := cfg.Fingerprint()
		if fp == base {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutations %q and %q collide on the same fingerprint", name, prev)
		}
		seen[fp] = name
	}
}

// TestFingerprintIgnoresExecutionKnobs: fields proven not to affect the
// output — scheduling, observability, graph caching — must NOT invalidate
// snapshots.
func TestFingerprintIgnoresExecutionKnobs(t *testing.T) {
	base := DefaultConfig().Fingerprint()
	mutations := map[string]func(*Config){
		"workers": func(c *Config) { c.Workers = 7 },
		"panics":  func(c *Config) { c.Panics = PanicSkip },
		"obs":     func(c *Config) { c.Obs = obs.NewStats(nil) },
		"graphs":  func(c *Config) { c.GraphCache = hgraph.NewCache() },
	}
	for name, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if cfg.Fingerprint() != base {
			t.Errorf("execution knob %s changed the fingerprint; it must not", name)
		}
	}
}

// TestFingerprintPinned: the fingerprints of the default configuration, of
// the same configuration with LSH blocking and of the one with
// DirectVerticesOnly are the config third of every stored snapshot's
// address, so they must not drift — snapshots written by earlier builds
// still resolve.
func TestFingerprintPinned(t *testing.T) {
	if got, want := DefaultConfig().Fingerprint(),
		"eca717a9c092041c229985915238dc5a8a418aa1e5f869ecc86c0a57071432ea"; got != want {
		t.Errorf("default fingerprint %s, want %s", got, want)
	}
	cfg := DefaultConfig()
	lsh, err := ParseBlocking("lsh")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategies = lsh
	if got, want := cfg.Fingerprint(),
		"f2260063441cefc8f76b84ada4eaf2ceffb7f4a70226466e1386b52fc282ea59"; got != want {
		t.Errorf("lsh fingerprint %s, want %s", got, want)
	}
	cfg = DefaultConfig()
	cfg.DirectVerticesOnly = true
	if got, want := cfg.Fingerprint(),
		"e006a61a902c60c36f1c6e3d29579dc77485e6b2df734470f04e5671ffd41c12"; got != want {
		t.Errorf("direct-vertices fingerprint %s, want %s", got, want)
	}
}
