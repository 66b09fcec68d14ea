package linkage

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"censuslink/internal/paperexample"
)

func TestDefaultConfigSpecBuilds(t *testing.T) {
	cfg, err := DefaultConfigSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	ref := DefaultConfig()
	if cfg.DeltaHigh != ref.DeltaHigh || cfg.DeltaLow != ref.DeltaLow ||
		cfg.Alpha != ref.Alpha || cfg.Beta != ref.Beta ||
		cfg.AgeTolerance != ref.AgeTolerance {
		t.Errorf("spec-built config diverges from DefaultConfig: %+v", cfg)
	}
	// The built config must behave like the default on real data.
	old, new := paperexample.Old(), paperexample.New()
	a, err := LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LinkContext(context.Background(), old, new, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.RecordLinks) != len(b.RecordLinks) || len(a.GroupLinks) != len(b.GroupLinks) {
		t.Errorf("spec config links (%d/%d) differ from default (%d/%d)",
			len(a.RecordLinks), len(a.GroupLinks), len(b.RecordLinks), len(b.GroupLinks))
	}
}

func TestConfigSpecRoundTrip(t *testing.T) {
	spec := DefaultConfigSpec()
	spec.DirectVerticesOnly = true
	var buf bytes.Buffer
	if err := WriteConfigSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfigSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.DeltaHigh != spec.DeltaHigh || !got.DirectVerticesOnly {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if len(got.Sim.Matchers) != 5 || got.Sim.Matchers[0].Attribute != "first name" {
		t.Errorf("matchers lost: %+v", got.Sim.Matchers)
	}
	if _, err := got.Build(); err != nil {
		t.Errorf("round-tripped spec does not build: %v", err)
	}
}

func TestConfigSpecErrors(t *testing.T) {
	bad := DefaultConfigSpec()
	bad.Sim.Matchers[0].Matcher = "quantum"
	if _, err := bad.Build(); err == nil || !strings.Contains(err.Error(), "unknown matcher") {
		t.Errorf("unknown matcher accepted: %v", err)
	}
	bad = DefaultConfigSpec()
	bad.Sim.Matchers[0].Attribute = "shoe size"
	if _, err := bad.Build(); err == nil || !strings.Contains(err.Error(), "unknown attribute") {
		t.Errorf("unknown attribute accepted: %v", err)
	}
	bad = DefaultConfigSpec()
	bad.Sim.Matchers[0].Weight = 0.9 // weights no longer sum to 1
	if _, err := bad.Build(); err == nil {
		t.Error("invalid weights accepted")
	}
	bad = DefaultConfigSpec()
	m := bad.Sim.Matchers[0]
	bad.Sim.Matchers = nil
	for i := 0; i < 256; i++ { // one more than the engine can score
		m.Weight = 1.0 / 256
		bad.Sim.Matchers = append(bad.Sim.Matchers, m)
	}
	if _, err := bad.Build(); err == nil || !strings.Contains(err.Error(), "weighted matchers") {
		t.Errorf("256 weighted matchers accepted: %v", err)
	}
	if _, err := ReadConfigSpec(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Error("unknown JSON field accepted")
	}
	if _, err := ReadConfigSpec(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestConfigSpecRejectsRemovedFields: a config file still carrying a
// removed field ("shards", "engine", "vertex_guards" or
// "optimal_remainder") fails to load with an error naming the field,
// rather than silently running without it.
func TestConfigSpecRejectsRemovedFields(t *testing.T) {
	for _, field := range []string{`"shards": 4`, `"engine": "naive"`,
		`"vertex_guards": true`, `"optimal_remainder": true`} {
		var buf bytes.Buffer
		if err := WriteConfigSpec(&buf, DefaultConfigSpec()); err != nil {
			t.Fatal(err)
		}
		js := strings.Replace(buf.String(), "{", "{"+field+",", 1)
		_, err := ReadConfigSpec(strings.NewReader(js))
		name := field[:strings.Index(field, ":")]
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("spec with %s: error %v, want one naming %s", field, err, name)
		}
	}
}

func TestMatcherNamesComplete(t *testing.T) {
	names := MatcherNames()
	if len(names) < 8 {
		t.Errorf("registry too small: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"qgram2", "exact", "jarowinkler", "tokendice"} {
		if !seen[want] {
			t.Errorf("matcher %q missing from registry", want)
		}
	}
}
