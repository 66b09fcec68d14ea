package linkage

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseBlocking(t *testing.T) {
	for _, name := range append(BlockingNames(), "") {
		strategies, err := ParseBlocking(name)
		if err != nil {
			t.Errorf("ParseBlocking(%q): %v", name, err)
			continue
		}
		if len(strategies) < 2 {
			t.Errorf("ParseBlocking(%q) returned %d strategies, want >= 2", name, len(strategies))
		}
	}
	// Case-insensitive, like the matcher registry.
	if _, err := ParseBlocking("LSH"); err != nil {
		t.Errorf("ParseBlocking is case-sensitive: %v", err)
	}
	// The deleted schemes fail like any unknown name, from a flag or from a
	// JSON config, and the error lists the known schemes.
	known := "(known: " + strings.Join(BlockingNames(), ", ") + ")"
	for _, name := range []string{"quantum", "high-recall", "lsh+default"} {
		if _, err := ParseBlocking(name); err == nil || !strings.Contains(err.Error(), "unknown blocking scheme") ||
			!strings.Contains(err.Error(), known) {
			t.Errorf("ParseBlocking(%q): %v", name, err)
		}
		spec := DefaultConfigSpec()
		spec.Blocking = name
		var buf bytes.Buffer
		if err := WriteConfigSpec(&buf, spec); err != nil {
			t.Fatal(err)
		}
		read, err := ReadConfigSpec(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := read.Build(); err == nil || !strings.Contains(err.Error(), known) {
			t.Errorf("config naming %q: %v", name, err)
		}
	}
}

// TestBlockingSchemesFingerprintDistinct: the config fingerprint keys the
// snapshot store, so every registered scheme must hash differently (the LSH
// strategy names bake their parameters in for the same reason).
func TestBlockingSchemesFingerprintDistinct(t *testing.T) {
	prints := map[string]string{}
	for _, name := range BlockingNames() {
		spec := DefaultConfigSpec()
		spec.Blocking = name
		cfg, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fp := cfg.Fingerprint()
		if prev, dup := prints[fp]; dup {
			t.Errorf("schemes %q and %q share fingerprint %s", prev, name, fp)
		}
		prints[fp] = name
	}
}

// TestConfigSpecBlockingRoundTrip: the blocking choice survives JSON and an
// explicit "default" builds the same strategy set as an absent field.
func TestConfigSpecBlockingRoundTrip(t *testing.T) {
	spec := DefaultConfigSpec()
	spec.Blocking = "lsh"
	var buf bytes.Buffer
	if err := WriteConfigSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"blocking": "lsh"`) {
		t.Errorf("blocking field not serialized: %s", buf.String())
	}
	got, err := ReadConfigSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := got.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range cfg.Strategies {
		if !strings.Contains(s.Name, "minhash") {
			t.Errorf("lsh spec built non-LSH strategy %q", s.Name)
		}
	}

	spec.Blocking = "nope"
	if _, err := spec.Build(); err == nil {
		t.Error("unknown blocking scheme accepted by Build")
	}

	names := func(spec ConfigSpec) []string {
		cfg, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range cfg.Strategies {
			out = append(out, s.Name)
		}
		return out
	}
	spec.Blocking = ""
	absent := names(spec)
	spec.Blocking = "default"
	explicit := names(spec)
	if strings.Join(absent, ",") != strings.Join(explicit, ",") {
		t.Errorf("empty blocking %v != explicit default %v", absent, explicit)
	}
}
