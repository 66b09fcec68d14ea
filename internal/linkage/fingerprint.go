package linkage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// fingerprintVersion is bumped whenever the canonical serialization below
// changes, so fingerprints from different schemes never collide.
const fingerprintVersion = "censuslink/config-v1"

// Fingerprint returns a stable hex-encoded SHA-256 digest of every
// configuration parameter that can change the linkage result: the two
// similarity functions (matcher names, attributes, weights, δ), the
// threshold schedule, the group-selection weights, the age tolerance, the
// blocking strategies and the behavioural switches.
//
// Parameters that provably do NOT affect the output are excluded so
// equivalent runs share snapshots: Workers and Panics only schedule work,
// GraphCache only memoizes enrichment and Obs only observes. The
// fingerprint is the config third of the store's content address (see
// internal/store).
func (c Config) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", fingerprintVersion)
	writeSimFunc(h, "sim", c.Sim)
	writeSimFunc(h, "rem", c.Remainder)
	fmt.Fprintf(h, "delta %.9f %.9f %.9f\n", c.DeltaHigh, c.DeltaLow, c.DeltaStep)
	fmt.Fprintf(h, "weights %.9f %.9f\n", c.Alpha, c.Beta)
	fmt.Fprintf(h, "agetol %d\n", c.AgeTolerance)
	// The two constant columns held switches that have since been removed;
	// keeping them keeps every stored snapshot's address.
	fmt.Fprintf(h, "flags %t %t false false\n", c.StopOnEmpty, c.DirectVerticesOnly)
	for _, s := range c.Strategies {
		fmt.Fprintf(h, "block %q\n", s.Name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeSimFunc serializes one SimFunc canonically into the fingerprint.
// Matchers without a Name (hand-built functions outside the registry) hash
// as "?": two such configs collide, which the AttributeMatcher.Name docs
// call out as the caller's responsibility.
func writeSimFunc(w io.Writer, label string, f SimFunc) {
	fmt.Fprintf(w, "%s %q %.9f\n", label, f.Name, f.Delta)
	for _, m := range f.Matchers {
		name := m.Name
		if name == "" {
			name = "?"
		}
		fmt.Fprintf(w, "m %q %q %.9f\n", m.Attr.String(), name, m.Weight)
	}
}
