package linkage

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"censuslink/internal/census"
	"censuslink/internal/strsim"
)

// MatcherSpec is the serialisable form of one attribute matcher: the
// attribute name, a registered matcher name and a weight.
type MatcherSpec struct {
	Attribute string  `json:"attribute"`
	Matcher   string  `json:"matcher"`
	Weight    float64 `json:"weight"`
}

// SimFuncSpec is the serialisable form of a SimFunc.
type SimFuncSpec struct {
	Name     string        `json:"name,omitempty"`
	Delta    float64       `json:"delta"`
	Matchers []MatcherSpec `json:"matchers"`
}

// ConfigSpec is the serialisable form of a linkage Config, used by the
// command-line tools to load reproducible configurations from JSON.
type ConfigSpec struct {
	Sim                SimFuncSpec `json:"sim"`
	DeltaHigh          float64     `json:"delta_high"`
	DeltaLow           float64     `json:"delta_low"`
	DeltaStep          float64     `json:"delta_step"`
	Alpha              float64     `json:"alpha"`
	Beta               float64     `json:"beta"`
	AgeTolerance       int         `json:"age_tolerance"`
	Remainder          SimFuncSpec `json:"remainder"`
	Workers            int         `json:"workers,omitempty"`
	StopOnEmpty        bool        `json:"stop_on_empty"`
	DirectVerticesOnly bool        `json:"direct_vertices_only,omitempty"`
	VertexGuards       bool        `json:"vertex_guards,omitempty"`
	OptimalRemainder   bool        `json:"optimal_remainder,omitempty"`
	// Blocking selects the candidate-generation scheme: "default" (when
	// empty), "high-recall", "lsh" or "lsh+default" (see ParseBlocking).
	Blocking string `json:"blocking,omitempty"`
}

// matcherRegistry maps registered matcher names to similarity functions.
var matcherRegistry = map[string]strsim.Func{
	"qgram2":      strsim.QGram(2),
	"qgram3":      strsim.QGram(3),
	"jaro":        strsim.Jaro,
	"jarowinkler": strsim.JaroWinkler,
	"editsim":     strsim.EditSim,
	"damerau":     strsim.DamerauSim,
	"exact":       strsim.Exact,
	"tokendice":   strsim.TokenDice,
	"lcs":         strsim.LCSSim(2),
	"mongeelkan":  strsim.SymmetricMongeElkan(strsim.JaroWinkler),
}

// profiledRegistry maps matcher names to their precompilable profile forms
// for the compiled engine. Names absent here (damerau, tokendice, lcs,
// mongeelkan) have no native profile and fall back to scoring through the
// string function, which is still correct — just without precomputation.
var profiledRegistry = map[string]*strsim.Profiled{
	"qgram2":      strsim.BigramProfiled,
	"qgram3":      strsim.QGramProfiled(3),
	"jaro":        strsim.JaroProfiled,
	"jarowinkler": strsim.JaroWinklerProfiled,
	"editsim":     strsim.EditSimProfiled,
	"exact":       strsim.ExactProfiled,
}

// MatcherNames lists the registered matcher names, for error messages and
// tool help.
func MatcherNames() []string {
	names := make([]string, 0, len(matcherRegistry))
	for n := range matcherRegistry {
		names = append(names, n)
	}
	return names
}

// attrByName resolves a lower-case attribute name.
func attrByName(name string) (census.Attribute, error) {
	for a := census.Attribute(0); int(a) < census.NumAttributes; a++ {
		if strings.EqualFold(a.String(), name) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("linkage: unknown attribute %q", name)
}

// Build resolves a SimFuncSpec into a SimFunc, validating it.
func (s SimFuncSpec) Build() (SimFunc, error) {
	f := SimFunc{Name: s.Name, Delta: s.Delta}
	for _, m := range s.Matchers {
		attr, err := attrByName(m.Attribute)
		if err != nil {
			return SimFunc{}, err
		}
		name := strings.ToLower(m.Matcher)
		sim, ok := matcherRegistry[name]
		if !ok {
			return SimFunc{}, fmt.Errorf("linkage: unknown matcher %q (known: %s)",
				m.Matcher, strings.Join(MatcherNames(), ", "))
		}
		f.Matchers = append(f.Matchers, AttributeMatcher{Attr: attr, Sim: sim, Prof: profiledRegistry[name], Name: name, Weight: m.Weight})
	}
	if err := f.Validate(); err != nil {
		return SimFunc{}, err
	}
	return f, nil
}

// Build resolves a ConfigSpec into a runnable Config.
func (s ConfigSpec) Build() (Config, error) {
	sim, err := s.Sim.Build()
	if err != nil {
		return Config{}, fmt.Errorf("linkage: sim: %w", err)
	}
	rem, err := s.Remainder.Build()
	if err != nil {
		return Config{}, fmt.Errorf("linkage: remainder: %w", err)
	}
	cfg := Config{
		Sim:                sim,
		DeltaHigh:          s.DeltaHigh,
		DeltaLow:           s.DeltaLow,
		DeltaStep:          s.DeltaStep,
		Alpha:              s.Alpha,
		Beta:               s.Beta,
		AgeTolerance:       s.AgeTolerance,
		Remainder:          rem,
		Workers:            s.Workers,
		StopOnEmpty:        s.StopOnEmpty,
		DirectVerticesOnly: s.DirectVerticesOnly,
		VertexGuards:       s.VertexGuards,
		OptimalRemainder:   s.OptimalRemainder,
	}
	cfg.Strategies, err = ParseBlocking(s.Blocking)
	if err != nil {
		return Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// DefaultConfigSpec returns the serialisable form of the paper's default
// configuration (ω2, δ 0.7→0.5, (α, β) = (0.2, 0.7)).
func DefaultConfigSpec() ConfigSpec {
	omega2 := SimFuncSpec{
		Name: "omega2",
		Matchers: []MatcherSpec{
			{Attribute: "first name", Matcher: "qgram2", Weight: 0.4},
			{Attribute: "sex", Matcher: "exact", Weight: 0.2},
			{Attribute: "surname", Matcher: "qgram2", Weight: 0.2},
			{Attribute: "address", Matcher: "qgram2", Weight: 0.1},
			{Attribute: "occupation", Matcher: "qgram2", Weight: 0.1},
		},
	}
	sim := omega2
	sim.Delta = 0.7
	rem := omega2
	rem.Delta = 0.75
	return ConfigSpec{
		Sim:          sim,
		DeltaHigh:    0.7,
		DeltaLow:     0.5,
		DeltaStep:    0.05,
		Alpha:        0.2,
		Beta:         0.7,
		AgeTolerance: 3,
		Remainder:    rem,
		StopOnEmpty:  true,
	}
}

// ReadConfigSpec parses a ConfigSpec from JSON.
func ReadConfigSpec(r io.Reader) (ConfigSpec, error) {
	var s ConfigSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return ConfigSpec{}, fmt.Errorf("linkage: parse config: %w", err)
	}
	return s, nil
}

// WriteConfigSpec writes a ConfigSpec as indented JSON.
func WriteConfigSpec(w io.Writer, s ConfigSpec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
