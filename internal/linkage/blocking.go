package linkage

import (
	"fmt"
	"sort"
	"strings"

	"censuslink/internal/block"
)

// blockingRegistry maps registered blocking-scheme names to strategy
// constructors, parallel to matcherRegistry for comparators. Constructors
// (not values) so every Config gets fresh Strategy closures.
var blockingRegistry = map[string]func() []block.Strategy{
	// The paper's multi-pass phonetic configuration: Soundex on surname plus
	// Soundex on first name + sex for surname changes.
	"default": block.DefaultStrategies,
	// MinHash/LSH banded q-gram signatures (birth-year-guarded name passes
	// plus a full-name recovery pass): several times fewer candidate pairs
	// than the phonetic passes at ≥ 0.98 of their true-match coverage.
	"lsh": func() []block.Strategy { return block.LSHStrategies(block.DefaultLSHConfig()) },
}

// BlockingNames lists the registered blocking-scheme names, sorted, for
// error messages and tool help.
func BlockingNames() []string {
	names := make([]string, 0, len(blockingRegistry))
	for n := range blockingRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseBlocking resolves a blocking-scheme name ("" means "default") into
// its strategy set.
func ParseBlocking(name string) ([]block.Strategy, error) {
	if name == "" {
		name = "default"
	}
	ctor, ok := blockingRegistry[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("linkage: unknown blocking scheme %q (known: %s)",
			name, strings.Join(BlockingNames(), ", "))
	}
	return ctor(), nil
}
