package experiments

import "testing"

// TestBlockingComparisonLSHTradeoff is the acceptance gate of the MinHash/LSH
// blocking scheme: on the synthetic evaluation pair it must generate at
// least 5x fewer candidate pairs than the default phonetic passes while
// keeping at least 98% of their true-match coverage.
func TestBlockingComparisonLSHTradeoff(t *testing.T) {
	e := sharedEnv(t)
	tab, data, err := e.BlockingComparison()
	if err != nil {
		t.Fatal(err)
	}
	if data.TruePairs == 0 {
		t.Fatal("no ground truth in the synthetic series")
	}
	exact := data.Scheme("default")
	lsh := data.Scheme("lsh")
	if exact.Pairs == 0 || lsh.Pairs == 0 {
		t.Fatalf("missing scheme rows:\n%s", tab.String())
	}
	t.Logf("default: %d pairs, coverage %.4f; lsh: %d pairs, coverage %.4f (%.1fx reduction, %.4f relative recall)",
		exact.Pairs, exact.Coverage, lsh.Pairs, lsh.Coverage,
		float64(exact.Pairs)/float64(lsh.Pairs), lsh.Coverage/exact.Coverage)
	if ratio := float64(exact.Pairs) / float64(lsh.Pairs); ratio < 5 {
		t.Errorf("LSH pair reduction %.2fx, want >= 5x (default %d, lsh %d)", ratio, exact.Pairs, lsh.Pairs)
	}
	if rel := lsh.Coverage / exact.Coverage; rel < 0.98 {
		t.Errorf("LSH relative coverage %.4f, want >= 0.98 (default %.4f, lsh %.4f)",
			rel, exact.Coverage, lsh.Coverage)
	}
}
