package compare

import (
	"fmt"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/strsim"
)

func testRecords(prefix string, n int) []*census.Record {
	first := []string{"john", "mary", "William", "ann", "", "JOHN"}
	sur := []string{"smith", "smyth", "jones", "taylor", "smith"}
	addr := []string{"12 high st", "mill lane", "", "12 high street"}
	occ := []string{"weaver", "labourer", "servant", ""}
	out := make([]*census.Record, n)
	for i := range out {
		sex := census.SexMale
		if i%2 == 1 {
			sex = census.SexFemale
		}
		out[i] = &census.Record{
			ID:         fmt.Sprintf("%s-%03d", prefix, i),
			FirstName:  first[i%len(first)],
			Surname:    sur[i%len(sur)],
			Sex:        sex,
			Age:        20 + i%40,
			Address:    addr[i%len(addr)],
			Occupation: occ[i%len(occ)],
		}
	}
	return out
}

func testMatchers() []Matcher {
	return []Matcher{
		{Attr: census.AttrFirstName, Weight: 0.4, Prof: strsim.BigramProfiled, Sim: strsim.Bigram},
		{Attr: census.AttrSex, Weight: 0.2, Prof: strsim.ExactProfiled, Sim: strsim.Exact},
		{Attr: census.AttrSurname, Weight: 0.2, Prof: strsim.BigramProfiled, Sim: strsim.Bigram},
		{Attr: census.AttrAddress, Weight: 0.1, Prof: strsim.BigramProfiled, Sim: strsim.Bigram},
		{Attr: census.AttrOccupation, Weight: 0.1, Prof: strsim.BigramProfiled, Sim: strsim.Bigram},
	}
}

// naiveAggSim mirrors linkage.SimFunc.AggSim for the test matcher set.
func naiveAggSim(ms []Matcher, a, b *census.Record) float64 {
	s := 0.0
	for _, m := range ms {
		if m.Weight == 0 {
			continue
		}
		s += m.Weight * m.Sim(a.Value(m.Attr), b.Value(m.Attr))
	}
	return s
}

func TestEngineAggSimMatchesNaive(t *testing.T) {
	old := testRecords("o", 40)
	new := testRecords("n", 37)
	ms := testMatchers()
	eng := NewEngine(Compile(old, ms), Compile(new, ms))
	for oi, o := range old {
		for ni, n := range new {
			got := eng.AggSim(oi, ni)
			want := naiveAggSim(ms, o, n)
			if got != want {
				t.Fatalf("AggSim(%s, %s): compiled=%v naive=%v", o.ID, n.ID, got, want)
			}
		}
	}
}

func TestEngineSimVectorMatchesNaive(t *testing.T) {
	old := testRecords("o", 15)
	new := testRecords("n", 15)
	ms := testMatchers()
	ms[1].Weight = 0 // zero-weight matcher must still appear in the vector
	eng := NewEngine(Compile(old, ms), Compile(new, ms))
	for oi, o := range old {
		for ni, n := range new {
			got := eng.SimVector(oi, ni)
			for mi, m := range ms {
				want := m.Sim(o.Value(m.Attr), n.Value(m.Attr))
				if got[mi] != want {
					t.Fatalf("SimVector(%s, %s)[%d]: compiled=%v naive=%v", o.ID, n.ID, mi, got[mi], want)
				}
			}
		}
	}
}

func TestAggSimAtLeastNeverPrunesMatches(t *testing.T) {
	old := testRecords("o", 40)
	new := testRecords("n", 40)
	ms := testMatchers()
	for _, delta := range []float64{0.3, 0.5, 0.7, 0.9} {
		eng := NewEngine(Compile(old, ms), Compile(new, ms))
		for oi, o := range old {
			for ni, n := range new {
				want := naiveAggSim(ms, o, n)
				got, ok := eng.AggSimAtLeast(oi, ni, delta)
				if (want >= delta) != ok {
					t.Fatalf("AggSimAtLeast(%s, %s, %v): ok=%v but naive sim %v", o.ID, n.ID, delta, ok, want)
				}
				if ok && got != want {
					t.Fatalf("AggSimAtLeast(%s, %s, %v): accepted sim %v != naive %v", o.ID, n.ID, delta, got, want)
				}
			}
		}
		if pruned := eng.Pruned(); delta >= 0.7 && pruned == 0 {
			t.Errorf("delta=%v: expected pruned comparisons on a dissimilar corpus", delta)
		}
	}
}

func TestCompileSharedDictionaries(t *testing.T) {
	recs := testRecords("r", 30)
	ms := []Matcher{
		{Attr: census.AttrSurname, Weight: 0.5, Prof: strsim.BigramProfiled, Sim: strsim.Bigram},
		{Attr: census.AttrSurname, Weight: 0.5, Prof: strsim.JaroProfiled, Sim: strsim.Jaro},
	}
	cd := Compile(recs, ms)
	if cd.DistinctValues(0) != cd.DistinctValues(1) {
		t.Fatalf("matchers over the same attribute must share a dictionary: %d vs %d",
			cd.DistinctValues(0), cd.DistinctValues(1))
	}
	if cd.DistinctValues(0) >= len(recs) {
		t.Fatalf("expected interning to dedup %d records to fewer distinct surnames, got %d",
			len(recs), cd.DistinctValues(0))
	}
	for i, r := range recs {
		if got, ok := cd.Pos(r.ID); !ok || got != i {
			t.Fatalf("Pos(%s) = %d, %v; want %d", r.ID, got, ok, i)
		}
	}
}

func TestCompileNilProfFallsBackToFuncProfiled(t *testing.T) {
	recs := testRecords("r", 10)
	ms := []Matcher{{Attr: census.AttrSurname, Weight: 1, Sim: strsim.DamerauSim}}
	eng := NewEngine(Compile(recs, ms), Compile(recs, ms))
	for oi, o := range recs {
		for ni, n := range recs {
			if got, want := eng.AggSim(oi, ni), strsim.DamerauSim(o.Surname, n.Surname); got != want {
				t.Fatalf("fallback AggSim(%s, %s): %v != %v", o.ID, n.ID, got, want)
			}
		}
	}
}

func TestEngineConcurrentUse(t *testing.T) {
	old := testRecords("o", 25)
	new := testRecords("n", 25)
	ms := testMatchers()
	eng := NewEngine(Compile(old, ms), Compile(new, ms))
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for oi := range old {
				for ni := range new {
					eng.AggSim(oi, ni)
					eng.AggSimAtLeast(oi, ni, 0.7)
				}
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	for oi, o := range old {
		for ni, n := range new {
			if got, want := eng.AggSim(oi, ni), naiveAggSim(ms, o, n); got != want {
				t.Fatalf("post-concurrency AggSim(%s, %s): %v != %v", o.ID, n.ID, got, want)
			}
		}
	}
}
