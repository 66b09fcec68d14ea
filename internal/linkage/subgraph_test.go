package linkage

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/hgraph"
	"censuslink/internal/obs"
	"censuslink/internal/paperexample"
	"censuslink/internal/synth"
)

func paperMatchConfig() MatchConfig {
	return MatchConfig{AgeTolerance: 3, YearGap: 10, Alpha: 0.2, Beta: 0.7}
}

// matchGroupsOracle is the string-keyed subgraph matcher the position-keyed
// GroupMatcher.MatchGroups replaced: labels, direct similarities and edges
// are looked up by record ID, and transitively linked pairs are scored with
// the interpreted SimFunc.AggSim. It is the bit-identity oracle of the
// subgraph stage.
func matchGroupsOracle(gOld, gNew *hgraph.Graph, pre *preMatchView, f SimFunc, cfg MatchConfig) *Subgraph {
	var cands []VertexPair
	for _, o := range gOld.Members() {
		lo, okO := pre.Labels[recordKey{ID: o.ID}]
		if !okO {
			continue
		}
		for _, n := range gNew.Members() {
			sim, direct := pre.Sims[Pair{Old: o.ID, New: n.ID}]
			if !direct {
				if cfg.DirectVerticesOnly {
					continue
				}
				ln, okN := pre.Labels[recordKey{New: true, ID: n.ID}]
				if !okN || lo != ln {
					continue
				}
				sim = f.AggSim(o, n)
			}
			if !cfg.AgeConsistent(o, n) {
				continue
			}
			cands = append(cands, VertexPair{Old: o, New: n, Sim: sim})
		}
	}
	if len(cands) < 2 {
		return nil
	}

	compatible := func(a, b VertexPair) (float64, bool) {
		if a.Old.ID == b.Old.ID || a.New.ID == b.New.ID {
			return 0, false
		}
		tOld, dOld, okOld := gOld.EdgeBetween(a.Old.ID, b.Old.ID)
		tNew, dNew, okNew := gNew.EdgeBetween(a.New.ID, b.New.ID)
		if !okOld || !okNew || tOld != tNew {
			return 0, false
		}
		return cfg.RpSim(dOld, dNew)
	}
	support := make([]int, len(cands))
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if _, ok := compatible(cands[i], cands[j]); ok {
				support[i]++
				support[j]++
			}
		}
	}

	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		i, j := order[x], order[y]
		if support[i] != support[j] {
			return support[i] > support[j]
		}
		if cands[i].Sim != cands[j].Sim {
			return cands[i].Sim > cands[j].Sim
		}
		if cands[i].Old.ID != cands[j].Old.ID {
			return cands[i].Old.ID < cands[j].Old.ID
		}
		return cands[i].New.ID < cands[j].New.ID
	})
	usedOld := make(map[string]bool, len(cands))
	usedNew := make(map[string]bool, len(cands))
	var chosen []VertexPair
	for _, i := range order {
		v := cands[i]
		if usedOld[v.Old.ID] || usedNew[v.New.ID] {
			continue
		}
		usedOld[v.Old.ID] = true
		usedNew[v.New.ID] = true
		chosen = append(chosen, v)
	}
	sort.Slice(chosen, func(i, j int) bool { return chosen[i].Old.ID < chosen[j].Old.ID })

	var edges []SubEdge
	degree := make([]int, len(chosen))
	for i := 0; i < len(chosen); i++ {
		for j := i + 1; j < len(chosen); j++ {
			if rp, ok := compatible(chosen[i], chosen[j]); ok {
				edges = append(edges, SubEdge{I: i, J: j, RpSim: rp})
				degree[i]++
				degree[j]++
			}
		}
	}
	if len(edges) == 0 {
		return nil
	}

	remap := make([]int, len(chosen))
	var kept []VertexPair
	for i, v := range chosen {
		if degree[i] > 0 {
			remap[i] = len(kept)
			kept = append(kept, v)
		} else {
			remap[i] = -1
		}
	}
	for i := range edges {
		edges[i].I = remap[edges[i].I]
		edges[i].J = remap[edges[i].J]
	}

	labelSum := 0
	for _, v := range kept {
		if l, ok := pre.Labels[recordKey{ID: v.Old.ID}]; ok {
			labelSum += pre.LabelSize[l]
		}
	}
	sub := &Subgraph{
		OldGroup: gOld.HouseholdID,
		NewGroup: gNew.HouseholdID,
		Vertices: kept,
		Edges:    edges,
	}
	sub.score(gOld, gNew, labelSum, cfg)
	return sub
}

// matchChecked matches one group pair through the production GroupMatcher
// over the two datasets and fails the test unless the oracle agrees.
func matchChecked(t *testing.T, old, new *census.Dataset, gOld, gNew *hgraph.Graph,
	pre *PreMatchResult, f SimFunc, cfg MatchConfig) *Subgraph {
	t.Helper()
	gm := NewGroupMatcher(pre, f.Compile(old.Records(), new.Records()), cfg)
	got := gm.MatchGroups(gOld, gNew)
	if want := matchGroupsOracle(gOld, gNew, viewOf(pre), f, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("(%s, %s): MatchGroups %+v, oracle %+v", gOld.HouseholdID, gNew.HouseholdID, got, want)
	}
	return got
}

// paperSubgraphs builds the enriched graphs and pre-matching of the running
// example and returns a helper to match any group pair.
func paperSubgraphs(t *testing.T) (func(oldHH, newHH string) *Subgraph, *PreMatchResult) {
	t.Helper()
	old, new := paperexample.Old(), paperexample.New()
	oldGraphs := hgraph.BuildAll(old)
	newGraphs := hgraph.BuildAll(new)
	pre := figure3PreMatch(1)
	f := NameOnly(1.0)
	cfg := paperMatchConfig()
	return func(oldHH, newHH string) *Subgraph {
		return matchChecked(t, old, new, oldGraphs[oldHH], newGraphs[newHH], pre, f, cfg)
	}, pre
}

// TestSubgraphPaperEq8A reproduces the paper's hand-computed scores for the
// group pair (g^a_1871, g^a_1881): avg_sim = 1, e_sim = 2*3/13 ≈ 0.46,
// unique = 2*3/9 ≈ 0.66.
func TestSubgraphPaperEq8A(t *testing.T) {
	match, _ := paperSubgraphs(t)
	s := match("1871_a", "1881_a")
	if s == nil {
		t.Fatal("subgraph (a, a) not found")
	}
	if len(s.Vertices) != 3 {
		t.Fatalf("vertices = %d, want 3 (labels A, B, C)", len(s.Vertices))
	}
	if len(s.Edges) != 3 {
		t.Fatalf("edges = %d, want 3", len(s.Edges))
	}
	if math.Abs(s.AvgSim-1) > 1e-9 {
		t.Errorf("avg_sim = %v, want 1", s.AvgSim)
	}
	if math.Abs(s.ESim-2.0*3.0/13.0) > 1e-9 {
		t.Errorf("e_sim = %v, want %v", s.ESim, 2.0*3.0/13.0)
	}
	if math.Abs(s.Unique-2.0/3.0) > 1e-9 {
		t.Errorf("unique = %v, want 2/3", s.Unique)
	}
	wantG := 0.2*1 + 0.7*(6.0/13.0) + 0.1*(2.0/3.0)
	if math.Abs(s.GSim-wantG) > 1e-9 {
		t.Errorf("g_sim = %v, want %v", s.GSim, wantG)
	}
}

// TestSubgraphPaperEq8D reproduces the scores for the ambiguous pair
// (g^a_1871, g^d_1881): the William vertex loses both of its edges (Fig. 4)
// and is dropped, leaving avg_sim = 1, e_sim = 2*1/13 ≈ 0.15,
// unique = 2*2/6 ≈ 0.66.
func TestSubgraphPaperEq8D(t *testing.T) {
	match, _ := paperSubgraphs(t)
	s := match("1871_a", "1881_d")
	if s == nil {
		t.Fatal("subgraph (a, d) not found")
	}
	if len(s.Vertices) != 2 {
		t.Fatalf("vertices = %d, want 2 after Fig. 4 reduction", len(s.Vertices))
	}
	if len(s.Edges) != 1 {
		t.Fatalf("edges = %d, want 1", len(s.Edges))
	}
	if math.Abs(s.AvgSim-1) > 1e-9 {
		t.Errorf("avg_sim = %v, want 1", s.AvgSim)
	}
	if math.Abs(s.ESim-2.0/13.0) > 1e-9 {
		t.Errorf("e_sim = %v, want %v", s.ESim, 2.0/13.0)
	}
	if math.Abs(s.Unique-2.0/3.0) > 1e-9 {
		t.Errorf("unique = %v, want 2/3", s.Unique)
	}
	// The paper concludes g_sim(a,a) > g_sim(a,d) because of edge similarity.
	a := match("1871_a", "1881_a")
	if a.GSim <= s.GSim {
		t.Errorf("g_sim(a,a)=%v should exceed g_sim(a,d)=%v", a.GSim, s.GSim)
	}
}

// TestSubgraphSmithPair: the Smith household pair shares two members with
// one fully matching spouse edge and unique labels.
func TestSubgraphSmithPair(t *testing.T) {
	match, _ := paperSubgraphs(t)
	s := match("1871_b", "1881_b")
	if s == nil {
		t.Fatal("subgraph (b, b) not found")
	}
	if len(s.Vertices) != 2 || len(s.Edges) != 1 {
		t.Fatalf("subgraph shape: %d vertices, %d edges", len(s.Vertices), len(s.Edges))
	}
	if math.Abs(s.Unique-1) > 1e-9 {
		t.Errorf("unique = %v, want 1 (labels D, E are unambiguous)", s.Unique)
	}
	// e_sim = 2*1/(3+1).
	if math.Abs(s.ESim-0.5) > 1e-9 {
		t.Errorf("e_sim = %v, want 0.5", s.ESim)
	}
}

// TestSubgraphSingleSharedMember: a single shared record (Steve moving to
// household c) yields no subgraph; such links are left to Sim_func_rem.
func TestSubgraphSingleSharedMember(t *testing.T) {
	match, _ := paperSubgraphs(t)
	if s := match("1871_b", "1881_c"); s != nil {
		t.Errorf("single-member overlap should give no subgraph, got %+v", s)
	}
}

// TestSubgraphAgeConsistencyFilter: a vertex pair whose ages do not fit the
// census interval is rejected even when the labels agree.
func TestSubgraphAgeConsistencyFilter(t *testing.T) {
	old := census.NewDataset(1871)
	new := census.NewDataset(1881)
	for _, r := range []*census.Record{
		{ID: "o1", HouseholdID: "oh", FirstName: "john", Surname: "lord", Sex: census.SexMale, Age: 30, Role: census.RoleHead},
		{ID: "o2", HouseholdID: "oh", FirstName: "ann", Surname: "lord", Sex: census.SexFemale, Age: 28, Role: census.RoleWife},
	} {
		if err := old.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []*census.Record{
		// Same names, but ages did not advance by ~10 years: a different
		// generation (e.g. son with the father's name).
		{ID: "n1", HouseholdID: "nh", FirstName: "john", Surname: "lord", Sex: census.SexMale, Age: 31, Role: census.RoleHead},
		{ID: "n2", HouseholdID: "nh", FirstName: "ann", Surname: "lord", Sex: census.SexFemale, Age: 29, Role: census.RoleWife},
	} {
		if err := new.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	pre := preMatchT(old.Records(), old.Year, new.Records(), new.Year,
		NameOnly(1.0), block.DefaultStrategies(), 1)
	s := matchChecked(t, old, new, hgraph.Build(old, old.Household("oh")),
		hgraph.Build(new, new.Household("nh")), pre, NameOnly(1.0), paperMatchConfig())
	if s != nil {
		t.Errorf("age-inconsistent pair matched: %+v", s)
	}
}

// TestSubgraphDuplicateNamesOneToOne: two same-named children must map 1:1,
// guided by edge support.
func TestSubgraphDuplicateNamesOneToOne(t *testing.T) {
	old := census.NewDataset(1871)
	new := census.NewDataset(1881)
	for _, r := range []*census.Record{
		{ID: "o1", HouseholdID: "oh", FirstName: "john", Surname: "holt", Sex: census.SexMale, Age: 40, Role: census.RoleHead},
		{ID: "o2", HouseholdID: "oh", FirstName: "thomas", Surname: "holt", Sex: census.SexMale, Age: 15, Role: census.RoleSon},
		{ID: "o3", HouseholdID: "oh", FirstName: "thomas", Surname: "holt", Sex: census.SexMale, Age: 2, Role: census.RoleSon},
	} {
		if err := old.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []*census.Record{
		{ID: "n1", HouseholdID: "nh", FirstName: "john", Surname: "holt", Sex: census.SexMale, Age: 50, Role: census.RoleHead},
		{ID: "n2", HouseholdID: "nh", FirstName: "thomas", Surname: "holt", Sex: census.SexMale, Age: 25, Role: census.RoleSon},
		{ID: "n3", HouseholdID: "nh", FirstName: "thomas", Surname: "holt", Sex: census.SexMale, Age: 12, Role: census.RoleSon},
	} {
		if err := new.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	pre := preMatchT(old.Records(), old.Year, new.Records(), new.Year,
		NameOnly(1.0), block.DefaultStrategies(), 1)
	s := matchChecked(t, old, new, hgraph.Build(old, old.Household("oh")),
		hgraph.Build(new, new.Household("nh")), pre, NameOnly(1.0), paperMatchConfig())
	if s == nil {
		t.Fatal("no subgraph for duplicate-name household")
	}
	if len(s.Vertices) != 3 {
		t.Fatalf("vertices = %d, want 3", len(s.Vertices))
	}
	got := map[string]string{}
	for _, v := range s.Vertices {
		got[v.Old.ID] = v.New.ID
	}
	want := map[string]string{"o1": "n1", "o2": "n2", "o3": "n3"}
	for o, n := range want {
		if got[o] != n {
			t.Errorf("vertex %s -> %s, want %s (age structure should disambiguate)", o, got[o], n)
		}
	}
}

// packPair packs an (old, new) household-number pair into one sortable
// word; unpackPair inverts it.
func packPair(ho, hn int32) uint64 { return uint64(uint32(ho))<<32 | uint64(uint32(hn)) }

func unpackPair(k uint64) (ho, hn int32) { return int32(k >> 32), int32(uint32(k)) }

// groupPair names the packed household-number pair k by household IDs.
func groupPair(k uint64, oldHH, newHH householdIndex) GroupPair {
	ho, hn := unpackPair(k)
	return GroupPair{Old: oldHH.ids[ho], New: newHH.ids[hn]}
}

// candidateGroupPairs is the pair-list oracle of the subgraph stage: every
// distinct group pair connected by at least one pre-matching record link,
// packed and in ascending order, with no structural test.
func candidateGroupPairs(pre *PreMatchResult, oldHH, newHH householdIndex) []uint64 {
	var out []uint64
	for _, l := range pre.Links {
		out = append(out, packPair(oldHH.of[l.Old], newHH.of[l.New]))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// sharedMemberPairs counts by brute force, through record IDs, the member
// pairs of two groups that share a cluster label of the pass and fit the
// age window.
func sharedMemberPairs(gOld, gNew *hgraph.Graph, pre *preMatchView, cfg MatchConfig) int {
	n := 0
	for _, o := range gOld.Members() {
		lo, ok := pre.Labels[recordKey{ID: o.ID}]
		if !ok {
			continue
		}
		for _, m := range gNew.Members() {
			if ln, ok := pre.Labels[recordKey{New: true, ID: m.ID}]; ok && ln == lo && cfg.AgeConsistent(o, m) {
				n++
			}
		}
	}
	return n
}

// TestCandidateGroupPairs: on the running example the pass's links
// connect four group pairs, and the subgraph stage counts the three whose
// households share two label-sharing, age-consistent members as
// candidates; 1871_b and 1881_c share only Steve.
func TestCandidateGroupPairs(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	pre := figure3PreMatch(1)
	oldHH, newHH := newHouseholdIndex(old, hgraph.BuildAll(old)), newHouseholdIndex(new, hgraph.BuildAll(new))
	var linked []GroupPair
	for _, k := range candidateGroupPairs(pre, oldHH, newHH) {
		linked = append(linked, groupPair(k, oldHH, newHH))
	}
	want := []GroupPair{
		{Old: "1871_a", New: "1881_a"},
		{Old: "1871_a", New: "1881_d"},
		{Old: "1871_b", New: "1881_b"},
		{Old: "1871_b", New: "1881_c"}, // via Steve
	}
	if !reflect.DeepEqual(linked, want) {
		t.Fatalf("linked group pairs = %v, want %v", linked, want)
	}
	f, cfg := NameOnly(1.0), paperMatchConfig()
	gm := NewGroupMatcher(pre, f.Compile(old.Records(), new.Records()), cfg)
	var gs groupStage
	subs, nLinked, candidates, err := gs.run(context.Background(), 1, gm, &oldHH, &newHH, 2, PanicFailFast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nLinked != 4 || candidates != 3 {
		t.Errorf("linked = %d, candidates = %d, want 4 and 3", nLinked, candidates)
	}
	checkGroupStage(t, pre, oldHH, newHH, gm, f, cfg, subs, nLinked, candidates)
}

func TestRpSim(t *testing.T) {
	cfg := paperMatchConfig()
	if rp, ok := cfg.RpSim(5, 5); !ok || rp != 1 {
		t.Errorf("exact agreement: %v/%v", rp, ok)
	}
	if rp, ok := cfg.RpSim(5, 7); !ok || math.Abs(rp-0.5) > 1e-9 {
		t.Errorf("deviation 2: %v/%v, want 0.5", rp, ok)
	}
	if _, ok := cfg.RpSim(5, 9); ok {
		t.Error("deviation beyond tolerance accepted")
	}
	// -1000 is an age difference like any other.
	if rp, ok := cfg.RpSim(-1000, -1000); !ok || rp != 1 {
		t.Errorf("age difference -1000: %v/%v", rp, ok)
	}
	// Sign matters: a reversed difference is a different structure.
	if _, ok := cfg.RpSim(5, -5); ok {
		t.Error("sign-flipped difference accepted")
	}
}

func TestAgeConsistent(t *testing.T) {
	cfg := paperMatchConfig()
	mk := func(age int) *census.Record { return &census.Record{Age: age} }
	if !cfg.AgeConsistent(mk(30), mk(40)) {
		t.Error("exact ten-year gap rejected")
	}
	if !cfg.AgeConsistent(mk(30), mk(43)) {
		t.Error("gap within tolerance rejected")
	}
	if cfg.AgeConsistent(mk(30), mk(44)) {
		t.Error("gap outside tolerance accepted")
	}
	if !cfg.AgeConsistent(mk(census.AgeMissing), mk(44)) {
		t.Error("missing age should pass")
	}
}

// checkGroupStage checks the output of the subgraph_match stage for one
// pass against the oracles. Every group pair the pass's links connect
// (candidateGroupPairs) is matched with both GroupMatcher.MatchGroups and
// the string-keyed oracle, which must agree. The stage's subgraphs must
// deep-equal the oracle's non-nil subgraphs, in pair order; linked must
// count the linked pairs, and candidates those with at least two
// label-sharing, age-consistent member pairs by a brute-force count.
func checkGroupStage(t testing.TB, pre *PreMatchResult, oldHH, newHH householdIndex, gm *GroupMatcher,
	f SimFunc, cfg MatchConfig, subs []*Subgraph, linked, candidates int) {
	t.Helper()
	view := viewOf(pre)
	all := candidateGroupPairs(pre, oldHH, newHH)
	if linked != len(all) {
		t.Fatalf("stage counts %d linked group pairs, oracle %d", linked, len(all))
	}
	var want []*Subgraph
	shared := 0
	for _, k := range all {
		ho, hn := unpackPair(k)
		gOld, gNew := oldHH.graphs[ho], newHH.graphs[hn]
		sub := gm.MatchGroups(gOld, gNew)
		oracle := matchGroupsOracle(gOld, gNew, view, f, cfg)
		if !reflect.DeepEqual(sub, oracle) {
			t.Fatalf("%v: MatchGroups %+v, oracle %+v", groupPair(k, oldHH, newHH), sub, oracle)
		}
		if oracle != nil {
			want = append(want, oracle)
		}
		if sharedMemberPairs(gOld, gNew, view, cfg) >= 2 {
			shared++
		}
	}
	if candidates != shared {
		t.Fatalf("stage counts %d candidates, %d linked pairs share two label-sharing, age-consistent member pairs",
			candidates, shared)
	}
	if !slices.EqualFunc(subs, want, func(a, b *Subgraph) bool { return reflect.DeepEqual(a, b) }) {
		t.Fatalf("stage matched %d subgraphs, oracle %d, or they differ", len(subs), len(want))
	}
}

// subgraphOracleHook is a run hook that runs the subgraph_match stage of
// every δ iteration and checks it with checkGroupStage, before the
// executor runs it.
type subgraphOracleHook struct {
	t                        *testing.T
	linked, candidates, subs int
}

func (h *subgraphOracleHook) hook(rs *runState, delta float64, _, _ []*census.Record, pre *PreMatchResult, _ []RecordLink) {
	if pre == nil {
		return
	}
	subs, linked, candidates, err := rs.subgraphMatch(context.Background(), delta, pre)
	if err != nil {
		h.t.Fatal(err)
	}
	gm := NewGroupMatcher(pre, rs.sim.eng, rs.match)
	checkGroupStage(h.t, pre, rs.oldHH, rs.newHH, gm, rs.cfg.Sim.WithDelta(delta), rs.match, subs, linked, candidates)
	h.linked += linked
	h.candidates += candidates
	h.subs += len(subs)
}

// TestMatchGroupsOracleDifferential: across ω1/ω2, three δ schedules, both
// vertex policies (cluster labels and direct pairs only) and the default
// and LSH blocking schemes, every linked group pair of every iteration
// gets the oracle's subgraph from the position-keyed, engine-scored
// matcher, and the subgraph stage returns exactly the oracle's subgraphs,
// linked pairs and candidates (checkGroupStage).
func TestMatchGroupsOracleDifferential(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.02, 29), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	sims := map[string]SimFunc{"omega1": OmegaOne(0.7), "omega2": OmegaTwo(0.7)}
	schedules := map[string]func(*Config){
		"default":  func(*Config) {},
		"one-shot": func(c *Config) { c.DeltaHigh, c.DeltaLow, c.DeltaStep = 0.5, 0.5, 0 },
		"clamped":  func(c *Config) { c.DeltaLow = 0.52 },
	}
	for simName, sim := range sims {
		for schedName, schedule := range schedules {
			for _, directOnly := range []bool{false, true} {
				for _, scheme := range []string{"default", "lsh"} {
					cfg := DefaultConfig()
					cfg.Sim = sim
					schedule(&cfg)
					cfg.DirectVerticesOnly = directOnly
					if cfg.Strategies, err = ParseBlocking(scheme); err != nil {
						t.Fatal(err)
					}
					check := &subgraphOracleHook{t: t}
					if _, err := link(context.Background(), old, new, cfg, check.hook); err != nil {
						t.Fatal(err)
					}
					if check.subs == 0 || check.candidates >= check.linked {
						t.Errorf("%s/%s/%s direct=%v: %d subgraphs from %d candidates of %d linked group pairs; the first test is not exercised",
							simName, schedName, scheme, directOnly, check.subs, check.candidates, check.linked)
					}
				}
			}
		}
	}
}

// TestObsSubgraphCacheAttribution: the pruned comparisons of each δ
// pre-match pass land in the snapshot of that iteration, and those of the
// remainder pass in the run totals only, so per-iteration counts plus the
// remainder's equal the run totals, and each equals a replay of its pass.
func TestObsSubgraphCacheAttribution(t *testing.T) {
	old, new, err := synth.GeneratePair(synth.TestConfig(0.02, 7), 1861, 1871)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Obs = obs.NewStats(nil)
	replay := &pruneReplay{}
	if _, err := link(context.Background(), old, new, cfg, replay.hook); err != nil {
		t.Fatal(err)
	}
	rep := cfg.Obs.Report()
	if len(rep.Iterations) != len(replay.passes) || len(rep.Iterations) == 0 {
		t.Fatalf("%d iterations reported, %d passes replayed", len(rep.Iterations), len(replay.passes))
	}
	var iterSum int64
	for i, it := range rep.Iterations {
		if got, want := it.Counters[obs.PrunedComparisons], replay.passes[i]; got != want {
			t.Errorf("iteration %d (delta %v): %d pruned comparisons reported, its replay pruned %d", i, it.Delta, got, want)
		}
		iterSum += it.Counters[obs.PrunedComparisons]
	}
	if iterSum == 0 {
		t.Fatal("no iteration pruned a comparison; the attribution is not exercised")
	}
	if replay.remainder == 0 {
		t.Fatal("the remainder pass pruned no comparison; its attribution is not exercised")
	}
	if got, want := iterSum+replay.remainder, rep.Counters[obs.PrunedComparisons]; got != want {
		t.Errorf("iterations %d + remainder %d = %d, run totals %d", iterSum, replay.remainder, got, want)
	}
}

// fuzzCensus builds an old (1871) and a new (1881) dataset from data, two
// bytes per record. The first byte picks the side (bit 0), one of four
// households (bits 1-2), one of four first names (bits 3-4; every record
// is a Holt, so names repeat within households) and one of eight roles
// (bits 5-7). The second picks the age: missing when divisible by five,
// else 20-28 in 1871 and 26-34 in 1881, so a pair's age gap ranges over
// -2..14 years around the ten-year interval.
func fuzzCensus(t *testing.T, data []byte) (old, new *census.Dataset) {
	t.Helper()
	names := [...]string{"ann", "john", "mary", "thomas"}
	roles := [...]census.Role{census.RoleHead, census.RoleWife, census.RoleSon, census.RoleDaughter,
		census.RoleFather, census.RoleBrother, census.RoleServant, census.RoleLodger}
	old, new = census.NewDataset(1871), census.NewDataset(1881)
	for i := 0; i+1 < len(data) && i < 48; i += 2 {
		b, a := data[i], data[i+1]
		d, side, base := old, "o", 20
		if b&1 == 1 {
			d, side, base = new, "n", 26
		}
		age := census.AgeMissing
		if a%5 != 0 {
			age = base + int(a%9)
		}
		r := &census.Record{
			ID:          fmt.Sprintf("%s%d", side, i/2),
			HouseholdID: fmt.Sprintf("%sh%d", side, b>>1&3),
			FirstName:   names[b>>3&3],
			Surname:     "holt",
			Age:         age,
			Role:        roles[b>>5],
		}
		if err := d.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return old, new
}

// FuzzStructuralFilter: on small households with duplicate names (one
// label admitting several member pairs), missing ages and ages outside
// the census-interval window, under both vertex policies, the subgraph
// stage returns the oracle's subgraphs, linked pairs and candidates, and
// MatchGroups agrees with the oracle on every linked pair
// (checkGroupStage).
func FuzzStructuralFilter(f *testing.F) {
	// A John/Thomas household found again in 1881, and a second 1881
	// household with only a John, which shares one member pair.
	f.Add([]byte{0x08, 1, 0x58, 2, 0x09, 3, 0x59, 4, 0x0b, 3}, false)
	// Duplicate Thomases in both years: one pair inside the age window,
	// one outside, and a missing 1881 age.
	f.Add([]byte{0x08, 1, 0x58, 2, 0x58, 7, 0x09, 3, 0x59, 6, 0x59, 5}, false)
	f.Add([]byte{0x08, 1, 0x58, 2, 0x58, 7, 0x09, 3, 0x59, 6, 0x59, 5}, true)
	// Members spread over several households on both sides.
	f.Add([]byte{0x00, 3, 0x2a, 6, 0x52, 3, 0x01, 3, 0x2b, 6, 0x53, 2, 0x7c, 9, 0x7d, 9, 0x04, 1, 0x07, 1}, false)
	cross := []block.Strategy{block.CrossProduct()}
	f.Fuzz(func(t *testing.T, data []byte, directOnly bool) {
		old, new := fuzzCensus(t, data)
		sim := NameOnly(1.0)
		cfg := paperMatchConfig()
		cfg.DirectVerticesOnly = directOnly
		pre := preMatchT(old.Records(), old.Year, new.Records(), new.Year, sim, cross, 1)
		oldHH, newHH := newHouseholdIndex(old, hgraph.BuildAll(old)), newHouseholdIndex(new, hgraph.BuildAll(new))
		gm := NewGroupMatcher(pre, sim.Compile(old.Records(), new.Records()), cfg)
		var gs groupStage
		subs, linked, candidates, err := gs.run(context.Background(), sim.Delta, gm, &oldHH, &newHH, 2, PanicFailFast, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkGroupStage(t, pre, oldHH, newHH, gm, sim, cfg, subs, linked, candidates)
	})
}
