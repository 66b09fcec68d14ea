package linkage

import (
	"context"
	"math"
	"reflect"
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
		return cfg.rpSim(dOld, dNew)
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

func TestCandidateGroupPairs(t *testing.T) {
	old, new := paperexample.Old(), paperexample.New()
	pre := figure3PreMatch(1)
	oldHH, newHH := newHouseholdIndex(old, nil), newHouseholdIndex(new, nil)
	var pairs []GroupPair
	for _, k := range candidateGroupPairs(pre, oldHH, newHH, nil) {
		pairs = append(pairs, groupPair(k, oldHH, newHH))
	}
	want := map[GroupPair]bool{
		{Old: "1871_a", New: "1881_a"}: true,
		{Old: "1871_a", New: "1881_d"}: true,
		{Old: "1871_b", New: "1881_b"}: true,
		{Old: "1871_b", New: "1881_c"}: true, // via Steve
	}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v", pairs)
	}
	for _, p := range pairs {
		if !want[p] {
			t.Errorf("unexpected group pair %v", p)
		}
	}
}

func TestRpSim(t *testing.T) {
	cfg := paperMatchConfig()
	if rp, ok := cfg.rpSim(5, 5); !ok || rp != 1 {
		t.Errorf("exact agreement: %v/%v", rp, ok)
	}
	if rp, ok := cfg.rpSim(5, 7); !ok || math.Abs(rp-0.5) > 1e-9 {
		t.Errorf("deviation 2: %v/%v, want 0.5", rp, ok)
	}
	if _, ok := cfg.rpSim(5, 9); ok {
		t.Error("deviation beyond tolerance accepted")
	}
	if _, ok := cfg.rpSim(hgraph.AgeDiffMissing, 5); ok {
		t.Error("missing age difference accepted")
	}
	// Sign matters: a reversed difference is a different structure.
	if _, ok := cfg.rpSim(5, -5); ok {
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

// subgraphOracleHook is a run hook that, before the subgraph stage of every
// δ iteration, matches each candidate group pair the stage is about to
// match with both GroupMatcher.MatchGroups and the string-keyed oracle and
// requires deep-equal subgraphs (nil for nil).
type subgraphOracleHook struct {
	t             *testing.T
	checked, subs int
}

func (h *subgraphOracleHook) hook(rs *runState, delta float64, _, _ []*census.Record, pre *PreMatchResult, _ []RecordLink) {
	if pre == nil {
		return
	}
	f := rs.cfg.Sim.WithDelta(delta)
	gm := NewGroupMatcher(pre, rs.sim.eng, rs.match)
	view := viewOf(pre)
	for _, k := range candidateGroupPairs(pre, rs.oldHH, rs.newHH, nil) {
		gp := groupPair(k, rs.oldHH, rs.newHH)
		ho, hn := unpackPair(k)
		gOld, gNew := rs.oldHH.graphs[ho], rs.newHH.graphs[hn]
		got := gm.MatchGroups(gOld, gNew)
		if want := matchGroupsOracle(gOld, gNew, view, f, rs.match); !reflect.DeepEqual(got, want) {
			h.t.Fatalf("delta=%v %v: MatchGroups %+v, oracle %+v", delta, gp, got, want)
		}
		h.checked++
		if got != nil {
			h.subs++
		}
	}
}

// TestMatchGroupsOracleDifferential: across ω1/ω2, three δ schedules and
// both vertex policies (cluster labels and direct pairs only), every candidate group pair of every iteration gets
// the oracle's subgraph from the position-keyed, engine-scored matcher.
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
				cfg := DefaultConfig()
				cfg.Sim = sim
				schedule(&cfg)
				cfg.DirectVerticesOnly = directOnly
				check := &subgraphOracleHook{t: t}
				if _, err := link(context.Background(), old, new, cfg, check.hook); err != nil {
					t.Fatal(err)
				}
				if check.subs == 0 {
					t.Errorf("%s/%s direct=%v: no subgraph among %d group pairs",
						simName, schedName, directOnly, check.checked)
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
