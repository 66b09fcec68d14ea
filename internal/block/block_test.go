package block

import (
	"fmt"
	"testing"

	"censuslink/internal/census"
)

// makeDataset builds a dataset from (first, surname, sex, age) tuples, one
// record per household.
func makeDataset(t *testing.T, year int, rows [][4]string) *census.Dataset {
	t.Helper()
	d := census.NewDataset(year)
	for i, row := range rows {
		age := census.AgeMissing
		if row[3] != "" {
			fmt.Sscanf(row[3], "%d", &age)
		}
		r := &census.Record{
			ID:          fmt.Sprintf("%d_%d", year, i),
			HouseholdID: fmt.Sprintf("h%d_%d", year, i),
			FirstName:   row[0],
			Surname:     row[1],
			Sex:         census.ParseSex(row[2]),
			Age:         age,
			Role:        census.RoleHead,
		}
		if err := d.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// candidates is the serial candidate enumeration the strategy tests run
// through: it calls visit once per distinct (old, new) record pair, old
// records in input order and each one's candidates in new-input order.
func candidates(old []*census.Record, oldYear int, new []*census.Record, newYear int,
	strategies []Strategy, visit func(o, n *census.Record)) {
	ix := NewIndex(new, newYear, strategies)
	var scratch Scratch
	for _, o := range old {
		for _, n := range ix.Candidates(o, oldYear, &scratch) {
			visit(o, n)
		}
	}
}

// countPairs returns the number of distinct candidate pairs.
func countPairs(old []*census.Record, oldYear int, new []*census.Record, newYear int, strategies []Strategy) int {
	n := 0
	candidates(old, oldYear, new, newYear, strategies, func(_, _ *census.Record) { n++ })
	return n
}

func collectPairs(old, new *census.Dataset, strategies []Strategy) map[string]bool {
	got := map[string]bool{}
	candidates(old.Records(), old.Year, new.Records(), new.Year, strategies, func(o, n *census.Record) {
		got[o.ID+"|"+n.ID] = true
	})
	return got
}

func TestSurnameSoundexBlocksVariants(t *testing.T) {
	old := makeDataset(t, 1871, [][4]string{
		{"john", "smith", "m", "30"},
		{"mary", "taylor", "f", "25"},
	})
	new := makeDataset(t, 1881, [][4]string{
		{"john", "smyth", "m", "40"}, // same soundex as smith
		{"mary", "walker", "f", "35"},
	})
	pairs := collectPairs(old, new, []Strategy{SurnameSoundex()})
	if !pairs["1871_0|1881_0"] {
		t.Error("smith/smyth should be candidates")
	}
	if pairs["1871_1|1881_1"] {
		t.Error("taylor/walker should not be candidates")
	}
}

func TestFirstNameSexPassRecoversSurnameChange(t *testing.T) {
	old := makeDataset(t, 1871, [][4]string{
		{"alice", "ashworth", "f", "18"},
	})
	new := makeDataset(t, 1881, [][4]string{
		{"alice", "smith", "f", "28"}, // married, surname changed
		{"alice", "smith", "m", "2"},  // different sex, must not block on pass 2
	})
	surnameOnly := collectPairs(old, new, []Strategy{SurnameSoundex()})
	if len(surnameOnly) != 0 {
		t.Fatalf("surname pass should miss the marriage case: %v", surnameOnly)
	}
	both := collectPairs(old, new, DefaultStrategies())
	if !both["1871_0|1881_0"] {
		t.Error("first-name pass should recover the surname change")
	}
	if both["1871_0|1881_1"] {
		t.Error("sex mismatch should prevent first-name blocking")
	}
}

func TestCandidatesDeduplicates(t *testing.T) {
	// Same surname soundex AND same first name soundex: both passes emit the
	// pair; visit must run once.
	old := makeDataset(t, 1871, [][4]string{{"john", "smith", "m", "30"}})
	new := makeDataset(t, 1881, [][4]string{{"john", "smith", "m", "40"}})
	count := 0
	candidates(old.Records(), old.Year, new.Records(), new.Year, DefaultStrategies(), func(_, _ *census.Record) { count++ })
	if count != 1 {
		t.Errorf("pair visited %d times, want 1", count)
	}
}

func TestBirthYearBand(t *testing.T) {
	old := makeDataset(t, 1871, [][4]string{
		{"a", "b", "m", "30"}, // born 1841
		{"c", "d", "m", ""},   // missing age -> no key
	})
	new := makeDataset(t, 1881, [][4]string{
		{"e", "f", "m", "41"}, // born 1840: adjacent band must collide
		{"g", "h", "m", "5"},  // born 1876: far away
	})
	pairs := collectPairs(old, new, []Strategy{BirthYearBand(5)})
	if !pairs["1871_0|1881_0"] {
		t.Error("neighbouring birth-year bands should collide")
	}
	if pairs["1871_0|1881_1"] {
		t.Error("distant birth years should not collide")
	}
	for k := range pairs {
		if k[:6] == "1871_1" {
			t.Error("record with missing age should emit no keys")
		}
	}
}

func TestCrossProduct(t *testing.T) {
	old := makeDataset(t, 1871, [][4]string{
		{"a", "b", "m", "1"}, {"c", "d", "f", "2"},
	})
	new := makeDataset(t, 1881, [][4]string{
		{"e", "f", "m", "3"}, {"g", "h", "f", "4"}, {"i", "j", "m", "5"},
	})
	if got := countPairs(old.Records(), old.Year, new.Records(), new.Year, []Strategy{CrossProduct()}); got != 6 {
		t.Errorf("countPairs cross product = %d, want 6", got)
	}
}

// TestCandidatesSupersetOfExactKey: every pair of records with identical
// surname must be produced by the surname pass (blocking completeness on
// exact duplicates).
func TestCandidatesSupersetOfExactKey(t *testing.T) {
	names := []string{"smith", "ashworth", "riley", "taylor", "smith", "riley"}
	var rowsOld, rowsNew [][4]string
	for i, n := range names {
		rowsOld = append(rowsOld, [4]string{fmt.Sprintf("p%d", i), n, "m", "20"})
		rowsNew = append(rowsNew, [4]string{fmt.Sprintf("q%d", i), n, "m", "30"})
	}
	old := makeDataset(t, 1871, rowsOld)
	new := makeDataset(t, 1881, rowsNew)
	pairs := collectPairs(old, new, []Strategy{SurnameSoundex()})
	for i, a := range names {
		for j, b := range names {
			if a == b && !pairs[fmt.Sprintf("1871_%d|1881_%d", i, j)] {
				t.Errorf("exact surname pair (%d,%d) missing", i, j)
			}
		}
	}
}

func TestCandidatesDeterministicOrder(t *testing.T) {
	old := makeDataset(t, 1871, [][4]string{
		{"john", "smith", "m", "30"}, {"jane", "smith", "f", "28"},
	})
	new := makeDataset(t, 1881, [][4]string{
		{"john", "smith", "m", "40"}, {"jane", "smith", "f", "38"}, {"jack", "smith", "m", "10"},
	})
	var first []string
	candidates(old.Records(), old.Year, new.Records(), new.Year, DefaultStrategies(), func(o, n *census.Record) {
		first = append(first, o.ID+"|"+n.ID)
	})
	for trial := 0; trial < 5; trial++ {
		var again []string
		candidates(old.Records(), old.Year, new.Records(), new.Year, DefaultStrategies(), func(o, n *census.Record) {
			again = append(again, o.ID+"|"+n.ID)
		})
		if len(again) != len(first) {
			t.Fatalf("pair count varies: %d vs %d", len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("order varies at %d: %s vs %s", i, first[i], again[i])
			}
		}
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 7: "7", -3: "-3", 1851: "1851", -190: "-190"}
	for in, want := range cases {
		if got := itoa(in); got != want {
			t.Errorf("itoa(%d) = %q, want %q", in, got, want)
		}
	}
}

func BenchmarkCandidates(b *testing.B) {
	old := census.NewDataset(1871)
	new := census.NewDataset(1881)
	surnames := []string{"smith", "ashworth", "riley", "taylor", "walker", "holt", "lord", "barnes"}
	firsts := []string{"john", "mary", "william", "elizabeth", "thomas", "sarah"}
	for i := 0; i < 2000; i++ {
		r := &census.Record{
			ID: fmt.Sprintf("o%d", i), HouseholdID: fmt.Sprintf("ho%d", i/4),
			FirstName: firsts[i%len(firsts)], Surname: surnames[i%len(surnames)],
			Sex: census.SexMale, Age: i % 80, Role: census.RoleHead,
		}
		if err := old.AddRecord(r); err != nil {
			b.Fatal(err)
		}
		r2 := *r
		r2.ID = fmt.Sprintf("n%d", i)
		r2.HouseholdID = fmt.Sprintf("hn%d", i/4)
		if err := new.AddRecord(&r2); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		countPairs(old.Records(), old.Year, new.Records(), new.Year, DefaultStrategies())
	}
}

// TestCandidateTableMatchesQueries: a table built from rows appended per
// chunk and joined holds, for every old record, exactly the candidates and
// raw hit count of a direct query, and an empty row keeps the rows after
// it aligned.
func TestCandidateTableMatchesQueries(t *testing.T) {
	old := makeDataset(t, 1871, [][4]string{
		{"john", "smith", "m", "30"},
		{"mary", "smith", "f", "25"},
		{"ann", "taylor", "f", "60"},
		{"", "", "m", ""},
		{"john", "smyth", "m", "31"},
	})
	new := makeDataset(t, 1881, [][4]string{
		{"john", "smyth", "m", "40"},
		{"mary", "walker", "f", "35"},
		{"john", "smith", "m", "41"},
		{"ann", "tailor", "f", "70"},
	})
	strategies := append(DefaultStrategies(), BirthYearBand(5))
	ix := NewIndex(new.Records(), new.Year, strategies)
	recs := old.Records()
	var first, second CandidateTable
	for _, o := range recs[:2] {
		ix.AppendRow(&first, o, old.Year, nil)
	}
	for _, o := range recs[2:] {
		ix.AppendRow(&second, o, old.Year, nil)
	}
	var empty CandidateTable
	empty.AppendEmptyRow()
	tab := JoinTables(&first, &CandidateTable{}, &second, &empty)
	if tab.Rows() != len(recs)+1 {
		t.Fatalf("rows = %d, want %d", tab.Rows(), len(recs)+1)
	}

	fresh := NewIndex(new.Records(), new.Year, strategies)
	pairs := 0
	for i, o := range recs {
		want := append([]int32(nil), fresh.CandidateIndices(o, old.Year, nil)...)
		if got := tab.Row(i); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("row %d = %v, want %v", i, got, want)
		}
		if tab.Offset(i) != pairs {
			t.Errorf("row %d offset = %d, want %d", i, tab.Offset(i), pairs)
		}
		pairs += len(want)
	}
	last := len(recs)
	if len(tab.Row(last)) != 0 || tab.Raw(last) != 0 {
		t.Errorf("empty row holds %v, raw %d", tab.Row(last), tab.Raw(last))
	}
	if tab.Pairs() != pairs || pairs == 0 {
		t.Errorf("pairs = %d, want %d (> 0)", tab.Pairs(), pairs)
	}
	raw := 0
	for i := 0; i < tab.Rows(); i++ {
		raw += tab.Raw(i)
	}
	if int64(raw) != fresh.Generated() || ix.Generated() != fresh.Generated() {
		t.Errorf("raw hits: table %d, building index %d, fresh queries %d", raw, ix.Generated(), fresh.Generated())
	}
	if raw <= pairs {
		t.Errorf("raw hits %d not above distinct pairs %d; the strategies should overlap", raw, pairs)
	}
	if tab.Bytes() < 4*tab.Pairs() {
		t.Errorf("bytes = %d for %d pairs", tab.Bytes(), tab.Pairs())
	}
}

// TestKeyIDsGrow: the key table keeps every id through repeated doubling,
// returns the first id of a key put twice, and finds no absent key.
func TestKeyIDsGrow(t *testing.T) {
	var ids keyIDs
	ids.init(0)
	key := func(i int) Key { return Key{Tag: uint64(i % 3), Hi: uint64(i / 7), Lo: uint64(i)} }
	for i := 0; i < 5000; i++ {
		if got := ids.put(key(i), int32(i)); got != int32(i) {
			t.Fatalf("put fresh key %d gave id %d", i, got)
		}
		if got := ids.put(key(i/2), -1); got != int32(i/2) {
			t.Fatalf("put known key %d gave id %d", i/2, got)
		}
	}
	if len(ids.keys) < 2*5000 {
		t.Fatalf("table of %d slots holds 5000 keys", len(ids.keys))
	}
	for i := 0; i < 5000; i++ {
		if got, ok := ids.get(key(i)); !ok || got != int32(i) {
			t.Fatalf("get key %d = %d, %v", i, got, ok)
		}
	}
	if _, ok := ids.get(key(5000)); ok {
		t.Error("absent key found")
	}
}

// TestRecordKeysPresize: a run sizes each strategy's key array once, from
// the first record that emits keys under the strategy, so a leading record
// without an age (no birth-year-guarded keys) or without a name (no keys
// at all) does not leave the arrays to grow by doubling: the arrays are
// not reallocated while the rest of the run is appended.
func TestRecordKeysPresize(t *testing.T) {
	const n = 200
	recs := make([]*census.Record, n)
	for i := range recs {
		recs[i] = &census.Record{ID: itoa(i), FirstName: "ann", Surname: "ashworth", Sex: census.SexFemale, Age: 30}
	}
	recs[0].FirstName, recs[0].Surname = "", "" // no keys under any pass
	recs[1].Age = census.AgeMissing             // full-name keys only
	strategies := append(LSHStrategies(LSHConfig{}), BirthYearBand(5))
	rk := NewRecordKeys(strategies, n)
	for _, r := range recs[:3] {
		rk.Append(r, 1871)
	}
	first := make([]*Key, len(strategies))
	for si := range strategies {
		if len(rk.keys[si]) == 0 {
			t.Fatalf("%s: no keys after three records", strategies[si].Name)
		}
		first[si] = &rk.keys[si][0]
	}
	for _, r := range recs[3:] {
		rk.Append(r, 1871)
	}
	for si, s := range strategies {
		if &rk.keys[si][0] != first[si] {
			t.Errorf("%s: key array of %d keys was reallocated after the third record", s.Name, len(rk.keys[si]))
		}
	}
}
