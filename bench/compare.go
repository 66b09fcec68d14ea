package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadRecords reads every run record (*.json, written with -out) of a
// directory, in file-name order.
func loadRecords(dir string) ([]runRecord, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var recs []runRecord
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no untraced run records", dir)
	}
	return recs, nil
}

// pairUp matches parent and change records of one workload by seed, in
// file order within a seed, so each pair ran on identical inputs.
func pairUp(parent, change []runRecord, workload string) (p, c []runRecord) {
	bySeed := map[int64][]runRecord{}
	for _, r := range change {
		if r.Workload == workload {
			bySeed[r.Seed] = append(bySeed[r.Seed], r)
		}
	}
	for _, r := range parent {
		if r.Workload != workload || len(bySeed[r.Seed]) == 0 {
			continue
		}
		p, c = append(p, r), append(c, bySeed[r.Seed][0])
		bySeed[r.Seed] = bySeed[r.Seed][1:]
	}
	return p, c
}

// verdict judges one workload × metric by the paired rule: a gain needs the
// change to win at least nine tenths of at least ten pairs (ties count for
// neither) and the medians to differ by more than the parent's quartile
// spread; a regression is a change median worse than the parent's by more
// than the bound; a spread wider than the bound leaves the metric
// unresolved unless every change run beats every parent run.
func verdict(s metricSpec, parent, change []float64) (string, float64) {
	better := func(a, b float64) bool {
		if s.Better == "higher" {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	n := len(parent)
	winShare := ratio(float64(wins), float64(n))
	if n < 10 {
		return "unresolved (fewer than 10 pairs)", winShare
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	worse := ratio(cm-pm, abs(pm))
	if s.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case winShare >= 0.9 && abs(cm-pm) > q3-q1:
		return "improved", winShare
	case worse > s.Bound:
		return "regressed", winShare
	case ratio(q3-q1, abs(pm)) > s.Bound && !allBetter:
		return "unresolved", winShare
	}
	return "unchanged", winShare
}

// compareRuns prints, for every workload and end-to-end metric, each side's
// median and quartiles over the paired runs, the change's win share and the
// verdict against the metric's bound in BENCHMARK.json.
func compareRuns(w io.Writer, spec *benchSpec, parentDir, changeDir string) error {
	parent, err := loadRecords(parentDir)
	if err != nil {
		return err
	}
	change, err := loadRecords(changeDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-12s %5s %28s %28s %6s  %s\n", "workload", "metric", "pairs",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range spec.Workloads {
		p, c := pairUp(parent, change, wl.Name)
		if len(p) == 0 {
			fmt.Fprintf(w, "%-13s no paired runs\n", wl.Name)
			continue
		}
		for _, s := range spec.EndToEnd {
			pv, cv := make([]float64, len(p)), make([]float64, len(c))
			for i := range p {
				pv[i], cv[i] = p[i].Metrics[s.Name].Value, c[i].Metrics[s.Name].Value
			}
			v, wins := verdict(s, pv, cv)
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			fmt.Fprintf(w, "%-13s %-12s %5d %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %5.0f%%  %s\n",
				wl.Name, s.Name, len(p), median(pv), pq1, pq3, median(cv), cq1, cq3, 100*wins, v)
		}
	}
	return nil
}
