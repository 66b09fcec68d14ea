package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// linkParams sizes a link workload. One run links `inputs` independent
// census pairs generated from sub-seeds of the run's seed: the cost of one
// link follows the size of its largest candidate clusters at low δ and
// differs by about a quarter between two generated pairs, so a run averages
// over many pairs to keep the spread between seeds inside the bounds.
type linkParams struct {
	blocking string
	scale    float64
	inputs   int
}

// minRecordF1 is the quality floor below which a link output is treated as
// wrong rather than merely worse.
const minRecordF1 = 0.5

// overheadInputs is how many inputs a traced run also links untraced.
const overheadInputs = 4

// linkInput is one generated census pair and what its links produced.
type linkInput struct {
	old, new          *dataset
	digest            string // record and group links of the first link
	recordF1, groupF1 float64
	untraced, traced  []float64          // link times, ms
	layers            map[string]float64 // per-layer sums over traced links
	counts            map[string]float64 // pipeline counts of the first traced link
}

// prepareLinkInputs generates the pairs, writes them as CSV and parses them
// back: the pipeline links what the census reader produced. It returns the
// parse time of every file.
func prepareLinkInputs(dir string, p linkParams, seed int64) ([]*linkInput, []float64, error) {
	var inputs []*linkInput
	var parseMS []float64
	for i := 0; i < p.inputs; i++ {
		old, new, err := generatePair(p.scale, seed*1000+int64(i))
		if err != nil {
			return nil, nil, err
		}
		in := &linkInput{layers: map[string]float64{}}
		for _, d := range []*dataset{old, new} {
			b, err := csvBytes(d)
			if err != nil {
				return nil, nil, err
			}
			path := filepath.Join(dir, fmt.Sprintf("pair%02d_%s", i, csvName(datasetYear(d))))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				return nil, nil, err
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				return nil, nil, err
			}
			start := time.Now()
			parsed, err := parseCSV(raw, datasetYear(d))
			if err != nil {
				return nil, nil, err
			}
			parseMS = append(parseMS, msSince(start))
			if in.old == nil {
				in.old = parsed
			} else {
				in.new = parsed
			}
		}
		inputs = append(inputs, in)
	}
	return inputs, parseMS, nil
}

// linkRun is the state of one link workload run.
type linkRun struct {
	env    *runEnv
	o      *outcome
	lk     *linker
	inputs []*linkInput
	// gcCPU and allCPU are the runtime's CPU-time estimates summed over the
	// traced links.
	gcCPU, allCPU float64
}

func runLink(ctx context.Context, env *runEnv, p linkParams) (*outcome, error) {
	dir, err := env.mkdir("link")
	if err != nil {
		return nil, err
	}
	r := &linkRun{env: env, o: newOutcome()}
	var setups, parseMS []float64
	for rep := 0; rep < setupReps/2; rep++ {
		start := time.Now()
		inputs, pm, err := prepareLinkInputs(dir, p, env.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		r.inputs, parseMS = inputs, append(parseMS, pm...)
	}
	if r.lk, err = newLinker(p.blocking); err != nil {
		return nil, err
	}
	// Warm-up: one discarded link lets the heap grow to its working size.
	if _, err := r.lk.link(ctx, r.inputs[0].old, r.inputs[0].new, nil); err != nil {
		return nil, err
	}

	// Cycles over the inputs until the time is up, the first one whole, or
	// until the run is stopped. A traced run also links its first few inputs untraced, before or after
	// the traced link in alternating order, to measure the tracing overhead
	// on equal work.
	deadline := time.Now().Add(env.seconds)
	for cycle := 0; ctx.Err() == nil && (cycle == 0 || time.Now().Before(deadline)); cycle++ {
		for i, in := range r.inputs {
			if ctx.Err() != nil || (cycle > 0 && !time.Now().Before(deadline)) {
				break
			}
			overhead := env.trace && i < overheadInputs
			if overhead && (i+cycle)%2 == 0 {
				r.linkOnce(ctx, i, in, false)
			}
			r.linkOnce(ctx, i, in, env.trace)
			if overhead && (i+cycle)%2 == 1 {
				r.linkOnce(ctx, i, in, false)
			}
		}
	}

	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	// The rest of the set-ups run after the measured window; their inputs
	// are equal to the ones linked and are discarded.
	for rep := setupReps / 2; rep < setupReps; rep++ {
		start := time.Now()
		if _, _, err := prepareLinkInputs(dir, p, env.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	o := r.o
	var latency, recordF1, groupF1 []float64
	for i, in := range r.inputs {
		times := in.untraced
		if env.trace {
			times = in.traced
		}
		if len(times) == 0 {
			o.check(false, "input %d: no successful link", i)
			continue
		}
		latency = append(latency, median(times))
		recordF1 = append(recordF1, in.recordF1)
		groupF1 = append(groupF1, in.groupF1)
	}
	o.e2e = map[string]float64{
		"setup_s":     median(setups),
		"latency_ms":  mean(latency),
		"throughput":  1000 / mean(latency),
		"peak_rss_mb": rss,
		"record_f1":   mean(recordF1),
		"group_f1":    mean(groupF1),
	}
	o.layers["census.read_csv_ms"] = mean(parseMS)
	if env.trace {
		r.layerMetrics()
	}
	return o, nil
}

// linkOnce links input i once and checks the output: the first link of an
// input must be a 1:1 record mapping above the quality floor, and every
// later one must produce the same record and group links.
func (r *linkRun) linkOnce(ctx context.Context, i int, in *linkInput, traced bool) {
	o := r.o
	var rec *linkRecorder
	var gc0, cpu0 float64
	if traced {
		rec = newLinkRecorder()
		gc0, cpu0 = cpuSeconds()
	}
	start := time.Now()
	res, err := r.lk.link(ctx, in.old, in.new, rec)
	end := time.Now()
	if !o.check(err == nil, "input %d: link: %v", i, err) {
		return
	}
	digest := linkDigest(res)
	if in.digest == "" {
		in.digest = digest
		if err := checkOneToOne(res); err != nil {
			o.fail("input %d: %v", i, err)
			return
		}
		in.recordF1, in.groupF1 = score(res, in.old, in.new)
		if in.recordF1 < minRecordF1 {
			o.fail("input %d: record F1 %.3f below %.2f", i, in.recordF1, minRecordF1)
			return
		}
	} else if digest != in.digest {
		o.fail("input %d: links differ from the input's first link", i)
		return
	}
	d := float64(end.Sub(start)) / float64(time.Millisecond)
	if !traced {
		in.untraced = append(in.untraced, d)
		return
	}
	in.traced = append(in.traced, d)
	gc1, cpu1 := cpuSeconds()
	r.gcCPU += gc1 - gc0
	r.allCPU += cpu1 - cpu0

	spans := linkSpans(r.env.tracer, r.env.tracer.newTrace(), start, end, rec.events)
	root := spans[0]
	selfSum := 0.0
	for _, s := range spans {
		selfSum += s.SelfMS
		in.layers["span_self."+s.Name] += s.SelfMS
		switch s.Name {
		case "linkage.link":
		case "linkage.iteration":
			in.layers[fmt.Sprintf("linkage.iter_ms.d%.2f", s.Attrs["delta"])] += s.dur()
		default:
			in.layers["stage."+s.Name] += s.dur()
			in.layers["alloc."+s.Name] += s.Attrs["alloc_bytes"]
			if s.Parent != 0 && s.Parent != 1 {
				in.layers[fmt.Sprintf("stage.%s.d%.2f", s.Name, s.Attrs["delta"])] += s.dur()
			}
		}
	}
	in.layers["link"] += root.dur()
	in.layers["peak_heap_inuse"] = max(in.layers["peak_heap_inuse"], float64(rec.counts.peakHeapInuse))
	// The stage self-times must account for the traced link time.
	o.check(abs(selfSum-root.dur()) <= 0.05*root.dur(),
		"input %d: span self-times sum to %.1f ms of a %.1f ms link", i, selfSum, root.dur())
	r.env.tracer.add(spans)

	if in.counts == nil {
		c := rec.counts
		in.counts = map[string]float64{
			"blocked": float64(c.blocked), "compared": float64(c.compared),
			"group_pairs": float64(c.groupPairs), "subgraphs": float64(c.subgraphs),
			"group_links": float64(c.groupLinks), "sim_hits": float64(c.simHits),
			"sim_misses": float64(c.simMisses), "pruned": float64(c.pruned),
		}
		for _, ev := range rec.events {
			if ev.name == "iteration" {
				in.counts[fmt.Sprintf("group_pairs.d%.2f", ev.delta)] = float64(ev.groupPairs)
			}
		}
	}
}

// deltas are the thresholds of the default δ schedule, the per-iteration
// metrics' suffixes.
var deltas = []string{"0.70", "0.65", "0.60", "0.55", "0.50"}

// stageMetrics maps pipeline stage names to their per-layer metric prefix.
var stageMetrics = map[string]string{
	"build_graphs":     "hgraph.build_graphs",
	"compile":          "compare.compile",
	"prematch":         "linkage.prematch",
	"candidate_groups": "linkage.candidate_groups",
	"subgraph_match":   "linkage.subgraph_match",
	"selection":        "linkage.selection",
	"remainder":        "linkage.remainder",
}

// layerMetrics turns the traced links into per-layer metrics: times are the
// mean per link (averaged per input first, then over inputs); counts are
// the mean per input of its first traced link, so they repeat exactly.
func (r *linkRun) layerMetrics() {
	l := r.o.layers
	perLink := func(key string) float64 {
		var v []float64
		for _, in := range r.inputs {
			if len(in.traced) > 0 {
				v = append(v, in.layers[key]/float64(len(in.traced)))
			}
		}
		return mean(v)
	}
	sum := func(key string) float64 {
		t := 0.0
		for _, in := range r.inputs {
			t += in.counts[key]
		}
		return t
	}
	n := float64(len(r.inputs))
	link := perLink("link")
	l["linkage.link_ms"] = link
	for stage, name := range stageMetrics {
		l[name+"_ms"] = perLink("stage." + stage)
	}
	l["linkage.subgraph_match_share"] = ratio(l["linkage.subgraph_match_ms"], link)
	l["linkage.prematch_alloc_mb"] = perLink("alloc.prematch") / 1e6
	l["linkage.subgraph_match_alloc_mb"] = perLink("alloc.subgraph_match") / 1e6
	l["linkage.executor_self_ms"] = perLink("span_self.linkage.link") + perLink("span_self.linkage.iteration")
	peak := 0.0
	for _, in := range r.inputs {
		peak = max(peak, in.layers["peak_heap_inuse"])
	}
	l["linkage.peak_heap_inuse_mb"] = peak / 1e6
	l["linkage.gc_cpu_share"] = ratio(r.gcCPU, r.allCPU)
	for _, d := range deltas {
		l["linkage.iter_ms.d"+d] = perLink("linkage.iter_ms.d" + d)
		l["linkage.prematch_ms.d"+d] = perLink("stage.prematch.d" + d)
		l["linkage.subgraph_match_ms.d"+d] = perLink("stage.subgraph_match.d" + d)
		l["linkage.group_pairs.d"+d] = sum("group_pairs.d"+d) / n
	}
	l["linkage.group_pairs"] = sum("group_pairs") / n
	l["linkage.subgraph_yield"] = ratio(sum("subgraphs"), sum("group_pairs"))
	l["linkage.group_link_yield"] = ratio(sum("group_links"), sum("group_pairs"))
	l["block.blocking_pairs"] = sum("blocked") / n
	l["block.dedup_share"] = ratio(sum("compared"), sum("blocked"))
	l["compare.sim_cache_hit_rate"] = ratio(sum("sim_hits"), sum("sim_hits")+sum("sim_misses"))
	l["compare.pruned_share"] = ratio(sum("pruned"), sum("compared"))

	var traced, untraced float64
	for _, in := range r.inputs {
		if len(in.traced) > 0 && len(in.untraced) > 0 {
			traced += mean(in.traced)
			untraced += mean(in.untraced)
		}
	}
	l["bench.trace_overhead_pct"] = 100 * ratio(traced-untraced, untraced)
}

func abs(x float64) float64 { return max(x, -x) }

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
