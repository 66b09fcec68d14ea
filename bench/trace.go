package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one link call or one
// HTTP request share a trace ID; Parent is the ID of the enclosing span
// (0 for a root).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Trace  int                `json:"trace"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_ms"` // since the run's epoch
	End    float64            `json:"end_ms"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	SelfMS float64            `json:"self_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextID int
	traces int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), nextID: 1} }

func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Millisecond)
}

// newTrace returns a fresh trace ID.
func (t *tracer) newTrace() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// add assigns IDs to one trace's spans, rewriting their local Parent
// indices (1-based positions in the slice) to the assigned IDs.
func (t *tracer) add(spans []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.nextID - 1
	for i := range spans {
		spans[i].ID = base + i + 1
		if spans[i].Parent != 0 {
			spans[i].Parent += base
		}
	}
	t.nextID += len(spans)
	t.spans = append(t.spans, spans...)
}

// write saves the spans and the run's metrics as one JSON document; a
// metric that is not a finite number is left out.
func (t *tracer) write(path, workload string, seed int64, metrics map[string]float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(metrics, k)
		}
	}
	b, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Metrics  map[string]float64 `json:"metrics"`
		Spans    []span             `json:"spans"`
	}{workload, seed, metrics, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// computeSelf sets every span's SelfMS: its duration minus the part of its
// interval that its children cover (children clipped to the parent, and
// overlapping children counted once). Parent holds 1-based positions.
func computeSelf(spans []span) {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		p := &spans[i]
		iv := children[i+1]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curS, curE := 0.0, 0.0, 0.0
		open := false
		for _, c := range iv {
			s, e := max(c[0], p.Start), min(c[1], p.End)
			if e <= s {
				continue
			}
			if open && s <= curE {
				curE = max(curE, e)
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = s, e, true
		}
		if open {
			covered += curE - curS
		}
		p.SelfMS = p.dur() - covered
	}
}

// linkSpans turns one traced link call into a span tree: the link as root,
// each δ iteration under it, and each stage under the iteration whose
// interval contains it (or under the root for the stages outside the δ
// loop). Stage ends are the times the pipeline reported them, so a stage
// span is [report time - duration, report time].
func linkSpans(t *tracer, trace int, start, end time.Time, events []stageEvent) []span {
	spans := []span{{Trace: trace, Name: "linkage.link", Start: t.ms(start), End: t.ms(end)}}
	for _, ev := range events {
		if ev.name != "iteration" {
			continue
		}
		spans = append(spans, span{Trace: trace, Parent: 1, Name: "linkage.iteration",
			Start: t.ms(ev.end.Add(-ev.dur)), End: t.ms(ev.end),
			Attrs: map[string]float64{"delta": ev.delta, "group_pairs": float64(ev.groupPairs)}})
	}
	iterations := len(spans)
	for _, ev := range events {
		if ev.name == "iteration" {
			continue
		}
		s := span{Trace: trace, Parent: 1, Name: ev.name,
			Start: t.ms(ev.end.Add(-ev.dur)), End: t.ms(ev.end),
			Attrs: map[string]float64{"alloc_bytes": float64(ev.alloc)}}
		mid := (s.Start + s.End) / 2
		for i := 1; i < iterations; i++ {
			if spans[i].Start <= mid && mid <= spans[i].End {
				s.Parent = i + 1
				s.Attrs["delta"] = spans[i].Attrs["delta"]
			}
		}
		spans = append(spans, s)
	}
	computeSelf(spans)
	return spans
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// heapAllocBytes is the cumulative count of bytes the process allocated.
func heapAllocBytes() uint64 { return readRuntime()[0].Value.Uint64() }

// cpuSeconds returns the Go runtime's estimate of GC and total CPU time.
func cpuSeconds() (gc, total float64) {
	s := readRuntime()
	return s[1].Value.Float64(), s[2].Value.Float64()
}

// peakRSSMB reads a process's high-water resident set size (VmHWM) in MB;
// pid "self" is this process.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// processCPU returns a process's user+system CPU time from /proc/<pid>/stat,
// assuming the kernel's USER_HZ of 100 ticks per second.
func processCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}
