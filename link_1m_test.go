// Million-record linkage measurement. It is opt-in via environment
// variables: the run takes about twenty minutes on a few cores.
package censuslink_test

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"censuslink/internal/block"
	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/synth"
)

// districtScoped wraps a blocking strategy so its index and probe keys are
// scoped by the record's synthetic district (the "d<N>_" ID prefix emitted
// by synth.Config.Districts). Multi-district populations have no inter-district
// migration, so scoping blocks by district loses no true matches while
// keeping candidate pairs linear rather than quadratic in the district
// count — the same role enumeration districts play in real census linkage.
// Records without a district prefix (single-district synth, real data) keep
// their unscoped keys. The scope is N+1 in the top 16 bits of Key.Tag,
// which every built-in key leaves zero, so scoped keys of different
// districts never meet each other or an unscoped key. A district number
// that does not fit, or is written with a leading zero (so two prefixes
// would share a number), panics rather than merging districts.
func districtScoped(inner block.Strategy) block.Strategy {
	scoped := func(factory func() block.KeyFunc) func() block.KeyFunc {
		return func() block.KeyFunc {
			keys := factory()
			return func(r *census.Record, year int, dst []block.Key) []block.Key {
				first := len(dst)
				dst = keys(r, year, dst)
				d, _, ok := strings.Cut(r.ID, "_")
				if !ok || len(d) < 2 || d[0] != 'd' || strings.Trim(d[1:], "0123456789") != "" {
					return dst
				}
				n, err := strconv.ParseUint(d[1:], 10, 16)
				if err != nil || n+1 >= 1<<16 || strconv.FormatUint(n, 10) != d[1:] {
					panic("district " + d + " does not fit the key scope")
				}
				for i := first; i < len(dst); i++ {
					dst[i].Tag |= (n + 1) << 48
				}
				return dst
			}
		}
	}
	s := block.Strategy{Name: inner.Name + "-district", Keys: scoped(inner.Keys)}
	if inner.Probe != nil {
		s.Probe = scoped(inner.Probe)
	}
	return s
}

// TestLink1M generates a multi-district pair of roughly a million records
// (CENSUSLINK_BENCH_1M = district count, CENSUSLINK_BENCH_1M_SCALE = the
// per-district synth scale, default 0.1; 270 districts at scale 0.1 give
// ~1.0M records across 1851+1861) and links it with district-scoped
// blocking, recording elapsed time, the per-stage split and peak memory
// gauges. Rows are merged into the JSON report named by
// CENSUSLINK_BENCH_JSON (typically BENCH_prematch.json), which
// TestBenchTrajectory preserves on rewrite.
func TestLink1M(t *testing.T) {
	env := os.Getenv("CENSUSLINK_BENCH_1M")
	if env == "" {
		t.Skip("set CENSUSLINK_BENCH_1M to a district count (e.g. 270) to run the million-record measurement")
	}
	districts, err := strconv.Atoi(env)
	if err != nil || districts < 1 {
		t.Fatalf("CENSUSLINK_BENCH_1M = %q: want a positive district count", env)
	}
	scale := 0.1
	if s := os.Getenv("CENSUSLINK_BENCH_1M_SCALE"); s != "" {
		scale, err = strconv.ParseFloat(s, 64)
		if err != nil || scale <= 0 {
			t.Fatalf("CENSUSLINK_BENCH_1M_SCALE = %q: want a positive float", s)
		}
	}
	gen := synth.DefaultConfig()
	gen.Districts = districts
	gen.Scale = scale
	t0 := time.Now()
	old, new, err := synth.GeneratePair(gen, 1851, 1861)
	if err != nil {
		t.Fatal(err)
	}
	total := old.NumRecords() + new.NumRecords()
	t.Logf("generated %d districts at scale %g in %v: %d + %d = %d records",
		districts, scale, time.Since(t0).Round(time.Second), old.NumRecords(), new.NumRecords(), total)

	runtime.GC()
	st := obs.NewStats(nil)
	cfg := linkage.DefaultConfig()
	cfg.Obs = st
	for i, s := range cfg.Strategies {
		cfg.Strategies[i] = districtScoped(s)
	}
	start := time.Now()
	res, err := linkage.LinkContext(context.Background(), old, new, cfg)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	rep := st.Report()
	t.Logf("%v, %d record links, peak heap in use %d MB, peak RSS %d MB",
		elapsed.Round(time.Second), len(res.RecordLinks),
		rep.Gauges[obs.PeakHeapInuse]>>20, rep.Gauges[obs.PeakRSS]>>20)

	rows := map[string]any{
		"link_1m_records":                         total,
		"link_1m_districts":                       districts,
		"link_1m_scale":                           scale,
		"link_1m_district_blocking":               true,
		"link_1m_record_links":                    len(res.RecordLinks),
		"link_1m_unsharded_ns":                    elapsed.Nanoseconds(),
		"link_1m_unsharded_peak_heap_inuse_bytes": rep.Gauges[obs.PeakHeapInuse],
		"link_1m_peak_rss_bytes":                  rep.Gauges[obs.PeakRSS],
	}
	for name, stage := range rep.Stages {
		rows["link_1m_"+name+"_ns"] = stage.TotalNS.Nanoseconds()
	}

	path := os.Getenv("CENSUSLINK_BENCH_JSON")
	if path == "" {
		t.Logf("rows (set CENSUSLINK_BENCH_JSON to persist): %v", rows)
		return
	}
	report := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for k, v := range rows {
		report[k] = v
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
