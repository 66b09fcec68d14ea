package obs

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// Gauge names reported by SampleMem. Gauges are max-tracked: every sample
// keeps the high-water value, so a run report documents peak memory rather
// than whatever the final GC cycle left behind.
const (
	// PeakHeapInuse is the high-water runtime.MemStats.HeapInuse observed
	// at stage boundaries: bytes in in-use heap spans.
	PeakHeapInuse = "peak_heap_inuse_bytes"
	// PeakHeapAlloc is the high-water HeapAlloc: bytes of live (reachable
	// plus not-yet-swept) heap objects.
	PeakHeapAlloc = "peak_heap_alloc_bytes"
	// PeakSys is the high-water MemStats.Sys: total bytes obtained from the
	// OS by the Go runtime.
	PeakSys = "peak_sys_bytes"
	// PeakRSS is the process's high-water resident set size (VmHWM from
	// /proc/self/status). Unlike the heap gauges it is monotone over the
	// whole process lifetime, so on a process that ran several pipelines it
	// reflects the largest of them.
	PeakRSS = "peak_rss_bytes"
)

// SampleMem records the current memory gauges (max-tracked) on the
// collector: heap-in-use, live heap, runtime sys and — where the platform
// exposes it — the process peak RSS. The Stage stop function calls it
// automatically, so every observed run documents its peak memory; callers
// may also sample at points of interest. Safe on a nil receiver.
func (s *Stats) SampleMem() {
	if s == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.SetMax(PeakHeapInuse, int64(ms.HeapInuse))
	s.SetMax(PeakHeapAlloc, int64(ms.HeapAlloc))
	s.SetMax(PeakSys, int64(ms.Sys))
	if rss := ReadPeakRSS(); rss > 0 {
		s.SetMax(PeakRSS, rss)
	}
}

// heapAllocs returns the cumulative heap bytes the process has allocated
// (runtime/metrics /gc/heap/allocs:bytes).
func heapAllocs() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// ReadPeakRSS returns the process high-water resident set size in bytes
// (Linux: VmHWM of /proc/self/status), or 0 when the platform does not
// expose it.
func ReadPeakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}
