# censuslink — temporal group linkage for census data (EDBT 2017 reproduction)

GO ?= go

.PHONY: all build test vet check bench bench-regress store-golden chaos report fuzz fuzz-smoke loc clean

all: build vet test

# Tier-1 gate: everything a change must keep green before merging.
check:
	$(GO) vet ./...
	$(GO) test -race ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# One iteration of every table/figure benchmark plus the micro benchmarks,
# then the link trajectory report and the serving-layer load report
# (the loadgen harness against a precomputed synthetic series).
bench:
	$(GO) test -bench=. -benchmem ./...
	CENSUSLINK_BENCH_JSON=BENCH_prematch.json $(GO) test -run TestBenchTrajectory -v .
	CENSUSLINK_SERVER_BENCH_JSON=$(CURDIR)/BENCH_server.json $(GO) test -count=1 -run TestServerBenchTrajectory -v ./cmd/loadgen

# Performance regression gate: re-measure one full link under the default
# and the LSH blocking schemes and the serving layer, failing when either is
# slower than its committed baseline allows (1.5x per link, 2x for a link's
# compile, prematch and subgraph_match stages, 5x p50 for serving), when a
# link's record or group precision, recall or F-measure drops by more than
# one point, or when the conditional-GET revalidation ratio drops below
# 0.9.
bench-regress:
	CENSUSLINK_BENCH_BASELINE=BENCH_prematch.json $(GO) test -run TestBenchTrajectory -v .
	CENSUSLINK_SERVER_BENCH_BASELINE=$(CURDIR)/BENCH_server.json $(GO) test -count=1 -run TestServerBenchTrajectory -v ./cmd/loadgen

# Snapshot-store golden gate: format round trip, deterministic payloads,
# corruption rejection, and the end-to-end incremental differential (a warm
# re-run performs zero comparisons and returns byte-identical results).
store-golden:
	$(GO) test -count=1 -run 'TestRoundTripGolden|TestDeterministicPayload|TestLoadMissing|TestRejectsUntrustedSnapshots|TestWrongKeyDifferentAddress|TestOverwriteIsAtomicSingleFile' ./internal/store/
	$(GO) test -count=1 -run 'TestLinkSeriesIncremental' ./internal/linkage/

# Crash-safety gate: kill -9 a real linkserver mid-snapshot-write in a
# loop and audit that every surviving file loads deep-equal to a recomputed
# result or is quarantined, then check two replicas converge over the
# shared store with store_degraded 0.
chaos:
	$(GO) build -o bin/linkserver ./cmd/linkserver
	$(GO) build -o bin/storechaos ./cmd/storechaos
	bin/storechaos -linkserver bin/linkserver -cycles 30

# Regenerate the full experiment report at the canonical scale.
report:
	$(GO) run ./cmd/benchall -scale 0.1 -seed 1871 -o experiments_scale010.txt

# Short fuzzing session over the parsing/encoding surfaces, the
# resumable-score kernel, the household graph's edges, the integer blocking
# keys and the subgraph stage's structural filter.
fuzz:
	$(GO) test ./internal/strsim/ -fuzz FuzzEncoders -fuzztime 20s
	$(GO) test ./internal/census/ -fuzz FuzzReadCSV -fuzztime 20s
	$(GO) test ./internal/compare/ -run FuzzResumeAtLeast -fuzz FuzzResumeAtLeast -fuzztime 20s
	$(GO) test ./internal/hgraph/ -run FuzzGraphEdges -fuzz FuzzGraphEdges -fuzztime 20s
	$(GO) test ./internal/linkage/ -run FuzzBlockingKeys -fuzz FuzzBlockingKeys -fuzztime 20s
	$(GO) test ./internal/linkage/ -run FuzzStructuralFilter -fuzz FuzzStructuralFilter -fuzztime 20s

# Seconds-long fuzz pass for CI: enough to exercise the seed corpus plus a
# little mutation without stalling the pipeline.
fuzz-smoke:
	$(GO) test ./internal/strsim/ -run FuzzEncoders -fuzz FuzzEncoders -fuzztime 5s
	$(GO) test ./internal/census/ -run FuzzReadCSV -fuzz FuzzReadCSV -fuzztime 5s
	$(GO) test ./internal/compare/ -run FuzzResumeAtLeast -fuzz FuzzResumeAtLeast -fuzztime 5s
	$(GO) test ./internal/hgraph/ -run FuzzGraphEdges -fuzz FuzzGraphEdges -fuzztime 5s
	$(GO) test ./internal/linkage/ -run FuzzBlockingKeys -fuzz FuzzBlockingKeys -fuzztime 5s
	$(GO) test ./internal/linkage/ -run FuzzStructuralFilter -fuzz FuzzStructuralFilter -fuzztime 5s

# Non-test Go lines outside the benchmark module and its build directory:
# the size figure ROADMAP tracks from round to round.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -exec cat {} + | wc -l

clean:
	$(GO) clean ./...
