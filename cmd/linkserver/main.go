// Command linkserver serves a census series as a long-lived linkage query
// service. It loads every census_<year>.csv from -dir, links successive
// year pairs at most once each — lazily on first demand or eagerly with
// -eager — and answers JSON queries for record links (with provenance),
// group links, evolution patterns, household timelines and per-record
// lifecycles. New census years arrive as events: POST /v1/census links the
// new pair incrementally and GET /v1/evolution/watch streams the resulting
// lifecycle transitions (SSE with a long-poll fallback). Pipeline counters
// and stage timings are exported on /metrics in Prometheus text format;
// /healthz, /v1/openapi.json and /debug/pprof are also served.
//
// Usage:
//
//	linkserver -dir data/series [-addr :8199] [-eager] [-config cfg.json] \
//	           [-compute-timeout 5m] [-max-concurrent 2] \
//	           [-max-inflight 256] [-rate-limit 50 -rate-burst 32] \
//	           [-read-header-timeout 5s] [-read-timeout 60s] \
//	           [-write-timeout 2m] [-idle-timeout 2m] \
//	           [-stats report.json] [-lenient] [-max-bad-rows 100] \
//	           [-store snapdir -store-refresh 2s -store-retry 3] \
//	           [-max-ingest-bytes 67108864] [-watch-buffer 1024] \
//	           [-watch-heartbeat 15s]
//
// With -store, N linkservers may share one snapshot directory: each writes
// the pairs it computes and adopts (every -store-refresh) those its
// replicas wrote. A store that stops answering flips the server into
// degraded mode — queries keep being served from cache and pipeline, the
// censuslink_store_degraded gauge reads 1 and /healthz carries
// "store":"degraded" — and recovery is automatic once the directory works
// again.
//
// SIGINT/SIGTERM drains in-flight requests, cancels any running
// computations and, with -stats, flushes the final pipeline report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/server"
	"censuslink/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("linkserver: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run is the whole server lifecycle: flag parsing, series loading, serving,
// graceful drain when ctx is cancelled. Split from main so tests can drive
// it with their own context and capture stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("linkserver", flag.ContinueOnError)
	dir := fs.String("dir", "", "directory of census_<year>.csv files (required)")
	addr := fs.String("addr", "localhost:8199", "HTTP listen address")
	eager := fs.Bool("eager", false, "compute all year pairs and the evolution graph at startup")
	blockingFlag := fs.String("blocking", "", "blocking scheme: "+strings.Join(linkage.BlockingNames(), ", ")+" (empty = the config's choice)")
	configPath := fs.String("config", "", "load the linkage configuration from this JSON file")
	computeTimeout := fs.Duration("compute-timeout", 0, "cap one year-pair computation (0 = no cap)")
	maxConcurrent := fs.Int("max-concurrent", 2, "year-pair computations allowed to run at once")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "drop a connection whose request header has not arrived in time")
	readTimeout := fs.Duration("read-timeout", 60*time.Second, "cap reading one full request (0 = no cap)")
	writeTimeout := fs.Duration("write-timeout", 2*time.Minute, "cap writing one full response (0 = no cap)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "close keep-alive connections idle this long")
	maxInFlight := fs.Int("max-inflight", 256, "API requests served at once before shedding with 503 (0 = no cap)")
	rateLimit := fs.Float64("rate-limit", 0, "per-client sustained requests/second before 429 (0 = no limit)")
	rateBurst := fs.Int("rate-burst", 32, "per-client token-bucket burst capacity for -rate-limit")
	statsOut := fs.String("stats", "", "write the final pipeline JSON report to this file on shutdown")
	storeDir := fs.String("store", "", "warm-start the pair cache from snapshots in this directory and write computed pairs back")
	storeRefresh := fs.Duration("store-refresh", 2*time.Second, "with -store: adopt snapshots other replicas write, every this often (0 = no refresh loop)")
	storeRetry := fs.Int("store-retry", 0, "with -store: attempts per snapshot I/O operation on transient errors (0 = default)")
	lenient := fs.Bool("lenient", false, "skip bad input rows instead of aborting")
	maxBadRows := fs.Int("max-bad-rows", 0, "with -lenient: give up once more than this many rows are skipped (0 = no cap)")
	maxIngestBytes := fs.Int64("max-ingest-bytes", 0, "cap one POST /v1/census CSV upload (0 = the server default, 64 MiB)")
	watchBuffer := fs.Int("watch-buffer", 0, "events the /v1/evolution/watch feed retains for Last-Event-ID resume (0 = the server default, 1024)")
	watchHeartbeat := fs.Duration("watch-heartbeat", 0, "SSE keep-alive comment interval for /v1/evolution/watch (0 = the server default, 15s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		fs.Usage()
		return fmt.Errorf("-dir is required")
	}

	cfg := linkage.DefaultConfig()
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		spec, err := linkage.ReadConfigSpec(f)
		f.Close()
		if err != nil {
			return err
		}
		if cfg, err = spec.Build(); err != nil {
			return err
		}
	}
	// A JSON config may carry its own blocking choice; an explicit -blocking
	// flag wins over it.
	if *blockingFlag != "" {
		strategies, err := linkage.ParseBlocking(*blockingFlag)
		if err != nil {
			return err
		}
		cfg.Strategies = strategies
	}

	series, reports, err := census.ReadSeriesDirOptions(*dir,
		census.LoadOptions{Strict: !*lenient, MaxBadRows: *maxBadRows})
	if err != nil {
		return err
	}
	for _, rep := range reports {
		if rep != nil && !rep.Clean() {
			fmt.Fprintf(os.Stderr, "census %d:\n%s", rep.Year, rep.Summary())
		}
	}
	fmt.Fprintf(stdout, "loaded series %v (%d records)\n", series.Years(), totalRecords(series))

	stats := obs.NewStats(nil)
	srvCfg := server.Config{
		Series:         series,
		Linkage:        cfg,
		MaxConcurrent:  *maxConcurrent,
		ComputeTimeout: *computeTimeout,
		Stats:          stats,
		MaxInFlight:    *maxInFlight,
		RateLimit:      *rateLimit,
		RateBurst:      *rateBurst,
		MaxIngestBytes: *maxIngestBytes,
		WatchBuffer:    *watchBuffer,
		WatchHeartbeat: *watchHeartbeat,
	}
	if *storeDir != "" {
		snaps, err := store.OpenOptions(*storeDir, store.Options{Retry: store.RetryPolicy{Attempts: *storeRetry}})
		if err != nil {
			return err
		}
		srvCfg.Store = snaps
		srvCfg.StoreRefresh = *storeRefresh
	}
	srv, err := server.New(srvCfg)
	if err != nil {
		return err
	}
	if *storeDir != "" {
		fmt.Fprintf(stdout, "store %s: %d of %d pairs warm\n",
			*storeDir, int(stats.Total(obs.StoreHits)), len(series.Pairs()))
	}
	if *eager {
		fmt.Fprintf(stdout, "precomputing %d year pairs...\n", len(series.Pairs()))
		if err := srv.Precompute(ctx); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "precompute done")
	}

	// Listen explicitly before serving, so "listening on" is only printed
	// once the address really accepts connections (tests rely on this).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Every timeout set: a listener with none lets one stalled client hold
	// a connection (and its goroutine) forever — classic slowloris. The
	// write timeout also bounds streamed list responses, so it defaults
	// well above the compute timeout a cold pair may need.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Abort()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight requests up to
	// -drain-timeout, then cancel any still-running computations and flush
	// the pipeline report.
	fmt.Fprintln(stdout, "shutting down: draining requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(drainCtx)
	srv.Abort()
	<-serveErr // always http.ErrServerClosed after Shutdown
	if *statsOut != "" {
		f, err := os.Create(*statsOut)
		if err != nil {
			return err
		}
		if err := obs.WriteReport(f, srv.Stats().Done()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *statsOut)
	}
	fmt.Fprintln(stdout, "shutdown complete")
	return shutdownErr
}

func totalRecords(s *census.Series) int {
	n := 0
	for _, d := range s.Datasets {
		n += d.NumRecords()
	}
	return n
}
