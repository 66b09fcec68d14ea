// Command storechaos is the crash-safety harness for the snapshot store.
// Each cycle boots a real linkserver against a shared -store directory,
// asks it for a year pair so a snapshot Save goes in flight — the
// CENSUSLINK_STORE_CHAOS_SLOW environment variable stretches the window
// between the payload write and the rename — and kill -9s the process
// inside that window. After every kill it audits the directory: a snapshot
// file must either load deep-equal to an in-process recomputation of the
// same pair or be quarantined. A half-written file that still parses is
// exactly the failure the store's write protocol exists to prevent, so one
// is a hard harness failure.
//
// Crash litter (orphaned temp files, the dead writer's lock file) is left
// in place between cycles so the next boot has to cope with it: stale-lock
// takeover, temp cleanup and quarantine are exercised by the loop itself,
// not reset around it.
//
// After the kill loop a two-replica convergence check runs: two fresh
// linkservers share the repaired store, only the first is asked to compute,
// and the second must adopt the snapshot through its refresh loop and serve
// the pair without recomputing — with "store":"ok" on /healthz and
// censuslink_store_degraded 0 on both.
//
// Usage:
//
//	storechaos -linkserver bin/linkserver [-cycles 30] [-slow 75ms] \
//	           [-dir workdir] [-seed 1]
//
// Exit status 0 means every cycle audited clean and the replicas converged.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/paperexample"
	"censuslink/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("storechaos: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("storechaos", flag.ContinueOnError)
	linkserver := fs.String("linkserver", "bin/linkserver", "path to the linkserver binary to torture")
	cycles := fs.Int("cycles", 30, "kill -9 cycles to run")
	slow := fs.Duration("slow", 75*time.Millisecond, "chaos stretch of the write window (CENSUSLINK_STORE_CHAOS_SLOW)")
	workDir := fs.String("dir", "", "workspace directory (default: a fresh temp dir, removed on success)")
	seed := fs.Int64("seed", 1, "seed for the kill-delay schedule")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := os.Stat(*linkserver); err != nil {
		return fmt.Errorf("linkserver binary: %w (build it with `go build -o bin/linkserver ./cmd/linkserver`)", err)
	}
	bin, err := filepath.Abs(*linkserver)
	if err != nil {
		return err
	}

	dir := *workDir
	if dir == "" {
		dir, err = os.MkdirTemp("", "storechaos-*")
		if err != nil {
			return err
		}
	}
	seriesDir := filepath.Join(dir, "series")
	storeDir := filepath.Join(dir, "store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return err
	}

	// The workload is the paper's running example; the expected result is
	// recomputed here with the linkserver's default configuration, so the
	// audit can demand byte-level agreement, not just parseability.
	old, new := paperexample.Old(), paperexample.New()
	series := census.NewSeries(old, new)
	if err := census.WriteSeriesDir(seriesDir, series); err != nil {
		return err
	}
	expected, err := linkage.LinkContext(ctx, old, new, linkage.DefaultConfig())
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	var survivors, quarantined, midWrite int
	for cycle := 1; cycle <= *cycles; cycle++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Drop loadable snapshots and old corpses so the server has to
		// recompute and re-save; temp litter and the dead writer's lock
		// stay behind on purpose.
		if err := removeGlob(storeDir, "snap_*.jsonl", "*.corrupt", "*.corrupt.reason"); err != nil {
			return err
		}

		proc, err := startServer(ctx, bin, seriesDir, storeDir, *slow, nil)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		// Fire the computing query and let it hang; the kill will cut it off.
		go func() {
			resp, err := proc.client.Get(proc.base + "/v1/links/1871/1881/records?limit=1")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		// Wait for the in-flight temp file, then kill at a random point
		// across one and a half write windows, so some kills land before
		// the rename and some just after it — both sides of the commit
		// point get audited.
		if waitForGlob(storeDir, ".tmp-snap-*", 5*time.Second) {
			midWrite++
			time.Sleep(time.Duration(rng.Int63n(int64(*slow * 3 / 2))))
		}
		proc.kill()

		s, err := store.Open(storeDir)
		if err != nil {
			return fmt.Errorf("cycle %d: reopen store: %w", cycle, err)
		}
		rep, err := s.Repair()
		if err != nil {
			return fmt.Errorf("cycle %d: repair: %w", cycle, err)
		}
		quarantined += rep.Corrupt
		l, err := s.List()
		if err != nil {
			return fmt.Errorf("cycle %d: list: %w", cycle, err)
		}
		if len(l.Skipped) > 0 {
			return fmt.Errorf("cycle %d: repair left unparsable snapshots behind: %v", cycle, l.Skipped)
		}
		for _, h := range l.Headers {
			got, err := s.Load(store.Key{ConfigHash: h.ConfigHash, OldHash: h.OldHash, NewHash: h.NewHash})
			if err != nil {
				return fmt.Errorf("cycle %d: snapshot passed repair but failed to load: %w", cycle, err)
			}
			if !reflect.DeepEqual(got, expected) {
				return fmt.Errorf("cycle %d: LOADABLE-BUT-WRONG snapshot %d->%d: survived the kill yet differs from the recomputed result", cycle, h.OldYear, h.NewYear)
			}
			survivors++
		}
		fmt.Fprintf(stdout, "cycle %2d/%d: %s\n", cycle, *cycles, rep.Summary())
	}
	fmt.Fprintf(stdout, "%d cycles: %d kills landed mid-write, %d complete snapshots survived, %d quarantined, 0 loadable-but-wrong\n",
		*cycles, midWrite, survivors, quarantined)

	if err := convergenceCheck(ctx, stdout, bin, seriesDir, storeDir); err != nil {
		return err
	}
	if *workDir == "" {
		os.RemoveAll(dir)
	}
	fmt.Fprintln(stdout, "storechaos: PASS")
	return nil
}

// convergenceCheck boots two replicas over the battle-scarred store, has
// only replica A compute the pair, and requires replica B to adopt the
// snapshot through its refresh loop and serve it — both healthy, neither
// degraded.
func convergenceCheck(ctx context.Context, stdout io.Writer, bin, seriesDir, storeDir string) error {
	if err := removeGlob(storeDir, "snap_*.jsonl", "*.corrupt", "*.corrupt.reason"); err != nil {
		return err
	}
	refresh := []string{"-store-refresh", "200ms"}
	a, err := startServer(ctx, bin, seriesDir, storeDir, 0, refresh)
	if err != nil {
		return fmt.Errorf("replica A: %w", err)
	}
	defer a.kill()
	b, err := startServer(ctx, bin, seriesDir, storeDir, 0, refresh)
	if err != nil {
		return fmt.Errorf("replica B: %w", err)
	}
	defer b.kill()

	if err := expectStatus(a, "/v1/links/1871/1881/records?limit=1", http.StatusOK); err != nil {
		return fmt.Errorf("replica A compute: %w", err)
	}
	// B must adopt A's snapshot without computing it: its refresh-load
	// counter has to move, since adoption only fills uncomputed slots.
	adopted := regexp.MustCompile(`censuslink_pipeline_total\{name="store_refresh_loads"\} [1-9]`)
	deadline := time.Now().Add(15 * time.Second)
	for {
		body, err := fetch(b, "/metrics")
		if err == nil && adopted.MatchString(body) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica B never adopted the snapshot via its refresh loop")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := expectStatus(b, "/v1/links/1871/1881/records?limit=1", http.StatusOK); err != nil {
		return fmt.Errorf("replica B serve after adoption: %w", err)
	}
	for name, p := range map[string]*serverProc{"A": a, "B": b} {
		health, err := fetch(p, "/healthz")
		if err != nil {
			return fmt.Errorf("replica %s healthz: %w", name, err)
		}
		if !strings.Contains(health, `"store":"ok"`) {
			return fmt.Errorf("replica %s healthz reports an unhealthy store: %s", name, strings.TrimSpace(health))
		}
		metrics, err := fetch(p, "/metrics")
		if err != nil {
			return fmt.Errorf("replica %s metrics: %w", name, err)
		}
		if !strings.Contains(metrics, "censuslink_store_degraded 0") {
			return fmt.Errorf("replica %s still degraded after the chaos loop", name)
		}
	}
	fmt.Fprintln(stdout, "replicas: B adopted A's snapshot via refresh, both healthy, store_degraded 0 on both")
	return nil
}

// serverProc is one linkserver child process plus the client to reach it.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	once   sync.Once
}

// startServer launches the linkserver binary on an ephemeral port and
// blocks until its listener line confirms the address accepts connections.
func startServer(ctx context.Context, bin, seriesDir, storeDir string, slow time.Duration, extra []string) (*serverProc, error) {
	args := append([]string{
		"-dir", seriesDir, "-addr", "127.0.0.1:0", "-store", storeDir,
	}, extra...)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = os.Environ()
	if slow > 0 {
		cmd.Env = append(cmd.Env, "CENSUSLINK_STORE_CHAOS_SLOW="+slow.String())
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrRE := regexp.MustCompile(`listening on (http://\S+)`)
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := addrRE.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		io.Copy(io.Discard, stdout)
	}()
	p := &serverProc{cmd: cmd, client: &http.Client{Timeout: 30 * time.Second}}
	select {
	case p.base = <-addr:
		return p, nil
	case <-time.After(10 * time.Second):
		p.kill()
		return nil, fmt.Errorf("linkserver never printed its listen address")
	case <-ctx.Done():
		p.kill()
		return nil, ctx.Err()
	}
}

// kill delivers SIGKILL — no drain, no cleanup — and reaps the child.
func (p *serverProc) kill() {
	p.once.Do(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	})
}

// fetch GETs path from the replica and returns the body.
func fetch(p *serverProc, path string) (string, error) {
	resp, err := p.client.Get(p.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// expectStatus GETs path and demands the given status code.
func expectStatus(p *serverProc, path string, want int) error {
	resp, err := p.client.Get(p.base + path)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
	}
	return nil
}

// removeGlob deletes every file in dir matching any of the patterns.
func removeGlob(dir string, patterns ...string) error {
	for _, pat := range patterns {
		matches, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return err
		}
		for _, m := range matches {
			if err := os.Remove(m); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// waitForGlob polls dir until a file matching pattern exists or the
// timeout passes; it reports whether one was seen.
func waitForGlob(dir, pattern string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if m, _ := filepath.Glob(filepath.Join(dir, pattern)); len(m) > 0 {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}
