// Command mpgraph-serve is the long-running prefetch inference daemon
// (DESIGN.md §12): it trains one workload's phase-specific MPGraph models
// (the whole suite with -checkpoint-dir, or loads it with -resume), then
// serves per-session prefetch predictions over HTTP/JSONL.
//
// Usage:
//
//	mpgraph-serve -addr :8080 -workload gpop/pr/rmat -checkpoint-dir ckpt -resume
//	mpgraph-serve -replay trace.jsonl -out predictions.jsonl -batch 8 -workers 4
//
// Serving endpoints (see internal/serve):
//
//	POST   /v1/sessions/{id}/events   stream events in, predictions out
//	DELETE /v1/sessions/{id}          close a session
//	GET    /v1/stats                  server counters
//	GET    /healthz                   liveness probe
//
// SIGINT/SIGTERM triggers a graceful drain: in-flight feeds complete,
// sessions close, and (with -leak-check) the process verifies no serving
// goroutines survived before exiting 0.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/experiments"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/resilience"
	"mpgraph/internal/serve"
	"mpgraph/internal/sim"
)

func main() {
	options := experiments.WorkloadFlags(flag.CommandLine, true)
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		workers  = flag.Int("workers", 0, "replay parallelism (0 = GOMAXPROCS); suite training follows GOMAXPROCS, not this")
		f32Infer = flag.Bool("f32", false, "serve inference on the single-precision (f32) compute tier")
		batch    = flag.Int("batch", 0, "fuse up to N concurrent sessions' model calls per batched GEMM round (0 = off)")
		ckptDir  = flag.String("checkpoint-dir", "", "directory for atomic checksummed suite checkpoints")
		resume   = flag.Bool("resume", false, "load matching checkpoints from -checkpoint-dir before training")

		maxSessions = flag.Int("max-sessions", 256, "session-table bound (admission control)")
		flushEvery  = flag.Int("flush-every", 64, "events per streamed prediction chunk")
		retryAfter  = flag.Int("retry-after", 1, "Retry-After hint (seconds) on 429/503 rejections")
		reqTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-feed deadline, checked between -flush-every chunks (and inside model calls with -batch > 0)")
		maxFeed     = flag.Int("max-feed-events", 1<<16, "per-feed (and per-replay-session) event bound")

		inject     = flag.String("inject", "", "fault-injection spec, e.g. 'serve-session:panic~0.05' (see resilience.ParseInjector)")
		degradeLog = flag.String("degrade-log", "", "write the degradation-event log to this file on exit")
		replayPath = flag.String("replay", "", "replay a JSONL trace deterministically instead of serving HTTP")
		out        = flag.String("out", "", "replay prediction-log output (default stdout)")
		leakCheck  = flag.Bool("leak-check", false, "after drain, fail if serving goroutines leaked (stack-dump check)")
	)
	flag.Parse()

	w, opt, err := options()
	if err != nil {
		fatalf("%v", err)
	}
	opt.Workers, opt.F32, opt.Batch = *workers, *f32Infer, *batch
	opt.CheckpointDir, opt.Resume = *ckptDir, *resume
	inj, err := resilience.ParseInjector(*inject, opt.Seed)
	if err != nil {
		fatalf("-inject: %v", err)
	}
	opt.Injector = inj

	r := experiments.NewRunner(opt)
	fmt.Fprintf(os.Stderr, "[mpgraph-serve] preparing suite for %s (scale=%s f32=%v batch=%d)...\n",
		w, opt.Scale, opt.F32, opt.Batch)
	start := time.Now()
	if _, err := r.Suite(w); err != nil {
		fatalf("suite: %v", err)
	}
	trained := "none (restored from -checkpoint-dir)"
	if jobs := r.TrainJobs(w); len(jobs) > 0 {
		longest := slices.MaxFunc(jobs, func(a, b experiments.TrainJob) int { return cmp.Compare(a.Seconds, b.Seconds) })
		trained = fmt.Sprintf("%v in %d jobs, longest %s %.2fs", r.Trained(w), len(jobs), longest.Name, longest.Seconds)
	}
	fmt.Fprintf(os.Stderr, "[mpgraph-serve] suite ready in %.2fs: trained %s\n", time.Since(start).Seconds(), trained)

	srv, err := serve.New(serve.Config{
		MaxSessions:      *maxSessions,
		FlushEvery:       *flushEvery,
		RetryAfter:       *retryAfter,
		RequestTimeout:   *reqTimeout,
		MaxEventsPerFeed: *maxFeed,
		NewPrimary: func(sched core.ModelScheduler) (sim.Prefetcher, error) {
			copt := core.DefaultOptions()
			copt.Scheduler = sched
			return r.MPGraph(w, copt)
		},
		NewModelSession: r.NewModelSession,
		NewFallback:     func() sim.Prefetcher { return prefetch.NewBO(prefetch.DefaultBOConfig()) },
		Injector:        inj,
		Events:          r.Events,
	})
	if err != nil {
		fatalf("%v", err)
	}

	var runErr error
	if *replayPath != "" {
		runErr = runReplay(srv, *replayPath, *out, opt.Workers)
	} else {
		runErr = runDaemon(srv, *addr)
	}
	if *degradeLog != "" {
		if err := writeDegradeLog(*degradeLog, r.Events); err != nil {
			fatalf("-degrade-log: %v", err)
		}
	}
	if runErr != nil {
		fatalf("%v", runErr)
	}
	if *leakCheck {
		if err := checkLeaks(); err != nil {
			fatalf("leak-check: %v", err)
		}
		fmt.Fprintln(os.Stderr, "[mpgraph-serve] leak-check: ok")
	}
}

// runDaemon serves HTTP until SIGINT/SIGTERM, then drains gracefully.
func runDaemon(srv *serve.Server, addr string) error {
	httpSrv := &http.Server{Addr: addr, Handler: serve.NewHandler(srv)}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "[mpgraph-serve] listening on %s\n", addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return fmt.Errorf("http: %w", err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "[mpgraph-serve] draining...")

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	stats := srv.Stats()
	fmt.Fprintf(os.Stderr, "[mpgraph-serve] drained: %d feeds, %d events, %d predictions, %d admitted, %d rejected, %d evicted, %d degraded\n",
		stats.Feeds, stats.Events, stats.Predictions, stats.Admitted, stats.Rejected, stats.Evicted, stats.Degraded)
	return nil
}

// runReplay runs the deterministic replay mode: trace in, prediction log out.
func runReplay(srv *serve.Server, tracePath, outPath string, parallel int) error {
	in, err := os.Open(tracePath)
	if err != nil {
		return fmt.Errorf("-replay: %w", err)
	}
	defer in.Close()
	w := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return fmt.Errorf("-out: %w", err)
		}
		defer f.Close()
		w = f
	}
	if err := serve.Replay(context.Background(), srv, in, w, parallel); err != nil {
		return err
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(shutCtx)
}

// checkLeaks verifies no serving goroutines survived the drain, retrying
// briefly to let exiting goroutines clear the scheduler before dumping the
// offending stacks.
func checkLeaks() error {
	var dump string
	for attempt := 0; attempt < 40; attempt++ {
		dump = goroutineDump()
		if !strings.Contains(dump, "mpgraph/internal/serve") && !strings.Contains(dump, "mpgraph/internal/prefetch") {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Fprintln(os.Stderr, dump)
	return fmt.Errorf("serving goroutines still alive after drain (stacks above)")
}

// goroutineDump returns the full goroutine stack dump.
func goroutineDump() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, len(buf)*2)
	}
}

// writeDegradeLog dumps the degradation-event log to path.
func writeDegradeLog(path string, events *resilience.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := events.WriteTo(f); err != nil {
		f.Close() // the write error already reports the failure
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpgraph-serve: "+format+"\n", args...)
	os.Exit(1)
}
