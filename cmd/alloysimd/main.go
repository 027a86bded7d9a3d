// Command alloysimd serves the experiment runner over HTTP: a
// simulation-as-a-service daemon for the paper's sweeps. Clients POST
// workload × design × predictor × cacheMB grids to /v1/sweep, follow
// per-point progress over SSE, and fetch completed points by content
// address. Identical points from concurrent clients coalesce through the
// runner's singleflight map and memo; a bounded worker pool and queue
// give explicit 429 backpressure instead of unbounded buffering, and the
// PR 2 checkpoint file persists results across restarts.
//
//	alloysimd -addr :8080 -checkpoint sweep.ckpt
//	curl -s localhost:8080/v1/sweep -d '{"workloads":["mcf_r"],"designs":["alloy","none"]}'
//	curl -N localhost:8080/v1/jobs/j-000001/events
//
// SIGTERM/SIGINT drains gracefully: new sweeps are refused with 503
// while in-flight jobs finish (bounded by -drain-timeout), then the
// listener closes. A second signal aborts immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"alloysim/internal/experiments"
	"alloysim/internal/obs"
	"alloysim/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "alloysimd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		checkpoint = flag.String("checkpoint", "", "persist completed points to this file and restore them on start")
		workers    = flag.Int("workers", 0, "concurrent simulations (0 = serve default)")
		queueDepth = flag.Int("queue", 0, "queued-point bound across all jobs (0 = serve default)")
		quota      = flag.Int("tenant-quota", 0, "in-flight job quota per X-Tenant (0 = serve default, negative = unlimited)")
		cacheSize  = flag.Int("result-cache", 0, "content-addressed result LRU entries (0 = serve default)")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on SIGTERM before in-flight jobs are aborted")
		logLevel   = flag.String("log-level", "info", "structured-log threshold: debug, info, warn, error, or off")

		scale  = flag.Uint64("scale", 64, "capacity/footprint scale divisor")
		instr  = flag.Uint64("instr", 1_500_000, "instructions per core")
		warmup = flag.Uint64("warmup", 50_000, "warmup references per core")
		cores  = flag.Int("cores", 8, "number of rate-mode cores")
		cache  = flag.Uint64("cache", 256, "default DRAM cache size in MB (paper scale)")
		gap    = flag.Uint("gapscale", 2, "instruction-gap multiplier")
		seed   = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()

	p := experiments.DefaultParams()
	p.Scale = *scale
	p.InstructionsPerCore = *instr
	p.WarmupRefs = *warmup
	p.Cores = *cores
	p.CacheMB = *cache
	p.GapScale = uint32(*gap)
	p.Seed = *seed
	p.Progress = os.Stderr

	// One slog logger is shared by the daemon and the runner, so a job's
	// admission record and the simulation records it causes interleave in
	// one stream, all carrying the same req_id. The human-oriented
	// progress lines above stay on plain stderr — scripts grep them.
	logger, err := newLogger(*logLevel)
	if err != nil {
		return err
	}
	p.Logger = logger

	r := experiments.NewRunner(p)
	if *checkpoint != "" {
		restored, err := r.EnableCheckpoint(*checkpoint)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Fprintf(os.Stderr, "alloysimd: restored %d point(s) from %s\n", restored, *checkpoint)
	}

	reg := obs.NewRegistry()
	r.RegisterMetrics(reg, "runner")
	s := serve.New(r, serve.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		TenantQuota:  *quota,
		CacheEntries: *cacheSize,
		Logger:       logger,
	}, reg)

	// SIGQUIT is the black-box dump: print the most recent flight
	// recording (last epochs + sampled spans of the newest completed
	// simulation) without stopping the daemon. The same dump is served at
	// /debug/flightrecorder and attached to failure records.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	defer signal.Stop(quitCh)
	//alloyvet:detached signal listener for the process lifetime; exits with the process
	go func() {
		for range quitCh {
			if pt, dump, ok := r.LastFlightDump(); ok {
				fmt.Fprintf(os.Stderr, "alloysimd: flight recording for %s:\n%s\n", pt, dump)
			} else {
				fmt.Fprintln(os.Stderr, "alloysimd: no flight recording yet (no point has run)")
			}
		}
	}()

	// The daemon's snapshot cadence: unlike the single-run CLIs (whose
	// quantum loop publishes between quanta), many simulations run at
	// once here, so a dedicated ticker renders the scrape snapshot.
	snapStop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				reg.PublishSnapshot()
			case <-snapStop:
				return
			}
		}
	}()
	defer func() {
		// Stop-and-join: the ticker goroutine owns snapDone and closes it
		// on exit, so this receive is bounded by one tick at most.
		close(snapStop)
		<-snapDone
	}()
	reg.PublishSnapshot()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := serve.NewHTTPServer(*addr, s.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "alloysimd: listening on %s (workers=%d)\n", ln.Addr(), runnersOrDefault(*workers))

	// First SIGTERM/SIGINT begins the drain; a second one aborts it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // restore default handling: next signal kills the process
	fmt.Fprintf(os.Stderr, "alloysimd: draining (bound %s; signal again to abort)\n", *drainTO)

	dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "alloysimd: %v; aborting in-flight jobs\n", err)
	}
	s.Close()
	reg.PublishSnapshot() // final tallies for any last scrape

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
	}
	fmt.Fprintln(os.Stderr, "alloysimd: drained, bye")
	return nil
}

// runnersOrDefault mirrors serve.Config's default for the startup banner.
func runnersOrDefault(w int) int {
	if w <= 0 {
		return 4
	}
	return w
}

// newLogger builds the daemon's structured logger on stderr, or nil for
// "off" (nil disables slog output throughout serve and the runner).
func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "off":
		return nil, nil
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, error, or off)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}
