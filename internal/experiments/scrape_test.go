package experiments

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"alloysim/internal/core"
	"alloysim/internal/obs"
)

// TestMetricsScrapeDuringSimulations runs real simulations through the
// runner while HTTP clients hammer /metrics, as `paperfigs -debug-addr`
// serves it during a sweep.
// Under -race this proves the full scrape path is race-free: the runner's
// Func metrics snapshot under its mutex, obs counters are atomic, and the
// debug server's lifecycle cleans up after itself.
func TestMetricsScrapeDuringSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations in -short mode")
	}
	reg := obs.NewRegistry()
	p := microParams()
	p.Parallelism = 4
	r := NewRunner(p)
	r.RegisterMetrics(reg, "runner")

	ds, err := obs.StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ds.Close(ctx); err != nil {
			t.Errorf("debug server close: %v", err)
		}
	}()
	base := "http://" + ds.Addr().String()

	done := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(base + "/metrics")
			if err != nil {
				scraped <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				scraped <- err
				return
			}
			if !strings.Contains(string(body), "runner_points_run_total") {
				scraped <- err
				return
			}
		}
	}()

	pts := []Point{
		{Workload: "mcf_r", Design: core.DesignNone},
		{Workload: "mcf_r", Design: core.DesignAlloy},
		{Workload: "mcf_r", Design: core.DesignLH},
		{Workload: "mcf_r", Design: core.DesignSRAMTag32},
	}
	if err := r.Prefetch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	close(done)
	if err := <-scraped; err != nil {
		t.Fatalf("scrape failed during simulations: %v", err)
	}
}
