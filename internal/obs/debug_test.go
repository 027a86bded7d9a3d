package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDebugServerScrapeDuringWrites hammers /metrics and /metrics.json
// from many clients while the metrics-owning goroutine keeps
// incrementing counters, moving gauges, and publishing snapshots, and a
// late registration lands mid-scrape. Run under -race this is the proof
// obligation for the scrape contract: scrapes serve published snapshots
// and the registry index is locked, so concurrent clients are race-free
// against a live writer (the old "torn reads are harmless" escape hatch
// is gone).
func TestDebugServerScrapeDuringWrites(t *testing.T) {
	reg := NewRegistry()
	var c uint64
	var g float64
	reg.Counter("scrape_test_events_total", "events", func() uint64 { return c })
	reg.Gauge("scrape_test_level", "level", func() float64 { return g })
	reg.PublishSnapshot()

	ds, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	// The scrapers get their own Transport, and it drops its idle
	// connections before the server shuts down: Shutdown counts a
	// connection still in StateNew as active for 5 s, as long as the
	// deadline below, and a shared pool can leave one dialled but unused.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	defer func() {
		tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ds.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	base := "http://" + ds.Addr().String()

	// One writer owns the metrics: it increments, registers new series,
	// and publishes — exactly the simulation loop's quantum cadence.
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c++
			g++
			if i < 20 {
				reg.Counter(fmt.Sprintf("scrape_test_late_%d_total", i), "late registration", func() uint64 { return 0 })
			}
			reg.PublishSnapshot()
		}
	}()

	var scrapers sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			path := "/metrics"
			if i%2 == 1 {
				path = "/metrics.json"
			}
			for j := 0; j < 25; j++ {
				resp, err := client.Get(base + path)
				if err != nil {
					t.Errorf("scrape %d: %v", i, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("scrape %d: read: %v", i, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape %d: status %d", i, resp.StatusCode)
					return
				}
				if !strings.Contains(string(body), "scrape_test_events_total") {
					t.Errorf("scrape %d: counter missing from dump", i)
					return
				}
			}
		}()
	}

	scrapers.Wait()
	close(stop)
	writer.Wait()

	if c == 0 {
		t.Fatal("counter never advanced")
	}
}

// TestSnapshotServesPublishedValues: the debug endpoints serve the last
// *published* rendering, not live fields — updates become visible only
// after the next PublishSnapshot.
func TestSnapshotServesPublishedValues(t *testing.T) {
	reg := NewRegistry()
	var c uint64 = 7
	reg.Counter("snap_events_total", "events", func() uint64 { return c })
	reg.PublishSnapshot()
	c += 100 // not yet published

	mux := debugMux(reg)
	get := func(path string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Body.String()
	}
	if body := get("/metrics"); !strings.Contains(body, "snap_events_total 7") {
		t.Fatalf("scrape shows unpublished value:\n%s", body)
	}
	reg.PublishSnapshot()
	if body := get("/metrics"); !strings.Contains(body, "snap_events_total 107") {
		t.Fatalf("scrape missed published value:\n%s", body)
	}
	if body := get("/metrics.json"); !strings.Contains(body, `"snap_events_total":107`) {
		t.Fatalf("JSON scrape missed published value:\n%s", body)
	}
}

// TestDebugMuxHealthAndBuildInfo: the debug server answers the liveness
// probe and reports build provenance as JSON.
func TestDebugMuxHealthAndBuildInfo(t *testing.T) {
	mux := debugMux(NewRegistry())
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("/healthz: status %d, body %q", rec.Code, rec.Body.String())
	}
	rec := get("/buildinfo")
	var bi struct {
		GoVersion  string `json:"go_version"`
		Invariants *bool  `json:"invariants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &bi); err != nil {
		t.Fatalf("/buildinfo is not JSON: %v\n%s", err, rec.Body.String())
	}
	if rec.Code != http.StatusOK || bi.GoVersion == "" || bi.Invariants == nil {
		t.Fatalf("/buildinfo: status %d, %s", rec.Code, rec.Body.String())
	}
}

// TestDebugServerCloseStopsServing: after Close the listener is released
// and requests fail; Close is idempotent.
func TestDebugServerCloseStopsServing(t *testing.T) {
	reg := NewRegistry()
	ds, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := ds.Addr().String()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ds.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ds.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	client := &http.Client{Timeout: time.Second}
	if resp, err := client.Get("http://" + addr + "/metrics"); err == nil {
		resp.Body.Close()
		t.Fatal("server still answering after Close")
	}
}

// TestDebugServerConcurrentCloseAndScrape races several Close calls
// against in-flight scrapes and live snapshot publishes. Under -race this
// pins down the Close/serveErr handoff — the idempotent early-return path
// joins the serve goroutine and reads its error under the lock — and
// proves every Close observer gets the same verdict.
func TestDebugServerConcurrentCloseAndScrape(t *testing.T) {
	reg := NewRegistry()
	var c uint64
	reg.Counter("close_race_events_total", "events", func() uint64 { return c })
	reg.PublishSnapshot()

	ds, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ds.Addr().String()

	var wg sync.WaitGroup
	// One writer owns the counter (exported fields are single-writer by
	// contract) and keeps publishing snapshots throughout the shutdown.
	writerStop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for {
			select {
			case <-writerStop:
				return
			default:
			}
			c++
			reg.PublishSnapshot()
		}
	}()
	// Scrapers read until the listener drops; request errors are expected
	// once a Close wins the race — racy memory is what -race is here for.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: time.Second}
			for j := 0; j < 20; j++ {
				resp, err := client.Get(base + "/metrics")
				if err != nil {
					return // listener gone: a Close won the race
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}()
	}
	// Closers: all must return, and all with the same (nil) verdict.
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			errs[i] = ds.Close(ctx)
		}()
	}
	wg.Wait()
	// The writer published concurrently with the whole shutdown; stop it
	// only after every Close has returned.
	close(writerStop)
	writer.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("Close %d: %v", i, err)
		}
	}
}
