package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alloysim/internal/core"
	"alloysim/internal/experiments"
)

// fakeBackend is a Backend with controllable latency and call tallies —
// the serve package's equivalent of the runner's simulate hook. It memoizes
// and coalesces nothing itself, so every backend call the daemon makes is
// visible; gate, when non-nil, holds calls until released (for queue-full
// and drain tests).
type fakeBackend struct {
	gate  chan struct{} // nil ⇒ run immediately; else wait for a token
	delay time.Duration

	mu    sync.Mutex
	calls map[string]int
	total atomic.Int64
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{calls: make(map[string]int)}
}

func (f *fakeBackend) Run(ctx context.Context, w string, d core.Design, pk core.PredictorKind, mb uint64) (core.Result, error) {
	pt := f.Normalize(experiments.Point{Workload: w, Design: d, Predictor: pk, CacheMB: mb})
	f.mu.Lock()
	f.calls[pt.String()]++
	f.mu.Unlock()
	f.total.Add(1)
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
	if strings.HasPrefix(w, "bad") {
		return core.Result{}, fmt.Errorf("unknown workload %q", w)
	}
	return core.Result{Workload: w, Design: d, ExecCycles: float64(1000 + mb), Instructions: uint64(len(w))}, nil
}

func (f *fakeBackend) Normalize(pt experiments.Point) experiments.Point {
	if pt.CacheMB == 0 {
		pt.CacheMB = 256
	}
	if pt.Design == core.DesignNone {
		pt.CacheMB = 0
	}
	return pt
}

func (f *fakeBackend) Params() experiments.Params {
	return experiments.Params{CacheMB: 256}
}

func (f *fakeBackend) Metrics() experiments.Metrics { return experiments.Metrics{} }

func (f *fakeBackend) callsFor(pt experiments.Point) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[f.Normalize(pt).String()]
}

func postSweep(t *testing.T, ts *httptest.Server, tenant string, body string) (*http.Response, sweepResponse) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sr sweepResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decode sweep response: %v", err)
		}
	}
	resp.Body.Close()
	return resp, sr
}

// readSSE consumes the job's event stream until the done event, returning
// the events in arrival order.
func readSSE(t *testing.T, ts *httptest.Server, id string, lastEventID string) []Event {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		evs = append(evs, ev)
		if ev.Type == "done" {
			return evs
		}
	}
	t.Fatalf("stream ended before done event (got %d events): %v", len(evs), sc.Err())
	return nil
}

func TestSweepLifecycle(t *testing.T) {
	fb := newFakeBackend()
	s := New(fb, Config{Workers: 2, QueueDepth: 16}, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, sr := postSweep(t, ts, "", `{"workloads":["mcf_r","lbm_r"],"designs":["alloy"],"cache_mb":[256]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	if sr.Points != 2 {
		t.Fatalf("expanded to %d points, want 2", sr.Points)
	}

	evs := readSSE(t, ts, sr.ID, "")
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 2 points + done: %+v", len(evs), evs)
	}
	// Seq is strictly increasing from 0 and the terminal event carries
	// the tallies.
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	last := evs[len(evs)-1]
	if last.Type != "done" || last.Completed != 2 || last.Failed != 0 {
		t.Fatalf("bad done event: %+v", last)
	}
	for _, ev := range evs[:2] {
		if ev.Type != "point" || ev.Result == nil || ev.Key == "" {
			t.Fatalf("bad point event: %+v", ev)
		}
	}

	// Status reflects completion.
	st, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	var js jobStatus
	json.NewDecoder(st.Body).Decode(&js) //nolint:errcheck
	st.Body.Close()
	if js.State != "done" || js.Completed != 2 {
		t.Fatalf("status: %+v", js)
	}

	// Each point's result is fetchable by its content address and matches
	// the streamed result exactly.
	for _, ev := range evs[:2] {
		rr, err := ts.Client().Get(ts.URL + "/v1/results/" + ev.Key)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Key    string            `json:"key"`
			Point  experiments.Point `json:"point"`
			Result core.Result       `json:"result"`
		}
		json.NewDecoder(rr.Body).Decode(&got) //nolint:errcheck
		rr.Body.Close()
		if rr.StatusCode != http.StatusOK || got.Result != *ev.Result {
			t.Fatalf("result fetch mismatch for %s: status %d, %+v vs %+v", ev.Key, rr.StatusCode, got.Result, *ev.Result)
		}
	}

	// Unknown key 404s.
	rr, _ := ts.Client().Get(ts.URL + "/v1/results/deadbeef")
	io.Copy(io.Discard, rr.Body) //nolint:errcheck
	rr.Body.Close()
	if rr.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus key status %d", rr.StatusCode)
	}
}

// TestQueueFull429: a grid that does not fit in free queue space bounces
// whole with 429 + Retry-After, and admission recovers once the backlog
// drains.
func TestQueueFull429(t *testing.T) {
	fb := newFakeBackend()
	fb.gate = make(chan struct{})
	s := New(fb, Config{Workers: 1, QueueDepth: 4, MaxPointsPerSweep: 64}, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill the queue: 4 points admitted; worker parks on the gate holding
	// one, leaving 3 queued.
	resp, first := postSweep(t, ts, "", `{"workloads":["a","b","c","d"],"designs":["alloy"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fill status %d", resp.StatusCode)
	}
	// Wait until the worker has picked up a task, freeing exactly one slot.
	deadline := time.Now().Add(5 * time.Second)
	for fb.total.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Two more points do not fit (3 queued + 2 > 4).
	resp, _ = postSweep(t, ts, "", `{"workloads":["e","f"],"designs":["alloy"]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}

	// One point fits in the free slot.
	resp, _ = postSweep(t, ts, "", `{"workloads":["e"],"designs":["alloy"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fitting sweep status %d, want 202", resp.StatusCode)
	}

	// Release the backend (a closed gate admits every later call
	// immediately); everything completes and admission recovers.
	close(fb.gate)
	readSSE(t, ts, first.ID, "")
	resp, sr := postSweep(t, ts, "", `{"workloads":["g","h"],"designs":["alloy"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain status %d", resp.StatusCode)
	}
	readSSE(t, ts, sr.ID, "")
	if s.m.rejectedQueue.Load() != 1 {
		t.Fatalf("rejectedQueue = %d, want 1", s.m.rejectedQueue.Load())
	}
}

// TestTenantQuota: per-tenant in-flight job quotas are keyed by X-Tenant
// and do not leak across tenants.
func TestTenantQuota(t *testing.T) {
	fb := newFakeBackend()
	fb.gate = make(chan struct{})
	s := New(fb, Config{Workers: 1, QueueDepth: 64, TenantQuota: 2}, nil)
	defer func() { close(fb.gate); s.Close() }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"workloads":["mcf_r"],"designs":["alloy"]}`
	for i := 0; i < 2; i++ {
		if resp, _ := postSweep(t, ts, "alice", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("alice job %d status %d", i, resp.StatusCode)
		}
	}
	if resp, _ := postSweep(t, ts, "alice", body); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over quota not rejected")
	}
	// A different tenant is unaffected.
	if resp, _ := postSweep(t, ts, "bob", body); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob blocked by alice's quota")
	}
	if s.m.rejectedQuota.Load() != 1 {
		t.Fatalf("rejectedQuota = %d, want 1", s.m.rejectedQuota.Load())
	}
}

// TestCoalescingAcrossClients: two clients sweeping the same grid
// concurrently produce identical results, and repeats are served from the
// daemon's result cache without re-entering the backend.
func TestCoalescingAcrossClients(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 5 * time.Millisecond
	s := New(fb, Config{Workers: 4, QueueDepth: 64}, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	grid := `{"workloads":["mcf_r","lbm_r"],"designs":["alloy","none"],"cache_mb":[256]}`
	type out struct {
		evs []Event
		err error
	}
	run := func(tenant string) out {
		resp, sr := postSweep(t, ts, tenant, grid)
		if resp.StatusCode != http.StatusAccepted {
			return out{err: fmt.Errorf("status %d", resp.StatusCode)}
		}
		return out{evs: readSSE(t, ts, sr.ID, "")}
	}
	var wg sync.WaitGroup
	outs := make([]out, 2)
	for i := range outs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = run(fmt.Sprintf("tenant-%d", i))
		}()
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("client %d: %v", i, o.err)
		}
	}

	// Same key ⇒ byte-identical result regardless of which client's run
	// computed it.
	byKey := map[string]core.Result{}
	for _, o := range outs {
		for _, ev := range o.evs {
			if ev.Type != "point" {
				continue
			}
			if prev, ok := byKey[ev.Key]; ok && prev != *ev.Result {
				t.Fatalf("key %s returned two different results: %+v vs %+v", ev.Key, prev, *ev.Result)
			}
			byKey[ev.Key] = *ev.Result
		}
	}
	if len(byKey) != 4 {
		t.Fatalf("expected 4 distinct content keys, got %d", len(byKey))
	}

	// A third, identical sweep is answered entirely from the result cache.
	before := fb.total.Load()
	resp, sr := postSweep(t, ts, "tenant-3", grid)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	evs := readSSE(t, ts, sr.ID, "")
	for _, ev := range evs {
		if ev.Type == "point" && !ev.Cached {
			t.Fatalf("repeat point not served from cache: %+v", ev)
		}
	}
	if got := fb.total.Load(); got != before {
		t.Fatalf("repeat sweep re-entered the backend: %d calls before, %d after", before, got)
	}
	if s.m.cacheHits.Load() < 4 {
		t.Fatalf("cacheHits = %d, want >= 4", s.m.cacheHits.Load())
	}
}

// TestSSEReplayAfterReconnect: a late subscriber (and one resuming via
// Last-Event-ID) sees the same ordered prefix it missed.
func TestSSEReplayAfterReconnect(t *testing.T) {
	fb := newFakeBackend()
	s := New(fb, Config{Workers: 2, QueueDepth: 16}, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, sr := postSweep(t, ts, "", `{"workloads":["a","b","c"],"designs":["alloy"]}`)
	full := readSSE(t, ts, sr.ID, "") // job done: log complete

	// A brand-new subscriber replays the whole log in order.
	replay := readSSE(t, ts, sr.ID, "")
	if len(replay) != len(full) {
		t.Fatalf("replay length %d != %d", len(replay), len(full))
	}
	for i := range full {
		a, _ := json.Marshal(full[i])
		b, _ := json.Marshal(replay[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("replay event %d diverged:\n%s\n%s", i, a, b)
		}
	}
	// Resuming after event 1 yields exactly the suffix.
	tail := readSSE(t, ts, sr.ID, "1")
	if len(tail) != len(full)-2 || tail[0].Seq != 2 {
		t.Fatalf("resume from id 1 returned %+v", tail)
	}
}

// TestFailedPointsReported: a failing point produces an error event, the
// done event tallies it, and nothing poisons the other points.
func TestFailedPointsReported(t *testing.T) {
	fb := newFakeBackend()
	s := New(fb, Config{Workers: 2, QueueDepth: 16}, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, sr := postSweep(t, ts, "", `{"workloads":["mcf_r","bad_r"],"designs":["alloy"]}`)
	evs := readSSE(t, ts, sr.ID, "")
	done := evs[len(evs)-1]
	if done.Completed != 1 || done.Failed != 1 {
		t.Fatalf("done tallies: %+v", done)
	}
	var sawErr, sawOK bool
	for _, ev := range evs[:len(evs)-1] {
		if ev.Error != "" {
			sawErr = true
			if ev.Result != nil {
				t.Fatalf("failed point carries a result: %+v", ev)
			}
		} else if ev.Result != nil {
			sawOK = true
		}
	}
	if !sawErr || !sawOK {
		t.Fatalf("expected one failure and one success: %+v", evs)
	}
}

// TestGracefulDrain: after Drain begins, new sweeps are refused with 503
// while in-flight jobs run to completion and their SSE followers get the
// done event — the SIGTERM contract.
func TestGracefulDrain(t *testing.T) {
	fb := newFakeBackend()
	fb.gate = make(chan struct{})
	s := New(fb, Config{Workers: 2, QueueDepth: 16}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, sr := postSweep(t, ts, "", `{"workloads":["a","b"],"designs":["alloy"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	// Follower attached before the drain starts.
	type sseOut struct {
		evs []Event
	}
	followed := make(chan sseOut, 1)
	go func() {
		followed <- sseOut{evs: readSSE(t, ts, sr.ID, "")}
	}()

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Draining: health flips and new sweeps bounce with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		hr, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, hr.Body) //nolint:errcheck
		hr.Body.Close()
		if hr.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health never flipped to draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ = postSweep(t, ts, "", `{"workloads":["c"],"designs":["alloy"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep during drain: status %d, want 503", resp.StatusCode)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned before jobs finished: %v", err)
	default:
	}

	// Let the in-flight job finish: drain completes cleanly and the
	// follower saw the full stream.
	close(fb.gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := <-followed
	if out.evs[len(out.evs)-1].Type != "done" {
		t.Fatalf("follower missed done event: %+v", out.evs)
	}
	s.Close()
	if s.m.rejectedDraining.Load() == 0 {
		t.Fatal("rejectedDraining never counted")
	}
}

// TestDrainTimeout: a drain bounded by an already-short context reports
// the stuck jobs instead of hanging; Close then aborts them.
func TestDrainTimeout(t *testing.T) {
	fb := newFakeBackend()
	fb.gate = make(chan struct{}) // never released: job is stuck
	s := New(fb, Config{Workers: 1, QueueDepth: 8}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := postSweep(t, ts, "", `{"workloads":["a"],"designs":["alloy"]}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("drain error = %v, want in-flight report", err)
	}
	s.Close() // cancels the stuck job's ctx; worker exits
}

// TestJobCancel: DELETE aborts the job's remaining points; the stream
// still terminates with a done event tallying the failures.
func TestJobCancel(t *testing.T) {
	fb := newFakeBackend()
	fb.gate = make(chan struct{})
	s := New(fb, Config{Workers: 1, QueueDepth: 16}, nil)
	defer func() { s.Close() }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, sr := postSweep(t, ts, "", `{"workloads":["a","b","c"],"designs":["alloy"]}`)
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+sr.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	close(fb.gate) // release any in-flight call; rest fail fast on ctx
	evs := readSSE(t, ts, sr.ID, "")
	done := evs[len(evs)-1]
	if done.Type != "done" || done.Completed+done.Failed != 3 {
		t.Fatalf("cancelled job terminal event: %+v", done)
	}
	if done.Failed == 0 {
		t.Fatalf("expected at least one cancelled point: %+v", done)
	}
}

// TestServeMetricsExposed: the daemon's counters appear on the shared
// debug mux after a snapshot is published, each under the Prometheus
// TYPE of what it measures. The result LRU's resident-entry count is
// bounded and shrinks on eviction, so it is a gauge, not a counter.
func TestServeMetricsExposed(t *testing.T) {
	fb := newFakeBackend()
	s := New(fb, Config{Workers: 1, QueueDepth: 8}, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, sr := postSweep(t, ts, "", `{"workloads":["mcf_r"],"designs":["alloy"]}`)
	readSSE(t, ts, sr.ID, "")
	s.Registry().PublishSnapshot()

	for _, c := range []struct {
		path  string
		wants []string
	}{
		{"/metrics.json", []string{`"serve_sweeps_total":1`, `"serve_points_done_total":1`}},
		{"/metrics", []string{
			"# TYPE serve_sweeps_total counter\n",
			"# TYPE serve_queue_depth gauge\n",
			"# TYPE serve_result_cache_entries gauge\nserve_result_cache_entries 1\n",
		}},
	} {
		resp, err := ts.Client().Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range c.wants {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s missing %q:\n%s", c.path, want, body)
			}
		}
	}
}

// TestRealRunnerBackend wires a real experiments.Runner under the daemon
// and checks the end-to-end invariant the CI smoke job enforces at scale:
// daemon results are byte-identical to direct Runner results, and
// identical concurrent sweeps coalesce in the runner's singleflight/memo.
func TestRealRunnerBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	p := experiments.QuickParams()
	p.InstructionsPerCore = 2_000
	p.WarmupRefs = 200
	p.Cores = 2
	direct := experiments.NewRunner(p)
	want, err := direct.Run(context.Background(), "mcf_r", core.DesignAlloy, "", 4)
	if err != nil {
		t.Fatal(err)
	}

	r := experiments.NewRunner(p)
	s := New(r, Config{Workers: 4, QueueDepth: 32}, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	grid := `{"workloads":["mcf_r"],"designs":["alloy"],"cache_mb":[4]}`
	var wg sync.WaitGroup
	results := make([]core.Result, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sr := postSweep(t, ts, fmt.Sprintf("c%d", i), grid)
			evs := readSSE(t, ts, sr.ID, "")
			for _, ev := range evs {
				if ev.Type == "point" && ev.Result != nil {
					results[i] = *ev.Result
				}
			}
		}()
	}
	wg.Wait()
	for i, got := range results {
		if got != want {
			t.Fatalf("client %d result diverged from direct run:\ndirect: %+v\ndaemon: %+v", i, want, got)
		}
	}
	// Four identical sweeps, one simulation: the rest coalesced in the
	// daemon cache or the runner's memo/singleflight.
	if m := r.Metrics(); m.PointsRun != 1 {
		t.Fatalf("runner executed %d points for 4 identical sweeps", m.PointsRun)
	}

	// The runner attaches a flight recorder to every simulation, so after
	// a point has run the daemon's black-box endpoint serves its dump.
	fr, err := ts.Client().Get(ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	var flight struct {
		Point  string          `json:"point"`
		Flight json.RawMessage `json:"flight"`
	}
	if err := json.NewDecoder(fr.Body).Decode(&flight); err != nil {
		t.Fatalf("flight dump decode: %v", err)
	}
	fr.Body.Close()
	if fr.StatusCode != http.StatusOK || flight.Point == "" || len(flight.Flight) == 0 {
		t.Fatalf("flight endpoint: status %d, %+v", fr.StatusCode, flight)
	}
}

// correlatingBackend wraps fakeBackend and records the correlation ID each
// Run call arrived with — the daemon must stamp the job ID on the context
// it hands the backend.
type correlatingBackend struct {
	*fakeBackend
	mu     sync.Mutex
	reqIDs map[string]bool
}

func (c *correlatingBackend) Run(ctx context.Context, w string, d core.Design, pk core.PredictorKind, mb uint64) (core.Result, error) {
	c.mu.Lock()
	if c.reqIDs == nil {
		c.reqIDs = make(map[string]bool)
	}
	c.reqIDs[experiments.RequestIDFrom(ctx)] = true
	c.mu.Unlock()
	return c.fakeBackend.Run(ctx, w, d, pk, mb)
}

// TestRequestCorrelation: the job ID minted at admission is the request's
// correlation ID everywhere — on the context the backend runs under, on
// every SSE event, as the origin of the cached result, and on the
// daemon's structured log records.
func TestRequestCorrelation(t *testing.T) {
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	cb := &correlatingBackend{fakeBackend: newFakeBackend()}
	s := New(cb, Config{
		Workers:    2,
		QueueDepth: 16,
		Logger:     slog.New(slog.NewTextHandler(&lockedWriter{mu: &logMu, w: &logBuf}, &slog.HandlerOptions{Level: slog.LevelDebug})),
	}, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, sr := postSweep(t, ts, "corr", `{"workloads":["mcf_r"],"designs":["alloy"],"cache_mb":[256]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	evs := readSSE(t, ts, sr.ID, "")

	// Every event — point and done — carries the job's correlation ID.
	for _, ev := range evs {
		if ev.ReqID != sr.ID {
			t.Fatalf("event %+v has req_id %q, want %q", ev, ev.ReqID, sr.ID)
		}
	}

	// The backend ran under a context carrying the same ID.
	cb.mu.Lock()
	sawID := cb.reqIDs[sr.ID]
	cb.mu.Unlock()
	if !sawID {
		t.Fatalf("backend never saw req_id %q on its context (saw %v)", sr.ID, cb.reqIDs)
	}

	// The content-addressed result remembers which request computed it.
	var key string
	for _, ev := range evs {
		if ev.Type == "point" {
			key = ev.Key
		}
	}
	rr, err := ts.Client().Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Origin string `json:"origin_req_id"`
	}
	json.NewDecoder(rr.Body).Decode(&got) //nolint:errcheck
	rr.Body.Close()
	if got.Origin != sr.ID {
		t.Fatalf("result origin %q, want %q", got.Origin, sr.ID)
	}

	// The structured log carries admission and computation records tagged
	// with the ID.
	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	for _, want := range []string{"sweep admitted", "point computed", "req_id=" + sr.ID} {
		if !strings.Contains(logs, want) {
			t.Fatalf("log missing %q:\n%s", want, logs)
		}
	}

	// A second identical sweep is served from the result cache but keeps
	// the ORIGINAL computing request as origin.
	_, sr2 := postSweep(t, ts, "corr", `{"workloads":["mcf_r"],"designs":["alloy"],"cache_mb":[256]}`)
	readSSE(t, ts, sr2.ID, "")
	rr2, err := ts.Client().Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(rr2.Body).Decode(&got) //nolint:errcheck
	rr2.Body.Close()
	if got.Origin != sr.ID {
		t.Fatalf("after cached hit, origin %q, want original %q", got.Origin, sr.ID)
	}
}

// lockedWriter serializes concurrent handler writes and lets the test read
// the buffer without racing the workers.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestBuildInfoEndpoint: the daemon exposes build provenance.
func TestBuildInfoEndpoint(t *testing.T) {
	s := New(newFakeBackend(), Config{Workers: 1, QueueDepth: 4}, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bi struct {
		GoVersion string `json:"go_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&bi); err != nil {
		t.Fatalf("buildinfo decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK || bi.GoVersion == "" {
		t.Fatalf("buildinfo: status %d, %+v", resp.StatusCode, bi)
	}

	// The fake backend cannot surface flight recordings, so the endpoint
	// is not mounted at all.
	fr, err := ts.Client().Get(ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, fr.Body) //nolint:errcheck
	fr.Body.Close()
	if fr.StatusCode != http.StatusNotFound {
		t.Fatalf("flightrecorder on non-flight backend: status %d", fr.StatusCode)
	}
}

// TestSSEResumeAtFinalEvent: resuming with Last-Event-ID equal to the done
// event's id must end the stream immediately. After "done" the log is
// final and no further event will ever arrive, so waiting on the change
// signal would hang the client until it gave up.
func TestSSEResumeAtFinalEvent(t *testing.T) {
	fb := newFakeBackend()
	s := New(fb, Config{Workers: 2, QueueDepth: 16}, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, sr := postSweep(t, ts, "", `{"workloads":["a","b"],"designs":["alloy"]}`)
	full := readSSE(t, ts, sr.ID, "") // job done; the log is complete
	last := full[len(full)-1]
	if last.Type != "done" {
		t.Fatalf("last event is %q, want done", last.Type)
	}

	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+sr.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", last.Seq))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := ts.Client().Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body) // must hit EOF, not the ctx guard
	if err != nil {
		t.Fatalf("stream did not end after resume at final event: %v", err)
	}
	if strings.Contains(string(body), "data: ") {
		t.Fatalf("expected an empty replay, got:\n%s", body)
	}
}

// TestCloseReleasesGoroutines brackets a full serve/sweep/close cycle with
// runtime.NumGoroutine: workers, SSE writers, and per-job plumbing must
// all join by the time Close returns — the daemon's no-leak contract.
func TestCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	fb := newFakeBackend()
	s := New(fb, Config{Workers: 4, QueueDepth: 16}, nil)
	ts := httptest.NewServer(s.Handler())
	_, sr := postSweep(t, ts, "", `{"workloads":["a","b","c"],"designs":["alloy"]}`)
	readSSE(t, ts, sr.ID, "")
	ts.Close()
	s.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
