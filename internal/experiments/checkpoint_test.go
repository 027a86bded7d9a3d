package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"alloysim/internal/core"
)

// TestCheckpointRoundTrip is the resume acceptance test: a second runner
// pointed at the first runner's checkpoint re-simulates zero points and
// replays exactly the same results.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")

	r1 := NewRunner(microParams())
	if restored, err := r1.EnableCheckpoint(path); err != nil || restored != 0 {
		t.Fatalf("fresh checkpoint: restored=%d err=%v", restored, err)
	}
	a1, err := r1.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r1.Run(context.Background(), "mcf_r", core.DesignNone, core.PredDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := r1.Metrics(); m.PointsRun != 2 {
		t.Fatalf("first runner ran %d points, want 2", m.PointsRun)
	}

	// A brand-new runner with the same parameters resumes from disk.
	r2 := NewRunner(microParams())
	restored, err := r2.EnableCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored %d points, want 2", restored)
	}
	a2, err := r2.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.Run(context.Background(), "mcf_r", core.DesignNone, core.PredDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := r2.Metrics()
	if m.PointsRun != 0 {
		t.Fatalf("resumed runner re-simulated %d points, want 0", m.PointsRun)
	}
	if m.MemoHits != 2 || m.CheckpointHits != 2 {
		t.Fatalf("memo hits %d / checkpoint hits %d, want 2 / 2", m.MemoHits, m.CheckpointHits)
	}
	// Results replay bit-for-bit: Result is all scalars, and float64
	// round-trips exactly through JSON.
	if a1 != a2 || b1 != b2 {
		t.Fatalf("restored results differ:\n%+v\nvs\n%+v\n%+v\nvs\n%+v", a1, a2, b1, b2)
	}
}

// TestCheckpointRejectsStaleParameters: a checkpoint written under
// different result-affecting parameters must not be loaded.
func TestCheckpointRejectsStaleParameters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")

	r1 := NewRunner(microParams())
	if _, err := r1.EnableCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0); err != nil {
		t.Fatal(err)
	}

	p := microParams()
	p.Seed = p.Seed + 1 // different RNG stream → different results
	r2 := NewRunner(p)
	if _, err := r2.EnableCheckpoint(path); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("err = %v, want ErrCheckpointStale", err)
	}

	// Execution-steering parameters are NOT part of the fingerprint:
	// resuming with different parallelism must work.
	p2 := microParams()
	p2.Parallelism = 1
	r3 := NewRunner(p2)
	if restored, err := r3.EnableCheckpoint(path); err != nil || restored != 1 {
		t.Fatalf("steering-only change rejected: restored=%d err=%v", restored, err)
	}
}

// TestCheckpointRejectsCorruptedFile: garbage on disk is an error, not a
// silent fresh start, whether it replaces the header or sits on a
// complete entry line.
func TestCheckpointRejectsCorruptedFile(t *testing.T) {
	header := fmt.Sprintf(`{"version":%d,"fingerprint":%q}`, checkpointVersion, microParams().fingerprint())
	for _, data := range []string{
		"{not json",
		header + "\n{not json\n",
	} {
		path := filepath.Join(t.TempDir(), "ckpt.json")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		r := NewRunner(microParams())
		if _, err := r.EnableCheckpoint(path); err == nil {
			t.Fatalf("corrupted checkpoint %q accepted", data)
		}
	}
}

// TestCheckpointSnapshotsAfterEveryPoint: the on-disk file is a valid,
// complete checkpoint after each completed point — that is what makes
// interruption at any moment recoverable.
func TestCheckpointSnapshotsAfterEveryPoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	r := NewRunner(microParams())
	r.simulate = func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
		return core.Result{ExecCycles: float64(pt.CacheMB)}, nil
	}
	if _, err := r.EnableCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= 3; i++ {
		if _, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if n := len(readCheckpoint(t, path, r.p.fingerprint())); n != i {
			t.Fatalf("after point %d the checkpoint holds %d entries", i, n)
		}
	}

	// Failed points are never checkpointed.
	r.simulate = func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
		return core.Result{}, errors.New("boom")
	}
	if _, err := r.Run(context.Background(), "mcf_r", core.DesignLH, core.PredDefault, 1); err == nil {
		t.Fatal("failing point succeeded")
	}
	if n := len(readCheckpoint(t, path, r.p.fingerprint())); n != 3 {
		t.Fatalf("failed point leaked into the checkpoint: %d entries", n)
	}
}

// TestCheckpointConcurrentCompletionsDoNotClobber hammers the checkpoint
// write path with many Prefetch workers completing points concurrently
// (GOMAXPROCS > 1). The final file must hold every completed point on a
// whole line of its own, and a fresh runner must restore all of them.
func TestCheckpointConcurrentCompletionsDoNotClobber(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const points = 48
	path := filepath.Join(t.TempDir(), "ckpt.json")
	p := microParams()
	p.Parallelism = 8
	r := NewRunner(p)
	r.simulate = func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
		return core.Result{ExecCycles: float64(pt.CacheMB)}, nil
	}
	if _, err := r.EnableCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, points)
	for i := range pts {
		pts[i] = Point{Workload: "mcf_r", Design: core.DesignAlloy, CacheMB: uint64(i + 1)}
	}
	if err := r.Prefetch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}

	// The file parses, carries the right fingerprint, and holds every
	// point: no interleaved or lost appends.
	entries := readCheckpoint(t, path, p.fingerprint())
	if len(entries) != points {
		t.Fatalf("final checkpoint holds %d entries, want %d", len(entries), points)
	}
	got := make(map[Point]bool, points)
	for _, e := range entries {
		got[e.Point] = true
		if e.Result.ExecCycles != float64(e.Point.CacheMB) {
			t.Fatalf("entry %s carries result %v, want %v", e.Point, e.Result.ExecCycles, float64(e.Point.CacheMB))
		}
	}
	for _, pt := range pts {
		if !got[r.normalize(pt)] {
			t.Fatalf("point %s missing from the final checkpoint", pt)
		}
	}

	// And a fresh runner restores the complete set.
	r2 := NewRunner(p)
	restored, err := r2.EnableCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored != points {
		t.Fatalf("restored %d points, want %d", restored, points)
	}
}

// TestCheckpointPointJSON: a point with zero knobs marshals to the bytes
// checkpoints held before points had knobs, and a knob point marshals
// its set knobs and reads back equal.
func TestCheckpointPointJSON(t *testing.T) {
	pt := Point{Workload: "mcf_r", Design: core.DesignAlloy, CacheMB: 256}
	data, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"workload":"mcf_r","design":"alloy","predictor":"","cache_mb":256}`; string(data) != want {
		t.Fatalf("zero-knob point marshals to %s, want %s", data, want)
	}
	pt.Knobs = Knobs{MLP: 4, DCPolicy: "ship", Seed: 3}
	if data, err = json.Marshal(pt); err != nil {
		t.Fatal(err)
	}
	if want := `{"workload":"mcf_r","design":"alloy","predictor":"","cache_mb":256,"mlp":4,"dc_policy":"ship","seed":3}`; string(data) != want {
		t.Fatalf("knob point marshals to %s, want %s", data, want)
	}
	var back Point
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != pt {
		t.Fatalf("knob point read back as %s, want %s", back, pt)
	}
}

// TestCheckpointRoundTripsKnobs: a knob point restores into its own memo
// slot, not into the default point's.
func TestCheckpointRoundTripsKnobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	fake := func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
		return core.Result{ExecCycles: float64(100 + pt.MLP)}, nil
	}
	knob := Point{Workload: "mcf_r", Design: core.DesignAlloy, Knobs: Knobs{MLP: 4}}
	r1 := NewRunner(microParams())
	r1.simulate = fake
	if _, err := r1.EnableCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.run(context.Background(), knob, nil); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(microParams())
	r2.simulate = fake
	if restored, err := r2.EnableCheckpoint(path); err != nil || restored != 1 {
		t.Fatalf("restored=%d err=%v, want 1 entry", restored, err)
	}
	res, err := r2.run(context.Background(), knob, nil)
	if err != nil || res.ExecCycles != 104 {
		t.Fatalf("restored knob point: %v, %v; want ExecCycles 104", res.ExecCycles, err)
	}
	if m := r2.Metrics(); m.PointsRun != 0 {
		t.Fatalf("resumed runner re-simulated %d points, want 0", m.PointsRun)
	}
	if _, err := r2.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0); err != nil {
		t.Fatal(err)
	}
	if m := r2.Metrics(); m.PointsRun != 1 {
		t.Fatalf("the default point was served from the knob point's entry")
	}
}

// TestCheckpointRejectsVersion1: version-1 and version-2 files are
// stale. A version-1 reader ignores knob fields, so the version is what
// keeps a knob entry out of the default point's slot; version 2 held the
// whole memo in one object, rewritten after every point.
func TestCheckpointRejectsVersion1(t *testing.T) {
	p := microParams()
	for _, version := range []int{1, 2} {
		fp := sha256.Sum256([]byte(fmt.Sprintf("ckpt-v%d|scale=%d|instr=%d|warmup=%d|cores=%d|cachemb=%d|gap=%d|seed=%d",
			version, p.Scale, p.InstructionsPerCore, p.WarmupRefs, p.Cores, p.CacheMB, p.GapScale, p.Seed)))
		old := struct {
			Version     int               `json:"version"`
			Fingerprint string            `json:"fingerprint"`
			Entries     []checkpointEntry `json:"entries"`
		}{
			Version:     version,
			Fingerprint: hex.EncodeToString(fp[:]),
			Entries:     []checkpointEntry{{Point: Point{Workload: "mcf_r", Design: core.DesignAlloy, CacheMB: p.CacheMB}}},
		}
		// Version 2 wrote its object indented.
		data, err := json.MarshalIndent(old, "", " ")
		if version == 1 {
			data, err = json.Marshal(old)
		}
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ckpt.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewRunner(p).EnableCheckpoint(path); !errors.Is(err, ErrCheckpointStale) {
			t.Fatalf("version %d: err = %v, want ErrCheckpointStale", version, err)
		}
	}
}

// readCheckpoint parses the checkpoint at path through the package's own
// parser and fails the test unless every line of it is complete.
func readCheckpoint(t *testing.T, path, fingerprint string) []checkpointEntry {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, complete, err := parseCheckpoint(path, data, fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if complete != len(data) {
		t.Fatalf("checkpoint ends in a torn line: %q", data[complete:])
	}
	return entries
}

// TestCheckpointAppendsOneLinePerPoint: the file is the header line, then
// one compact line per completed point, each save appending to the bytes
// already on disk.
func TestCheckpointAppendsOneLinePerPoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	r := NewRunner(microParams())
	r.simulate = func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
		return core.Result{ExecCycles: float64(pt.CacheMB)}, nil
	}
	if _, err := r.EnableCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`{"version":%d,"fingerprint":%q}`, checkpointVersion, r.p.fingerprint()) + "\n"
	for i := uint64(1); i <= 3; i++ {
		pt := Point{Workload: "mcf_r", Design: core.DesignAlloy, CacheMB: i}
		if _, err := r.run(context.Background(), pt, nil); err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(checkpointEntry{Point: r.normalize(pt), Result: core.Result{ExecCycles: float64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		want += string(line) + "\n"
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Fatalf("after point %d the checkpoint reads\n%s\nwant\n%s", i, data, want)
		}
	}
}

// TestCheckpointFailsOnUncreatablePath: a checkpoint that cannot be
// created fails when it is enabled, not silently at every point.
func TestCheckpointFailsOnUncreatablePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "ckpt.json")
	if _, err := NewRunner(microParams()).EnableCheckpoint(path); err == nil {
		t.Fatal("checkpoint in a missing directory enabled")
	}
}

// TestCheckpointAppendFailureKept: an append that fails after the
// checkpoint was enabled (here its directory is removed) is kept for the
// caller to report, and a later failure does not replace it. The points
// themselves complete and are memoized.
func TestCheckpointAppendFailureKept(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(microParams())
	r.simulate = func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
		return core.Result{ExecCycles: float64(pt.CacheMB)}, nil
	}
	if _, err := r.EnableCheckpoint(filepath.Join(dir, "ckpt.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 64); err != nil || r.CheckpointErr() != nil {
		t.Fatalf("first point: %v, checkpoint error %v", err, r.CheckpointErr())
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 128); err != nil {
		t.Fatal(err)
	}
	first := r.CheckpointErr()
	if first == nil {
		t.Fatal("a failed append left no checkpoint error")
	}
	if _, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 256); err != nil {
		t.Fatal(err)
	}
	if r.CheckpointErr() != first {
		t.Fatalf("checkpoint error %v replaced the first, %v", r.CheckpointErr(), first)
	}
	if m := r.Metrics(); m.PointsRun != 3 || m.Failures != 0 {
		t.Fatalf("metrics %+v, want 3 points run and no failure", m)
	}
}

// TestCheckpointDropsTornTail: a last line cut short by a crash is
// dropped on load and cut off the file, the point it held simulates
// again, and its append leaves a valid file.
func TestCheckpointDropsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	var ran int
	fake := func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
		ran++
		return core.Result{ExecCycles: float64(pt.CacheMB)}, nil
	}
	pts := make([]Point, 3)
	for i := range pts {
		pts[i] = Point{Workload: "mcf_r", Design: core.DesignAlloy, CacheMB: uint64(i + 1)}
	}
	r1 := NewRunner(microParams())
	r1.simulate = fake
	if _, err := r1.EnableCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if _, err := r1.run(context.Background(), pt, nil); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(len(whole)-10)); err != nil {
		t.Fatal(err)
	}

	ran = 0
	r2 := NewRunner(microParams())
	r2.simulate = fake
	if restored, err := r2.EnableCheckpoint(path); err != nil || restored != 2 {
		t.Fatalf("restored=%d err=%v, want 2 entries", restored, err)
	}
	readCheckpoint(t, path, r2.p.fingerprint())
	for _, pt := range pts {
		if _, err := r2.run(context.Background(), pt, nil); err != nil {
			t.Fatal(err)
		}
	}
	if ran != 1 {
		t.Fatalf("resumed runner simulated %d points, want the torn one only", ran)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(whole) {
		t.Fatalf("checkpoint after the resume reads\n%s\nwant\n%s", data, whole)
	}
}
