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
	// resuming with different parallelism or retry budget must work.
	p2 := microParams()
	p2.Parallelism = 1
	p2.Retries = 9
	r3 := NewRunner(p2)
	if restored, err := r3.EnableCheckpoint(path); err != nil || restored != 1 {
		t.Fatalf("steering-only change rejected: restored=%d err=%v", restored, err)
	}
}

// TestCheckpointRejectsCorruptedFile: garbage on disk is an error, not a
// silent fresh start.
func TestCheckpointRejectsCorruptedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(microParams())
	if _, err := r.EnableCheckpoint(path); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
}

// TestCheckpointSnapshotsAfterEveryPoint: the on-disk file is a valid,
// complete checkpoint after each completed point — that is what makes
// interruption at any moment recoverable.
func TestCheckpointSnapshotsAfterEveryPoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	r := NewRunner(microParams())
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		return core.Result{ExecCycles: float64(pt.CacheMB)}, nil
	}
	if _, err := r.EnableCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	readEntries := func() checkpointFile {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var cf checkpointFile
		if err := json.Unmarshal(data, &cf); err != nil {
			t.Fatalf("snapshot is not valid JSON: %v", err)
		}
		return cf
	}

	for i := 1; i <= 3; i++ {
		if _, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, uint64(i)); err != nil {
			t.Fatal(err)
		}
		cf := readEntries()
		if cf.Version != checkpointVersion {
			t.Fatalf("snapshot version %d, want %d", cf.Version, checkpointVersion)
		}
		if cf.Fingerprint != r.p.fingerprint() {
			t.Fatal("snapshot fingerprint does not match runner parameters")
		}
		if len(cf.Entries) != i {
			t.Fatalf("after point %d the snapshot holds %d entries", i, len(cf.Entries))
		}
	}

	// Failed points are never checkpointed.
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		return core.Result{}, errors.New("boom")
	}
	if _, err := r.Run(context.Background(), "mcf_r", core.DesignLH, core.PredDefault, 1); err == nil {
		t.Fatal("failing point succeeded")
	}
	if cf := readEntries(); len(cf.Entries) != 3 {
		t.Fatalf("failed point leaked into the checkpoint: %d entries", len(cf.Entries))
	}
}

// TestCheckpointConcurrentCompletionsDoNotClobber hammers the checkpoint
// write path with many leaders completing points concurrently
// (GOMAXPROCS > 1). The original ordering snapshotted the memo *before*
// taking the writer lock, so a stale snapshot could win the rename race
// and silently drop points from the file. The final file must hold every
// completed point, and a fresh runner must restore all of them.
func TestCheckpointConcurrentCompletionsDoNotClobber(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const points = 48
	path := filepath.Join(t.TempDir(), "ckpt.json")
	p := microParams()
	p.Parallelism = 8
	r := NewRunner(p)
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
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

	// The committed file parses, carries the right fingerprint, and holds
	// every point: no interleaved writes, no stale-snapshot clobbering.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		t.Fatalf("final checkpoint is not valid JSON: %v", err)
	}
	if cf.Fingerprint != p.fingerprint() {
		t.Fatal("final checkpoint fingerprint mismatch")
	}
	if len(cf.Entries) != points {
		t.Fatalf("final checkpoint holds %d entries, want %d", len(cf.Entries), points)
	}
	got := make(map[Point]bool, points)
	for _, e := range cf.Entries {
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
	fake := func(ctx context.Context, pt Point) (core.Result, error) {
		return core.Result{ExecCycles: float64(100 + pt.MLP)}, nil
	}
	knob := Point{Workload: "mcf_r", Design: core.DesignAlloy, Knobs: Knobs{MLP: 4}}
	r1 := NewRunner(microParams())
	r1.simulate = fake
	if _, err := r1.EnableCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.run(context.Background(), knob); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(microParams())
	r2.simulate = fake
	if restored, err := r2.EnableCheckpoint(path); err != nil || restored != 1 {
		t.Fatalf("restored=%d err=%v, want 1 entry", restored, err)
	}
	res, err := r2.run(context.Background(), knob)
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

// TestCheckpointRejectsVersion1: a version-1 file, written before points
// had knobs, is stale. A version-1 reader ignores knob fields, so the
// version is what keeps a knob entry out of the default point's slot.
func TestCheckpointRejectsVersion1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	p := microParams()
	v1 := sha256.Sum256([]byte(fmt.Sprintf("ckpt-v1|scale=%d|instr=%d|warmup=%d|cores=%d|cachemb=%d|gap=%d|seed=%d",
		p.Scale, p.InstructionsPerCore, p.WarmupRefs, p.Cores, p.CacheMB, p.GapScale, p.Seed)))
	cf := checkpointFile{
		Version:     1,
		Fingerprint: hex.EncodeToString(v1[:]),
		Entries:     []checkpointEntry{{Point: Point{Workload: "mcf_r", Design: core.DesignAlloy, CacheMB: p.CacheMB}}},
	}
	data, err := json.Marshal(cf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(p).EnableCheckpoint(path); !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("err = %v, want ErrCheckpointStale", err)
	}
}
