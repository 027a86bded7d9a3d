package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"alloysim/internal/core"
)

// Checkpointing: the runner's memo, frozen to disk so an interrupted
// sweep resumes instead of restarting. The file is JSON — one entry per
// completed Point — behind a header carrying a fingerprint of every
// result-affecting parameter. A checkpoint written under different
// parameters would silently replay wrong results, so a fingerprint
// mismatch is rejected with ErrCheckpointStale rather than ignored.
// Writes go through a temp file in the same directory followed by an
// atomic rename: a crash mid-write leaves the previous snapshot intact.

// checkpointVersion is bumped whenever the file layout or the meaning of
// core.Result fields changes incompatibly. Version 2 added Point's knobs,
// which a version-1 reader would drop, loading a knob point's result into
// the default point's slot.
const checkpointVersion = 2

// ErrCheckpointStale reports a checkpoint whose parameters do not match
// the runner's; resuming from it would replay results from a different
// sweep. Delete the file or rerun with the original parameters.
var ErrCheckpointStale = errors.New("experiments: checkpoint does not match current parameters")

type checkpointFile struct {
	Version     int               `json:"version"`
	Fingerprint string            `json:"fingerprint"`
	Entries     []checkpointEntry `json:"entries"`
}

type checkpointEntry struct {
	Point  Point       `json:"point"`
	Result core.Result `json:"result"`
}

// checkpointWriter owns the checkpoint path and serializes snapshots.
type checkpointWriter struct {
	mu   sync.Mutex
	path string //alloyvet:owner EnableCheckpoint; immutable
}

// fingerprint hashes every Params field that changes simulation results.
// Parallelism and Progress steer execution, not outcomes, and are
// deliberately excluded: resuming on a different machine or with different
// concurrency must still hit the checkpoint.
func (p Params) fingerprint() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("ckpt-v%d|scale=%d|instr=%d|warmup=%d|cores=%d|cachemb=%d|gap=%d|seed=%d",
		checkpointVersion, p.Scale, p.InstructionsPerCore, p.WarmupRefs, p.Cores, p.CacheMB, p.GapScale, p.Seed)))
	return hex.EncodeToString(h[:])
}

// Fingerprint exposes the result-defining parameter hash for run
// manifests: a results file stamped with it can be matched against the
// checkpoint and sweep that produced it.
func (p Params) Fingerprint() string { return p.fingerprint() }

// EnableCheckpoint attaches a disk checkpoint to the runner. If path
// already holds a checkpoint, its entries are loaded into the memo and
// the restored count is returned; a checkpoint written under different
// parameters fails with ErrCheckpointStale. After enabling, every
// completed point triggers an atomic snapshot of the whole memo.
//
// Call it before the first Run: points completed earlier are still
// included in the next snapshot, but a load would overwrite nothing only
// because keys match exactly, and the restored count would be misleading.
func (r *Runner) EnableCheckpoint(path string) (restored int, err error) {
	cw := &checkpointWriter{path: path}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh sweep: nothing to restore.
	case err != nil:
		return 0, fmt.Errorf("experiments: reading checkpoint %s: %w", path, err)
	default:
		var cf checkpointFile
		if err := json.Unmarshal(data, &cf); err != nil {
			return 0, fmt.Errorf("experiments: checkpoint %s is not a valid checkpoint file: %w", path, err)
		}
		if cf.Version != checkpointVersion {
			return 0, fmt.Errorf("%w: file version %d, supported %d", ErrCheckpointStale, cf.Version, checkpointVersion)
		}
		if cf.Fingerprint != r.p.fingerprint() {
			return 0, fmt.Errorf("%w: parameter fingerprint %.12s differs from current %.12s",
				ErrCheckpointStale, cf.Fingerprint, r.p.fingerprint())
		}
		r.mu.Lock()
		for _, e := range cf.Entries {
			r.cache[e.Point] = e.Result
		}
		restored = len(cf.Entries)
		r.m.CheckpointHits += uint64(restored)
		r.mu.Unlock()
	}
	r.mu.Lock()
	r.ckpt = cw
	r.mu.Unlock()
	return restored, nil
}

// saveCheckpoint snapshots the memo to the checkpoint file atomically.
//
// The memo snapshot is taken *inside* the writer lock. Taking it outside
// (the original ordering) let two concurrent point completions race:
// point A snapshots {p1}, point B snapshots {p1,p2} and commits, then
// A's rename lands an older memo over B's newer file — p2 silently gone
// until some later completion happens to rewrite it, and permanently gone
// if the sweep ends first. Holding cw.mu across snapshot+marshal+rename
// makes every committed file a superset of the one it replaces: the memo
// only grows, and each writer reads it after the previous writer's commit.
func (r *Runner) saveCheckpoint() error {
	r.mu.Lock()
	cw := r.ckpt
	r.mu.Unlock()
	if cw == nil {
		return nil
	}

	cw.mu.Lock()
	defer cw.mu.Unlock()

	r.mu.Lock()
	entries := make([]checkpointEntry, 0, len(r.cache))
	//alloyvet:allow(determinism) collection order is irrelevant: sorted by point key below
	for pt, res := range r.cache {
		entries = append(entries, checkpointEntry{Point: pt, Result: res})
	}
	r.mu.Unlock()

	// Deterministic entry order keeps successive snapshots diffable.
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Point.String() < entries[j].Point.String()
	})
	cf := checkpointFile{
		Version:     checkpointVersion,
		Fingerprint: r.p.fingerprint(),
		Entries:     entries,
	}
	data, err := json.MarshalIndent(cf, "", " ")
	if err != nil {
		return fmt.Errorf("experiments: encoding checkpoint: %w", err)
	}

	dir := filepath.Dir(cw.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(cw.path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("experiments: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("experiments: writing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("experiments: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, cw.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("experiments: committing checkpoint: %w", err)
	}
	return nil
}
