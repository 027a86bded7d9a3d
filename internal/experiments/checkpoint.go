package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"alloysim/internal/core"
)

// Checkpointing: the runner's memo, appended to disk so an interrupted
// sweep resumes instead of restarting. The file is JSON lines: a header
// line carrying the format version and a fingerprint of every
// result-affecting parameter, then one compact {"point":…,"result":…}
// line per completed point, appended as the point completes. A checkpoint
// written under different parameters would silently replay wrong
// results, so a version or fingerprint mismatch is rejected with
// ErrCheckpointStale rather than ignored. A crash mid-append leaves at
// most a last line without its newline; loading drops that torn tail.

// checkpointVersion is bumped whenever the file layout or the meaning of
// core.Result fields changes incompatibly. Version 2 added Point's knobs,
// which a version-1 reader would drop, loading a knob point's result into
// the default point's slot. Version 3 replaced the whole-memo object with
// a header line and one appended line per point.
const checkpointVersion = 3

// ErrCheckpointStale reports a checkpoint whose parameters do not match
// the runner's; resuming from it would replay results from a different
// sweep. Delete the file or rerun with the original parameters.
var ErrCheckpointStale = errors.New("experiments: checkpoint does not match current parameters")

// checkpointHeader is a checkpoint's first line. Earlier versions held
// the header fields in one object with every entry, so decoding their
// first JSON value into it still yields their version.
type checkpointHeader struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

type checkpointEntry struct {
	Point  Point       `json:"point"`
	Result core.Result `json:"result"`
}

// checkpointWriter owns the checkpoint path and serializes appends.
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
// parameters fails with ErrCheckpointStale, and a torn last line is cut
// off the file. A fresh path gets the header line. After enabling, every
// completed point appends its line.
//
// Call it before the first Run: points completed earlier are not in the
// file.
func (r *Runner) EnableCheckpoint(path string) (restored int, err error) {
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// An int and a string always encode.
		header, _ := json.Marshal(checkpointHeader{Version: checkpointVersion, Fingerprint: r.p.fingerprint()})
		if err := appendLine(path, header); err != nil {
			return 0, err
		}
	case err != nil:
		return 0, fmt.Errorf("experiments: reading checkpoint %s: %w", path, err)
	default:
		entries, complete, err := parseCheckpoint(path, data, r.p.fingerprint())
		if err != nil {
			return 0, err
		}
		if complete < len(data) {
			if err := os.Truncate(path, int64(complete)); err != nil {
				return 0, fmt.Errorf("experiments: dropping torn tail of checkpoint %s: %w", path, err)
			}
		}
		r.mu.Lock()
		for _, e := range entries {
			r.cache[e.Point] = e.Result
		}
		restored = len(entries)
		r.m.CheckpointHits += uint64(restored)
		r.mu.Unlock()
	}
	r.mu.Lock()
	r.ckpt = &checkpointWriter{path: path}
	r.mu.Unlock()
	return restored, nil
}

// parseCheckpoint decodes the bytes of the checkpoint file at path,
// written under the given fingerprint. It returns the entries of every
// complete line and the length of the prefix those lines span; a last
// line without its newline is a torn append and lies past that prefix. A
// malformed complete line is an error.
func parseCheckpoint(path string, data []byte, fingerprint string) (entries []checkpointEntry, complete int, err error) {
	var h checkpointHeader
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&h); err != nil {
		return nil, 0, fmt.Errorf("experiments: checkpoint %s is not a valid checkpoint file: %w", path, err)
	}
	if h.Version != checkpointVersion {
		return nil, 0, fmt.Errorf("%w: file version %d, supported %d", ErrCheckpointStale, h.Version, checkpointVersion)
	}
	if h.Fingerprint != fingerprint {
		return nil, 0, fmt.Errorf("%w: parameter fingerprint %.12s differs from current %.12s",
			ErrCheckpointStale, h.Fingerprint, fingerprint)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || int64(nl) != dec.InputOffset() {
		return nil, 0, fmt.Errorf("experiments: checkpoint %s is not a valid checkpoint file: its header is not a line of its own", path)
	}
	complete = bytes.LastIndexByte(data, '\n') + 1
	for rest, n := data[nl+1:complete], 2; len(rest) > 0; n++ {
		i := bytes.IndexByte(rest, '\n')
		var e checkpointEntry
		if err := json.Unmarshal(rest[:i], &e); err != nil {
			return nil, 0, fmt.Errorf("experiments: checkpoint %s line %d: %w", path, n, err)
		}
		entries = append(entries, e)
		rest = rest[i+1:]
	}
	return entries, complete, nil
}

// saveCheckpoint appends one completed point's line to the checkpoint
// file; it is a no-op when checkpointing is disabled. The writer lock
// keeps concurrent completions' lines whole and in one piece each.
func (r *Runner) saveCheckpoint(pt Point, res core.Result) error {
	r.mu.Lock()
	cw := r.ckpt
	r.mu.Unlock()
	if cw == nil {
		return nil
	}
	line, err := json.Marshal(checkpointEntry{Point: pt, Result: res})
	if err != nil {
		return fmt.Errorf("experiments: encoding checkpoint entry: %w", err)
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return appendLine(cw.path, line)
}

// appendLine opens path for appending (creating it if needed), writes
// line and its newline in one write, and closes the file again: the
// runner keeps no file open between points.
func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("experiments: opening checkpoint: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("experiments: writing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("experiments: closing checkpoint: %w", err)
	}
	return nil
}
