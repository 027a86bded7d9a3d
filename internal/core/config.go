// Package core assembles the paper's full system: eight trace-driven cores
// sharing an L3, a die-stacked DRAM cache in one of the studied
// organizations governed by a memory access predictor, and off-chip DRAM.
// It is the public simulation API used by the experiment harness, the
// command-line tools, and the examples.
package core

import (
	"fmt"

	"alloysim/internal/cpu"
	"alloysim/internal/dram"
	"alloysim/internal/dramcache"
	"alloysim/internal/predictor"
	"alloysim/internal/sim"
	"alloysim/internal/trace"
)

// Design selects a DRAM-cache organization.
type Design string

// The studied designs. DesignNone is the baseline without a DRAM cache.
const (
	DesignNone         Design = "none"
	DesignSRAMTag32    Design = "sram-32"
	DesignSRAMTag1     Design = "sram-1"
	DesignLH           Design = "lh-29"
	DesignLHRand       Design = "lh-29-rand"
	DesignLH1          Design = "lh-1"
	DesignAlloy        Design = "alloy"
	DesignAlloy2       Design = "alloy-2"
	DesignAlloyBurst8  Design = "alloy-b8"
	DesignIdealLO      Design = "ideal-lo"
	DesignIdealLONoTag Design = "ideal-lo-notag"

	// The beyond-the-paper design zoo (ROADMAP item 3): successor
	// organizations layered over the same contents and device models.
	DesignBanshee Design = "banshee"
	DesignGemini  Design = "gemini"
	DesignTDRAM   Design = "tdram"
)

// Designs lists every supported design. Order is append-only: the fuzz
// corpus indexes into this slice by position.
func Designs() []Design {
	return []Design{
		DesignNone, DesignSRAMTag32, DesignSRAMTag1,
		DesignLH, DesignLHRand, DesignLH1,
		DesignAlloy, DesignAlloy2, DesignAlloyBurst8,
		DesignIdealLO, DesignIdealLONoTag,
		DesignBanshee, DesignGemini, DesignTDRAM,
	}
}

// PredictorKind selects the memory access predictor.
type PredictorKind string

// Predictor choices. PredDefault picks the paper's pairing for the design:
// SRAM-Tag needs none (tags are on-chip: SAM), LH-Cache uses the MissMap,
// Alloy uses MAP-I, and IDEAL-LO uses the perfect zero-latency oracle.
const (
	PredDefault PredictorKind = ""
	PredSAM     PredictorKind = "sam"
	PredPAM     PredictorKind = "pam"
	PredMAPG    PredictorKind = "map-g"
	PredMAPI    PredictorKind = "map-i"
	PredPerfect PredictorKind = "perfect"
	PredMissMap PredictorKind = "missmap"
)

// Config describes one simulation.
type Config struct {
	// Workload names a trace profile (trace.ByName).
	Workload string
	// Cores is the rate-mode copy count (paper: 8).
	Cores int
	// CPU configures the core model.
	CPU cpu.Config
	// InstructionsPerCore is the measured instruction budget per core.
	InstructionsPerCore uint64
	// WarmupRefs is the number of references per core used to warm cache
	// contents (zero-time) before measurement begins.
	WarmupRefs uint64

	// Scale divides all capacities and footprints: 64 means the paper's
	// 256 MB cache is simulated as a 4 MB cache against footprints scaled
	// by the same factor, preserving every capacity ratio while keeping
	// runs laptop-fast. Scale 1 reproduces full paper scale.
	Scale uint64
	// DRAMCacheBytes is the paper-scale DRAM cache size (256 MB default).
	DRAMCacheBytes uint64
	// L3Bytes is the paper-scale L3 capacity (8 MB).
	L3Bytes uint64
	// L3Assoc is the L3 associativity (16).
	L3Assoc int
	// L3Latency is the L3 access latency in cycles (24).
	L3Latency sim.Cycle
	// L3Policy names the L3 replacement policy; empty selects
	// DefaultL3Policy. Any policy.New name is accepted ("lru", "random",
	// "bip", "dip", "nru", "srrip", "brrip", "ship").
	L3Policy string

	// L2Bytes, when non-zero, inserts a private per-core L2 of that
	// paper-scale capacity (scaled like everything else) between the
	// cores and the shared L3. The trace references are then interpreted
	// as L1 misses instead of L2 misses. The paper's detailed hierarchy
	// has private L2s; the default model folds them into the trace.
	L2Bytes uint64
	// L2Assoc is the private L2 associativity (default 8).
	L2Assoc int
	// L2Latency is the L2 hit latency in cycles (default 12).
	L2Latency sim.Cycle

	Design    Design
	Predictor PredictorKind

	// DCPolicy optionally overrides the DRAM cache's replacement policy
	// (any policy.Known name). Only policy-capable designs accept it
	// ("lh-29", "gemini"); others reject a non-empty value at NewSystem.
	// The design×policy cross-product derives a stable per-cell seed for
	// stochastic policies, so cross-producted runs stay deterministic
	// without sharing one eviction sequence.
	DCPolicy string

	// OffChip and Stacked override DRAM timing; zero values use the
	// paper's Table 2 parameters.
	OffChip dram.Config
	Stacked dram.Config

	// WriteBufferEntries bounds in-flight writes below the L3 (memory
	// controller write buffer; store-buffer backpressure when full).
	// Zero selects DefaultWriteBufferEntries.
	WriteBufferEntries int

	// GapScale multiplies the workload's mean instruction gap, scaling
	// memory intensity down for calibration studies. Zero means 1.
	GapScale uint32

	// Seed perturbs the workload generators.
	Seed uint64
	// TrackFootprint enables unique-line counting (Table 3); costs memory.
	TrackFootprint bool

	// Generators, when non-nil, overrides the profile-built reference
	// streams with caller-provided ones (e.g. trace.Replay of captured
	// trace files). Must contain exactly Cores entries. Workload is then
	// used only as a label and need not name a known profile.
	Generators []trace.Generator
}

// The values NewSystem gives a zero Config.WriteBufferEntries and an
// empty Config.L3Policy.
const (
	DefaultWriteBufferEntries = 64
	DefaultL3Policy           = "dip" // the paper's LRU-based DIP
)

// DefaultConfig returns the paper's system configuration for a workload at
// 1/64 scale: 8 cores, 8 MB L3 (scaled), 256 MB DRAM cache (scaled),
// Table 2 DRAM timings, 2 M instructions per core after warmup.
func DefaultConfig(workload string) Config {
	return Config{
		Workload:            workload,
		Cores:               8,
		CPU:                 cpu.DefaultConfig(),
		InstructionsPerCore: 2_000_000,
		WarmupRefs:          60_000,
		Scale:               64,
		DRAMCacheBytes:      256 << 20,
		L3Bytes:             8 << 20,
		L3Assoc:             16,
		L3Latency:           24,
		Design:              DesignAlloy,
		Predictor:           PredDefault,
		OffChip:             dram.OffChipConfig(),
		Stacked:             dram.StackedConfig(),
		Seed:                1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Generators == nil {
		if _, ok := trace.ByName(c.Workload); !ok {
			return fmt.Errorf("core: unknown workload %q", c.Workload)
		}
	} else if len(c.Generators) != c.Cores {
		return fmt.Errorf("core: %d generators provided for %d cores", len(c.Generators), c.Cores)
	}
	if c.Cores <= 0 {
		return fmt.Errorf("core: Cores must be positive, got %d", c.Cores)
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if c.InstructionsPerCore == 0 {
		return fmt.Errorf("core: InstructionsPerCore must be positive")
	}
	if c.Scale == 0 {
		return fmt.Errorf("core: Scale must be positive")
	}
	if c.L3Assoc <= 0 {
		// Zero associativity previously slipped past the capacity check
		// (its threshold degenerates to zero) and divided by zero in
		// NewSystem's set-count computation.
		return fmt.Errorf("core: L3Assoc must be positive, got %d", c.L3Assoc)
	}
	if c.Design != DesignNone {
		if c.DRAMCacheBytes/c.Scale < uint64(c.Stacked.RowBytes) {
			return fmt.Errorf("core: scaled DRAM cache (%d B) smaller than one row", c.DRAMCacheBytes/c.Scale)
		}
	}
	if c.L3Bytes/c.Scale < 64*uint64(c.L3Assoc) {
		return fmt.Errorf("core: scaled L3 too small")
	}
	if c.L2Bytes > 0 {
		assoc := c.L2Assoc
		if assoc <= 0 {
			assoc = 8
		}
		if c.L2Bytes/c.Scale < 64*uint64(assoc) {
			return fmt.Errorf("core: scaled L2 too small")
		}
	}
	switch c.Predictor {
	case PredDefault, PredSAM, PredPAM, PredMAPG, PredMAPI, PredPerfect, PredMissMap:
	default:
		return fmt.Errorf("core: unknown predictor %q", c.Predictor)
	}
	return nil
}

// ScaledCacheBytes returns the simulated DRAM cache capacity.
func (c Config) ScaledCacheBytes() uint64 { return c.DRAMCacheBytes / c.Scale }

// ScaledL3Bytes returns the simulated L3 capacity.
func (c Config) ScaledL3Bytes() uint64 { return c.L3Bytes / c.Scale }

// resolvePredictor returns the effective predictor kind after applying the
// per-design default pairing.
func (c Config) resolvePredictor() PredictorKind {
	if c.Predictor != PredDefault {
		return c.Predictor
	}
	return DefaultPredictor(c.Design)
}

// DefaultPredictor returns the predictor PredDefault selects for a design.
func DefaultPredictor(d Design) PredictorKind {
	switch d {
	case DesignNone, DesignSRAMTag32, DesignSRAMTag1:
		return PredSAM
	case DesignLH, DesignLHRand, DesignLH1:
		return PredMissMap
	case DesignIdealLO, DesignIdealLONoTag:
		return PredPerfect
	case DesignBanshee:
		// Banshee's tags live in the page-table path: an authoritative
		// on-chip structure whose serialization cost the MissMap models.
		return PredMissMap
	default:
		return PredMAPI
	}
}

// buildOrganization constructs the configured DRAM-cache design through
// the dramcache registry, threading the optional replacement-policy
// override and its per-(design, policy) seed.
func buildOrganization(d Design, capacity uint64, stacked *dram.DRAM, policy string) (dramcache.Organization, error) {
	if d == DesignNone {
		if policy != "" {
			return nil, fmt.Errorf("core: DCPolicy %q set without a DRAM cache", policy)
		}
		return nil, nil
	}
	org, err := dramcache.Build(string(d), dramcache.Params{
		CapacityBytes: capacity,
		Stacked:       stacked,
		Policy:        policy,
		Seed:          dramcache.SeedFor(string(d), policy),
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return org, nil
}

// buildPredictor constructs the predictor, given the organization for the
// oracle variants.
func buildPredictor(kind PredictorKind, cores int, org dramcache.Organization) (predictor.Predictor, error) {
	switch kind {
	case PredSAM:
		return predictor.SAM{}, nil
	case PredPAM:
		return predictor.PAM{}, nil
	case PredMAPG:
		return predictor.NewMAPG(cores), nil
	case PredMAPI:
		return predictor.NewMAPI(cores), nil
	case PredPerfect:
		if org == nil {
			return nil, fmt.Errorf("core: perfect predictor requires a DRAM cache")
		}
		return predictor.Perfect{Contains: org.Contains}, nil
	case PredMissMap:
		if org == nil {
			return nil, fmt.Errorf("core: MissMap requires a DRAM cache")
		}
		return predictor.MissMap{Contains: org.Contains}, nil
	}
	return nil, fmt.Errorf("core: unknown predictor %q", kind)
}

// authoritative reports whether the predictor has perfect contents
// knowledge, so a predicted miss needs no tag-check confirmation.
func authoritative(kind PredictorKind) bool {
	return kind == PredPerfect || kind == PredMissMap
}
