package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"alloysim/internal/sim"
	"alloysim/internal/trace"
)

// smallConfig returns a fast configuration for tests.
func smallConfig(workload string, d Design) Config {
	cfg := DefaultConfig(workload)
	cfg.Design = d
	cfg.InstructionsPerCore = 150_000
	cfg.WarmupRefs = 8_000
	cfg.GapScale = 2
	return cfg
}

func runOne(t *testing.T, cfg Config) Result {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Workload = "nope" },
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.InstructionsPerCore = 0 },
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.Predictor = "psychic" },
		func(c *Config) { c.DRAMCacheBytes = 1024 },
		func(c *Config) { c.CPU.MLP = 0 },
		func(c *Config) { c.L3Assoc = 0 },
		func(c *Config) { c.L3Assoc = -4 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig("mcf_r")
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := DefaultConfig("mcf_r").Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestScaledSizes(t *testing.T) {
	cfg := DefaultConfig("mcf_r")
	if cfg.ScaledCacheBytes() != (256<<20)/64 {
		t.Fatalf("scaled cache = %d", cfg.ScaledCacheBytes())
	}
	if cfg.ScaledL3Bytes() != (8<<20)/64 {
		t.Fatalf("scaled L3 = %d", cfg.ScaledL3Bytes())
	}
}

func TestDefaultPredictorPairings(t *testing.T) {
	cases := []struct {
		d    Design
		want PredictorKind
	}{
		{DesignNone, PredSAM},
		{DesignSRAMTag32, PredSAM},
		{DesignLH, PredMissMap},
		{DesignLH1, PredMissMap},
		{DesignAlloy, PredMAPI},
		{DesignAlloy2, PredMAPI},
		{DesignIdealLO, PredPerfect},
		{DesignIdealLONoTag, PredPerfect},
	}
	for _, tc := range cases {
		d, want := tc.d, tc.want
		cfg := DefaultConfig("mcf_r")
		cfg.Design = d
		if got := cfg.resolvePredictor(); got != want {
			t.Errorf("design %s: default predictor %s, want %s", d, got, want)
		}
	}
	cfg := DefaultConfig("mcf_r")
	cfg.Predictor = PredPAM
	if cfg.resolvePredictor() != PredPAM {
		t.Error("explicit predictor not honored")
	}
}

func TestAllDesignsBuildAndRun(t *testing.T) {
	for _, d := range Designs() {
		cfg := smallConfig("sphinx_r", d)
		cfg.InstructionsPerCore = 40_000
		cfg.WarmupRefs = 2_000
		r := runOne(t, cfg)
		if r.ExecCycles <= 0 {
			t.Errorf("design %s: no execution time", d)
		}
		if r.Instructions < cfg.InstructionsPerCore*uint64(cfg.Cores) {
			t.Errorf("design %s: retired %d < budget", d, r.Instructions)
		}
	}
}

func TestRunTwiceFails(t *testing.T) {
	cfg := smallConfig("sphinx_r", DesignNone)
	cfg.InstructionsPerCore = 10_000
	cfg.WarmupRefs = 100
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

// countdownCtx cancels itself after its Err method has been consulted a
// fixed number of times: a deterministic way to land a cancellation at an
// exact point in RunContext's polling sequence (the simulation itself is
// single-threaded, so no synchronization is needed).
type countdownCtx struct {
	context.Context
	calls, limit int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSystem(smallConfig("sphinx_r", DesignNone))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context returned %v, want Canceled", err)
	}
}

func TestRunContextExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	s, err := NewSystem(smallConfig("sphinx_r", DesignNone))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline returned %v, want DeadlineExceeded", err)
	}
}

// TestRunContextCancelsDuringWarmup and ...DuringMeasuredPhase pin the two
// polling points: the warmup loop and the between-quanta engine check.
func TestRunContextCancelsDuringWarmup(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Call 1 is the pre-run check; call 2 is the first warmup check.
	ctx := &countdownCtx{Context: context.Background(), limit: 1}
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("warmup cancellation returned %v, want Canceled", err)
	}
}

func TestRunContextCancelsDuringMeasuredPhase(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	cfg.WarmupRefs = 0 // no warmup checks: the next poll is the quantum loop
	cfg.InstructionsPerCore = 500_000
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countdownCtx{Context: context.Background(), limit: 1}
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("measured-phase cancellation returned %v, want Canceled", err)
	}
	if ctx.calls < 2 {
		t.Fatalf("engine loop never polled the context (calls=%d)", ctx.calls)
	}
}

// TestRunContextMatchesRun guards determinism: chunking the engine into
// cancellation quanta must not change the event order.
func TestRunContextMatchesRun(t *testing.T) {
	a := runOne(t, smallConfig("omnetpp_r", DesignAlloy))
	s, err := NewSystem(smallConfig("omnetpp_r", DesignAlloy))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecCycles != b.ExecCycles || a.DCHitRate != b.DCHitRate {
		t.Fatalf("RunContext diverged from Run: exec %v vs %v, hit %v vs %v",
			b.ExecCycles, a.ExecCycles, b.DCHitRate, a.DCHitRate)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runOne(t, smallConfig("omnetpp_r", DesignAlloy))
	b := runOne(t, smallConfig("omnetpp_r", DesignAlloy))
	if a.ExecCycles != b.ExecCycles {
		t.Fatalf("nondeterministic exec: %v vs %v", a.ExecCycles, b.ExecCycles)
	}
	if a.DCHitRate != b.DCHitRate {
		t.Fatalf("nondeterministic hit rate: %v vs %v", a.DCHitRate, b.DCHitRate)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := smallConfig("omnetpp_r", DesignAlloy)
	a := runOne(t, cfg)
	cfg.Seed = 99
	b := runOne(t, cfg)
	if a.ExecCycles == b.ExecCycles {
		t.Fatal("different seeds produced identical execution time")
	}
}

func TestDRAMCacheImprovesMemoryIntensiveWorkload(t *testing.T) {
	base := runOne(t, smallConfig("omnetpp_r", DesignNone))
	alloy := runOne(t, smallConfig("omnetpp_r", DesignAlloy))
	if s := alloy.SpeedupOver(base); s < 1.1 {
		t.Fatalf("Alloy speedup %v on omnetpp, want > 1.1", s)
	}
}

func TestAlloyOutperformsLH(t *testing.T) {
	// The paper's central result, on a cache-friendly workload.
	base := runOne(t, smallConfig("omnetpp_r", DesignNone))
	lh := runOne(t, smallConfig("omnetpp_r", DesignLH))
	alloy := runOne(t, smallConfig("omnetpp_r", DesignAlloy))
	if alloy.SpeedupOver(base) <= lh.SpeedupOver(base) {
		t.Fatalf("Alloy (%.3f) did not beat LH-Cache (%.3f)",
			alloy.SpeedupOver(base), lh.SpeedupOver(base))
	}
}

func TestHitLatencyOrdering(t *testing.T) {
	// Figure 10's ordering: Alloy < SRAM-Tag < LH-Cache hit latency.
	alloy := runOne(t, smallConfig("omnetpp_r", DesignAlloy))
	sram := runOne(t, smallConfig("omnetpp_r", DesignSRAMTag32))
	lh := runOne(t, smallConfig("omnetpp_r", DesignLH))
	if !(alloy.HitLatency < sram.HitLatency && sram.HitLatency < lh.HitLatency) {
		t.Fatalf("hit latency ordering broken: alloy %.0f, sram %.0f, lh %.0f",
			alloy.HitLatency, sram.HitLatency, lh.HitLatency)
	}
}

func TestAssociativityHitRateOrdering(t *testing.T) {
	// Table 6: the 29-way LH-Cache has a higher hit rate than the
	// direct-mapped Alloy Cache.
	lh := runOne(t, smallConfig("omnetpp_r", DesignLH))
	alloy := runOne(t, smallConfig("omnetpp_r", DesignAlloy))
	if lh.DCReadHitRate <= alloy.DCReadHitRate {
		t.Fatalf("29-way hit rate %.3f not above direct-mapped %.3f",
			lh.DCReadHitRate, alloy.DCReadHitRate)
	}
}

func TestPerfectPredictorBeatsSAM(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	cfg.Predictor = PredSAM
	sam := runOne(t, cfg)
	cfg.Predictor = PredPerfect
	perfect := runOne(t, cfg)
	if perfect.ExecCycles >= sam.ExecCycles {
		t.Fatalf("perfect prediction (%v) not faster than SAM (%v)",
			perfect.ExecCycles, sam.ExecCycles)
	}
	if perfect.Accuracy.Overall() != 1.0 {
		t.Fatalf("perfect predictor accuracy %v, want 1", perfect.Accuracy.Overall())
	}
}

func TestPAMDoublesMemoryTraffic(t *testing.T) {
	// Table 5: PAM sends every L3 miss to memory, so reads that would be
	// cache hits become wasted memory accesses.
	cfg := smallConfig("sphinx_r", DesignAlloy) // high hit rate: much waste
	cfg.Predictor = PredPAM
	pam := runOne(t, cfg)
	cfg.Predictor = PredSAM
	sam := runOne(t, cfg)
	if pam.WastedMemReads == 0 {
		t.Fatal("PAM produced no wasted memory reads")
	}
	if pam.MemReads <= sam.MemReads {
		t.Fatalf("PAM memory reads %d not above SAM %d", pam.MemReads, sam.MemReads)
	}
}

func TestMAPIAccuracyAboveMajority(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	cfg.Predictor = PredMAPI
	r := runOne(t, cfg)
	// Majority-class prediction would score max(hit, 1-hit); MAP-I must
	// comfortably beat a coin flip and roughly match or beat majority.
	if r.Accuracy.Overall() < 0.75 {
		t.Fatalf("MAP-I accuracy %.2f, want >= 0.75", r.Accuracy.Overall())
	}
}

func TestAlloyRowBufferLocality(t *testing.T) {
	// §2.7: direct-mapped organizations see real row-buffer hit rates; a
	// streaming workload must show them clearly.
	cfg := smallConfig("libquantum_r", DesignAlloy)
	r := runOne(t, cfg)
	if r.RowBufferHitRate < 0.3 {
		t.Fatalf("Alloy row-buffer hit rate %.2f on libquantum, want > 0.3", r.RowBufferHitRate)
	}
	lh := runOne(t, smallConfig("libquantum_r", DesignLH))
	if lh.RowBufferHitRate > r.RowBufferHitRate {
		t.Fatal("LH-Cache should not have more row locality than Alloy")
	}
}

func TestFootprintTracking(t *testing.T) {
	cfg := smallConfig("sphinx_r", DesignNone)
	cfg.TrackFootprint = true
	cfg.InstructionsPerCore = 50_000
	r := runOne(t, cfg)
	if r.FootprintBytes == 0 {
		t.Fatal("footprint tracking produced nothing")
	}
	// sphinx's scaled footprint: 10 MB/copy / 64 * 8 copies = 1.25 MB cap.
	if r.FootprintBytes > 4<<20 {
		t.Fatalf("footprint %d larger than the workload's regions", r.FootprintBytes)
	}
}

func TestMPKIReported(t *testing.T) {
	r := runOne(t, smallConfig("mcf_r", DesignNone))
	if r.MPKI <= 0 || r.MPKI > 100 {
		t.Fatalf("MPKI = %v, want in (0, 100)", r.MPKI)
	}
}

func TestResultString(t *testing.T) {
	r := runOne(t, smallConfig("sphinx_r", DesignAlloy))
	s := r.String()
	if !strings.Contains(s, "sphinx_r") || !strings.Contains(s, "alloy") {
		t.Fatalf("result string missing fields: %s", s)
	}
	if r.IPC() <= 0 {
		t.Fatal("IPC not positive")
	}
}

func TestBaselineHasNoDRAMCacheStats(t *testing.T) {
	r := runOne(t, smallConfig("mcf_r", DesignNone))
	if r.DCHitRate != 0 || r.HitLatency != 0 {
		t.Fatalf("baseline reports DRAM-cache stats: %+v", r)
	}
	if r.MemReads == 0 {
		t.Fatal("baseline made no memory reads")
	}
}

func TestCacheSizeImprovesHitRate(t *testing.T) {
	// Figure 9 / Table 6 direction: bigger cache, better hit rate.
	small := smallConfig("mcf_r", DesignAlloy)
	small.DRAMCacheBytes = 64 << 20
	big := smallConfig("mcf_r", DesignAlloy)
	big.DRAMCacheBytes = 1024 << 20
	rs := runOne(t, small)
	rb := runOne(t, big)
	if rb.DCReadHitRate <= rs.DCReadHitRate {
		t.Fatalf("1GB hit rate %.3f not above 64MB %.3f", rb.DCReadHitRate, rs.DCReadHitRate)
	}
}

func TestGapScaleLowersMPKI(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignNone)
	cfg.GapScale = 1
	dense := runOne(t, cfg)
	cfg.GapScale = 4
	sparse := runOne(t, cfg)
	if sparse.MPKI >= dense.MPKI {
		t.Fatalf("GapScale 4 MPKI %.1f not below GapScale 1 %.1f", sparse.MPKI, dense.MPKI)
	}
}

func TestWriteBufferBoundsInFlightWrites(t *testing.T) {
	cfg := smallConfig("lbm_r", DesignAlloy) // write-heavy
	cfg.WriteBufferEntries = 4
	r := runOne(t, cfg)
	cfg.WriteBufferEntries = 256
	r2 := runOne(t, cfg)
	// A tiny write buffer must not deadlock, and more buffering should
	// not hurt.
	if r.ExecCycles <= 0 || r2.ExecCycles <= 0 {
		t.Fatal("runs did not complete")
	}
	if r2.ExecCycles > r.ExecCycles*1.05 {
		t.Fatalf("bigger write buffer slower: %v vs %v", r2.ExecCycles, r.ExecCycles)
	}
}

// TestAdmitWriteMatchesScan drives the System's write buffer and a scan
// of a plain slice, which retires every write done by the admission time
// and waits for the oldest of a full buffer, with one random stream of
// admissions and writes, at capacities 1, 4 and the default, including
// admissions earlier than the last and writes to a full buffer. Every
// (issueAt, stall) must match.
func TestAdmitWriteMatchesScan(t *testing.T) {
	for _, entries := range []int{1, 4, 0} {
		cfg := smallConfig("lbm_r", DesignAlloy)
		cfg.WriteBufferEntries = entries
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var scan []sim.Cycle
		x, now := uint64(entries)+1, sim.Cycle(100)
		for i := 0; i < 200_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			now += sim.Ticks(int(x % 16))
			t0 := now - sim.Ticks(int(x>>8%8)) // a little out of order
			live := scan[:0]
			for _, c := range scan {
				if c > t0 {
					live = append(live, c)
				}
			}
			scan = live
			wantIssue, wantStall := t0, sim.Cycle(0)
			if len(scan) >= s.writeBufCap {
				wantIssue = slices.Min(scan)
				wantStall = wantIssue
			}
			if issueAt, stall := s.admitWrite(t0); issueAt != wantIssue || stall != wantStall {
				t.Fatalf("entries %d, call %d at %d: (%d, %d), scan (%d, %d)", entries, i, t0, issueAt, stall, wantIssue, wantStall)
			}
			done := wantIssue + sim.Ticks(int(x>>16%400))
			s.noteWrite(done)
			scan = append(scan, done)
		}
	}
}

func TestIdealLONoTagCapacityAdvantage(t *testing.T) {
	with := runOne(t, smallConfig("mcf_r", DesignIdealLO))
	without := runOne(t, smallConfig("mcf_r", DesignIdealLONoTag))
	if without.DCReadHitRate < with.DCReadHitRate {
		t.Fatalf("NoTagOverhead hit rate %.3f below tagged %.3f",
			without.DCReadHitRate, with.DCReadHitRate)
	}
}

func TestGeneratorOverrideValidation(t *testing.T) {
	cfg := smallConfig("sphinx_r", DesignAlloy)
	prof, _ := trace.ByName("sphinx_r")
	cfg.Generators = []trace.Generator{prof.MustBuild(1, 64, 0)} // wrong count
	if err := cfg.Validate(); err == nil {
		t.Fatal("generator count mismatch accepted")
	}
	// Correct count with an arbitrary label works even for unknown names.
	cfg.Workload = "captured-trace"
	cfg.Generators = nil
	for i := 0; i < cfg.Cores; i++ {
		cfg.Generators = append(cfg.Generators, prof.MustBuild(uint64(i+1), 64, 0))
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid generator override rejected: %v", err)
	}
	r := runOne(t, cfg)
	if r.Workload != "captured-trace" {
		t.Fatalf("workload label lost: %q", r.Workload)
	}
}

func TestL3PolicyKnob(t *testing.T) {
	cfg := smallConfig("gcc_r", DesignNone)
	cfg.L3Policy = "srrip"
	r := runOne(t, cfg)
	if r.L3.Accesses() == 0 {
		t.Fatal("no L3 activity")
	}
	cfg.L3Policy = "bogus"
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("bogus L3 policy accepted")
	}
}

func TestPrivateL2FiltersL3Traffic(t *testing.T) {
	without := smallConfig("sphinx_r", DesignAlloy)
	with := without
	with.L2Bytes = 256 << 10 << 6 // 256 KB per core at paper scale (x64 for /Scale)
	a := runOne(t, without)
	b := runOne(t, with)
	if b.L3.Accesses() >= a.L3.Accesses() {
		t.Fatalf("private L2s did not filter L3 traffic: %d vs %d",
			b.L3.Accesses(), a.L3.Accesses())
	}
	if b.ExecCycles >= a.ExecCycles {
		t.Fatalf("private L2s did not help: %v vs %v", b.ExecCycles, a.ExecCycles)
	}
}

func TestL2ValidationRejectsTiny(t *testing.T) {
	cfg := smallConfig("sphinx_r", DesignAlloy)
	cfg.L2Bytes = 1024 // far below one scaled set
	if err := cfg.Validate(); err == nil {
		t.Fatal("tiny L2 accepted")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	cfg.Predictor = PredMAPG
	cfg.DRAMCacheBytes = 512 << 20
	cfg.L2Bytes = 16 << 20
	cfg.Stacked.Channels = 8

	var buf strings.Builder
	if err := SaveConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Generators = nil
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", cfg) {
		t.Fatalf("round trip changed config:\n got %+v\nwant %+v", got, cfg)
	}
	// The loaded config must actually run.
	got.InstructionsPerCore = 20_000
	got.WarmupRefs = 1_000
	runOne(t, got)
}

func TestLoadConfigRejectsInvalid(t *testing.T) {
	if _, err := LoadConfig(strings.NewReader(`{"Workload":"nope"}`)); err == nil {
		t.Fatal("invalid workload accepted")
	}
	if _, err := LoadConfig(strings.NewReader(`{"Bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := LoadConfig(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	// A -saveconfig file written while Config still had the sharded
	// front-end's worker-count field: otherwise valid, but strict decoding
	// must reject the removed key rather than silently drop it.
	_, err := LoadConfigFile("testdata/saveconfig-with-shards.json")
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("config with a removed field: got %v, want an unknown-field error", err)
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/cfg.json"
	cfg := smallConfig("gcc_r", DesignLH)
	if err := SaveConfigFile(path, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "gcc_r" || got.Design != DesignLH {
		t.Fatalf("loaded %+v", got)
	}
	if _, err := LoadConfigFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestNewSystemRejectsZeroL3Assoc(t *testing.T) {
	// Regression: L3Assoc=0 used to slip past Validate (its capacity
	// threshold degenerates to zero) and panic with a divide-by-zero in
	// the set-count computation.
	cfg := DefaultConfig("mcf_r")
	cfg.L3Assoc = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("L3Assoc=0 accepted")
	}
}

func TestNewSystemRejectsTruncatedL3Sets(t *testing.T) {
	// A paper-scale capacity beyond MaxInt64 wraps negative through the
	// int conversion; the guard must name the offending parameters
	// instead of letting cache construction fail obscurely.
	cfg := DefaultConfig("mcf_r")
	cfg.Scale = 1
	cfg.L3Bytes = 1 << 63
	cfg.DRAMCacheBytes = 256 << 20
	_, err := NewSystem(cfg)
	if err == nil {
		t.Fatal("truncated L3 set count accepted")
	}
	if !strings.Contains(err.Error(), "L3 sets") {
		t.Fatalf("error does not identify the set-count problem: %v", err)
	}
}

func TestNewSystemRejectsGapScaleOverflow(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	cfg.GapScale = ^uint32(0) // mcf gap mean 14 x 2^32-1 wraps uint32
	_, err := NewSystem(cfg)
	if err == nil {
		t.Fatal("overflowing GapScale accepted")
	}
	if !strings.Contains(err.Error(), "GapScale") {
		t.Fatalf("error does not identify GapScale: %v", err)
	}
}

func TestResultBelowCounters(t *testing.T) {
	r := runOne(t, smallConfig("mcf_r", DesignAlloy))
	if r.BelowReads == 0 || r.BelowWrites == 0 {
		t.Fatalf("below-L3 counters empty: reads=%d writes=%d", r.BelowReads, r.BelowWrites)
	}
	// Every below-L3 read consults the predictor exactly once.
	if total := r.Accuracy.Total(); total != r.BelowReads {
		t.Fatalf("predictor saw %d reads, %d went below the L3", total, r.BelowReads)
	}
}
