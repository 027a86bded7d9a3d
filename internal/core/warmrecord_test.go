package core

import (
	"context"
	"errors"
	"testing"

	"alloysim/internal/invariants"
	"alloysim/internal/trace"
)

// quickConfig is a design's configuration at the experiments package's
// QuickParams budgets.
func quickConfig(workload string, d Design) Config {
	cfg := DefaultConfig(workload)
	cfg.Design = d
	cfg.InstructionsPerCore = 250_000
	cfg.WarmupRefs = 12_000
	cfg.GapScale = 2
	return cfg
}

// withGenerators gives cfg caller-provided streams: the same profile's
// generators, built outside the System.
func withGenerators(cfg *Config) {
	prof, _ := trace.ByName(cfg.Workload)
	cfg.Generators = nil
	for i := 0; i < cfg.Cores; i++ {
		cfg.Generators = append(cfg.Generators, prof.MustBuild(cfg.Seed+uint64(i)*0x9e37, cfg.Scale, 0))
	}
}

// recordRun runs cfg while recording its warmup front.
func recordRun(t *testing.T, cfg Config) (Result, *WarmRecord) {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &WarmRecord{}
	if err := s.RecordWarmup(rec); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Complete() {
		t.Fatal("record incomplete after a successful run")
	}
	return res, rec
}

// replayRun runs cfg warmed from rec.
func replayRun(t *testing.T, cfg Config, rec *WarmRecord) Result {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplayWarmup(rec); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWarmReplayMatchesDirect requires, for every design, that a System
// warmed from a record made by another design's run, a directly warmed
// System and a System recording its own front all produce the identical
// Result. lbm_r brings writes and dirty L3 victims. The variants add the
// private-L2 hit code and the other L3 policies whose state the record
// copies; they keep QuickParams warmup but measure a fifth of its
// instructions, which any difference in warm contents would still show.
func TestWarmReplayMatchesDirect(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(*Config) {}},
		{"l2", func(c *Config) { c.L2Bytes = 256 << 10 << 6; c.InstructionsPerCore /= 5 }},
		{"l3-srrip", func(c *Config) { c.L3Policy = "srrip"; c.InstructionsPerCore /= 5 }},
		{"l3-random", func(c *Config) { c.L3Policy = "random"; c.InstructionsPerCore /= 5 }},
	}
	for _, v := range variants {
		for _, wl := range []string{"mcf_r", "lbm_r"} {
			t.Run(v.name+"/"+wl, func(t *testing.T) {
				t.Parallel()
				cfg := func(d Design) Config {
					c := quickConfig(wl, d)
					v.mutate(&c)
					return c
				}
				_, shared := recordRun(t, cfg(DesignNone))
				if len(shared.victims) == 0 && wl == "lbm_r" && v.name == "default" {
					t.Fatal("lbm_r warmup recorded no dirty L3 victim")
				}
				for _, d := range Designs() {
					if invariants.Enabled && d == DesignGemini {
						// The same Gemini fill-region assertion that
						// TestBelowL3PathAllocationFree skips (ROADMAP).
						continue
					}
					direct := runOne(t, cfg(d))
					own, _ := recordRun(t, cfg(d))
					replayed := replayRun(t, cfg(d), shared)
					if own != direct {
						t.Errorf("%s: recording run %+v, direct %+v", d, own, direct)
					}
					if replayed != direct {
						t.Errorf("%s: replayed run %+v, direct %+v", d, replayed, direct)
					}
				}
			})
		}
	}
}

// TestWarmReplayRejectsOtherFronts replays a record into Systems whose
// warmup front differs from the recorder's; each must refuse it.
func TestWarmReplayRejectsOtherFronts(t *testing.T) {
	base := smallConfig("mcf_r", DesignAlloy)
	base.WarmupRefs = 500
	_, rec := recordRun(t, base)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"seed", func(c *Config) { c.Seed++ }},
		{"warmup", func(c *Config) { c.WarmupRefs++ }},
		{"l3-policy", func(c *Config) { c.L3Policy = "lru" }},
		{"l2", func(c *Config) { c.L2Bytes = 256 << 10 << 6 }},
		{"workload", func(c *Config) { c.Workload = "lbm_r" }},
		{"generators", withGenerators},
	} {
		cfg := base
		tc.mutate(&cfg)
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := s.ReplayWarmup(rec); err == nil {
			t.Errorf("%s: ReplayWarmup accepted a record of another front", tc.name)
		}
	}
	// A design, a cache size and a timing change leave the front alone.
	same := base
	same.Design, same.DRAMCacheBytes, same.L3Latency = DesignLH, 512<<20, 30
	s, err := NewSystem(same)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplayWarmup(rec); err != nil {
		t.Fatalf("same front refused: %v", err)
	}
	// Recording needs a key too, and an incomplete record cannot replay.
	gen := base
	withGenerators(&gen)
	if s, err = NewSystem(gen); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordWarmup(&WarmRecord{}); err == nil {
		t.Error("RecordWarmup accepted caller-provided generators")
	}
	if s, err = NewSystem(base); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplayWarmup(&WarmRecord{}); err == nil {
		t.Error("ReplayWarmup accepted an incomplete record")
	}
	if err := s.RecordWarmup(rec); err == nil {
		t.Error("RecordWarmup accepted a used record")
	}
}

// TestWarmReplayCancels lands a cancellation inside the replay loop.
func TestWarmReplayCancels(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	_, rec := recordRun(t, cfg)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplayWarmup(rec); err != nil {
		t.Fatal(err)
	}
	// Call 1 is the pre-run check; call 2 is the first replay check.
	ctx := &countdownCtx{Context: context.Background(), limit: 1}
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("replay cancellation returned %v, want Canceled", err)
	}
	if ctx.calls != 2 {
		t.Fatalf("context consulted %d times, want 2", ctx.calls)
	}
}

// BenchmarkWarm times one Fig 9 point's warmup (mcf_r at the experiments
// package's DefaultParams warmup) warmed directly and from a record.
func BenchmarkWarm(b *testing.B) {
	for _, d := range []Design{DesignAlloy, DesignLH} {
		cfg := DefaultConfig("mcf_r")
		cfg.Design = d
		cfg.InstructionsPerCore = 1_500_000
		cfg.WarmupRefs = 50_000
		cfg.GapScale = 2
		rs, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rec := &WarmRecord{}
		if err := rs.RecordWarmup(rec); err != nil {
			b.Fatal(err)
		}
		if err := rs.warm(context.Background()); err != nil {
			b.Fatal(err)
		}
		for _, mode := range []string{"direct", "replay"} {
			b.Run(string(d)+"/"+mode, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s, err := NewSystem(cfg)
					if err == nil && mode == "replay" {
						err = s.ReplayWarmup(rec)
					}
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := s.warm(context.Background()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
