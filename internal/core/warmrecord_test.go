package core

import (
	"context"
	"errors"
	"testing"

	"alloysim/internal/cpu"
	"alloysim/internal/invariants"
	"alloysim/internal/memaddr"
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

// contentsRun runs cfg replaying front and recording its warmed tag store.
func contentsRun(t *testing.T, cfg Config, front *WarmRecord) (Result, *ContentsRecord) {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &ContentsRecord{}
	if err := s.ReplayWarmup(front); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordContents(c); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !c.Complete() {
		t.Fatal("contents record incomplete after warmup")
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, c
}

// TestWarmCopyMatchesReplay requires a System warmed by copying another
// point's recorded tag store (CopyWarmup) to give the Result of the same
// System warmed by replaying the front record, for the designs that share
// Alloy's store (alloy-b8, ideal-lo, tdram), for sram-1's store in
// ideal-lo-notag, and for predictor and MLP variants of one design. lbm_r
// brings dirty L3 victims, so the copied stores hold written lines.
func TestWarmCopyMatchesReplay(t *testing.T) {
	variant := func(d Design, pk PredictorKind, mlp int) func(string) Config {
		return func(wl string) Config {
			c := quickConfig(wl, d)
			c.Predictor = pk
			if mlp != 0 {
				c.CPU.MLP = mlp
			}
			c.InstructionsPerCore /= 5
			return c
		}
	}
	for _, wl := range []string{"mcf_r", "lbm_r"} {
		_, front := recordRun(t, variant(DesignNone, PredDefault, 0)(wl))
		for _, tc := range []struct {
			producer  Design
			consumers []func(string) Config
		}{
			{DesignAlloy, []func(string) Config{
				variant(DesignAlloyBurst8, PredDefault, 0),
				variant(DesignIdealLO, PredDefault, 0),
				variant(DesignTDRAM, PredDefault, 0),
				variant(DesignAlloy, PredSAM, 0),
				variant(DesignAlloy, PredDefault, 4),
			}},
			{DesignSRAMTag1, []func(string) Config{
				variant(DesignIdealLONoTag, PredDefault, 0),
				variant(DesignSRAMTag1, PredPAM, 0),
			}},
		} {
			own, c := contentsRun(t, variant(tc.producer, PredDefault, 0)(wl), front)
			if want := replayRun(t, variant(tc.producer, PredDefault, 0)(wl), front); own != want {
				t.Errorf("%s %s: recording contents changed the run: %+v, replayed %+v", wl, tc.producer, own, want)
			}
			for _, consumer := range tc.consumers {
				cfg := consumer(wl)
				s, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.CopyWarmup(c); err != nil {
					t.Fatalf("%s %s/%s: %v", wl, cfg.Design, cfg.Predictor, err)
				}
				copied, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if want := replayRun(t, cfg, front); copied != want {
					t.Errorf("%s %s/%s mlp %d: copied %+v, replayed %+v", wl, cfg.Design, cfg.Predictor, cfg.CPU.MLP, copied, want)
				}
			}
		}
	}
}

// TestContentsKeys checks which designs get a contents key and which
// Systems a contents record refuses: another tag-store geometry, another
// front, and a design with state beside its store.
func TestContentsKeys(t *testing.T) {
	base := smallConfig("mcf_r", DesignAlloy)
	base.WarmupRefs = 500
	for _, d := range Designs() {
		cfg := base
		cfg.Design = d
		f, k, err := Keys(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := s.FrontKey(); got != f {
			t.Errorf("%s: Keys front %+v, System front %+v", d, f, got)
		}
		if none := k == (ContentsKey{}); none != (d == DesignNone || d == DesignBanshee || d == DesignGemini) {
			t.Errorf("%s: contents key %+v", d, k)
		}
		if k != (ContentsKey{}) && k.front != f {
			t.Errorf("%s: contents key front %+v, front key %+v", d, k.front, f)
		}
	}
	_, front := recordRun(t, smallConfig("mcf_r", DesignNone))
	_, c := contentsRun(t, smallConfig("mcf_r", DesignAlloy), front)
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"lh-29", func(c *Config) { c.Design = DesignLH }},
		{"size", func(c *Config) { c.DRAMCacheBytes *= 2 }},
		{"notag", func(c *Config) { c.Design = DesignIdealLONoTag }},
		{"banshee", func(c *Config) { c.Design = DesignBanshee }},
		{"seed", func(c *Config) { c.Seed++ }},
	} {
		cfg := smallConfig("mcf_r", DesignAlloy)
		tc.mutate(&cfg)
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CopyWarmup(c); err == nil {
			t.Errorf("%s: CopyWarmup accepted another contents key", tc.name)
		}
	}
	s, err := NewSystem(smallConfig("mcf_r", DesignGemini))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordContents(&ContentsRecord{}); err == nil {
		t.Error("RecordContents accepted gemini")
	}
	if err := s.CopyWarmup(&ContentsRecord{}); err == nil {
		t.Error("CopyWarmup accepted an incomplete record")
	}
	// A direct warmup hands on no front, so its contents record stays
	// incomplete.
	if s, err = NewSystem(smallConfig("mcf_r", DesignAlloy)); err != nil {
		t.Fatal(err)
	}
	direct := &ContentsRecord{}
	if err := s.RecordContents(direct); err != nil {
		t.Fatal(err)
	}
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	if direct.Complete() {
		t.Error("a direct warmup completed a contents record")
	}
	if err := s.Warm(context.Background()); err == nil {
		t.Error("a System warmed twice")
	}
}

// TestWarmReplayRestoresFront requires a replayed System's sources to
// continue exactly where a directly warmed System's do: the next 10k
// FrontRefs of every core, L2 outcomes included, are equal. Putting the
// front in place copies into the generators and caches NewSystem built,
// so it allocates nothing, and doing it again changes nothing.
func TestWarmReplayRestoresFront(t *testing.T) {
	for _, l2 := range []uint64{0, 256 << 10 << 6} {
		cfg := quickConfig("lbm_r", DesignAlloy)
		cfg.L2Bytes = l2
		_, rec := recordRun(t, cfg)
		warmed := func(rec *WarmRecord) *System {
			s, err := NewSystem(cfg)
			if err == nil && rec != nil {
				err = s.ReplayWarmup(rec)
			}
			if err == nil {
				err = s.warm(context.Background())
			}
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		direct, replayed := warmed(nil), warmed(rec)
		if n := testing.AllocsPerRun(10, replayed.restoreFront); n != 0 {
			t.Errorf("L2Bytes %d: restoreFront allocated %.0f times, want 0", l2, n)
		}
		for c := range direct.srcs {
			var a, b cpu.FrontRef
			for i := 0; i < 10_000; i++ {
				replayed.srcs[c].NextRef(&a)
				direct.srcs[c].NextRef(&b)
				if a != b {
					t.Fatalf("L2Bytes %d core %d ref %d: replayed %+v, direct %+v", l2, c, i, a, b)
				}
			}
		}
		if direct.l3.Stats() != replayed.l3.Stats() || direct.l3.Occupancy() != replayed.l3.Occupancy() {
			t.Fatalf("L2Bytes %d: L3 after the streams differs", l2)
		}
	}
}

// TestWarmRecordRefusesUncodableLines: put refuses, instead of coding a
// wrong line, a reference its header cannot describe (a core at or above
// warmCores, a delta of all eight bytes) or a line at or above 2^63,
// which has no gathered form, and it writes nothing for it; the
// references it takes decode to their lines, kinds and victims. A System
// that meets an uncodable line abandons its record and warms on directly.
func TestWarmRecordRefusesUncodableLines(t *testing.T) {
	rec := &WarmRecord{}
	top := memaddr.Line(1)<<(8*maxDeltaBytes-1) - 1 // the largest change 7 zigzag bytes hold
	type ref struct {
		core     int
		kind     uint8
		victim   memaddr.Line
		gathered memaddr.Line
	}
	kept := []ref{
		{0, warmRead, 0, top},
		{warmCores - 1, warmVictim, 77, 5},
		{0, warmWrite, 0, top - 3}, // a negative change
		{warmCores - 1, warmRead, 0, 5},
	}
	for i, r := range kept {
		if !rec.put(r.core, r.kind, r.victim, memaddr.PageScatter(r.gathered)) {
			t.Fatalf("put refused reference %d %+v", i, r)
		}
		refused := []ref{
			{warmCores, warmRead, 0, 0},
			{0, warmRead, 0, rec.prev[0] + top + 1}, // a change of 8 zigzag bytes
		}
		for _, u := range refused {
			if n, v := len(rec.refs), len(rec.victims); rec.put(u.core, u.kind, u.victim, memaddr.PageScatter(u.gathered)) || len(rec.refs) != n || len(rec.victims) != v {
				t.Fatalf("after reference %d, put took or wrote %+v", i, u)
			}
		}
		if rec.put(0, warmWrite, 0, maxGatherLine) {
			t.Fatal("put accepted a line at 2^63")
		}
	}
	refs := append(rec.refs, make([]byte, warmPad)...)
	var prev [warmCores]memaddr.Line
	pos, v := 0, 0
	for i, r := range kept {
		kind, g, next := decode(refs, pos, &prev)
		if kind == warmVictim {
			if rec.victims[v] != r.victim {
				t.Fatalf("reference %d: victim %d, want %d", i, rec.victims[v], r.victim)
			}
			v++
		}
		if kind != r.kind || g != r.gathered {
			t.Fatalf("reference %d decoded to kind %d line %#x, want %+v", i, kind, uint64(g), r)
		}
		pos = next
	}
	if pos != len(rec.refs) || v != len(rec.victims) {
		t.Fatalf("decoding read %d of %d bytes and %d of %d victims", pos, len(rec.refs), v, len(rec.victims))
	}

	run := func(record bool) (Result, *WarmRecord) {
		s, err := NewSystem(smallConfig("mcf_r", DesignAlloy))
		if err != nil {
			t.Fatal(err)
		}
		rec := &WarmRecord{}
		if record {
			if err := s.RecordWarmup(rec); err != nil {
				t.Fatal(err)
			}
		}
		s.srcs[1].gen = highLines{s.srcs[1].gen}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, rec
	}
	direct, _ := run(false)
	recorded, rec := run(true)
	if rec.Complete() {
		t.Fatal("a record that met an uncodable line completed")
	}
	if recorded != direct {
		t.Fatalf("abandoning the record changed the run: %+v, direct %+v", recorded, direct)
	}
}

// highLines moves every line of a stream to 2^63 and above.
type highLines struct{ trace.Generator }

func (h highLines) Next() trace.Ref {
	r := h.Generator.Next()
	r.Line |= maxGatherLine
	return r
}

// TestWarmRecordPastWarmCores: a System of one core more than a header
// can name has no keys, so RecordWarmup refuses it and leaves it as it
// was: it still runs to the Result a direct warmup gives.
func TestWarmRecordPastWarmCores(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignLH)
	cfg.Cores = warmCores + 1
	cfg.InstructionsPerCore /= 5
	if _, _, err := Keys(cfg); err == nil {
		t.Fatalf("Keys gave keys to a System of %d cores", cfg.Cores)
	}
	direct := runOne(t, cfg)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecordWarmup(&WarmRecord{}); err == nil {
		t.Fatalf("RecordWarmup accepted a System of %d cores", cfg.Cores)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != direct {
		t.Fatalf("the refused recording changed the run: %+v, direct %+v", got, direct)
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
// package's DefaultParams warmup) warmed directly, from a record and, for
// Alloy, by copying a recorded tag store, and reports the record's
// stream bytes per forwarded reference.
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
		rec, c := &WarmRecord{}, &ContentsRecord{}
		if err := rs.RecordWarmup(rec); err != nil {
			b.Fatal(err)
		}
		modes := []string{"direct", "replay"}
		if d == DesignAlloy {
			if err := rs.RecordContents(c); err != nil {
				b.Fatal(err)
			}
			modes = append(modes, "copy")
		}
		if err := rs.Warm(context.Background()); err != nil {
			b.Fatal(err)
		}
		for _, mode := range modes {
			b.Run(string(d)+"/"+mode, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s, err := NewSystem(cfg)
					switch {
					case err != nil:
					case mode == "replay":
						err = s.ReplayWarmup(rec)
					case mode == "copy":
						err = s.CopyWarmup(c)
					}
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := s.warm(context.Background()); err != nil {
						b.Fatal(err)
					}
				}
				if mode == "replay" {
					b.ReportMetric(rec.lineBytesPerForward(), "B/fwd")
				}
			})
		}
	}
}

// lineBytesPerForward is the size of the record's reference stream per
// forwarded reference, headers included.
func (r *WarmRecord) lineBytesPerForward() float64 {
	var prev [warmCores]memaddr.Line
	fwd, end := 0, len(r.refs)-warmPad
	for pos := 0; pos < end; fwd++ {
		_, _, pos = decode(r.refs, pos, &prev)
	}
	return float64(end) / float64(fwd)
}
