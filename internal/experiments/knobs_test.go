package experiments

import (
	"context"
	"strings"
	"testing"

	"alloysim/internal/core"
)

// knobParams are microParams with enough warmup and measured work for
// equality checks between runs to mean something.
func knobParams() Params {
	p := microParams()
	p.InstructionsPerCore = 20_000
	p.WarmupRefs = 2_000
	return p
}

// with returns pt changed by f.
func with(pt Point, f func(*Point)) Point {
	f(&pt)
	return pt
}

// TestNormalizeFoldsDefaults: every spelling of a default, the design's
// predictor pairing and the runner's seed included, folds to the zero
// spelling; the baseline drops the size, the stacked channels and the
// DRAM-cache policy; every other value is kept.
func TestNormalizeFoldsDefaults(t *testing.T) {
	r := NewRunner(microParams())
	alloy := Point{Workload: "mcf_r", Design: core.DesignAlloy, CacheMB: r.p.CacheMB}
	none := Point{Workload: "mcf_r", Design: core.DesignNone}
	design := func(d core.Design, pk core.PredictorKind) Point {
		return Point{Workload: "mcf_r", Design: d, Predictor: pk, CacheMB: r.p.CacheMB}
	}
	folds := []struct{ in, want Point }{
		{Point{Workload: "mcf_r", Design: core.DesignAlloy}, alloy},
		{with(alloy, func(p *Point) { p.Predictor = core.PredMAPI }), alloy},
		{design(core.DesignIdealLO, core.PredPerfect), design(core.DesignIdealLO, "")},
		{design(core.DesignLH, core.PredMissMap), design(core.DesignLH, "")},
		{design(core.DesignSRAMTag32, core.PredSAM), design(core.DesignSRAMTag32, "")},
		{design(core.DesignBanshee, core.PredMissMap), design(core.DesignBanshee, "")},
		{with(alloy, func(p *Point) { p.MLP = 2 }), alloy},
		{with(alloy, func(p *Point) { p.WriteBuffer = 64 }), alloy},
		{with(alloy, func(p *Point) { p.StackedChannels = 4 }), alloy},
		{with(alloy, func(p *Point) { p.L3Policy = "dip" }), alloy},
		{with(alloy, func(p *Point) { p.Seed = r.p.Seed }), alloy},
		{with(none, func(p *Point) { p.Predictor = core.PredSAM }), none},
		{with(none, func(p *Point) { p.CacheMB = 64 }), none},
		{with(none, func(p *Point) { p.StackedChannels = 2 }), none},
		{with(none, func(p *Point) { p.DCPolicy = "brrip" }), none},
	}
	for _, f := range folds {
		if got := r.normalize(f.in); got != f.want {
			t.Errorf("normalize(%s) = %s, want %s", f.in, got, f.want)
		}
	}
	keeps := []Point{
		with(alloy, func(p *Point) { p.Predictor = core.PredSAM }),
		design(core.DesignIdealLO, core.PredMAPI),
		with(alloy, func(p *Point) { p.MLP = 4 }),
		with(alloy, func(p *Point) { p.WriteBuffer = 8 }),
		with(alloy, func(p *Point) { p.StackedChannels = 2 }),
		with(alloy, func(p *Point) { p.L3Policy = "lru" }),
		with(design(core.DesignLH, ""), func(p *Point) { p.DCPolicy = "brrip" }),
		with(design(core.DesignLH, ""), func(p *Point) { p.DCPolicy = "dip" }),
		with(alloy, func(p *Point) { p.Seed = 3 }),
		with(none, func(p *Point) { p.MLP = 4 }),
		with(none, func(p *Point) { p.WriteBuffer = 8 }),
		with(none, func(p *Point) { p.L3Policy = "lru" }),
		with(none, func(p *Point) { p.Seed = 3 }),
	}
	for _, pt := range keeps {
		if got := r.normalize(pt); got != pt {
			t.Errorf("normalize(%s) = %s, want it kept", pt, got)
		}
	}
}

// TestNormalizeFoldsAreExact: a spelled-out default simulates exactly
// what its folded spelling does, so sharing one memo slot loses nothing.
// The baseline owns no stacked-DRAM traffic, so its channel count is
// unfelt.
func TestNormalizeFoldsAreExact(t *testing.T) {
	if testing.Short() {
		t.Skip("direct simulations in -short mode")
	}
	r := NewRunner(knobParams())
	alloy := Point{Workload: "mcf_r", Design: core.DesignAlloy}
	none := Point{Workload: "mcf_r", Design: core.DesignNone}
	spellings := []Point{
		with(alloy, func(p *Point) { p.Predictor = core.PredMAPI }),
		with(alloy, func(p *Point) { p.MLP = 2 }),
		with(alloy, func(p *Point) { p.WriteBuffer = 64 }),
		with(alloy, func(p *Point) { p.StackedChannels = 4 }),
		with(alloy, func(p *Point) { p.L3Policy = "dip" }),
		with(alloy, func(p *Point) { p.Seed = r.p.Seed }),
		{Workload: "mcf_r", Design: core.DesignIdealLO, Predictor: core.PredPerfect},
		with(none, func(p *Point) { p.StackedChannels = 1 }),
		with(none, func(p *Point) { p.StackedChannels = 2 }),
		with(none, func(p *Point) { p.StackedChannels = 8 }),
	}
	for _, pt := range spellings {
		if got, want := runConfig(t, r.p.Config(pt)), directRun(t, r, pt); got != want {
			t.Errorf("%s simulates %+v, its folded spelling %s %+v", pt, got, r.normalize(pt), want)
		}
	}
}

// TestKnobConfigs pins each knob to the core.Config field it sets: a
// runner result equals a direct run of the default config at the
// runner's scale with that one field changed by hand.
func TestKnobConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("direct simulations in -short mode")
	}
	p := knobParams()
	r := NewRunner(p)
	base := func(wl string, d core.Design) core.Config {
		cfg := core.DefaultConfig(wl)
		cfg.Design = d
		cfg.Scale = p.Scale
		cfg.InstructionsPerCore = p.InstructionsPerCore
		cfg.WarmupRefs = p.WarmupRefs
		cfg.Cores = p.Cores
		cfg.GapScale = p.GapScale
		cfg.Seed = p.Seed
		return cfg
	}
	alloy := Point{Workload: "lbm_r", Design: core.DesignAlloy}
	cases := []struct {
		pt     Point
		mutate func(*core.Config)
	}{
		{with(alloy, func(p *Point) { p.MLP = 4 }), func(c *core.Config) { c.CPU.MLP = 4 }},
		{with(alloy, func(p *Point) { p.WriteBuffer = 8 }), func(c *core.Config) { c.WriteBufferEntries = 8 }},
		{with(alloy, func(p *Point) { p.StackedChannels = 2 }), func(c *core.Config) { c.Stacked.Channels = 2 }},
		{with(alloy, func(p *Point) { p.L3Policy = "srrip" }), func(c *core.Config) { c.L3Policy = "srrip" }},
		{Point{Workload: "lbm_r", Design: core.DesignLH, Knobs: Knobs{DCPolicy: "brrip"}}, func(c *core.Config) { c.DCPolicy = "brrip" }},
		{with(alloy, func(p *Point) { p.Seed = 3 }), func(c *core.Config) { c.Seed = 3 }},
	}
	for _, c := range cases {
		got, err := r.run(context.Background(), c.pt)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base(c.pt.Workload, c.pt.Design)
		c.mutate(&cfg)
		if want := runConfig(t, cfg); got != want {
			t.Errorf("%s: runner result %+v, hand-set config %+v", c.pt, got, want)
		}
	}
	if m := r.Metrics(); m.PointsRun != uint64(len(cases)) || m.WarmReplays == 0 {
		t.Errorf("metrics %+v, want %d points run and some replayed", m, len(cases))
	}
}

// TestPredictorSpellingSimulatesOnce: Alloy under its default predictor
// and under an explicit MAP-I is one simulation.
func TestPredictorSpellingSimulatesOnce(t *testing.T) {
	r := NewRunner(microParams())
	a, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredMAPI, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := r.Metrics(); m.PointsRun != 1 || m.MemoHits != 1 {
		t.Fatalf("metrics %+v, want 1 point run and 1 memo hit", m)
	}
	if a != b || a.Predictor != core.PredMAPI {
		t.Fatalf("results %+v and %+v, want one MAP-I result", a, b)
	}
}

// TestSpeedupBaselineKeepsKnobs: a knob point's speedup is over the
// baseline with the same knobs, and the baseline ignores the knobs it
// cannot feel.
func TestSpeedupBaselineKeepsKnobs(t *testing.T) {
	r := NewRunner(microParams())
	var ran []Point
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		ran = append(ran, pt)
		return core.Result{ExecCycles: 1}, nil
	}
	for _, k := range []Knobs{{MLP: 4}, {StackedChannels: 2}, {DCPolicy: "lru"}} {
		pt := Point{Workload: "mcf_r", Design: core.DesignLH, Knobs: k}
		if _, err := r.Speedup(context.Background(), pt); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, pt := range ran {
		got = append(got, pt.String())
	}
	want := []string{
		"mcf_r|none||0|mlp=4", "mcf_r|lh-29||256|mlp=4",
		"mcf_r|none||0", "mcf_r|lh-29||256|stacked_channels=2",
		"mcf_r|lh-29||256|dc_policy=lru",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("simulated %v, want %v", got, want)
	}
}

// TestTable3FollowsSeed: table3's measured characteristics come from the
// runner's seed like every other experiment's.
func TestTable3FollowsSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment in -short mode")
	}
	render := func(seed uint64) string {
		p := tinyParams()
		p.Seed = seed
		var sb strings.Builder
		if err := runTable3(context.Background(), NewRunner(p), &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := render(1), render(2); a == b {
		t.Fatalf("table3 renders the same at seeds 1 and 2:\n%s", a)
	}
}
