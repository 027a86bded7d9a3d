package dramcache

import (
	"strings"
	"testing"

	"alloysim/internal/dram"
	"alloysim/internal/memaddr"
	"alloysim/internal/policy"
)

// variant is one design under test, with an optional replacement-policy
// override.
type variant struct{ design, policy string }

func (v variant) String() string {
	if v.policy == "" {
		return v.design
	}
	return v.design + "/" + v.policy
}

// build constructs the variant over its own stacked device.
func (v variant) build(t testing.TB) (Organization, *dram.DRAM) {
	t.Helper()
	dev := stacked()
	p := Params{CapacityBytes: testCap, Stacked: dev}
	if v.policy != "" {
		p.Policy, p.Seed = v.policy, SeedFor(v.design, v.policy)
	}
	o, err := Build(v.design, p)
	if err != nil {
		t.Fatal(err)
	}
	return o, dev
}

// warmVariants lists every registered design, then the two designs with a
// replacement-policy choice under every known policy.
func warmVariants() []variant {
	var vs []variant
	for _, n := range Names() {
		vs = append(vs, variant{design: n})
	}
	for _, n := range []string{"lh-29", "gemini"} {
		for _, p := range policy.Known() {
			vs = append(vs, variant{n, p})
		}
	}
	return vs
}

// checkWarmMatchesAccess feeds one demand stream (reads, writes, dirty
// victims) to two copies of a variant: one through Warm, the other
// through timed AccessInto calls on an advancing clock, with a Fill after
// every allocating read miss. Contents never depend on a DRAM result, so
// both copies must end with the same tag statistics and the same resident
// lines, and, once the timed copy's device is reset as warmup's end
// resets it, a timed stream that follows must see identical results.
func checkWarmMatchesAccess(t testing.TB, v variant, seed uint64, warmRefs, timedRefs int) {
	warmed, _ := v.build(t)
	timed, timedDev := v.build(t)
	dw, dt := newDemandStream(), newDemandStream()
	dw.x, dt.x = seed, seed
	var r AccessResult
	for i := 0; i < warmRefs; i++ {
		line, write := dw.next()
		warmed.Warm(line, write)
		dt.step(timed, &r)
	}
	timedDev.Reset()
	if g, w := warmed.TagStats(), timed.TagStats(); g != w {
		t.Fatalf("%v: tag stats after Warm %+v, after AccessInto %+v", v, g, w)
	}
	for l := memaddr.Line(0); l < dw.span; l++ {
		if warmed.Contains(l) != timed.Contains(l) {
			t.Fatalf("%v: line %d resident %v after Warm, %v after AccessInto", v, l, warmed.Contains(l), timed.Contains(l))
		}
	}
	warmed.ResetStats()
	timed.ResetStats()
	dw.x, dt.x = seed+1, seed+1
	var rw, rt AccessResult
	for i := 0; i < timedRefs; i++ {
		dw.step(warmed, &rw)
		dt.step(timed, &rt)
		if rw != rt {
			t.Fatalf("%v: access %d after warmup: %+v, after an AccessInto warmup %+v", v, i, rw, rt)
		}
	}
}

// TestWarmMatchesAccess is the contents oracle for Warm: every design, and
// every replacement policy of the designs that take one, warms to what
// timed accesses leave behind.
func TestWarmMatchesAccess(t *testing.T) {
	for _, v := range warmVariants() {
		t.Run(v.String(), func(t *testing.T) {
			checkWarmMatchesAccess(t, v, 1, 100000, 20000)
		})
	}
}

// FuzzWarmMatchesAccess runs the Warm oracle on a fuzzed variant and
// demand-stream seed.
func FuzzWarmMatchesAccess(f *testing.F) {
	vs := warmVariants()
	f.Fuzz(func(t *testing.T, design uint, seed uint64) {
		checkWarmMatchesAccess(t, vs[design%uint(len(vs))], seed, 30000, 5000)
	})
}

// statExporter collects an organization's exported statistics.
type statExporter []exported

type exported struct {
	name string
	read func() float64
}

func (x *statExporter) Counter(name, _ string, read func() uint64) {
	*x = append(*x, exported{name, func() float64 { return float64(read()) }})
}
func (x *statExporter) Level(name, help string, read func() uint64) { x.Counter(name, help, read) }
func (x *statExporter) Gauge(name, _ string, read func() float64) {
	*x = append(*x, exported{name, read})
}

// TestWarmOnlyContentsExact checks that Warm changes contents only: a
// warmup stream through it makes no stacked-DRAM access and leaves every
// statistic outside the tag stores at zero, so what it leaves behind is
// exactly the contents TestWarmMatchesAccess compares.
func TestWarmOnlyContentsExact(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			o, dev := variant{design: name}.build(t)
			d := newDemandStream()
			for i := 0; i < 100000; i++ {
				o.Warm(d.next())
			}
			if s := dev.Stats(); s != (dram.Stats{}) {
				t.Fatalf("Warm accessed the stacked DRAM: %+v", s)
			}
			if s := o.TagStats(); s.Hits == 0 || s.Misses == 0 {
				t.Fatalf("Warm left tag stats %+v, want hits and misses", s)
			}
			var x statExporter
			o.RegisterMetrics(&x, "dc")
			for _, e := range x {
				if !strings.Contains(e.name, "_tags_") && e.read() != 0 {
					t.Errorf("Warm moved statistic %s to %v", e.name, e.read())
				}
			}
		})
	}
}
