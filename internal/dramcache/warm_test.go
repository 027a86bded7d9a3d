package dramcache

import (
	"testing"

	"alloysim/internal/memaddr"
)

// TestWarmOnlyContentsExact runs one warmup stream — every access at cycle
// 0 and no Fill, as core.System.warm issues them — through each design
// twice: over a timed stacked DRAM and over a warm-only one. No design may
// take a contents decision from a DRAM result, so after the closing Reset
// both copies must hold the same lines with the same tag statistics, and
// a timed stream that follows must see identical results.
func TestWarmOnlyContentsExact(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			timedDev, warmDev := stacked(), stacked()
			timed, err := Build(name, Params{CapacityBytes: testCap, Stacked: timedDev})
			if err != nil {
				t.Fatal(err)
			}
			warmed, err := Build(name, Params{CapacityBytes: testCap, Stacked: warmDev})
			if err != nil {
				t.Fatal(err)
			}
			warmDev.WarmOnly()
			d := newDemandStream()
			var rt, rw AccessResult
			for i := 0; i < 100000; i++ {
				line, write := d.next()
				timed.AccessInto(0, line, write, &rt)
				warmed.AccessInto(0, line, write, &rw)
			}
			timedDev.Reset()
			warmDev.Reset()
			if g, w := warmed.TagStats(), timed.TagStats(); g != w {
				t.Fatalf("tag stats after warm-only warmup %+v, timed %+v", g, w)
			}
			for l := memaddr.Line(0); l < d.span; l++ {
				if warmed.Contains(l) != timed.Contains(l) {
					t.Fatalf("line %d: resident %v after warm-only warmup, %v after timed", l, warmed.Contains(l), timed.Contains(l))
				}
			}
			timed.ResetStats()
			warmed.ResetStats()
			dt, dw := newDemandStream(), newDemandStream()
			for i := 0; i < 20000; i++ {
				dt.step(timed, &rt)
				dw.step(warmed, &rw)
				if rt != rw {
					t.Fatalf("access %d after warmup: %+v, timed warmup gives %+v", i, rw, rt)
				}
			}
		})
	}
}
