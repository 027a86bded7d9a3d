//go:build invariants

package cache

// Tests that the occupancy-bitmask consistency invariants fire under
// -tags invariants.

import (
	"strings"
	"testing"

	"alloysim/internal/memaddr"
	"alloysim/internal/policy"
)

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want invariant violation containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v, want message containing %q", r, substr)
		}
	}()
	f()
}

func TestDirtyWithoutValidPanics(t *testing.T) {
	c := MustNew(Config{Sets: 4, Assoc: 2})
	c.Fill(memaddr.Line(0), false)
	// A dirty bit on an invalid way is a phantom writeback in waiting.
	c.dirty[0] |= 0b10
	mustPanic(t, "dirty bits", func() { c.Invalidate(memaddr.Line(0)) })
}

func TestValidMaskOverflowPanics(t *testing.T) {
	c := MustNew(Config{Sets: 4, Assoc: 2})
	c.Fill(memaddr.Line(0), false)
	// Way 2 of a 2-way set: the mask claims a line beyond the geometry.
	c.valid[0] |= 0b100
	mustPanic(t, "exceeds 2 ways", func() { c.Invalidate(memaddr.Line(0)) })
}

func TestStaleSignaturePanics(t *testing.T) {
	c := MustNew(Config{Sets: 4, Assoc: 8})
	c.Fill(memaddr.Line(0), false)
	// A signature that no longer matches its tag hides a resident line.
	c.sigs[0] ^= 0xff
	mustPanic(t, "signature", func() { c.Fill(memaddr.Line(4), false) })
}

// rogueVictim is a replacement policy that returns an out-of-range way, the
// bug class the fill invariant exists to catch: the bad index would land in
// the neighboring set's tags, not in a bounds panic.
type rogueVictim struct{}

func (rogueVictim) Touch(set, way int)     {}
func (rogueVictim) Insert(set, way int)    {}
func (rogueVictim) Victim(set int) int     { return 99 }
func (rogueVictim) Miss(set int)           {}
func (rogueVictim) Name() string           { return "rogue" }
func (r rogueVictim) Clone() policy.Policy { return r }

func TestVictimOutOfRangePanics(t *testing.T) {
	c := MustNew(Config{Sets: 4, Assoc: 2})
	c.Fill(memaddr.Line(0), false)
	c.Fill(memaddr.Line(4), false) // set 0 is now full
	c.pol = rogueVictim{}
	mustPanic(t, "victim way 99", func() { c.Fill(memaddr.Line(8), false) })
}
