package policy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewByName(t *testing.T) {
	for _, name := range Known() {
		p, err := New(name, 4, 4)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("Name() = %q, want %q", p.Name(), name)
		}
	}
	if _, err := New("bogus", 4, 4); err == nil {
		t.Fatal("New(bogus) should fail")
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	p := NewLRU(1, 4)
	for w := 0; w < 4; w++ {
		p.Insert(0, w)
	}
	// Touch everything except way 2.
	p.Touch(0, 0)
	p.Touch(0, 1)
	p.Touch(0, 3)
	if v := p.Victim(0); v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
	p.Touch(0, 2)
	if v := p.Victim(0); v != 0 {
		t.Fatalf("victim after touching 2 = %d, want 0", v)
	}
}

func TestLRUSetsIndependent(t *testing.T) {
	p := NewLRU(2, 2)
	p.Insert(0, 0)
	p.Insert(0, 1)
	p.Insert(1, 1)
	p.Insert(1, 0)
	if v := p.Victim(0); v != 0 {
		t.Fatalf("set 0 victim = %d, want 0", v)
	}
	if v := p.Victim(1); v != 1 {
		t.Fatalf("set 1 victim = %d, want 1", v)
	}
}

func TestLRUSequenceProperty(t *testing.T) {
	// Property: after touching ways in any order, the victim is the way
	// whose last touch was earliest.
	f := func(touches []uint8) bool {
		const assoc = 8
		p := NewLRU(1, assoc)
		last := make(map[int]int)
		for w := 0; w < assoc; w++ {
			p.Insert(0, w)
			last[w] = -assoc + w // insertion order
		}
		for i, raw := range touches {
			w := int(raw) % assoc
			p.Touch(0, w)
			last[w] = i
		}
		want, wantT := 0, last[0]
		for w := 1; w < assoc; w++ {
			if last[w] < wantT {
				want, wantT = w, last[w]
			}
		}
		return p.Victim(0) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInRangeAndDeterministic(t *testing.T) {
	a := NewRandom(4, 29, 7)
	b := NewRandom(4, 29, 7)
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		va, vb := a.Victim(0), b.Victim(0)
		if va != vb {
			t.Fatal("same-seed random policies diverged")
		}
		if va < 0 || va >= 29 {
			t.Fatalf("victim %d out of range", va)
		}
		seen[va] = true
	}
	if len(seen) < 25 {
		t.Fatalf("random victim hit only %d of 29 ways", len(seen))
	}
}

func TestBIPInsertsMostlyAtLRU(t *testing.T) {
	p := NewBIP(1, 4)
	for w := 0; w < 4; w++ {
		p.lru.Touch(0, w)
	}
	// A fresh BIP insert should (usually) stay the victim because it is
	// placed at LRU.
	atLRU := 0
	for i := 0; i < Epsilon*4; i++ {
		p.Insert(0, 1)
		if p.Victim(0) == 1 {
			atLRU++
		}
		p.lru.Touch(0, 1) // reset for next round
	}
	if atLRU < Epsilon*3 {
		t.Fatalf("BIP inserted at LRU only %d/%d times", atLRU, Epsilon*4)
	}
	if atLRU == Epsilon*4 {
		t.Fatal("BIP never inserted at MRU; bimodal path is dead")
	}
}

func TestDIPDuelingConvergesToLRU(t *testing.T) {
	// Workload with strong recency (LRU-friendly): repeated touches to the
	// same small working set. LRU-dedicated sets stop missing; BIP sets
	// keep missing; PSEL should fall toward LRU.
	p := NewDIP(64, 4)
	start := p.PSEL()
	for i := 0; i < 500; i++ {
		p.Miss(1) // set 1 is BIP-dedicated: vote LRU
	}
	if p.PSEL() >= start {
		t.Fatalf("PSEL did not move toward LRU: %d -> %d", start, p.PSEL())
	}
	if p.usesBIP(5) {
		t.Fatal("follower set should use LRU after BIP-dedicated misses")
	}
}

func TestDIPDuelingConvergesToBIP(t *testing.T) {
	p := NewDIP(64, 4)
	for i := 0; i < 600; i++ {
		p.Miss(0) // LRU-dedicated set missing: vote BIP
	}
	if !p.usesBIP(5) {
		t.Fatal("follower set should use BIP after LRU-dedicated misses")
	}
}

func TestDIPPSELSaturates(t *testing.T) {
	p := NewDIP(64, 4)
	for i := 0; i < 5000; i++ {
		p.Miss(0)
	}
	if p.PSEL() != 1023 {
		t.Fatalf("PSEL = %d, want saturation at 1023", p.PSEL())
	}
	for i := 0; i < 5000; i++ {
		p.Miss(1)
	}
	if p.PSEL() != 0 {
		t.Fatalf("PSEL = %d, want saturation at 0", p.PSEL())
	}
}

func TestDIPDedicatedSetsFixed(t *testing.T) {
	p := NewDIP(128, 4)
	if p.usesBIP(0) {
		t.Fatal("set 0 must be LRU-dedicated")
	}
	if !p.usesBIP(1) {
		t.Fatal("set 1 must be BIP-dedicated")
	}
	if p.usesBIP(32) {
		t.Fatal("set 32 must be LRU-dedicated")
	}
}

func TestNRUVictimHasClearBit(t *testing.T) {
	p := NewNRU(1, 4)
	for w := 0; w < 4; w++ {
		p.Insert(0, w)
	}
	// All referenced: sweep clears and returns a valid way.
	v := p.Victim(0)
	if v < 0 || v >= 4 {
		t.Fatalf("victim %d out of range", v)
	}
	// After a victim, the untouched ways should be preferred.
	p.Touch(0, (v+1)%4)
	v2 := p.Victim(0)
	if v2 == (v+1)%4 {
		t.Fatal("NRU evicted a just-touched way while others had clear bits")
	}
}

func TestVictimAlwaysInRange(t *testing.T) {
	f := func(ops []uint16, which uint8) bool {
		names := Known()
		p, err := New(names[int(which)%len(names)], 8, 4)
		if err != nil {
			return false
		}
		for _, op := range ops {
			set := int(op>>2) % 8
			way := int(op) % 4
			switch op % 3 {
			case 0:
				p.Touch(set, way)
			case 1:
				p.Insert(set, way)
			case 2:
				p.Miss(set)
			}
			if v := p.Victim(set); v < 0 || v >= 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// A reused working set of 3 lines plus a one-off scan line: SRRIP must
	// evict the scan line, not a working-set member.
	p := NewSRRIP(1, 4)
	for w := 0; w < 3; w++ {
		p.Insert(0, w)
		p.Touch(0, w) // reused: RRPV 0
	}
	p.Insert(0, 3) // scan line: RRPV 2
	if v := p.Victim(0); v != 3 {
		t.Fatalf("victim = %d, want the scan line (3)", v)
	}
}

func TestSRRIPHitPromotes(t *testing.T) {
	p := NewSRRIP(1, 2)
	p.Insert(0, 0)
	p.Insert(0, 1)
	p.Touch(0, 0)
	// Way 1 (inserted, never reused) ages to distant first.
	if v := p.Victim(0); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
}

func TestSRRIPAgingTerminates(t *testing.T) {
	p := NewSRRIP(2, 8)
	for w := 0; w < 8; w++ {
		p.Insert(1, w)
		p.Touch(1, w)
	}
	v := p.Victim(1) // requires two aging rounds; must terminate
	if v < 0 || v >= 8 {
		t.Fatalf("victim %d out of range", v)
	}
}

func TestSRRIPViaRegistry(t *testing.T) {
	p, err := New("srrip", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "srrip" {
		t.Fatalf("Name = %q", p.Name())
	}
}

// TestRRIPInsertionPosition pins the insertion RRPV of each RRIP-family
// policy: SRRIP always long, BRRIP distant except 1 in brripEpsilon, SHiP
// long while its predictor is optimistic.
func TestRRIPInsertionPosition(t *testing.T) {
	cases := []struct {
		name   string
		make   func() Policy
		rrpvOf func(Policy, int) uint8
		want   func(fill int) uint8 // expected RRPV for the i-th fill (0-based)
	}{
		{
			name:   "srrip",
			make:   func() Policy { return NewSRRIP(1, 4) },
			rrpvOf: func(p Policy, way int) uint8 { return p.(*SRRIP).rrpv[way] },
			want:   func(int) uint8 { return rrpvLong },
		},
		{
			name:   "brrip",
			make:   func() Policy { return NewBRRIP(1, 4) },
			rrpvOf: func(p Policy, way int) uint8 { return p.(*BRRIP).srrip.rrpv[way] },
			want: func(fill int) uint8 {
				if (fill+1)%brripEpsilon == 0 {
					return rrpvLong
				}
				return rrpvMax
			},
		},
		{
			name:   "ship",
			make:   func() Policy { return NewSHiP(1, 4) },
			rrpvOf: func(p Policy, way int) uint8 { return p.(*SHiP).srrip.rrpv[way] },
			// Optimistic start inserts at long; fill 4 replaces the first
			// never-reused occupant, training the signature dead — every
			// later fill inserts at distant.
			want: func(fill int) uint8 {
				if fill < 4 {
					return rrpvLong
				}
				return rrpvMax
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.make()
			for fill := 0; fill < 2*brripEpsilon; fill++ {
				way := fill % 4
				p.Insert(0, way)
				if got, want := tc.rrpvOf(p, way), tc.want(fill); got != want {
					t.Fatalf("fill %d: inserted at RRPV %d, want %d", fill, got, want)
				}
			}
		})
	}
}

// TestRRIPHitPromotion: across the RRIP family a hit must promote the line
// to near-immediate (RRPV 0), so a reused line outlives a fresh fill.
func TestRRIPHitPromotion(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Policy
	}{
		{"srrip", NewSRRIP(1, 2)},
		{"brrip", NewBRRIP(1, 2)},
		{"ship", NewSHiP(1, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.p.Insert(0, 0)
			tc.p.Touch(0, 0) // reused: RRPV 0
			tc.p.Insert(0, 1)
			if v := tc.p.Victim(0); v != 1 {
				t.Fatalf("victim = %d, want the unreused fill (1)", v)
			}
		})
	}
}

// TestScanResistanceVsLRU replays a classic thrash pattern — a reused
// 3-line working set interleaved with two one-off scan lines per round in
// a 4-way set — and counts working-set evictions. LRU inserts scans at MRU
// so the second scan of each round displaces a working-set member; the
// RRIP family must keep the working set resident.
func TestScanResistanceVsLRU(t *testing.T) {
	run := func(p Policy) (wsEvictions int) {
		lines := [4]int{0, 1, 2, -1} // line held per way; 0..2 working set, -1 scan
		wayOf := func(line int) int {
			for w, l := range lines {
				if l == line {
					return w
				}
			}
			return -1
		}
		for w := 0; w < 4; w++ {
			p.Insert(0, w)
		}
		for round := 0; round < 4*brripEpsilon; round++ {
			for line := 0; line < 3; line++ {
				if w := wayOf(line); w >= 0 {
					p.Touch(0, w) // working-set hit
				} else { // thrashed out: refill
					v := p.Victim(0)
					if lines[v] >= 0 {
						wsEvictions++
					}
					lines[v] = line
					p.Insert(0, v)
				}
			}
			for scan := 0; scan < 2; scan++ { // two never-reused scan fills
				v := p.Victim(0)
				if lines[v] >= 0 {
					wsEvictions++
				}
				lines[v] = -1
				p.Insert(0, v)
			}
		}
		return wsEvictions
	}
	lruEv := run(NewLRU(1, 4))
	if lruEv == 0 {
		t.Fatal("LRU unexpectedly scan-resistant; pattern is not thrashing")
	}
	for _, tc := range []struct {
		name string
		p    Policy
	}{
		{"srrip", NewSRRIP(1, 4)},
		{"brrip", NewBRRIP(1, 4)},
		{"ship", NewSHiP(1, 4)},
	} {
		if ev := run(tc.p); ev >= lruEv {
			t.Errorf("%s evicted the working set %d times, LRU %d; no scan resistance", tc.name, ev, lruEv)
		}
	}
}

// TestSHiPLearnsDeadSignatures: evicting never-reused fills must train the
// SHCT to zero for that signature, after which fills insert at distant.
func TestSHiPLearnsDeadSignatures(t *testing.T) {
	p := NewSHiP(1, 2)
	// Repeatedly fill and replace without any Touch: pure dead-on-arrival.
	for i := 0; i < 8; i++ {
		p.Insert(0, i%2)
	}
	s := p.signature(0)
	if p.shct[s] != 0 {
		t.Fatalf("SHCT[%d] = %d after dead fills, want 0", s, p.shct[s])
	}
	p.Insert(0, 0)
	if got := p.srrip.rrpv[0]; got != rrpvMax {
		t.Fatalf("dead-signature fill inserted at RRPV %d, want %d", got, rrpvMax)
	}
	// Reuse trains the counter back up and restores long insertion. Insert
	// over the reused way so the occupant does not re-train the counter down.
	p.Touch(0, 0)
	if p.shct[s] == 0 {
		t.Fatal("reuse did not train SHCT up")
	}
	p.Insert(0, 0)
	if got := p.srrip.rrpv[0]; got != rrpvLong {
		t.Fatalf("live-signature fill inserted at RRPV %d, want %d", got, rrpvLong)
	}
}

// TestNewSeededRandomDecorrelates: distinct seeds must produce distinct
// eviction sequences, while seed 0 preserves the legacy New behavior.
func TestNewSeededRandomDecorrelates(t *testing.T) {
	mk := func(seed uint64) Policy {
		p, err := NewSeeded("random", 4, 16, seed)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, legacy := mk(7), mk(8), mk(0)
	old, err := New("random", 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for i := 0; i < 64; i++ {
		if a.Victim(0) != b.Victim(0) {
			diverged = true
		}
		if legacy.Victim(0) != old.Victim(0) {
			t.Fatal("NewSeeded(seed=0) diverged from legacy New")
		}
	}
	if !diverged {
		t.Fatal("seeds 7 and 8 produced identical eviction sequences")
	}
}

// TestClockLimitPanics: a recency clock one tick below 2^32-1 takes that
// tick, and the next one panics instead of wrapping its 32-bit stamps, in
// LRU and in both of DIP's rows.
func TestClockLimitPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "32-bit stamp limit") {
				t.Fatalf("%s: panic %q, want the 32-bit stamp limit", name, msg)
			}
		}()
		f()
	}
	lru := NewLRU(4, 4)
	lru.clock = math.MaxUint32 - 1
	lru.Touch(0, 1)
	if lru.stamps[1] != math.MaxUint32 {
		t.Fatalf("stamp %d, want %d", lru.stamps[1], uint32(math.MaxUint32))
	}
	mustPanic("lru", func() { lru.Insert(2, 0) })

	for _, row := range []string{"lru", "bip"} {
		dip := NewDIP(64, 4)
		clock := &dip.lru.clock
		if row == "bip" {
			clock = &dip.bip.lru.clock
		}
		*clock = math.MaxUint32 - 1
		dip.Touch(0, 0)
		mustPanic("dip "+row, func() { dip.Touch(0, 1) })
	}
}
