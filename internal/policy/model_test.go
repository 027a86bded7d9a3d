package policy

import (
	"fmt"
	"slices"
	"testing"
)

// model is the scan-based LRU, BIP or DIP that the cached least-stamp
// ways replaced: every victim choice and every BIP insertion scans its
// row for the first way holding the least stamp. rows[0] is the victim
// row (LRU's, BIP's only row, DIP's LRU row) and rows[1] is DIP's BIP row.
type model struct {
	name    string
	assoc   int
	rows    [2]modelRow
	counter uint32 // BIP's bimodal throttle
	psel    int32  // DIP's selector, 10 bits

	zeroTies    int    // BIP insertions clamped at stamp 0 in a row that already held a 0
	followerBIP [2]int // DIP follower-set fills with LRU [0] and BIP [1] insertion
}

type modelRow struct {
	clock  uint32
	stamps []uint32
}

func newModel(name string, sets, assoc int) *model {
	m := &model{name: name, assoc: assoc, psel: 512}
	for i := range m.rows {
		m.rows[i].stamps = make([]uint32, sets*assoc)
	}
	return m
}

func (m *model) row(r, set int) []uint32 {
	return m.rows[r].stamps[set*m.assoc : (set+1)*m.assoc]
}

func (m *model) touchRow(r, set, way int) {
	m.rows[r].clock++
	m.row(r, set)[way] = m.rows[r].clock
}

func (m *model) least(r, set int) int {
	row := m.row(r, set)
	best := 0
	for w, s := range row {
		if s < row[best] {
			best = w
		}
	}
	return best
}

// bipInsert is BIP's insertion into row r: one fill in Epsilon at MRU,
// the others one below the row's least stamp, clamped at 0.
func (m *model) bipInsert(r, set, way int) {
	m.counter++
	if m.counter%Epsilon == 0 {
		m.touchRow(r, set, way)
		return
	}
	row := m.row(r, set)
	min := row[m.least(r, set)]
	if min > 0 {
		min--
	} else {
		zeros := 0
		for w, s := range row {
			if s == 0 && w != way {
				zeros++
			}
		}
		if zeros > 0 {
			m.zeroTies++
		}
	}
	row[way] = min
}

func (m *model) Touch(set, way int) {
	m.touchRow(0, set, way)
	if m.name == "dip" {
		m.touchRow(1, set, way)
	}
}

func (m *model) Insert(set, way int) {
	switch m.name {
	case "lru":
		m.touchRow(0, set, way)
	case "bip":
		m.bipInsert(0, set, way)
	default:
		bip := m.psel > 511
		switch set % dedicationStride {
		case 0:
			bip = false
		case 1:
			bip = true
		default:
			if bip {
				m.followerBIP[1]++
			} else {
				m.followerBIP[0]++
			}
		}
		if bip {
			m.bipInsert(1, set, way)
			m.row(0, set)[way] = m.row(1, set)[way]
		} else {
			m.touchRow(0, set, way)
			m.row(1, set)[way] = m.row(0, set)[way]
		}
	}
}

func (m *model) Victim(set int) int { return m.least(0, set) }

func (m *model) Miss(set int) {
	if m.name != "dip" {
		return
	}
	switch set % dedicationStride {
	case 0:
		m.psel = min(m.psel+1, 1023)
	case 1:
		m.psel = max(m.psel-1, 0)
	}
}

// recency is what a model and a Policy share.
type recency interface {
	Touch(set, way int)
	Insert(set, way int)
	Victim(set int) int
	Miss(set int)
}

// TestRecencyMatchesModel drives LRU, BIP and DIP and their scan-based
// models with one random stream of Touch, Miss, Victim and Insert calls
// over 64 sets at 2 to 64 ways, and every victim must match. Misses land
// on LRU-dedicated sets in the stream's first and third quarters and on
// BIP-dedicated sets in the others, so DIP's selector swings both ways
// and its follower sets fill under both insertions. Fresh rows hold only
// 0 stamps, so BIP's clamp makes ties at 0. Halfway through, the policy
// is copied (CopyFrom) into one another stream drove first, and the copy
// takes over.
func TestRecencyMatchesModel(t *testing.T) {
	for _, name := range []string{"lru", "bip", "dip"} {
		for _, assoc := range []int{2, 3, 4, 8, 16, 29, 32, 64} {
			t.Run(fmt.Sprintf("%s/assoc%d", name, assoc), func(t *testing.T) {
				const sets, ops = 64, 200_000
				x := uint64(assoc)*0x9E3779B97F4A7C15 | 1
				rnd := func(n int) int {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					return int(x % uint64(n))
				}
				step := func(p, m recency, i int) {
					set := rnd(sets)
					switch rnd(8) {
					case 0, 1, 2:
						way := rnd(assoc)
						p.Touch(set, way)
						m.Touch(set, way)
					case 3:
						set = set&^(dedicationStride-1) | i/(ops/4)&1
						p.Miss(set)
						m.Miss(set)
					case 4:
						way := rnd(assoc)
						p.Insert(set, way)
						m.Insert(set, way)
					default:
						v, want := p.Victim(set), m.Victim(set)
						if v != want {
							t.Fatalf("op %d set %d: victim way %d, the model's %d", i, set, v, want)
						}
						p.Insert(set, v)
						m.Insert(set, v)
					}
				}
				p, err := New(name, sets, assoc)
				if err != nil {
					t.Fatal(err)
				}
				m := newModel(name, sets, assoc)
				for i := 0; i < ops; i++ {
					if i == ops/2 {
						c, _ := New(name, sets, assoc)
						(&opStream{x: 99, sets: sets, assoc: assoc}).drive(c, ops/4)
						c.CopyFrom(p)
						p = c
					}
					step(p, m, i)
				}
				if name != "lru" && m.zeroTies == 0 {
					t.Error("no BIP insertion tied at stamp 0")
				}
				if name == "dip" && (m.followerBIP[0] == 0 || m.followerBIP[1] == 0) {
					t.Errorf("follower fills under LRU/BIP insertion: %v, want both", m.followerBIP)
				}
			})
		}
	}
}

// rripModel is SRRIP, BRRIP or SHiP written from the published rules
// (Jaleel et al., ISCA 2010; Wu et al., MICRO 2011) rather than from the
// policies: a 2-bit RRPV per line, all lines distant (3) at the start; a
// hit sets the line's RRPV to 0; the victim is the first way at 3 once
// the set has aged by whatever brings its highest RRPV to 3. SRRIP fills
// insert at long (2). BRRIP fills insert at distant, but every 32nd fill
// at long. SHiP signs a fill by its set (the simulator has no PC at the
// cache) and inserts at distant when the signature's 3-bit SHCT counter is
// 0, at long otherwise; a counter starts at 1, counts up on a line's first
// reuse and down when a line that was never reused is replaced.
type rripModel struct {
	name  string
	assoc int
	rrpv  []uint8
	fills int // BRRIP: fills so far

	shct    []uint8  // SHiP: per signature
	sig     []uint16 // SHiP: per line, the signature of its fill
	reused  []bool   // SHiP: per line, hit since its fill
	tracked []bool   // SHiP: per line, holds a fill

	inserts [4]int // fills inserted at each RRPV
}

func newRRIPModel(name string, sets, assoc int) *rripModel {
	n := sets * assoc
	m := &rripModel{name: name, assoc: assoc, rrpv: make([]uint8, n)}
	for i := range m.rrpv {
		m.rrpv[i] = 3
	}
	if name == "ship" {
		m.shct = make([]uint8, 1<<11)
		for i := range m.shct {
			m.shct[i] = 1
		}
		m.sig = make([]uint16, n)
		m.reused = make([]bool, n)
		m.tracked = make([]bool, n)
	}
	return m
}

func (m *rripModel) Touch(set, way int) {
	i := set*m.assoc + way
	m.rrpv[i] = 0
	if m.name == "ship" && m.tracked[i] && !m.reused[i] {
		m.reused[i] = true
		m.shct[m.sig[i]] = min(m.shct[m.sig[i]]+1, 7)
	}
}

func (m *rripModel) Insert(set, way int) {
	i := set*m.assoc + way
	at := uint8(2)
	switch m.name {
	case "brrip":
		m.fills++
		if m.fills%32 != 0 {
			at = 3
		}
	case "ship":
		if m.tracked[i] && !m.reused[i] && m.shct[m.sig[i]] > 0 {
			m.shct[m.sig[i]]--
		}
		s := uint16(uint64(set) * 0x9e3779b97f4a7c15 >> (64 - 11))
		m.sig[i], m.reused[i], m.tracked[i] = s, false, true
		if m.shct[s] == 0 {
			at = 3
		}
	}
	m.rrpv[i] = at
	m.inserts[at]++
}

func (m *rripModel) Victim(set int) int {
	row := m.rrpv[set*m.assoc : (set+1)*m.assoc]
	age := 3 - slices.Max(row)
	for w := range row {
		row[w] += age
	}
	return slices.Index(row, 3)
}

func (m *rripModel) Miss(int) {}

// rrpvOf returns an RRIP-family policy's RRPV array.
func rrpvOf(p Policy) []uint8 {
	switch p := p.(type) {
	case *SRRIP:
		return p.rrpv
	case *BRRIP:
		return p.srrip.rrpv
	case *SHiP:
		return p.srrip.rrpv
	}
	panic("rrpvOf: not an RRIP policy")
}

// TestRRIPMatchesModel drives SRRIP, BRRIP and SHiP and their models with
// one random stream of Touch, Miss, Victim and Insert calls over 64 sets
// at 2 to 64 ways. Every victim must match, and so must the RRPVs of the
// set each call touched; every line's RRPV, and SHiP's counters, are
// compared every 4096 calls. Halfway through, the policy is copied
// (CopyFrom) into one another stream drove first, and the copy takes over.
// Touches thin out in the stream's second and fourth quarters, so SHiP's
// counters reach 0 and its fills insert at distant as well as at long.
func TestRRIPMatchesModel(t *testing.T) {
	for _, name := range []string{"srrip", "brrip", "ship"} {
		for _, assoc := range []int{2, 3, 4, 8, 16, 29, 32, 64} {
			t.Run(fmt.Sprintf("%s/assoc%d", name, assoc), func(t *testing.T) {
				const sets, ops = 64, 200_000
				rnd := (&opStream{x: uint64(assoc)*0x9E3779B97F4A7C15 | 1}).rnd
				p, err := New(name, sets, assoc)
				if err != nil {
					t.Fatal(err)
				}
				m := newRRIPModel(name, sets, assoc)
				check := func(i, lo, hi int) {
					got := rrpvOf(p)
					for k := lo; k < hi; k++ {
						if got[k] != m.rrpv[k] {
							t.Fatalf("op %d set %d way %d: RRPV %d, the model's %d", i, k/assoc, k%assoc, got[k], m.rrpv[k])
						}
					}
				}
				for i := 0; i < ops; i++ {
					if i == ops/2 {
						c, _ := New(name, sets, assoc)
						(&opStream{x: 99, sets: sets, assoc: assoc}).drive(c, ops/4)
						c.CopyFrom(p)
						p = c
					}
					set := rnd(sets)
					touches := 3
					if i/(ops/4)&1 == 1 {
						touches = 1
					}
					switch op := rnd(8); {
					case op < touches:
						way := rnd(assoc)
						p.Touch(set, way)
						m.Touch(set, way)
					case op == 3:
						p.Miss(set)
						m.Miss(set)
					case op == 4:
						way := rnd(assoc)
						p.Insert(set, way)
						m.Insert(set, way)
					case op >= 5:
						v, want := p.Victim(set), m.Victim(set)
						if v != want {
							t.Fatalf("op %d set %d: victim way %d, the model's %d", i, set, v, want)
						}
						p.Insert(set, v)
						m.Insert(set, v)
					}
					check(i, set*assoc, (set+1)*assoc)
					if i%4096 == 0 || i == ops-1 {
						check(i, 0, sets*assoc)
						if s, ok := p.(*SHiP); ok && !slices.Equal(s.shct, m.shct) {
							t.Fatalf("op %d: SHiP's counters differ from the model's", i)
						}
					}
				}
				if name != "srrip" && (m.inserts[2] == 0 || m.inserts[3] == 0) {
					t.Errorf("fills inserted at long %d and at distant %d times, want both", m.inserts[2], m.inserts[3])
				}
			})
		}
	}
}
