package policy

import (
	"fmt"
	"testing"
)

// opStream is a deterministic random sequence of policy operations. Two
// copies of one stream issue identical operations.
type opStream struct {
	x           uint64
	sets, assoc int
}

func (o *opStream) rnd(n int) int {
	o.x ^= o.x << 13
	o.x ^= o.x >> 7
	o.x ^= o.x << 17
	return int(o.x % uint64(n))
}

// step applies the stream's next operation to p: a hit, a miss, a fill
// into a free way, or a victim choice and the fill that replaces it. It
// returns the victim, or -1 for the other operations.
func (o *opStream) step(p Policy) int {
	set := o.rnd(o.sets)
	switch o.rnd(8) {
	case 0, 1, 2:
		p.Touch(set, o.rnd(o.assoc))
	case 3:
		p.Miss(set)
	case 4:
		p.Insert(set, o.rnd(o.assoc))
	default:
		v := p.Victim(set)
		p.Insert(set, v)
		return v
	}
	return -1
}

// drive runs n operations of the stream against p and returns p's victims.
func (o *opStream) drive(p Policy, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if v := o.step(p); v >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// TestCloneOracle copies every policy mid-stream (CopyFrom) into a
// policy of its kind that another stream drove first, and drives the copy
// and the original, operation by operation, with one continuation: every
// victim must match. Then it drives one copy alone, and the original's
// next decisions must still match those of a copy taken beside it: a
// copy shares no state with its source.
func TestCloneOracle(t *testing.T) {
	for _, name := range Known() {
		for _, g := range []struct{ sets, assoc int }{{64, 16}, {128, 29}, {40, 32}} {
			t.Run(fmt.Sprintf("%s/%dx%d", name, g.sets, g.assoc), func(t *testing.T) {
				const ops = 20000
				stream := func(x uint64) *opStream { return &opStream{x: x, sets: g.sets, assoc: g.assoc} }
				build := func(x uint64) Policy {
					p, err := New(name, g.sets, g.assoc)
					if err != nil {
						t.Fatal(err)
					}
					stream(x).drive(p, ops)
					return p
				}
				p := build(0x9E3779B97F4A7C15)
				copyOf := func() Policy {
					c := build(99)
					c.CopyFrom(p)
					return c
				}

				c := copyOf()
				a, b := stream(12345), stream(12345)
				for i := 0; i < ops; i++ {
					if got, want := a.step(c), b.step(p); got != want {
						t.Fatalf("op %d after the copy: copy chose way %d, original %d", i, got, want)
					}
				}

				mutated, witness := copyOf(), copyOf()
				stream(777).drive(mutated, ops)
				got, want := stream(4242).drive(p, ops), stream(4242).drive(witness, ops)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatal("driving a copy changed the original's later victims")
				}
				if len(got) == 0 {
					t.Fatal("the stream chose no victim")
				}
				if n := testing.AllocsPerRun(10, func() { c.CopyFrom(p) }); n != 0 {
					t.Fatalf("CopyFrom allocated %.0f times, want 0", n)
				}
			})
		}
	}
}
