package dramcache

import (
	"reflect"
	"testing"

	"alloysim/internal/memaddr"
)

// buildDesign constructs a registered design over its own stacked device.
func buildDesign(t testing.TB, name string) Organization {
	t.Helper()
	o, _ := variant{design: name}.build(t)
	return o
}

// demandStream replays the system's use of an organization: a mixed
// read/write stream over a footprint twice the capacity (hits, misses,
// dirty victims), with a Fill after every allocating read miss. step
// reports whether the access was a write.
type demandStream struct {
	now  Cycle
	x    uint64
	hot  memaddr.Line
	span memaddr.Line
}

func newDemandStream() *demandStream {
	lines := memaddr.Line(testCap / memaddr.LineSizeBytes)
	return &demandStream{x: 1, hot: lines / 4, span: 2 * lines}
}

// next returns the next (line, write) pair: half the accesses go to a
// small hot region so hits are common, the rest roam the wide span.
func (d *demandStream) next() (memaddr.Line, bool) {
	d.x = d.x*6364136223846793005 + 1442695040888963407
	d.now += 40
	r := d.x >> 16
	line := memaddr.Line(r>>8) % d.span
	if r&1 == 0 {
		line %= d.hot
	}
	return line, r&6 == 0 // one access in four is a write
}

func (d *demandStream) step(o Organization, r *AccessResult) (write bool) {
	line, write := d.next()
	o.AccessInto(d.now, line, write, r)
	if r.Allocated {
		o.Fill(d.now+200, line)
	}
	return write
}

// Every registered design's demand access, fill and warmup step must
// allocate nothing once the contents are warm: the simulator calls them
// once per below-L3 access or forwarded warmup reference.
func TestAccessIntoAndFillZeroAllocs(t *testing.T) {
	for _, name := range Names() {
		o := buildDesign(t, name)
		d := newDemandStream()
		var r AccessResult
		for i := 0; i < 200000; i++ {
			d.step(o, &r)
		}
		if allocs := testing.AllocsPerRun(2000, func() { d.step(o, &r) }); allocs != 0 {
			t.Errorf("%s: AccessInto+Fill allocated %.3f allocs/op, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(2000, func() { o.Warm(d.next()) }); allocs != 0 {
			t.Errorf("%s: Warm allocated %.3f allocs/op, want 0", name, allocs)
		}
	}
}

// BenchmarkWarm times one warmup step per design on warm contents, the
// organization's share of a forwarded warmup reference.
func BenchmarkWarm(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			o := buildDesign(b, name)
			d := newDemandStream()
			for i := 0; i < 200000; i++ {
				o.Warm(d.next())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Warm(d.next())
			}
		})
	}
}

// garbage sets every field of v, recursively, to a non-zero value.
func garbage(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			garbage(v.Field(i))
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-0x5a5a)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0xdeadbeef)
	default:
		panic("garbage: unhandled kind " + v.Kind().String())
	}
}

// The simulator reuses one AccessResult per path across accesses, which
// is correct only if AccessInto overwrites every field. Two identically
// built twins see the same stream; one writes into a result pre-filled
// with garbage, the other into a zero value, and the results must match
// exactly. A design that set Victim or Allocated only conditionally would
// leak the previous access's state into this one and fail here.
func TestAccessIntoOverwritesScratch(t *testing.T) {
	for _, name := range Names() {
		a, b := buildDesign(t, name), buildDesign(t, name)
		da, db := newDemandStream(), newDemandStream()
		var hits, misses, writes int
		for i := 0; i < 50000; i++ {
			var ra, rb AccessResult
			garbage(reflect.ValueOf(&ra).Elem())
			write := da.step(a, &ra)
			db.step(b, &rb)
			if ra != rb {
				t.Fatalf("%s: access %d: garbage-primed result %+v != zero-primed %+v", name, i, ra, rb)
			}
			if rb.Hit {
				hits++
			} else {
				misses++
			}
			if write {
				writes++
			}
		}
		if hits == 0 || misses == 0 || writes == 0 {
			t.Fatalf("%s: stream exercised %d hits, %d misses, %d writes; want all three", name, hits, misses, writes)
		}
	}
}
