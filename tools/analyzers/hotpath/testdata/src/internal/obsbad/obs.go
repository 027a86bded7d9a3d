// Package obs (in a second directory, same package name) carries the
// failing goldens for the implicit sample-path rule: the Sample method on
// obs.TimeSeries is hot even with no //alloyvet:hotpath annotation
// anywhere in sight.
package obs

type TimeSeries struct {
	cycles []uint64
}

func (t *TimeSeries) Sample(cycle uint64) {
	t.cycles = append(t.cycles, cycle) // want `append result escapes to t.cycles`
}

// Reset is an ordinary method on the same type: not a sample path, not
// annotated, so allocation here is legal.
func (t *TimeSeries) Reset() {
	t.cycles = make([]uint64, 0, 16)
}
