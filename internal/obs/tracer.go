package obs

import (
	"fmt"
	"io"
)

// SpanKind identifies one segment of a memory request's lifecycle. The
// taxonomy follows the request's critical path through the hierarchy:
// the whole read, the predictor decision, the DRAM-cache access split
// into queue/bank/bus/burst, the off-chip access split the same way, and
// the asynchronous fill that installs the line afterwards.
type SpanKind uint8

const (
	SpanRead     SpanKind = iota // whole request: L3 miss to data return
	SpanPredict                  // predictor decision window
	SpanDCQueue                  // DRAM-cache: wait for bank availability
	SpanDCBank                   // DRAM-cache: ACT + CAS
	SpanDCBus                    // DRAM-cache: wait for data bus
	SpanDCBurst                  // DRAM-cache: data burst transfer
	SpanMemQueue                 // off-chip DRAM: wait for bank
	SpanMemBank                  // off-chip DRAM: ACT + CAS
	SpanMemBus                   // off-chip DRAM: wait for data bus
	SpanMemBurst                 // off-chip DRAM: data burst transfer
	SpanFill                     // fill of the line into the DRAM cache
	numSpanKinds
)

// spanKindNames indexes SpanKind; used only by the cold export paths.
var spanKindNames = [numSpanKinds]string{
	"read", "predict",
	"dc.queue", "dc.bank", "dc.bus", "dc.burst",
	"mem.queue", "mem.bank", "mem.bus", "mem.burst",
	"fill",
}

// String returns the span kind's export name.
func (k SpanKind) String() string {
	if k < numSpanKinds {
		return spanKindNames[k]
	}
	return "unknown"
}

// Span is one fixed-size lifecycle segment record. Times are engine
// cycles (the obs layer deliberately does not import internal/sim; the
// caller converts with Cycle.Count()).
type Span struct {
	ReqID uint64
	Start uint64
	Dur   uint64
	Line  uint64
	Core  int32
	Kind  SpanKind
	Hit   bool
}

// Breakdown is the per-request latency decomposition: how the request's
// total latency divides across predictor, DRAM-cache, and off-chip
// segments. The components are critical-path-additive by construction —
// Pred + Cache* + Mem* + Other == Total exactly — so averaging rows
// reproduces the run's average access latency (the Fig. 2 decomposition).
type Breakdown struct {
	ReqID      uint64
	Line       uint64
	Start      uint64
	Total      uint64
	Pred       uint64
	CacheQueue uint64
	CacheBank  uint64
	CacheBus   uint64
	CacheBurst uint64
	MemQueue   uint64
	MemBank    uint64
	MemBus     uint64
	MemBurst   uint64
	Other      uint64
	Core       int32
	Hit        bool
}

// Tracer samples memory-request lifecycles into preallocated ring
// buffers. It is built for two properties:
//
//   - Zero overhead when off: a nil *Tracer (or sampling interval 0) is
//     valid, and every hot-path method is a nil-safe early return.
//   - Determinism when on: sampling is a 1-in-N request counter — never
//     a clock or RNG — so the same run samples the same requests and the
//     exported files are byte-identical across runs.
//
// The rings keep the most recent records when capacity is exceeded;
// Dropped() reports how many were overwritten so exports can say so.
type Tracer struct {
	every uint64 // sample every Nth request; 0 disables
	left  uint64 // requests until the next sampled one (countdown from every)
	next  uint64 // next request ID (1-based; 0 means "not sampled")

	spans     []Span
	spanHead  int
	spanLen   int
	spanDrops uint64

	brks     []Breakdown
	brkHead  int
	brkLen   int
	brkDrops uint64

	runID string // correlation tag stamped into exports; "" omits it
}

// NewTracer creates a tracer sampling one request in every `sample`
// (sample=1 traces everything; sample=0 returns nil, the disabled
// tracer). capacity bounds both rings; it defaults to 1<<16 records if
// nonpositive.
func NewTracer(sample uint64, capacity int) *Tracer {
	if sample == 0 {
		return nil
	}
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Tracer{
		every: sample,
		left:  sample,
		spans: make([]Span, capacity),
		brks:  make([]Breakdown, capacity),
	}
}

// SetRunID tags the tracer with a run ID. When set, WriteChromeTrace
// emits it as a metadata event so an exported trace can be matched to
// its manifest; when unset the export bytes are unchanged. Cold-path,
// nil-safe.
func (t *Tracer) SetRunID(id string) {
	if t == nil {
		return
	}
	t.runID = id
}

// Sample decides whether the next memory request is traced. It returns a
// nonzero request ID for sampled requests and 0 otherwise; callers
// thread the ID through the request's lifecycle and skip all recording
// when it is 0. Deterministic: the k-th call always answers the same.
//
//alloyvet:hotpath
func (t *Tracer) Sample() uint64 {
	if t == nil {
		return 0
	}
	// Countdown instead of seen%every: the sampled set is identical (the
	// every-th, 2·every-th, ... calls) but the hot path stays a decrement
	// and compare — no integer division per memory request.
	t.left--
	if t.left != 0 {
		return 0
	}
	t.left = t.every
	t.next++
	return t.next
}

// Span records one lifecycle segment for a sampled request. No-op on a
// nil tracer or a zero request ID, and skips zero-duration segments to
// keep the ring for spans that carry information.
//
//alloyvet:hotpath
func (t *Tracer) Span(id uint64, kind SpanKind, core int32, line, start, dur uint64, hit bool) {
	if t == nil || id == 0 || dur == 0 {
		return
	}
	if t.spanLen == len(t.spans) {
		t.spanDrops++
	} else {
		t.spanLen++
	}
	t.spans[t.spanHead] = Span{ReqID: id, Start: start, Dur: dur, Line: line, Core: core, Kind: kind, Hit: hit}
	t.spanHead++
	if t.spanHead == len(t.spans) {
		t.spanHead = 0
	}
}

// Record stores one request's latency breakdown. No-op on a nil tracer
// or a zero request ID.
//
//alloyvet:hotpath
func (t *Tracer) Record(b Breakdown) {
	if t == nil || b.ReqID == 0 {
		return
	}
	if t.brkLen == len(t.brks) {
		t.brkDrops++
	} else {
		t.brkLen++
	}
	t.brks[t.brkHead] = b
	t.brkHead++
	if t.brkHead == len(t.brks) {
		t.brkHead = 0
	}
}

// Sampled returns how many requests received a trace ID.
func (t *Tracer) Sampled() uint64 {
	if t == nil {
		return 0
	}
	return t.next
}

// Dropped returns how many span and breakdown records were overwritten
// because the rings filled.
func (t *Tracer) Dropped() (spans, breakdowns uint64) {
	if t == nil {
		return 0, 0
	}
	return t.spanDrops, t.brkDrops
}

// eachSpan visits retained spans oldest-first.
func (t *Tracer) eachSpan(fn func(*Span) error) error {
	start := t.spanHead - t.spanLen
	if start < 0 {
		start += len(t.spans)
	}
	for i := 0; i < t.spanLen; i++ {
		if err := fn(&t.spans[(start+i)%len(t.spans)]); err != nil {
			return err
		}
	}
	return nil
}

// EachBreakdown visits the retained breakdowns oldest-first, stopping at
// the first error. External consumers (the validation harness checks the
// additivity invariant on every retained row) get read access without
// copying the ring. The *Breakdown argument points into the ring: inspect
// it during the call, copy it to keep it.
func (t *Tracer) EachBreakdown(fn func(*Breakdown) error) error {
	if t == nil {
		return nil
	}
	return t.eachBreakdown(fn)
}

// eachBreakdown visits retained breakdowns oldest-first.
func (t *Tracer) eachBreakdown(fn func(*Breakdown) error) error {
	start := t.brkHead - t.brkLen
	if start < 0 {
		start += len(t.brks)
	}
	for i := 0; i < t.brkLen; i++ {
		if err := fn(&t.brks[(start+i)%len(t.brks)]); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTrace renders the retained spans as Chrome trace_event JSON
// (loadable in chrome://tracing and Perfetto). One complete ("ph":"X")
// event per span; pid 0 is the simulated machine, tid is the issuing
// core, and timestamps are engine cycles reported through the
// microsecond field. The JSON is hand-formatted with a fixed field order
// so identical runs produce byte-identical files. Nil-safe: a disabled
// tracer writes an empty (but valid) trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	if t != nil {
		first := true
		if t.runID != "" {
			// Metadata event carrying the correlation ID; field order is
			// fixed like the span events so output stays byte-stable.
			if _, err := fmt.Fprintf(w,
				"{\"name\":\"run_id\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"run_id\":%q}}", t.runID); err != nil {
				return err
			}
			first = false
		}
		err := t.eachSpan(func(s *Span) error {
			sep := ",\n"
			if first {
				sep = ""
				first = false
			}
			hit := 0
			if s.Hit {
				hit = 1
			}
			_, err := fmt.Fprintf(w,
				"%s{\"name\":%q,\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":0,\"tid\":%d,\"args\":{\"req\":%d,\"line\":%d,\"hit\":%d}}",
				sep, s.Kind.String(), s.Start, s.Dur, s.Core, s.ReqID, s.Line, hit)
			return err
		})
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// csvHeader is the latency-breakdown CSV column order; the component
// columns pred..other sum to total on every row.
const csvHeader = "req,core,line,hit,start,total,pred,cache_queue,cache_bank,cache_bus,cache_burst,mem_queue,mem_bank,mem_bus,mem_burst,other\n"

// WriteBreakdownCSV renders the retained per-request breakdowns as CSV,
// oldest-first. Nil-safe: a disabled tracer writes just the header.
func (t *Tracer) WriteBreakdownCSV(w io.Writer) error {
	if _, err := io.WriteString(w, csvHeader); err != nil {
		return err
	}
	if t == nil {
		return nil
	}
	return t.eachBreakdown(func(b *Breakdown) error {
		hit := 0
		if b.Hit {
			hit = 1
		}
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			b.ReqID, b.Core, b.Line, hit, b.Start, b.Total,
			b.Pred, b.CacheQueue, b.CacheBank, b.CacheBus, b.CacheBurst,
			b.MemQueue, b.MemBank, b.MemBus, b.MemBurst, b.Other)
		return err
	})
}
