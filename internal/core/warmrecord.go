package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"alloysim/internal/cache"
	"alloysim/internal/invariants"
	"alloysim/internal/memaddr"
	"alloysim/internal/trace"
)

// The 2-bit code of one warmup front reference: what the L2 and L3 left
// for the DRAM-cache organization to see.
const (
	// warmSkip: an L2 hit, an L3 write-probe hit or an L3 read hit.
	warmSkip uint8 = iota
	// warmRead: an L3 read miss that evicted no dirty line. The reference
	// goes to the organization as a read.
	warmRead
	// warmVictim: an L3 read miss that evicted a dirty line. The victim's
	// writeback goes to the organization first, then the read.
	warmVictim
	// warmWrite: an L3 write-probe miss. The reference goes to the
	// organization as a write.
	warmWrite
)

// WarmRecord is one warmup front recorded for replay. Here the front
// means the per-core generators, the private L2s and the shared L3, the
// levels every warmup reference streams through before the DRAM-cache
// organization sees it. The record holds:
//
//   - a 2-bit code per front reference, in warm's loop order;
//   - per core, the line of each forwarded (non-skip) reference, coded as
//     a zigzag varint of the change in its gathered line
//     (memaddr.PageGather), so streams, strides and page runs take a byte
//     or two;
//   - the dirty L3 victims, in order;
//   - the front after warmup's closing resets: a copy of each core's
//     generator and private L2, and of the L3.
//
// The front never observes the design, the DRAM-cache size or the clock:
// warmup stops the clock and takes nothing back from the organization's
// Warm calls. So every System whose front configuration matches reaches
// the recorded post-warmup front and hands its organization the Warm call
// sequence the record describes. An organization's contents follow from
// that sequence alone (the dramcache package rule), so it warms each of
// them to exactly the contents direct warmup would. A replay runs no
// generator, L2 or L3.
//
// The zero WarmRecord is empty, ready for RecordWarmup. A record is
// written by one System's Run and is read-only once Complete; any number
// of Systems may then replay it concurrently.
type WarmRecord struct {
	front   frontKey
	codes   []byte            // 2-bit codes, four per byte, low bits first
	n       uint64            // codes written
	lines   [][]byte          // per core: one varint per forwarded reference (lineCursor)
	victims []memaddr.Line    // dirty L3 victims, one per warmVictim code
	gens    []trace.Generator // per core: the generator after warmup
	l2      []*cache.Cache    // per core: the private L2 after warmup; nil without L2s
	l3      *cache.Cache      // the post-warmup L3; nil until the record is complete
}

// lineCursor is one core's position in its record line stream: the next
// byte a replay decodes, and the gathered line the stream last coded,
// which the recorder and the replay both take differences from.
type lineCursor struct {
	pos  int
	prev memaddr.Line
}

// maxGatherLine bounds the lines a record can code: PageGather inverts
// PageScatter only below it. Profile-built generators emit nothing near
// it; a recorder that meets such a line abandons the record.
const maxGatherLine = 1 << 63

// Complete reports whether the record holds a whole warmup front and can
// be replayed.
func (r *WarmRecord) Complete() bool { return r.l3 != nil }

// frontKey is everything the warmup front depends on: the reference
// streams (workload, seed, scale, copies, gap scale), their length, and
// the geometry and policy of the private L2s and the L3.
type frontKey struct {
	workload   string
	seed       uint64
	scale      uint64
	cores      int
	gapScale   uint32
	warmupRefs uint64
	l3         cache.Config
	l2         cache.Config // zero without private L2s
}

// front returns the System's front key. Caller-provided generators have
// no key: their streams are not a function of the configuration.
func (s *System) front() (frontKey, error) {
	if s.cfg.Generators != nil {
		return frontKey{}, errors.New("core: warmup records need profile-built generators, but Config.Generators is set")
	}
	k := frontKey{
		workload:   s.cfg.Workload,
		seed:       s.cfg.Seed,
		scale:      s.cfg.Scale,
		cores:      s.cfg.Cores,
		gapScale:   s.cfg.GapScale,
		warmupRefs: s.cfg.WarmupRefs,
		l3:         s.l3.Config(),
	}
	if s.l2 != nil {
		k.l2 = s.l2[0].Config()
	}
	return k, nil
}

// RecordWarmup makes Run record the System's warmup front into rec, which
// must be new. The record is complete once warmup ends, whatever happens
// in the measured phase after it.
func (s *System) RecordWarmup(rec *WarmRecord) error {
	if rec.n != 0 || rec.Complete() {
		return errors.New("core: RecordWarmup needs a new WarmRecord")
	}
	k, err := s.front()
	if err != nil {
		return err
	}
	rec.front = k
	rec.codes = make([]byte, (k.warmupRefs*uint64(k.cores)+3)/4)
	rec.lines = make([][]byte, k.cores)
	s.rec, s.replay = rec, nil
	s.cursors = make([]lineCursor, k.cores)
	return nil
}

// ReplayWarmup makes Run warm the System from a complete record instead of
// simulating its front: the record's codes, lines and victims drive the
// organization, and the recorded generators, L2s and L3 are copied in.
// The System's front must match the recorder's; otherwise ReplayWarmup
// returns an error and leaves the System unchanged.
func (s *System) ReplayWarmup(rec *WarmRecord) error {
	if !rec.Complete() {
		return errors.New("core: ReplayWarmup needs a complete WarmRecord")
	}
	k, err := s.front()
	if err != nil {
		return err
	}
	if k != rec.front {
		return fmt.Errorf("core: warmup record of front %+v cannot warm front %+v", rec.front, k)
	}
	s.replay, s.rec = rec, nil
	s.cursors = make([]lineCursor, k.cores)
	return nil
}

// put appends one front reference of a core to the record: its code and,
// when it is forwarded, its line and dirty victim. It reports false, and
// writes nothing past the code, for a line the record cannot code.
//
//alloyvet:hotpath
func (r *WarmRecord) put(cur *lineCursor, core int, code uint8, victim, line memaddr.Line) bool {
	r.codes[r.n>>2] |= code << ((r.n & 3) * 2)
	r.n++
	if code == warmSkip {
		return true
	}
	if line >= maxGatherLine {
		return false
	}
	if code == warmVictim {
		//alloyvet:allow(hotpath) growth is bounded by the dirty L3 evictions of one warmup, and only a recording warmup appends
		r.victims = append(r.victims, victim)
	}
	g := memaddr.PageGather(line)
	var buf [binary.MaxVarintLen64]byte
	k := binary.PutVarint(buf[:], int64(g-cur.prev))
	//alloyvet:allow(hotpath) only a recording warmup appends, at most once per forwarded reference
	r.lines[core] = append(r.lines[core], buf[:k]...)
	cur.prev = g
	return true
}

// next decodes the cursor's next forwarded line from its core's stream.
//
//alloyvet:hotpath
func (c *lineCursor) next(stream []byte) memaddr.Line {
	var d int64
	if b := stream[c.pos]; b < 0x80 {
		d = int64(b>>1) ^ -int64(b&1) // a one-byte zigzag varint
		c.pos++
	} else {
		var k int
		d, k = binary.Varint(stream[c.pos:])
		c.pos += k
	}
	c.prev += memaddr.Line(d)
	return memaddr.PageScatter(c.prev)
}

// abandonRecord stops recording after a line the record cannot code. The
// record stays incomplete, as it does when the recording run fails, and
// the System warms on directly.
func (s *System) abandonRecord() {
	*s.rec = WarmRecord{front: s.rec.front, n: s.rec.n}
	s.rec, s.cursors = nil, nil
}

// complete seals the record with copies of the post-warmup front.
func (r *WarmRecord) complete(s *System) {
	for _, src := range s.srcs {
		// front refused caller-provided generators, so every clone succeeds.
		g, _ := trace.Clone(src.gen)
		r.gens = append(r.gens, g)
	}
	for _, l2 := range s.l2 {
		r.l2 = append(r.l2, l2.Clone())
	}
	r.l3 = s.l3.Clone()
}

// replayWarm is warm for a System given a record (ReplayWarmup). It walks
// the codes in warm's loop order and issues the organization calls they
// say, decoding each forwarded line from its core's stream and taking
// victim lines from the record; then it puts the recorded front in place
// and runs direct warmup's closing resets.
//
//alloyvet:hotpath
func (s *System) replayWarm(ctx context.Context) error {
	rec := s.replay
	if s.org != nil {
		var i, v uint64 // next code, next victim
		for n := uint64(0); n < s.cfg.WarmupRefs; n++ {
			if n&0xfff == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			for c := range s.cursors {
				code := rec.codes[i>>2] >> ((i & 3) * 2) & 3
				i++
				if code == warmSkip {
					continue
				}
				var victim memaddr.Line
				if code == warmVictim {
					victim = rec.victims[v]
					v++
				}
				s.forwardWarm(code, victim, s.cursors[c].next(rec.lines[c]))
			}
		}
		if invariants.Enabled {
			s.checkReplayed(i, v)
		}
	}
	s.restoreFront()
	s.endWarm()
	return nil
}

// checkReplayed asserts that a replay consumed the whole record: every
// code, every victim and every byte of every core's line stream.
func (s *System) checkReplayed(codes, victims uint64) {
	rec := s.replay
	if codes != rec.n || victims != uint64(len(rec.victims)) {
		invariants.Failf("core: warmup replay consumed %d of %d codes and %d of %d victims", codes, rec.n, victims, len(rec.victims))
	}
	for c, cur := range s.cursors {
		if cur.pos != len(rec.lines[c]) {
			invariants.Failf("core: warmup replay consumed %d of %d line-stream bytes of core %d", cur.pos, len(rec.lines[c]), c)
		}
	}
}

// restoreFront puts the replayed record's post-warmup front in place. Each
// core gets a fresh clone of its recorded generator, so the record stays
// read-only for concurrent replays. The L2s and the L3 copy in place,
// since RegisterMetrics closures and the sources hold their pointers.
func (s *System) restoreFront() {
	rec := s.replay
	for c, src := range s.srcs {
		src.gen, _ = trace.Clone(rec.gens[c])
	}
	for c, l2 := range s.l2 {
		l2.CopyFrom(rec.l2[c])
	}
	s.l3.CopyFrom(rec.l3)
}

// forwardWarm applies the contents effect of one forwarded warmup
// reference to the organization (dramcache.Organization.Warm): a dirty L3
// victim's writeback first, then the reference. Direct warmup, recording
// and replay all come through here.
//
//alloyvet:hotpath
func (s *System) forwardWarm(code uint8, victim, line memaddr.Line) {
	switch code {
	case warmVictim:
		s.org.Warm(victim, true)
		s.org.Warm(line, false)
	case warmRead:
		s.org.Warm(line, false)
	default:
		s.org.Warm(line, true)
	}
}
