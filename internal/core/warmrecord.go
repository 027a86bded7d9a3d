package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"alloysim/internal/cache"
	"alloysim/internal/dramcache"
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
// A design whose warmup touches nothing but its tag store can skip even
// the Warm calls: a ContentsRecord holds such a store after warmup beside
// the WarmRecord that warmed it, and a System of equal ContentsKey copies
// the store and replays the front (CopyWarmup).
//
// The zero WarmRecord is empty, ready for RecordWarmup. A record is
// written by one System's Warm and is read-only once Complete, which it
// is as soon as that warmup ends; any number of Systems may then replay
// it concurrently.
type WarmRecord struct {
	front   FrontKey
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

// FrontKey is everything the warmup front depends on: the reference
// streams (workload, seed, scale, copies, gap scale), their length, and
// the geometry and policy of the private L2s and the L3. Systems with
// equal keys reach the same post-warmup front, so a WarmRecord of one
// warms any other (ReplayWarmup).
type FrontKey struct {
	workload   string
	seed       uint64
	scale      uint64
	cores      int
	gapScale   uint32
	warmupRefs uint64
	l3         cache.Config
	l2         cache.Config // zero without private L2s
}

// ContentsKey is everything a DRAM-cache tag store after warmup depends
// on, for the designs whose warmup touches nothing but that store
// (dramcache.TagConfig): the front, which fixes the Warm calls the store
// sees, and the store's geometry, policy and seed. A one-way store builds
// no policy, so its policy and seed are left out (cache.Config.Shape), and
// alloy, alloy-b8, ideal-lo and tdram share one key, as do sram-1 and
// ideal-lo-notag. Systems with equal keys warm equal stores, so a
// ContentsRecord of one warms any other (CopyWarmup). The zero ContentsKey
// stands for no key.
type ContentsKey struct {
	front FrontKey
	tags  cache.Config
}

// Keys returns the front key and the contents key of the System
// NewSystem(cfg) would build, without building it. The contents key is
// zero for the baseline and for designs whose warmup also trains state
// beside the tag store (banshee's page counters, gemini's steering).
// Caller-provided generators have no keys: their streams are not a
// function of the configuration.
func Keys(cfg Config) (FrontKey, ContentsKey, error) {
	if cfg.Generators != nil {
		return FrontKey{}, ContentsKey{}, errors.New("core: warmup records need profile-built generators, but Config.Generators is set")
	}
	l3, l2, err := cfg.frontCaches()
	if err != nil {
		return FrontKey{}, ContentsKey{}, err
	}
	f := FrontKey{
		workload:   cfg.Workload,
		seed:       cfg.Seed,
		scale:      cfg.Scale,
		cores:      cfg.Cores,
		gapScale:   cfg.GapScale,
		warmupRefs: cfg.WarmupRefs,
		l3:         l3,
		l2:         l2,
	}
	if cfg.Design == DesignNone {
		return f, ContentsKey{}, nil
	}
	d := string(cfg.Design)
	tags, ok, err := dramcache.TagConfig(d, cfg.ScaledCacheBytes(), cfg.Stacked, cfg.DCPolicy, dramcache.SeedFor(d, cfg.DCPolicy))
	if !ok {
		return f, ContentsKey{}, err
	}
	return f, ContentsKey{front: f, tags: tags.Shape()}, nil
}

// Tags returns the tag-store part of the key: its geometry, policy and
// seed. Within one front, it tells contents keys apart.
func (k ContentsKey) Tags() cache.Config { return k.tags }

// FrontKey returns the System's front key (Keys).
func (s *System) FrontKey() (FrontKey, error) {
	k, _, err := Keys(s.cfg)
	return k, err
}

// ContentsRecord is one DRAM-cache tag store after warmup, recorded for
// copying, with the front record that warmup replayed or recorded. A
// System of equal ContentsKey warms from it by putting the record's
// front in place, as a replay does, and copying the store, with no Warm
// call at all (CopyWarmup): by the dramcache rule the store is what those
// calls leave. The zero ContentsRecord is empty, ready for
// RecordContents; once Complete it is read-only, and any number of
// Systems may copy it concurrently.
type ContentsRecord struct {
	key   ContentsKey
	front *WarmRecord     // the front record the recorder warmed through
	tags  *cache.Snapshot // the post-warmup store; nil until complete
}

// Complete reports whether the record holds a warmed store and its front.
func (c *ContentsRecord) Complete() bool { return c.tags != nil }

// RecordContents makes the System's warmup also record its post-warmup
// tag store into c, which must be new. The record completes only for a
// System that warms through a front record (RecordWarmup or
// ReplayWarmup), since a copy needs that front too.
func (s *System) RecordContents(c *ContentsRecord) error {
	if c.Complete() || c.key != (ContentsKey{}) {
		return errors.New("core: RecordContents needs a new ContentsRecord")
	}
	_, k, err := Keys(s.cfg)
	if err != nil {
		return err
	}
	if k == (ContentsKey{}) {
		return fmt.Errorf("core: design %q has no contents key", s.cfg.Design)
	}
	c.key = k
	s.snap, s.copy = c, nil
	return nil
}

// CopyWarmup makes the System warm from a complete contents record: the
// record's front is put in place as ReplayWarmup puts it, and the
// organization's tag store becomes a copy of the recorded one, with no
// Warm call. The System's contents key must match the recorder's;
// otherwise CopyWarmup returns an error and leaves the System unchanged.
func (s *System) CopyWarmup(c *ContentsRecord) error {
	if !c.Complete() {
		return errors.New("core: CopyWarmup needs a complete ContentsRecord")
	}
	_, k, err := Keys(s.cfg)
	if err != nil {
		return err
	}
	if k != c.key {
		return fmt.Errorf("core: contents record of %+v cannot warm %+v", c.key, k)
	}
	s.replay, s.copy, s.rec, s.snap = c.front, c, nil, nil
	s.cursors = nil
	return nil
}

// complete seals the record with a snapshot of the System's warmed tag
// store and the front record it warmed through. A System that recorded no
// front (its record was abandoned) leaves the record incomplete.
func (c *ContentsRecord) complete(s *System) {
	front := s.replay
	if s.rec != nil {
		front = s.rec
	}
	if front == nil || !front.Complete() {
		return
	}
	c.front = front
	c.tags = dramcache.TagStore(s.org).Snapshot()
}

// RecordWarmup makes Run record the System's warmup front into rec, which
// must be new. The record is complete once warmup ends, whatever happens
// in the measured phase after it.
func (s *System) RecordWarmup(rec *WarmRecord) error {
	if rec.n != 0 || rec.Complete() {
		return errors.New("core: RecordWarmup needs a new WarmRecord")
	}
	k, err := s.FrontKey()
	if err != nil {
		return err
	}
	rec.front = k
	rec.codes = make([]byte, (k.warmupRefs*uint64(k.cores)+3)/4)
	rec.lines = make([][]byte, k.cores)
	s.rec, s.replay, s.copy = rec, nil, nil
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
	k, err := s.FrontKey()
	if err != nil {
		return err
	}
	if k != rec.front {
		return fmt.Errorf("core: warmup record of front %+v cannot warm front %+v", rec.front, k)
	}
	s.replay, s.rec, s.copy = rec, nil, nil
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
// and runs direct warmup's closing resets. Given a contents record
// (CopyWarmup), it copies the recorded tag store instead of issuing any
// organization call.
//
//alloyvet:hotpath
func (s *System) replayWarm(ctx context.Context) error {
	rec := s.replay
	if s.copy != nil {
		dramcache.TagStore(s.org).Restore(s.copy.tags)
	} else if s.org != nil {
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
