package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"alloysim/internal/cache"
	"alloysim/internal/dramcache"
	"alloysim/internal/invariants"
	"alloysim/internal/memaddr"
	"alloysim/internal/trace"
)

// The kind of a warmup front reference: what the L2 and L3 left for the
// DRAM-cache organization to see.
const (
	// warmRead: an L3 read miss that evicted no dirty line. The reference
	// goes to the organization as a read.
	warmRead uint8 = iota
	// warmVictim: an L3 read miss that evicted a dirty line. The victim's
	// writeback goes to the organization first, then the read.
	warmVictim
	// warmWrite: an L3 write-probe miss. The reference goes to the
	// organization as a write.
	warmWrite
	// warmSkip: an L2 hit, an L3 write-probe hit or an L3 read hit. The
	// organization sees nothing, and a record stores nothing.
	warmSkip
)

// WarmRecord is one warmup front recorded for replay. Here the front
// means the per-core generators, the private L2s and the shared L3, the
// levels every warmup reference streams through before the DRAM-cache
// organization sees it. The record holds:
//
//   - one byte stream of the forwarded (non-skip) references, in the
//     order warm makes their Warm calls. Each is a header byte naming
//     its core, its kind and the byte count of its delta, then that many
//     little-endian bytes of the delta: the zigzag change in the core's
//     gathered line (memaddr.PageGather) since its last forwarded
//     reference, so streams, strides and page runs take a byte or two;
//   - the dirty L3 victims, in order, one per warmVictim reference;
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
	refs    []byte                  // forwarded references, then warmPad zero bytes once complete
	victims []memaddr.Line          // dirty L3 victims, one per warmVictim reference
	prev    [warmCores]memaddr.Line // per core: the gathered line its last reference coded; recording only
	gens    []trace.Generator       // per core: the generator after warmup
	l2      []*cache.Cache          // per core: the private L2 after warmup; nil without L2s
	l3      *cache.Cache            // the post-warmup L3; nil until the record is complete
}

// The header byte of a recorded reference holds its core in the low
// three bits, its kind in the next two and its delta's byte count in the
// top three. A System of more than warmCores cores has no keys (Keys), so
// it records nothing. A reference the header cannot describe otherwise,
// a delta of all eight bytes, which only gathered lines 2^55 or more
// apart need, makes the recorder abandon the record (put).
const (
	warmCores     = 8 // cores a header can name
	warmKindShift = 3
	warmLenShift  = 5
	maxDeltaBytes = 7 // delta bytes a header can count
	// warmPad zero bytes end a complete stream, so that a replay reads
	// every delta with one 8-byte load.
	warmPad = 8
)

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
// function of the configuration. Nor has a System of more cores than a
// record's header can name (warmCores): its warmup cannot be recorded, so
// no other System can reuse it.
func Keys(cfg Config) (FrontKey, ContentsKey, error) {
	if cfg.Generators != nil {
		return FrontKey{}, ContentsKey{}, errors.New("core: warmup records need profile-built generators, but Config.Generators is set")
	}
	if cfg.Cores > warmCores {
		return FrontKey{}, ContentsKey{}, fmt.Errorf("core: a warmup record names at most %d cores, but Config.Cores is %d", warmCores, cfg.Cores)
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
	front *WarmRecord  // the front record the recorder warmed through
	tags  *cache.Cache // a clone of the post-warmup store; nil until complete
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
	return nil
}

// complete seals the record with a clone of the System's warmed tag store
// and the front record it warmed through. A System that recorded no
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
	c.tags = dramcache.TagStore(s.org).Clone()
}

// RecordWarmup makes Run record the System's warmup front into rec, which
// must be new. The record is complete once warmup ends, whatever happens
// in the measured phase after it.
func (s *System) RecordWarmup(rec *WarmRecord) error {
	if rec.front != (FrontKey{}) || rec.Complete() {
		return errors.New("core: RecordWarmup needs a new WarmRecord")
	}
	k, err := s.FrontKey()
	if err != nil {
		return err
	}
	rec.front = k
	s.rec, s.replay, s.copy = rec, nil, nil
	return nil
}

// ReplayWarmup makes Run warm the System from a complete record instead of
// simulating its front: the record's references and victims drive the
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
	return nil
}

// put appends one forwarded reference of a core to the record: its
// header and line delta, and its dirty victim. It reports false, and
// writes nothing, for a reference the record cannot code: a core the
// header cannot name, a line at or above maxGatherLine, or a delta of
// more than maxDeltaBytes.
//
//alloyvet:hotpath
func (r *WarmRecord) put(core int, kind uint8, victim, line memaddr.Line) bool {
	if core >= warmCores || line >= maxGatherLine {
		return false
	}
	g := memaddr.PageGather(line)
	d := int64(g - r.prev[core])
	z := uint64(d<<1) ^ uint64(d>>63) // zigzag: small changes either way take few bytes
	n := (bits.Len64(z) + 7) / 8
	if n > maxDeltaBytes {
		return false
	}
	if kind == warmVictim {
		//alloyvet:allow(hotpath) growth is bounded by the dirty L3 evictions of one warmup, and only a recording warmup appends
		r.victims = append(r.victims, victim)
	}
	end := len(r.refs) + 1 + n
	//alloyvet:allow(hotpath) only a recording warmup appends, once per forwarded reference
	r.refs = binary.LittleEndian.AppendUint64(append(r.refs, byte(n<<warmLenShift)|kind<<warmKindShift|byte(core)), z)[:end]
	r.prev[core] = g
	return true
}

// decode reads the reference at pos of a complete stream and returns its
// kind, its gathered line and the position of the next reference. prev
// holds each core's last gathered line; decode adds the reference's delta
// to its core's. The stream's padding lets it load every delta as 8 bytes
// and mask off what belongs to the next references.
//
//alloyvet:hotpath
func decode(refs []byte, pos int, prev *[warmCores]memaddr.Line) (kind uint8, gathered memaddr.Line, next int) {
	h := refs[pos]
	n := h >> warmLenShift
	z := binary.LittleEndian.Uint64(refs[pos+1:]) & (1<<(8*n) - 1)
	c := h & (warmCores - 1)
	prev[c] += memaddr.Line(z>>1 ^ -(z & 1))
	return h >> warmKindShift & 3, prev[c], pos + 1 + int(n)
}

// abandonRecord stops recording after a reference the record cannot
// code. The record stays incomplete, as it does when the recording run
// fails, and the System warms on directly.
func (s *System) abandonRecord() {
	*s.rec = WarmRecord{front: s.rec.front}
	s.rec = nil
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
	// The record outlives the recording (a sweep keeps it until the last
	// point that replays it starts), so it keeps no growth slack.
	refs := make([]byte, len(r.refs)+warmPad)
	copy(refs, r.refs)
	r.refs = refs
}

// replayWarm is warm for a System given a record (ReplayWarmup). It
// walks the record's stream and issues the organization calls each
// reference says, adding its delta to its core's gathered line and taking
// victim lines from the record; then it puts the recorded front in place
// and runs direct warmup's closing resets. Given a contents record
// (CopyWarmup), it copies the recorded tag store instead of issuing any
// organization call.
//
//alloyvet:hotpath
func (s *System) replayWarm(ctx context.Context) error {
	rec := s.replay
	if s.copy != nil {
		dramcache.TagStore(s.org).CopyFrom(s.copy.tags)
	} else if s.org != nil {
		refs, v := rec.refs, 0 // the stream and the next victim
		end := len(refs) - warmPad
		var prev [warmCores]memaddr.Line
		pos := 0
		for i := 0; pos < end; i++ {
			if i&0xfff == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			var kind uint8
			var g, victim memaddr.Line
			kind, g, pos = decode(refs, pos, &prev)
			if kind == warmVictim {
				victim = rec.victims[v]
				v++
			}
			s.forwardWarm(kind, victim, memaddr.PageScatter(g))
		}
		if invariants.Enabled && (pos != end || v != len(rec.victims)) {
			invariants.Failf("core: warmup replay consumed %d of %d stream bytes and %d of %d victims", pos, end, v, len(rec.victims))
		}
	}
	s.restoreFront()
	s.endWarm()
	return nil
}

// restoreFront puts the replayed record's post-warmup front in place:
// each core's generator, its L2 and the L3 copy the recorded ones into
// the objects NewSystem built, allocating nothing and leaving the record
// read-only for concurrent replays. The caches must copy in place anyway,
// since RegisterMetrics closures and the sources hold their pointers.
func (s *System) restoreFront() {
	rec := s.replay
	for c, src := range s.srcs {
		// front refused caller-provided generators, so every copy succeeds.
		trace.Copy(src.gen, rec.gens[c])
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
func (s *System) forwardWarm(kind uint8, victim, line memaddr.Line) {
	switch kind {
	case warmVictim:
		s.org.Warm(victim, true)
		s.org.Warm(line, false)
	case warmRead:
		s.org.Warm(line, false)
	default:
		s.org.Warm(line, true)
	}
}
