package core

import (
	"context"
	"errors"
	"fmt"

	"alloysim/internal/cache"
	"alloysim/internal/cpu"
	"alloysim/internal/invariants"
	"alloysim/internal/memaddr"
)

// The 2-bit outcome of one warmup front reference: what the L2 and L3 left
// for the DRAM-cache organization to see.
const (
	// warmSkip: an L2 hit, an L3 write-probe hit or an L3 read hit.
	warmSkip uint8 = iota
	// warmForward: the reference goes to the organization as a read or a
	// write, as FrontRef.Write says.
	warmForward
	// warmVictim: an L3 read miss that evicted a dirty line. The victim's
	// writeback goes to the organization first, then the read.
	warmVictim
)

// WarmRecord is one warmup front recorded for replay: a 2-bit outcome per
// front reference in warm's loop order, the dirty L3 victims in order, and
// a copy of the L3 after warmup's closing resets.
//
// The front (generators, private L2s, L3) never observes the design, the
// DRAM-cache size or the clock: warmup stops the clock and discards every
// AccessResult. So every System whose front configuration matches warms
// its L3 to the recorded copy and hands its organization the call sequence
// the codes describe. Organizations take no contents decision from DRAM
// results (the dramcache package rule), so that sequence warms each of
// them to exactly the contents direct warmup would. A replayed System
// still runs its own generators and L2s, since the measured phase
// continues their streams.
//
// The zero WarmRecord is empty, ready for RecordWarmup. A record is
// written by one System's Run and is read-only once Complete; any number
// of Systems may then replay it concurrently.
type WarmRecord struct {
	front   frontKey
	codes   []byte         // 2-bit codes, four per byte, low bits first
	n       uint64         // codes written
	victims []memaddr.Line // dirty L3 victims, one per warmVictim code
	l3      *cache.Cache   // the post-warmup L3; nil until the record is complete
}

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
	s.rec, s.replay = rec, nil
	return nil
}

// ReplayWarmup makes Run warm the System from a complete record instead of
// simulating the L3: the generators and private L2s run as in direct
// warmup, the record's codes drive the organization, and the recorded L3
// is copied in. The System's front must match the recorder's; otherwise
// ReplayWarmup returns an error and leaves the System unchanged.
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
	return nil
}

// put appends one front outcome to the record.
//
//alloyvet:hotpath
func (r *WarmRecord) put(code uint8, victim memaddr.Line) {
	r.codes[r.n>>2] |= code << ((r.n & 3) * 2)
	r.n++
	if code == warmVictim {
		//alloyvet:allow(hotpath) growth is bounded by the dirty L3 evictions of one warmup, and only a recording warmup appends
		r.victims = append(r.victims, victim)
	}
}

// complete seals the record with a copy of the post-warmup L3.
func (r *WarmRecord) complete(l3 *cache.Cache) { r.l3 = l3.Clone() }

// replayWarm is warm for a System given a record (ReplayWarmup). It calls
// every source once per reference, as direct warmup does, and issues the
// organization calls the codes say; then it copies the recorded L3 in and
// runs direct warmup's closing resets.
//
//alloyvet:hotpath
func (s *System) replayWarm(ctx context.Context) error {
	rec := s.replay
	var ref cpu.FrontRef
	var i, v uint64 // next code, next victim
	for n := uint64(0); n < s.cfg.WarmupRefs; n++ {
		if n&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for _, src := range s.srcs {
			src.next(&ref)
			code := rec.codes[i>>2] >> ((i & 3) * 2) & 3
			i++
			if invariants.Enabled && ref.L2Hit && code != warmSkip {
				invariants.Failf("core: warmup replay reference %d hit the L2 but was recorded with code %d", i-1, code)
			}
			if code == warmSkip || s.org == nil {
				continue
			}
			var victim memaddr.Line
			if code == warmVictim {
				victim = rec.victims[v]
				v++
			}
			s.forwardWarm(code, victim, ref.Line, ref.Write)
		}
	}
	s.l3.CopyFrom(rec.l3)
	s.endWarm()
	return nil
}

// forwardWarm issues the organization calls of one forwarded warmup
// reference: a dirty L3 victim's writeback first, then the reference.
//
//alloyvet:hotpath
func (s *System) forwardWarm(code uint8, victim, line memaddr.Line, write bool) {
	if code == warmVictim {
		s.org.AccessInto(0, victim, true, &s.wres)
	}
	if write {
		s.org.AccessInto(0, line, true, &s.wres)
		return
	}
	s.org.AccessInto(0, line, false, &s.rres)
}
