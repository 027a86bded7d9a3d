package dramcache

import (
	"fmt"
	"sort"

	"alloysim/internal/cache"
	"alloysim/internal/dram"
)

// Params is the builder input for the design registry: everything an
// organization needs at construction time. Policy and Seed feed the
// design×replacement-policy cross-product — designs that expose no
// replacement choice reject a non-empty Policy instead of silently
// ignoring it.
type Params struct {
	CapacityBytes uint64
	Stacked       *dram.DRAM
	// Policy optionally overrides the design's replacement policy (a
	// policy.Known name). Only policy-capable designs ("lh-29", "gemini")
	// accept it.
	Policy string
	// Seed decorrelates stochastic replacement across cross-producted
	// runs; 0 keeps each design's legacy fixed seed.
	Seed uint64
}

// Builder constructs one organization from Params.
type Builder func(Params) (Organization, error)

// registry maps design names (the core.Design strings) to builders. It is
// populated at init time and read-only afterwards, in the style of gem5's
// PolicyManager: one lookup point for the whole design zoo.
var registry = map[string]Builder{}

// Register adds a design builder under a name. It panics on duplicates —
// two designs claiming one name is a programming error, not a runtime
// condition.
func Register(name string, b Builder) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("dramcache: design %q registered twice", name))
	}
	registry[name] = b
}

// Build constructs the named design.
func Build(name string, p Params) (Organization, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("dramcache: unknown design %q (known: %v)", name, Names())
	}
	return b(p)
}

// Names lists every registered design in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	//alloyvet:allow(determinism) collection order is irrelevant: sorted below
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SeedFor derives a stable per-(design, policy) replacement seed (FNV-1a),
// never zero, so cross-producted runs are deterministic but do not share
// one eviction sequence across cells.
func SeedFor(design, policy string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, s := range []string{design, "/", policy} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
	}
	if h == 0 {
		h = offset
	}
	return h
}

// fixedPolicy wraps a builder for a design with no replacement choice: a
// policy override is a configuration error, not a no-op.
func fixedPolicy(name string, build Builder) Builder {
	return func(p Params) (Organization, error) {
		if p.Policy != "" {
			return nil, fmt.Errorf("dramcache: design %q has no replacement-policy choice (got %q)", name, p.Policy)
		}
		return build(p)
	}
}

// TagConfig returns the tag store Build(name, p) gives a design whose
// contents are that store alone: every registered design but banshee and
// gemini, whose Warm also trains page counters or a steering table. It
// takes p's capacity, policy and seed and the stacked device's geometry,
// and builds nothing. ok is false for banshee, gemini and unknown names.
// The cases pass each design the options its builder below passes its
// constructor, and TestTagConfigMatchesBuild holds them to it.
func TagConfig(name string, capacityBytes uint64, stacked dram.Config, policy string, seed uint64) (cfg cache.Config, ok bool, err error) {
	fixed := true
	switch name {
	case "sram-32":
		cfg, err = sramTags(capacityBytes, stacked, 32)
	case "sram-1":
		cfg, err = sramTags(capacityBytes, stacked, 1)
	case "lh-29":
		fixed = false
		if policy == "" {
			policy, seed = "dip", 0
		}
		cfg, err = rowTags(capacityBytes, stacked, LHDataLinesPerRow, LHDataLinesPerRow, policy, seed)
	case "lh-29-rand":
		cfg, err = rowTags(capacityBytes, stacked, LHDataLinesPerRow, LHDataLinesPerRow, "random", 0)
	case "lh-1":
		cfg, err = rowTags(capacityBytes, stacked, LHDataLinesPerRow, 1, "dip", 0)
	case "alloy", "alloy-b8", "tdram":
		cfg, err = alloyTags(capacityBytes, stacked, 1)
	case "alloy-2":
		cfg, err = alloyTags(capacityBytes, stacked, 2)
	case "ideal-lo", "ideal-lo-notag":
		cfg, err = rowTags(capacityBytes, stacked, idealLinesPerRow(stacked, name == "ideal-lo-notag"), 1, "lru", 0)
	default:
		return cache.Config{}, false, nil
	}
	if err == nil && fixed && policy != "" {
		err = fmt.Errorf("dramcache: design %q has no replacement-policy choice (got %q)", name, policy)
	}
	return cfg, err == nil, err
}

// TagStore returns the tag store of an organization whose contents are
// that store alone (the designs TagConfig covers), or nil for any other.
// A warmed store can be cloned and copied into another organization of
// equal TagConfig, which then holds what its own warmup would have left.
func TagStore(org Organization) *cache.Cache {
	switch o := org.(type) {
	case *SRAMTag:
		return o.tags
	case *LHCache:
		return o.tags
	case *Alloy:
		return o.tags
	case *IdealLO:
		return o.tags
	case *TDRAM:
		return o.tags
	}
	return nil
}

func init() {
	Register("sram-32", fixedPolicy("sram-32", func(p Params) (Organization, error) {
		return NewSRAMTag(p.CapacityBytes, 32, p.Stacked)
	}))
	Register("sram-1", fixedPolicy("sram-1", func(p Params) (Organization, error) {
		return NewSRAMTag(p.CapacityBytes, 1, p.Stacked)
	}))
	Register("lh-29", func(p Params) (Organization, error) {
		var opts []LHOption
		if p.Policy != "" {
			opts = append(opts, LHWithPolicy(p.Policy), LHWithSeed(p.Seed))
		}
		return NewLHCache(p.CapacityBytes, p.Stacked, opts...)
	})
	Register("lh-29-rand", fixedPolicy("lh-29-rand", func(p Params) (Organization, error) {
		// Deliberately unseeded: the Table 1 de-optimization's committed
		// results depend on the legacy fixed eviction sequence.
		return NewLHCache(p.CapacityBytes, p.Stacked, LHWithPolicy("random"))
	}))
	Register("lh-1", fixedPolicy("lh-1", func(p Params) (Organization, error) {
		return NewLHCache(p.CapacityBytes, p.Stacked, LHWithAssoc(1))
	}))
	Register("alloy", fixedPolicy("alloy", func(p Params) (Organization, error) {
		return NewAlloy(p.CapacityBytes, p.Stacked)
	}))
	Register("alloy-2", fixedPolicy("alloy-2", func(p Params) (Organization, error) {
		return NewAlloy(p.CapacityBytes, p.Stacked, AlloyWithAssoc(2))
	}))
	Register("alloy-b8", fixedPolicy("alloy-b8", func(p Params) (Organization, error) {
		return NewAlloy(p.CapacityBytes, p.Stacked, AlloyWithBurst(8))
	}))
	Register("ideal-lo", fixedPolicy("ideal-lo", func(p Params) (Organization, error) {
		return NewIdealLO(p.CapacityBytes, p.Stacked)
	}))
	Register("ideal-lo-notag", fixedPolicy("ideal-lo-notag", func(p Params) (Organization, error) {
		return NewIdealLO(p.CapacityBytes, p.Stacked, IdealNoTagOverhead())
	}))
	Register("banshee", fixedPolicy("banshee", func(p Params) (Organization, error) {
		return NewBanshee(p.CapacityBytes, p.Stacked)
	}))
	Register("gemini", func(p Params) (Organization, error) {
		var opts []GeminiOption
		if p.Policy != "" {
			opts = append(opts, GeminiWithPolicy(p.Policy))
		}
		if p.Seed != 0 {
			opts = append(opts, GeminiWithSeed(p.Seed))
		}
		return NewGemini(p.CapacityBytes, p.Stacked, opts...)
	})
	Register("tdram", fixedPolicy("tdram", func(p Params) (Organization, error) {
		return NewTDRAM(p.CapacityBytes, p.Stacked)
	}))
}
