package dramcache

import (
	"fmt"
	"sort"

	"alloysim/internal/cache"
	"alloysim/internal/dram"
	"alloysim/internal/memaddr"
)

// Params is the builder input for the design table: everything an
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

// design is one entry of the design table: the tag store a design keeps
// in the stacked rows, and the organization it builds around that store.
type design struct {
	row    layout // the store's fixed row layout; the zero layout keeps every line
	ways   int    // ways per set
	policy string // replacement policy, with seed 0
	// anyPolicy lets Params.Policy, seeded by Params.Seed, replace policy.
	// Every other design rejects a policy.
	anyPolicy bool
	// trains marks a design whose Warm also trains state beside its tag
	// store (Banshee's page counters, Gemini's steering table), so that
	// TagConfig does not cover it.
	trains bool
	// org builds the organization around its store.
	org func(base) Organization
	// build, when set, builds the organization from Params with a store
	// derivation of its own: Gemini's two regions split the rows.
	build func(Params) (Organization, error)
}

// layout is a fixed arrangement of a tag store in each stacked row: the
// lines it keeps there, and the bytes they and their tags take.
type layout struct{ lines, bytes int }

// The two fixed layouts, both laid out for a 2 KB row: LH-Cache's 29 data
// lines behind 3 tag lines (2,048 B), and Alloy's 28 TADs (2,016 B).
var (
	lhLayout    = layout{lines: LHDataLinesPerRow, bytes: (LHDataLinesPerRow + LHTagLines) * memaddr.LineSizeBytes}
	alloyLayout = layout{lines: AlloyTADsPerRow, bytes: AlloyTADsPerRow * TADBytes}
)

// fit reports an error when the layout does not fit in a row of rowBytes.
// A larger row stays under-filled.
func (l layout) fit(name string, rowBytes int) error {
	if l.bytes > rowBytes {
		return fmt.Errorf("dramcache: design %q keeps %d lines in %d B of each row, but a row is %d B", name, l.lines, l.bytes, rowBytes)
	}
	return nil
}

// designs maps each design name (a core.Design string) to its entry, in
// the style of gem5's PolicyManager: one lookup point for the whole
// design zoo. Row layouts, ways and policies are the paper's (Table 1,
// §6.5, §6.7, Table 7) and the zoo's (DESIGN.md §16).
var designs = map[string]design{
	"sram-32": {ways: 32, policy: "dip", org: newSRAMTag},
	"sram-1":  {ways: 1, policy: "dip", org: newSRAMTag},
	"lh-29":   {row: lhLayout, ways: LHDataLinesPerRow, policy: "dip", anyPolicy: true, org: newLHCache},
	// Table 1's random de-optimization keeps seed 0 whatever Params.Seed
	// is: its committed results depend on that fixed eviction sequence.
	"lh-29-rand":     {row: lhLayout, ways: LHDataLinesPerRow, policy: "random", org: newLHCache},
	"lh-1":           {row: lhLayout, ways: 1, policy: "dip", org: newLHCache},
	"alloy":          {row: alloyLayout, ways: 1, policy: "lru", org: newAlloy(AlloyBurst)},
	"alloy-2":        {row: alloyLayout, ways: 2, policy: "lru", org: newAlloy(AlloyBurst)},
	"alloy-b8":       {row: alloyLayout, ways: 1, policy: "lru", org: newAlloy(8)},
	"tdram":          {row: alloyLayout, ways: 1, policy: "lru", org: newTDRAM},
	"ideal-lo":       {row: alloyLayout, ways: 1, policy: "lru", org: newIdealLO},
	"ideal-lo-notag": {ways: 1, policy: "lru", org: newIdealLO},
	"banshee":        {ways: 1, policy: "lru", trains: true, org: newBanshee},
	"gemini":         {trains: true, build: newGemini},
}

// store derives the tag store design name keeps in capacityBytes of
// stacked DRAM under the given policy override and seed, and how many of
// its sets share one row.
func (d design) store(name string, capacityBytes uint64, stacked dram.Config, policy string, seed uint64) (cfg cache.Config, setsPerRow int, err error) {
	switch {
	case policy == "":
		policy, seed = d.policy, 0
	case !d.anyPolicy:
		return cache.Config{}, 0, fmt.Errorf("dramcache: design %q has no replacement-policy choice (got %q)", name, policy)
	}
	rows := capacityBytes / uint64(stacked.RowBytes)
	if rows == 0 {
		return cache.Config{}, 0, fmt.Errorf("dramcache: capacity %d smaller than one row", capacityBytes)
	}
	lines := d.row.lines
	if lines == 0 {
		lines = stacked.LinesPerRow()
	} else if err := d.row.fit(name, stacked.RowBytes); err != nil {
		return cache.Config{}, 0, err
	}
	setsPerRow = lines / d.ways
	if setsPerRow == 0 {
		return cache.Config{}, 0, fmt.Errorf("dramcache: design %q keeps %d-way sets in rows, but a %d B row holds %d of its lines", name, d.ways, stacked.RowBytes, lines)
	}
	return cache.Config{Sets: int(rows) * setsPerRow, Assoc: d.ways, Policy: policy, Seed: seed}, setsPerRow, nil
}

// Build constructs the named design.
func Build(name string, p Params) (Organization, error) {
	d, ok := designs[name]
	if !ok {
		return nil, fmt.Errorf("dramcache: unknown design %q (known: %v)", name, Names())
	}
	if d.build != nil {
		return d.build(p)
	}
	cfg, setsPerRow, err := d.store(name, p.CapacityBytes, p.Stacked.Config(), p.Policy, p.Seed)
	if err != nil {
		return nil, err
	}
	tags, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	return d.org(base{tags: tags, stacked: p.Stacked, setsPerRow: setsPerRow}), nil
}

// Names lists every design in sorted order.
func Names() []string {
	names := make([]string, 0, len(designs))
	//alloyvet:allow(determinism) collection order is irrelevant: sorted below
	for n := range designs {
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

// TagConfig returns the tag store Build(name, p) gives a design whose
// contents are that store alone: every design but banshee and gemini,
// whose Warm also trains page counters or a steering table. It takes p's
// capacity, policy and seed and the stacked device's geometry, derives
// the store as Build does, and builds nothing. ok is false for banshee,
// gemini and unknown names.
func TagConfig(name string, capacityBytes uint64, stacked dram.Config, policy string, seed uint64) (cfg cache.Config, ok bool, err error) {
	d, ok := designs[name]
	if !ok || d.trains {
		return cache.Config{}, false, nil
	}
	cfg, _, err = d.store(name, capacityBytes, stacked, policy, seed)
	return cfg, err == nil, err
}

// TagStore returns the tag store of an organization whose contents are
// that store alone (the designs TagConfig covers), or nil for any other.
// A warmed store can be cloned and copied into another organization of
// equal TagConfig, which then holds what its own warmup would have left.
func TagStore(org Organization) *cache.Cache {
	switch o := org.(type) {
	case *Banshee, *Gemini:
		return nil
	case interface{ tagStore() *cache.Cache }:
		return o.tagStore()
	}
	return nil
}
