package trace

// This file defines the workload suite mirroring Table 3 of the paper: ten
// memory-intensive SPEC CPU2006 rate-mode workloads studied in detail, and
// the fourteen lower-intensity workloads of Figure 11. Region sizes are
// per-copy (the paper's footprints cover all 8 rate-mode copies) and
// unscaled; experiments divide them by the configured scale factor.
//
// Each profile layers components with distinct reuse behavior and distinct
// instruction addresses:
//
//   - hot: a small region that fits in the DRAM cache (and partly in the
//     L3) — near-100% DRAM-cache hits;
//   - warm: a region around the per-copy share of the DRAM cache with
//     skewed (concave) reuse — partial hits, the capacity-sensitive part;
//   - cold: a region far larger than the cache — mostly misses;
//   - stream/stride: sequential or strided sweeps — high spatial locality
//     (off-chip row hits, Alloy row hits), little temporal reuse unless
//     the sweep fits in the cache.
//
// Because every component issues from its own small PC set, instruction
// addresses correlate strongly with hit/miss behavior — the structure
// MAP-I exploits (§5.3.2) — and phases (bursts) give MAP-G its global
// streaks. libquantum is the paper's highlighted special case: a nearly
// pure sequential streamer whose off-chip accesses are mostly row-buffer
// hits (type X), making slow cache hits a net loss.

import "slices"

const (
	mb = 1 << 20 / 64 // lines per MiB
	gb = 1 << 30 / 64 // lines per GiB
)

// MemoryIntensive returns the ten detailed-study workloads, ordered as in
// Table 3 (by perfect-L3 speedup).
func MemoryIntensive() []Profile {
	return []Profile{
		{
			Name: "mcf_r", PaperMPKI: 67.9, PaperFootprintMB: 10650, PaperPerfL3: 4.9,
			GapMean: 14, BurstMean: 60,
			Components: []Component{
				{Kind: Rand, Weight: 0.40, RegionLines: 4 * mb, PCs: 12, WriteFrac: 0.10, PageRun: 2},
				{Kind: Rand, Weight: 0.25, RegionLines: 24 * mb, PCs: 16, WriteFrac: 0.08, Skew: 3, PageRun: 2},
				{Kind: Rand, Weight: 0.23, RegionLines: 1228 * mb, PCs: 8, WriteFrac: 0.05, PageRun: 4},
				{Kind: Stream, Weight: 0.12, RegionLines: 64 * mb, PCs: 4, WriteFrac: 0.05},
			},
		},
		{
			Name: "lbm_r", PaperMPKI: 31.9, PaperFootprintMB: 3379, PaperPerfL3: 3.8,
			GapMean: 30, BurstMean: 150,
			Components: []Component{
				{Kind: Stream, Weight: 0.32, RegionLines: 409 * mb, PCs: 6, WriteFrac: 0.45},
				{Kind: Stream, Weight: 0.26, RegionLines: 3 * mb, PCs: 6, WriteFrac: 0.45},
				{Kind: Rand, Weight: 0.24, RegionLines: 6 * mb, PCs: 16, WriteFrac: 0.25, Skew: 3, PageRun: 4},
				{Kind: Rand, Weight: 0.18, RegionLines: 3 * mb, PCs: 8, WriteFrac: 0.20, PageRun: 4},
			},
		},
		{
			Name: "soplex_r", PaperMPKI: 27.0, PaperFootprintMB: 1945, PaperPerfL3: 3.5,
			GapMean: 28, BurstMean: 100,
			Components: []Component{
				{Kind: Stride, Weight: 0.18, RegionLines: 174 * mb, StrideLines: 9, PCs: 8, WriteFrac: 0.15},
				{Kind: Rand, Weight: 0.34, RegionLines: 20 * mb, PCs: 16, WriteFrac: 0.20, Skew: 3, PageRun: 3},
				{Kind: Rand, Weight: 0.30, RegionLines: 4 * mb, PCs: 12, WriteFrac: 0.20, PageRun: 3},
				{Kind: Stream, Weight: 0.18, RegionLines: 48 * mb, PCs: 6, WriteFrac: 0.10},
			},
		},
		{
			Name: "milc_r", PaperMPKI: 25.7, PaperFootprintMB: 4198, PaperPerfL3: 3.5,
			GapMean: 34, BurstMean: 120,
			Components: []Component{
				{Kind: Stride, Weight: 0.30, RegionLines: 270 * mb, StrideLines: 16, PCs: 8, WriteFrac: 0.25},
				{Kind: Stream, Weight: 0.20, RegionLines: 210 * mb, PCs: 4, WriteFrac: 0.20},
				{Kind: Rand, Weight: 0.28, RegionLines: 16 * mb, PCs: 16, WriteFrac: 0.15, Skew: 3, PageRun: 4},
				{Kind: Rand, Weight: 0.22, RegionLines: 4 * mb, PCs: 10, WriteFrac: 0.15, PageRun: 4},
			},
		},
		{
			Name: "omnetpp_r", PaperMPKI: 20.9, PaperFootprintMB: 259, PaperPerfL3: 3.1,
			GapMean: 30, BurstMean: 50,
			Components: []Component{
				{Kind: Rand, Weight: 0.38, RegionLines: 3 * mb, PCs: 16, WriteFrac: 0.25, PageRun: 3},
				{Kind: Rand, Weight: 0.20, RegionLines: 1 * mb, PCs: 8, WriteFrac: 0.25, PageRun: 3},
				{Kind: Rand, Weight: 0.22, RegionLines: 5 * mb, PCs: 16, WriteFrac: 0.25, Skew: 3, PageRun: 3},
				{Kind: Rand, Weight: 0.20, RegionLines: 23 * mb, PCs: 8, WriteFrac: 0.15, PageRun: 4},
			},
		},
		{
			Name: "gcc_r", PaperMPKI: 16.5, PaperFootprintMB: 458, PaperPerfL3: 2.8,
			GapMean: 32, BurstMean: 80,
			Components: []Component{
				{Kind: Rand, Weight: 0.42, RegionLines: 3 * mb, PCs: 16, WriteFrac: 0.20, PageRun: 3},
				{Kind: Rand, Weight: 0.33, RegionLines: 8 * mb, PCs: 16, WriteFrac: 0.15, Skew: 3, PageRun: 3},
				{Kind: Rand, Weight: 0.13, RegionLines: 44 * mb, PCs: 8, WriteFrac: 0.12, PageRun: 4},
				{Kind: Stream, Weight: 0.12, RegionLines: 2 * mb, PCs: 6, WriteFrac: 0.10},
			},
		},
		{
			Name: "bwaves_r", PaperMPKI: 18.7, PaperFootprintMB: 1536, PaperPerfL3: 2.8,
			GapMean: 50, BurstMean: 250,
			Components: []Component{
				{Kind: Stream, Weight: 0.48, RegionLines: 117 * mb, PCs: 4, WriteFrac: 0.30},
				{Kind: Stride, Weight: 0.18, RegionLines: 64 * mb, StrideLines: 7, PCs: 4, WriteFrac: 0.20},
				{Kind: Rand, Weight: 0.18, RegionLines: 12 * mb, PCs: 16, WriteFrac: 0.10, Skew: 3, PageRun: 4},
				{Kind: Rand, Weight: 0.16, RegionLines: 3 * mb, PCs: 8, WriteFrac: 0.10, PageRun: 4},
			},
		},
		{
			Name: "sphinx_r", PaperMPKI: 12.3, PaperFootprintMB: 80, PaperPerfL3: 2.4,
			GapMean: 34, BurstMean: 60,
			Components: []Component{
				{Kind: Rand, Weight: 0.60, RegionLines: 7 * mb, PCs: 16, WriteFrac: 0.08, Skew: 2, PageRun: 4},
				{Kind: Stream, Weight: 0.40, RegionLines: 3 * mb, PCs: 6, WriteFrac: 0.05},
			},
		},
		{
			Name: "gems_r", PaperMPKI: 9.7, PaperFootprintMB: 3686, PaperPerfL3: 2.2,
			GapMean: 90, BurstMean: 180,
			Components: []Component{
				{Kind: Stride, Weight: 0.40, RegionLines: 381 * mb, StrideLines: 24, PCs: 6, WriteFrac: 0.30},
				{Kind: Stream, Weight: 0.18, RegionLines: 60 * mb, PCs: 4, WriteFrac: 0.20},
				{Kind: Rand, Weight: 0.22, RegionLines: 10 * mb, PCs: 16, WriteFrac: 0.15, Skew: 3, PageRun: 4},
				{Kind: Rand, Weight: 0.20, RegionLines: 3 * mb, PCs: 10, WriteFrac: 0.15, PageRun: 4},
			},
		},
		{
			Name: "libquantum_r", PaperMPKI: 25.4, PaperFootprintMB: 262, PaperPerfL3: 2.1,
			GapMean: 150, BurstMean: 400,
			Components: []Component{
				{Kind: Stream, Weight: 0.92, RegionLines: 40 * mb, PCs: 2, WriteFrac: 0.25},
				{Kind: Rand, Weight: 0.08, RegionLines: mb / 2, PCs: 4, WriteFrac: 0.10, PageRun: 4},
			},
		},
	}
}

// Others returns the fourteen lower-intensity workloads of Figure 11:
// benchmarks that spend at least 1% of their time in memory but fall below
// the 2x perfect-L3 speedup bar of the detailed study.
func Others() []Profile {
	mk := func(name string, mpki float64, footMB float64, gap uint32, hot, cold uint64, streamW float64) Profile {
		comps := []Component{
			{Kind: Rand, Weight: 0.6, RegionLines: hot, PCs: 16, WriteFrac: 0.15, PageRun: 3},
			{Kind: Rand, Weight: 0.4 - streamW, RegionLines: cold, PCs: 12, WriteFrac: 0.12, Skew: 2, PageRun: 3},
		}
		if streamW > 0 {
			comps = append(comps, Component{Kind: Stream, Weight: streamW, RegionLines: cold / 2, PCs: 4, WriteFrac: 0.15})
		}
		return Profile{
			Name: name, PaperMPKI: mpki, PaperFootprintMB: footMB, PaperPerfL3: 1.5,
			GapMean: gap, BurstMean: 80, Components: comps,
		}
	}
	return []Profile{
		mk("perlbench_r", 1.1, 230, 320, 4*mb, 24*mb, 0.10),
		mk("bzip2_r", 3.1, 420, 140, 6*mb, 46*mb, 0.15),
		mk("gobmk_r", 0.7, 120, 420, 3*mb, 12*mb, 0.05),
		mk("hmmer_r", 1.4, 110, 300, 2*mb, 12*mb, 0.20),
		mk("sjeng_r", 0.9, 690, 380, 4*mb, 82*mb, 0.05),
		mk("h264ref_r", 1.2, 180, 330, 3*mb, 19*mb, 0.15),
		mk("astar_r", 4.5, 460, 100, 8*mb, 50*mb, 0.05),
		mk("xalancbmk_r", 5.2, 310, 90, 6*mb, 33*mb, 0.05),
		mk("zeusmp_r", 4.8, 1480, 110, 6*mb, 179*mb, 0.25),
		mk("gromacs_r", 1.0, 105, 360, 2*mb, 11*mb, 0.10),
		mk("cactusADM_r", 4.2, 1340, 120, 5*mb, 163*mb, 0.25),
		mk("leslie3d_r", 6.1, 620, 80, 6*mb, 71*mb, 0.30),
		mk("namd_r", 0.8, 190, 400, 3*mb, 21*mb, 0.10),
		mk("wrf_r", 5.5, 560, 90, 7*mb, 63*mb, 0.25),
	}
}

// All returns every defined profile.
func All() []Profile {
	return append(MemoryIntensive(), Others()...)
}

// suite is the full suite, built once for ByName.
var suite = All()

// ByName looks up a profile in the full suite. The profile is the
// caller's own: its Components are a fresh copy.
func ByName(name string) (Profile, bool) {
	for i := range suite {
		if suite[i].Name == name {
			p := suite[i]
			p.Components = slices.Clone(p.Components)
			return p, true
		}
	}
	return Profile{}, false
}
