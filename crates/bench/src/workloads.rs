//! Scaled workloads matching the paper's three evaluation graphs.
//!
//! §3: "Two of the graphs were generated from neurobiological datasets,
//! where each graph contains 12422 vertices, one with 6151 edges
//! (0.008% edge density), the other with 229297 edges (0.3% edge
//! density). The third graph was generated from myogenic
//! differentiation data, and contains 2895 vertices with 10914 edges
//! (0.2% edge density). ... the maximum clique size \[was\] 17, 110, and
//! 28 for each graph, respectively."
//!
//! The workloads here run the *same generator family* (overlapping
//! planted modules on sparse background, the thresholded-correlation
//! structure) at sizes a single commodity core finishes in seconds.
//! `scale(f)` grows them toward the published sizes when more time is
//! available (set `GSB_SCALE` for the harness binaries).

use gsb_graph::generators::{correlation_like, CorrelationProfile};
use gsb_graph::BitGraph;

/// Identifies one of the paper's evaluation graphs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 12,422 vertices / 0.008 % density / ω = 17 (Table 1's graph).
    BrainSparse,
    /// 2,895 vertices / 0.2 % density / ω = 28 (Figs. 5–9's graph).
    Myogenic,
    /// 12,422 vertices / 0.3 % density / ω = 110 (the run that consumed
    /// ~1 TB on the Altix).
    BrainDense,
}

/// A concrete, scaled instantiation of a workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Which paper graph this stands in for.
    pub workload: Workload,
    /// Scaled vertex count.
    pub n: usize,
    /// Generator profile.
    pub profile: CorrelationProfile,
    /// RNG seed.
    pub seed: u64,
}

impl Workload {
    /// Paper-reported vertex count.
    pub fn paper_n(self) -> usize {
        match self {
            Workload::BrainSparse | Workload::BrainDense => 12_422,
            Workload::Myogenic => 2_895,
        }
    }

    /// Paper-reported maximum clique size.
    pub fn paper_omega(self) -> usize {
        match self {
            Workload::BrainSparse => 17,
            Workload::Myogenic => 28,
            Workload::BrainDense => 110,
        }
    }

    /// Default scaled instantiation (finishes in seconds on one core).
    pub fn spec(self) -> WorkloadSpec {
        self.spec_scaled(1.0)
    }

    /// Instantiation scaled by `f` (vertex count multiplied; capped at
    /// the paper's size).
    pub fn spec_scaled(self, f: f64) -> WorkloadSpec {
        let base_n = match self {
            Workload::BrainSparse => 1_600,
            Workload::Myogenic => 900,
            Workload::BrainDense => 700,
        };
        let n = ((base_n as f64 * f) as usize).clamp(64, self.paper_n());
        let profile = match self {
            Workload::BrainSparse => CorrelationProfile::brain_sparse_like(n),
            Workload::Myogenic => CorrelationProfile::myogenic_like(n),
            Workload::BrainDense => CorrelationProfile::brain_dense_like(n),
        };
        WorkloadSpec {
            workload: self,
            n,
            profile,
            seed: 0x5C05,
        }
    }
}

impl WorkloadSpec {
    /// Generate the graph.
    pub fn graph(&self) -> BitGraph {
        correlation_like(&self.profile, self.seed)
    }

    /// One-line description for reports.
    pub fn describe(&self, g: &BitGraph) -> String {
        format!(
            "{:?} (paper: n={}, ω={}) scaled to n={}, m={}, density={:.4}%",
            self.workload,
            self.workload.paper_n(),
            self.workload.paper_omega(),
            g.n(),
            g.m(),
            100.0 * g.density()
        )
    }
}

/// Scale factor from the `GSB_SCALE` environment variable (default 1.0).
pub fn env_scale() -> f64 {
    std::env::var("GSB_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// The skewed-degree workload: a G(n, 0.003) background (median
/// degree ~30 — most of the true level-2 work), six exact 11-cliques
/// (dense structure feeding the deeper levels), and seven mutually
/// non-adjacent hub vertices sharing a 3500-vertex periphery. A hub
/// sub-list's tail holds ~3500 mostly non-adjacent vertices, so its
/// t² estimate (~12M units) towers over the summed estimate of the
/// whole background (~9M) while its true cost is a fraction of the
/// background's: the exact mispricing that makes an estimate-driven
/// plan park one hub per processor and funnel everything else onto
/// the processor left without one.
pub fn steal_workload() -> BitGraph {
    let n = 10_000;
    let mut g = gsb_graph::generators::gnp(n, 0.003, 0xC11A5EED);
    // Exact cliques: vertices [10 + 20·i, 10 + 20·i + 11).
    for module in 0..6usize {
        let base = 10 + 20 * module;
        for i in 0..11 {
            for j in i + 1..11 {
                g.add_edge(base + i, base + j);
            }
        }
    }
    // Hubs 0..7 (not adjacent to each other) over a shared periphery;
    // periphery vertices meet each other only through background
    // edges, so hub tails are overwhelmingly non-adjacent pairs.
    for hub in 0..7usize {
        for p in 200..3_700 {
            g.add_edge(hub, p);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_generate_valid_graphs() {
        for w in [
            Workload::BrainSparse,
            Workload::Myogenic,
            Workload::BrainDense,
        ] {
            let spec = w.spec_scaled(0.3);
            let g = spec.graph();
            g.validate();
            assert!(g.n() >= 64);
            assert!(g.m() > 0);
            assert!(!spec.describe(&g).is_empty());
        }
    }

    #[test]
    fn scaling_caps_at_paper_size() {
        let spec = Workload::Myogenic.spec_scaled(1e9);
        assert_eq!(spec.n, 2_895);
        let spec = Workload::Myogenic.spec_scaled(0.0);
        assert_eq!(spec.n, 64);
    }

    #[test]
    fn deterministic() {
        let a = Workload::Myogenic.spec().graph();
        let b = Workload::Myogenic.spec().graph();
        assert_eq!(a, b);
    }
}
