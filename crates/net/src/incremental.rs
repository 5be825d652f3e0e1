//! Incremental TrustRank over a splice: recompute only the affected
//! neighborhood instead of re-running the full power iteration.
//!
//! The full kernels re-derive every node's score at every iteration even
//! though a single [`crate::SpliceOverlay::splice_pharmacy`] perturbs one
//! forward row (plus a handful of appended nodes). This module exploits
//! that: [`TrustTrajectory`] records the *per-iteration* score vectors
//! and dangling masses of the frozen base graph once, and
//! [`crate::SpliceOverlay::trust_rank_incremental`] then replays only the
//! nodes whose inputs actually changed — a residual-driven frontier in
//! the spirit of Gauss–Southwell push updates, but phrased against the
//! fixed-iteration-count kernel this system standardizes on so the two
//! are directly comparable.
//!
//! # One replay
//!
//! Trust and anti-trust share one replay over the splice's row patch in
//! their propagation direction (see [`crate::csr`]): forward, the spliced
//! node's row; reversed, one edge into the spliced node per target. A
//! node *moved* at iteration `k` when its score differs from the
//! recorded one. Iteration `k` then
//!
//! 1. takes the recorded dangling mass when no node moved and every base
//!    node that stopped dangling held zero mass, and otherwise re-sums
//!    the patched dangling list in ascending order;
//! 2. recomputes the nodes each moved node pushes to; for each patch
//!    source holding mass in either run, the destinations of its patch
//!    edges, and every node it pushes to if its normalizer changed; and
//!    the seed support when the dangling mass changed;
//! 3. gathers each recomputed node over its patched in-row in ascending
//!    source order, with normalizers from the patch or the base.
//!
//! # Exactness and the approximation boundary
//!
//! With [`IncrementalConfig::tolerance`] set to `0.0` the result is
//! **bit-identical** to the full overlay kernel: affected nodes are
//! re-gathered with the same additions in the same ascending-source
//! order as the tiled push, untouched nodes reuse the recorded trajectory
//! values, and the dangling pass is re-summed in the kernel's node order
//! whenever any contributing term changed.
//!
//! Exactness has a cost, though: dangling mass couples every seed to
//! every dangling node, and on expander-like graphs low-order-bit
//! perturbations fan out a hop per iteration until the "affected" set is
//! the whole graph. A non-zero `tolerance` is the documented,
//! deterministic approximation boundary: a recomputed score whose
//! absolute difference from the trajectory value is at most `tolerance`
//! is dropped from the moved set, which truncates the frontier where the
//! perturbation has decayed below interest. Dropping a score injects at
//! most `tolerance` of error per affected node per iteration, and the
//! iteration map contracts L1 norm by α, so the final scores differ from
//! the full kernel's by at most
//!
//! ```text
//! ‖incremental − full‖∞ ≤ tolerance · max_frontier / (1 − α)
//! ```
//!
//! (each iteration drops ≤ `max_frontier` scores of ≤ `tolerance` L1
//! mass each; the geometric series Σ αᵏ bounds their propagation). The
//! bound is loose in practice — dropped scores are at the decayed rim
//! of the frontier — but it is the contract the proptests pin.
//!
//! When one iteration's recompute set exceeds
//! [`IncrementalConfig::max_frontier`] the replay abandons its scores
//! and runs the full kernel instead ([`IncrementalOutcome::FellBack`]):
//! past that point the bookkeeping costs more than a full push over
//! every edge, and the caller gets full-kernel bits. Both paths are pure
//! functions of (base, splice, config) — worker counts and wall clocks
//! never enter.

use crate::csr::{
    patched_row, propagate, seed_distribution, validate, CsrGraph, NodeId, SerialDispatch,
    TrustRankConfig,
};
use crate::overlay::SpliceOverlay;

/// The recorded power-iteration history of a frozen base graph under one
/// seed set: everything [`crate::SpliceOverlay::trust_rank_incremental`]
/// needs to replay a perturbed run without touching unaffected nodes.
///
/// Memory is `(iterations + 1) · n` scores — at training scale a few
/// megabytes, computed once per fitted model.
#[derive(Debug, Clone)]
pub struct TrustTrajectory {
    /// `scores[k][v]` = trust of `v` after `k` iterations; `scores[0]`
    /// is the seed distribution `d`.
    scores: Vec<Vec<f64>>,
    /// `dangling[k]` = dangling mass summed from `scores[k]` (the value
    /// iteration `k` redistributes to the seeds).
    dangling: Vec<f64>,
    /// The normalized seed distribution.
    d: Vec<f64>,
    /// The seed list itself, kept for the full-kernel fallback.
    seeds: Vec<NodeId>,
    /// Nodes with `d > 0`, ascending — the support of teleportation.
    seed_support: Vec<NodeId>,
    config: TrustRankConfig,
}

impl TrustTrajectory {
    /// Runs the serial TrustRank kernel over `base` (so the final iterate
    /// is bit-identical to [`CsrGraph::trust_rank`] and to an unspliced
    /// overlay's [`crate::SpliceOverlay::trust_rank`]) and records every
    /// iterate with the dangling mass it redistributed.
    ///
    /// # Panics
    /// Panics if a seed id is out of range, `alpha` is outside `(0, 1)`,
    /// or `iterations` is 0.
    pub fn compute(base: &CsrGraph, seeds: &[NodeId], config: &TrustRankConfig) -> Self {
        let _span = pharmaverify_obs::global().span("net/incremental/trajectory");
        validate(config);
        let n = base.node_count();
        let d = seed_distribution(n, seeds);
        let mut scores = Vec::with_capacity(config.iterations + 1);
        scores.push(d.clone());
        let mut dangling = Vec::with_capacity(config.iterations);
        propagate(
            &d,
            config,
            base.tiles(false),
            None,
            &SerialDispatch,
            &mut |t, mass| {
                scores.push(t.to_vec());
                dangling.push(mass);
            },
        );
        let seed_support = (0..n as NodeId).filter(|&v| d[v as usize] > 0.0).collect();
        TrustTrajectory {
            scores,
            dangling,
            d,
            seeds: seeds.to_vec(),
            seed_support,
            config: *config,
        }
    }

    /// Node count of the base graph the trajectory was recorded over.
    pub fn node_count(&self) -> usize {
        self.d.len()
    }

    /// The final iterate: bit-identical to the base graph's full
    /// TrustRank under the recorded seeds and configuration.
    pub fn final_scores(&self) -> &[f64] {
        // `scores` always holds `iterations + 1 ≥ 2` entries.
        &self.scores[self.config.iterations]
    }

    /// The recorded propagation configuration.
    pub fn config(&self) -> &TrustRankConfig {
        &self.config
    }

    /// The trajectory value of node `v` at iteration `k`; appended
    /// overlay nodes (`v ≥ n`) read as `0.0` — their mass in the base
    /// run, where they do not exist.
    fn score_at(&self, k: usize, v: NodeId) -> f64 {
        self.scores[k].get(v as usize).copied().unwrap_or(0.0)
    }
}

/// Tuning of one incremental propagation. See the module docs for the
/// error bound `tolerance` implies.
#[derive(Debug, Clone, Copy)]
pub struct IncrementalConfig {
    /// Recomputed scores within `tolerance` (absolute) of the recorded
    /// trajectory value are dropped from the moved set. `0.0` demands
    /// bit-identity with the full kernel.
    pub tolerance: f64,
    /// Fall back to the full kernel when one iteration would recompute
    /// more than this many nodes.
    pub max_frontier: usize,
}

/// Which path produced an [`IncrementalTrust`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementalOutcome {
    /// The frontier stayed under the cap: scores are trajectory values
    /// plus the moved nodes' recomputed scores.
    Incremental,
    /// The frontier exceeded the cap: the full kernel ran instead, so
    /// the scores carry full-kernel bits.
    FellBack,
}

/// Result of [`crate::SpliceOverlay::trust_rank_incremental`].
#[derive(Debug)]
pub struct IncrementalTrust {
    /// Per-node trust over the overlaid view (base nodes then appended
    /// nodes), matching [`crate::SpliceOverlay::trust_rank`] exactly
    /// (tolerance 0) or within the documented bound.
    pub scores: Vec<f64>,
    /// Which path ran.
    pub outcome: IncrementalOutcome,
    /// Largest per-iteration recompute set observed before finishing or
    /// falling back.
    pub peak_frontier: usize,
}

impl SpliceOverlay<'_> {
    /// TrustRank over the overlaid view by incremental replay of a
    /// recorded base [`TrustTrajectory`]: only nodes whose gather inputs
    /// changed are recomputed per iteration. See the module docs of
    /// [`crate::incremental`] for the recompute rule, the exactness
    /// contract, the tolerance error bound, and the fallback rule.
    ///
    /// # Panics
    /// Panics if `trajectory` was recorded over a graph of a different
    /// node count than this overlay's base. (The trajectory's seed set
    /// and configuration travel with it, so they cannot disagree.)
    pub fn trust_rank_incremental(
        &self,
        trajectory: &TrustTrajectory,
        config: &IncrementalConfig,
    ) -> IncrementalTrust {
        let _span = pharmaverify_obs::global().span("net/incremental/run");
        self.replay(false, trajectory, config)
    }

    /// Anti-TrustRank over the overlaid view by incremental replay of a
    /// trajectory recorded over the **transposed** base graph:
    /// `TrustTrajectory::compute(&base.transposed(), bad_seeds, cfg)`.
    /// The same replay as [`SpliceOverlay::trust_rank_incremental`] over
    /// the reverse patch, with the same contract: at tolerance 0 the
    /// result is bit-identical to [`SpliceOverlay::anti_trust_rank`],
    /// tolerance > 0 obeys the module's error bound, and a frontier
    /// overflow falls back to the full kernel
    /// ([`IncrementalOutcome::FellBack`]).
    ///
    /// # Panics
    /// Panics if `trajectory` was recorded over a graph of a different
    /// node count than this overlay's base.
    pub fn anti_trust_rank_incremental(
        &self,
        trajectory: &TrustTrajectory,
        config: &IncrementalConfig,
    ) -> IncrementalTrust {
        let _span = pharmaverify_obs::global().span("net/incremental/anti_run");
        self.replay(true, trajectory, config)
    }

    /// Replays `trajectory` over the splice's row patch in direction
    /// `reverse`, following the module docs' three steps.
    fn replay(
        &self,
        reverse: bool,
        trajectory: &TrustTrajectory,
        config: &IncrementalConfig,
    ) -> IncrementalTrust {
        let base = self.base();
        let n = base.node_count();
        assert_eq!(
            trajectory.node_count(),
            n,
            "trajectory recorded over a different base graph"
        );
        let tiles = base.tiles(reverse);
        let patch = self.patch(reverse);
        let alpha = trajectory.config.alpha;
        // Patch sources whose normalizer's bits changed, and the base
        // nodes among them that stopped dangling.
        let renormed: Vec<NodeId> = patch
            .sources
            .iter()
            .filter(|&&(u, norm)| norm.to_bits() != tiles.norm(u).to_bits())
            .map(|&(u, _)| u)
            .collect();
        let stopped: Vec<NodeId> = renormed
            .iter()
            .copied()
            .filter(|&u| (u as usize) < n && tiles.norm(u) == 0.0)
            .collect();

        // The nodes that moved at iteration `k`, ascending, with their
        // scores; every other node holds its trajectory value.
        let mut moved: Vec<(NodeId, f64)> = Vec::new();
        let mass = |moved: &[(NodeId, f64)], k: usize, u: NodeId| -> f64 {
            match moved.binary_search_by_key(&u, |&(v, _)| v) {
                Ok(i) => moved[i].1,
                Err(_) => trajectory.score_at(k, u),
            }
        };
        let mut peak = 0usize;

        for k in 0..trajectory.config.iterations {
            let dangling =
                if moved.is_empty() && stopped.iter().all(|&u| trajectory.score_at(k, u) == 0.0) {
                    trajectory.dangling[k]
                } else {
                    patch
                        .dangling(tiles)
                        .fold(0.0, |sum, u| sum + mass(&moved, k, u))
                };

            // A moved node holds mass, so the loop below adds its patch edges.
            let mut recompute: Vec<NodeId> = Vec::new();
            for &(u, _) in &moved {
                recompute.extend(base.row(reverse, u).map(|(v, _)| v));
            }
            for &(u, _) in &patch.sources {
                if mass(&moved, k, u) != 0.0 || trajectory.score_at(k, u) != 0.0 {
                    recompute.extend(patch.edges_from(u).map(|(v, _)| v));
                    if renormed.contains(&u) {
                        recompute.extend(base.row(reverse, u).map(|(v, _)| v));
                    }
                }
            }
            if dangling.to_bits() != trajectory.dangling[k].to_bits() {
                recompute.extend_from_slice(&trajectory.seed_support);
            }
            recompute.sort_unstable();
            recompute.dedup();
            peak = peak.max(recompute.len());
            if recompute.len() > config.max_frontier {
                let (seeds, rank) = (&trajectory.seeds, &trajectory.config);
                return IncrementalTrust {
                    scores: if reverse {
                        self.anti_trust_rank(seeds, rank)
                    } else {
                        self.trust_rank(seeds, rank)
                    },
                    outcome: IncrementalOutcome::FellBack,
                    peak_frontier: peak,
                };
            }

            moved = recompute
                .into_iter()
                .filter_map(|v| {
                    let mut acc = 0.0;
                    for (u, w) in patched_row(base.row(!reverse, v), patch.edges_into(v)) {
                        let m = mass(&moved, k, u);
                        if m != 0.0 {
                            acc += m * w / patch.norm(tiles, u);
                        }
                    }
                    let dv = trajectory.d.get(v as usize).copied().unwrap_or(0.0);
                    let score = alpha * (acc + dangling * dv) + (1.0 - alpha) * dv;
                    let reference = trajectory.score_at(k + 1, v);
                    let keep = if config.tolerance == 0.0 {
                        score.to_bits() != reference.to_bits()
                    } else {
                        (score - reference).abs() > config.tolerance
                    };
                    keep.then_some((v, score))
                })
                .collect();
        }

        let mut scores = trajectory.final_scores().to_vec();
        scores.resize(patch.nodes, 0.0);
        for &(v, score) in &moved {
            scores[v as usize] = score;
        }
        IncrementalTrust {
            scores,
            outcome: IncrementalOutcome::Incremental,
            peak_frontier: peak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Exact mode: unlimited frontier, zero tolerance.
    fn exact(n: usize) -> IncrementalConfig {
        IncrementalConfig {
            tolerance: 0.0,
            max_frontier: n + 64,
        }
    }

    /// A small mixed graph with pharmacies, externals, and a dangling
    /// link target.
    fn fixture() -> CsrGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_pharmacy("a.com");
        let c = b.add_pharmacy("b.com");
        b.add_link(a, "b.com", 2.0);
        b.add_link(a, "ext.org", 1.0);
        b.add_link(c, "ext.org", 3.0);
        b.add_link(c, "hub.net", 1.0);
        b.add_link(b.node("hub.net").unwrap(), "a.com", 1.0);
        b.freeze()
    }

    #[test]
    fn trajectory_final_matches_full_kernel() {
        let g = fixture();
        let cfg = TrustRankConfig::default();
        let traj = TrustTrajectory::compute(&g, &[0, 1], &cfg);
        assert_eq!(
            bits(traj.final_scores()),
            bits(&g.trust_rank(&[0, 1], &cfg))
        );
        assert_eq!(traj.node_count(), g.node_count());
    }

    #[test]
    fn unspliced_incremental_returns_trajectory_final() {
        let g = fixture();
        let traj = TrustTrajectory::compute(&g, &[0], &TrustRankConfig::default());
        let ov = SpliceOverlay::new(&g);
        let inc = ov.trust_rank_incremental(&traj, &exact(g.node_count()));
        assert_eq!(inc.outcome, IncrementalOutcome::Incremental);
        assert_eq!(inc.peak_frontier, 0);
        assert_eq!(bits(&inc.scores), bits(traj.final_scores()));
    }

    #[test]
    fn fresh_splice_is_bit_identical_to_full_overlay_kernel() {
        let g = fixture();
        let cfg = TrustRankConfig::default();
        let traj = TrustTrajectory::compute(&g, &[0, 1], &cfg);
        let mut ov = SpliceOverlay::new(&g);
        ov.splice_pharmacy(
            "cand.com",
            &[("ext.org".to_string(), 2.0), ("new.net".to_string(), 1.0)],
        );
        let want = ov.trust_rank(&[0, 1], &cfg);
        let inc = ov.trust_rank_incremental(&traj, &exact(g.node_count()));
        assert_eq!(inc.outcome, IncrementalOutcome::Incremental);
        assert_eq!(bits(&inc.scores), bits(&want));
    }

    #[test]
    fn preexisting_splice_is_bit_identical_to_full_overlay_kernel() {
        let g = fixture();
        let cfg = TrustRankConfig::default();
        let traj = TrustTrajectory::compute(&g, &[0, 1], &cfg);
        let mut ov = SpliceOverlay::new(&g);
        // ext.org was dangling; the splice flips its dangling status and
        // exercises the re-summed dangling pass plus the replaced row.
        ov.splice_pharmacy(
            "ext.org",
            &[("a.com".to_string(), 1.0), ("fresh.net".to_string(), 1.0)],
        );
        let want = ov.trust_rank(&[0, 1], &cfg);
        let inc = ov.trust_rank_incremental(&traj, &exact(g.node_count()));
        assert_eq!(inc.outcome, IncrementalOutcome::Incremental);
        assert_eq!(bits(&inc.scores), bits(&want));
    }

    #[test]
    fn spliced_pharmacy_seed_domain_is_bit_identical() {
        let g = fixture();
        let cfg = TrustRankConfig::default();
        let traj = TrustTrajectory::compute(&g, &[0, 1], &cfg);
        let mut ov = SpliceOverlay::new(&g);
        // Re-verifying a training pharmacy: the spliced node sits in the
        // teleport support itself.
        ov.splice_pharmacy("b.com", &[("hub.net".to_string(), 2.0)]);
        let want = ov.trust_rank(&[0, 1], &cfg);
        let inc = ov.trust_rank_incremental(&traj, &exact(g.node_count()));
        assert_eq!(inc.outcome, IncrementalOutcome::Incremental);
        assert_eq!(bits(&inc.scores), bits(&want));
    }

    #[test]
    fn frontier_cap_falls_back_to_full_kernel_bits() {
        let g = fixture();
        let cfg = TrustRankConfig::default();
        let traj = TrustTrajectory::compute(&g, &[0, 1], &cfg);
        let mut ov = SpliceOverlay::new(&g);
        // A preexisting, mass-carrying domain: its new out-links perturb
        // real scores, so the recompute set is non-empty and trips the
        // zero cap. (A *fresh* splice with no in-links would perturb
        // nothing and legitimately keep the frontier empty.)
        ov.splice_pharmacy("ext.org", &[("hub.net".to_string(), 2.0)]);
        let want = ov.trust_rank(&[0, 1], &cfg);
        let inc = ov.trust_rank_incremental(
            &traj,
            &IncrementalConfig {
                tolerance: 0.0,
                max_frontier: 0,
            },
        );
        assert_eq!(inc.outcome, IncrementalOutcome::FellBack);
        assert!(inc.peak_frontier > 0);
        assert_eq!(bits(&inc.scores), bits(&want));
    }

    #[test]
    fn tolerance_mode_stays_within_documented_bound() {
        let g = fixture();
        let cfg = TrustRankConfig::default();
        let traj = TrustTrajectory::compute(&g, &[0, 1], &cfg);
        let mut ov = SpliceOverlay::new(&g);
        ov.splice_pharmacy(
            "cand.com",
            &[("ext.org".to_string(), 2.0), ("hub.net".to_string(), 1.0)],
        );
        let want = ov.trust_rank(&[0, 1], &cfg);
        let inc_cfg = IncrementalConfig {
            tolerance: 1e-9,
            max_frontier: g.node_count() + 64,
        };
        let inc = ov.trust_rank_incremental(&traj, &inc_cfg);
        assert_eq!(inc.outcome, IncrementalOutcome::Incremental);
        let bound = inc_cfg.tolerance * inc_cfg.max_frontier as f64 / (1.0 - cfg.alpha);
        for (a, b) in inc.scores.iter().zip(&want) {
            assert!((a - b).abs() <= bound, "{a} vs {b} beyond {bound}");
        }
    }

    #[test]
    fn empty_seed_trajectory_yields_zero_scores() {
        let g = fixture();
        let traj = TrustTrajectory::compute(&g, &[], &TrustRankConfig::default());
        let mut ov = SpliceOverlay::new(&g);
        ov.splice_pharmacy("cand.com", &[("ext.org".to_string(), 1.0)]);
        let inc = ov.trust_rank_incremental(&traj, &exact(g.node_count()));
        assert!(inc.scores.iter().all(|&s| s == 0.0));
        assert_eq!(bits(&inc.scores), bits(&ov.trust_rank(&[], traj.config())));
    }

    /// The anti-trust trajectory of a base graph: the forward trajectory
    /// machinery run over the transpose with the bad seeds.
    fn anti_trajectory(g: &CsrGraph, bad: &[NodeId], cfg: &TrustRankConfig) -> TrustTrajectory {
        TrustTrajectory::compute(&g.transposed(), bad, cfg)
    }

    #[test]
    fn anti_trajectory_final_matches_anti_trust_kernel() {
        let g = fixture();
        let cfg = TrustRankConfig::default();
        let traj = anti_trajectory(&g, &[1], &cfg);
        assert_eq!(
            bits(traj.final_scores()),
            bits(&g.anti_trust_rank(&[1], &cfg))
        );
    }

    #[test]
    fn unspliced_anti_incremental_returns_trajectory_final() {
        let g = fixture();
        let traj = anti_trajectory(&g, &[1], &TrustRankConfig::default());
        let ov = SpliceOverlay::new(&g);
        let inc = ov.anti_trust_rank_incremental(&traj, &exact(g.node_count()));
        assert_eq!(inc.outcome, IncrementalOutcome::Incremental);
        assert_eq!(inc.peak_frontier, 0);
        assert_eq!(bits(&inc.scores), bits(traj.final_scores()));
    }

    #[test]
    fn anti_incremental_is_bit_identical_for_fresh_and_preexisting_splices() {
        let g = fixture();
        let cfg = TrustRankConfig::default();
        for (domain, links) in [
            // Fresh candidate linking toward a bad seed: distrust must
            // flow back into it through the new in-edge column.
            ("cand.com", vec![("b.com".to_string(), 2.0)]),
            // Fresh candidate with an unseen target.
            (
                "cand.com",
                vec![("ext.org".to_string(), 2.0), ("new.net".to_string(), 1.0)],
            ),
            // Preexisting external gaining links; ext.org had zero
            // in-weight contributions to adjust.
            (
                "ext.org",
                vec![("a.com".to_string(), 1.0), ("b.com".to_string(), 3.0)],
            ),
            // Preexisting pharmacy (also a bad seed below) growing its
            // row, including a weight change on an existing edge.
            (
                "b.com",
                vec![("ext.org".to_string(), 1.0), ("hub.net".to_string(), 2.0)],
            ),
        ] {
            for bad in [vec![1], vec![1, 3]] {
                let traj = anti_trajectory(&g, &bad, &cfg);
                let mut ov = SpliceOverlay::new(&g);
                ov.splice_pharmacy(domain, &links);
                let want = ov.anti_trust_rank(&bad, &cfg);
                let inc = ov.anti_trust_rank_incremental(&traj, &exact(g.node_count()));
                assert_eq!(
                    inc.outcome,
                    IncrementalOutcome::Incremental,
                    "domain {domain} bad {bad:?}"
                );
                assert_eq!(
                    bits(&inc.scores),
                    bits(&want),
                    "domain {domain} bad {bad:?}"
                );
                ov.unsplice();
            }
        }
    }

    #[test]
    fn anti_incremental_frontier_cap_falls_back_to_full_kernel_bits() {
        let g = fixture();
        let cfg = TrustRankConfig::default();
        let traj = anti_trajectory(&g, &[1], &cfg);
        let mut ov = SpliceOverlay::new(&g);
        ov.splice_pharmacy("cand.com", &[("b.com".to_string(), 2.0)]);
        let want = ov.anti_trust_rank(&[1], &cfg);
        let inc = ov.anti_trust_rank_incremental(
            &traj,
            &IncrementalConfig {
                tolerance: 0.0,
                max_frontier: 0,
            },
        );
        assert_eq!(inc.outcome, IncrementalOutcome::FellBack);
        assert!(inc.peak_frontier > 0);
        assert_eq!(bits(&inc.scores), bits(&want));
    }

    #[test]
    fn anti_incremental_tolerance_mode_stays_within_documented_bound() {
        let g = fixture();
        let cfg = TrustRankConfig::default();
        let traj = anti_trajectory(&g, &[1, 3], &cfg);
        let mut ov = SpliceOverlay::new(&g);
        ov.splice_pharmacy(
            "cand.com",
            &[("ext.org".to_string(), 2.0), ("b.com".to_string(), 1.0)],
        );
        let want = ov.anti_trust_rank(&[1, 3], &cfg);
        let inc_cfg = IncrementalConfig {
            tolerance: 1e-9,
            max_frontier: g.node_count() + 64,
        };
        let inc = ov.anti_trust_rank_incremental(&traj, &inc_cfg);
        assert_eq!(inc.outcome, IncrementalOutcome::Incremental);
        let bound = inc_cfg.tolerance * inc_cfg.max_frontier as f64 / (1.0 - cfg.alpha);
        for (a, b) in inc.scores.iter().zip(&want) {
            assert!((a - b).abs() <= bound, "{a} vs {b} beyond {bound}");
        }
    }

    #[test]
    #[should_panic(expected = "different base graph")]
    fn mismatched_trajectory_panics() {
        let g = fixture();
        let mut b = GraphBuilder::new();
        b.add_pharmacy("only.com");
        let other = b.freeze();
        let traj = TrustTrajectory::compute(&other, &[0], &TrustRankConfig::default());
        let ov = SpliceOverlay::new(&g);
        ov.trust_rank_incremental(&traj, &exact(1));
    }
}
