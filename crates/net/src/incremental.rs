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
//! # Exactness and the approximation boundary
//!
//! With [`IncrementalConfig::tolerance`] set to `0.0` the result is
//! **bit-identical** to [`crate::SpliceOverlay::trust_rank`]: affected
//! nodes are re-gathered with the same additions in the same
//! ascending-source order as the full push kernel, untouched nodes reuse
//! the recorded trajectory values, and the dangling pass is re-summed in
//! the full kernel's node order whenever any contributing term changed.
//!
//! Exactness has a cost, though: dangling mass couples every seed to
//! every dangling node, and on expander-like graphs low-order-bit
//! perturbations fan out a hop per iteration until the "affected" set is
//! the whole graph. A non-zero `tolerance` is the documented,
//! deterministic approximation boundary: a recomputed score whose
//! absolute difference from the trajectory value is at most `tolerance`
//! is dropped from the patch set, which truncates the frontier where the
//! perturbation has decayed below interest. Dropping a patch injects at
//! most `tolerance` of error per affected node per iteration, and the
//! iteration map contracts L1 norm by α, so the final scores differ from
//! the full kernel's by at most
//!
//! ```text
//! ‖incremental − full‖∞ ≤ tolerance · max_frontier / (1 − α)
//! ```
//!
//! (each iteration drops ≤ `max_frontier` patches of ≤ `tolerance` L1
//! mass each; the geometric series Σ αᵏ bounds their propagation). The
//! bound is loose in practice — dropped patches are at the decayed rim
//! of the frontier — but it is the contract the proptests pin.
//!
//! When one iteration's recompute set exceeds
//! [`IncrementalConfig::max_frontier`] the incremental pass abandons its
//! patches and runs the full kernel instead ([`IncrementalOutcome::FellBack`]):
//! past that point the bookkeeping costs more than a full push over
//! every edge, and the caller gets full-kernel bits. Both paths are pure
//! functions of (base, splice, config) — worker counts and wall clocks
//! never enter.

use crate::csr::{
    propagate, seed_distribution, validate, CsrGraph, NodeId, SerialDispatch, TrustRankConfig,
};
use crate::overlay::SpliceOverlay;
use std::collections::HashMap;

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
    /// Base nodes with zero out-weight, ascending.
    dangling_nodes: Vec<NodeId>,
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
            base.forward(),
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
            dangling_nodes: base.forward().dangling().to_vec(),
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
    fn score_at(&self, k: usize, v: usize) -> f64 {
        if v < self.d.len() {
            self.scores[k][v]
        } else {
            0.0
        }
    }
}

/// Tuning of one incremental propagation. See the module docs for the
/// error bound `tolerance` implies.
#[derive(Debug, Clone, Copy)]
pub struct IncrementalConfig {
    /// Recomputed scores within `tolerance` (absolute) of the recorded
    /// trajectory value are dropped from the patch set. `0.0` demands
    /// bit-identity with the full kernel.
    pub tolerance: f64,
    /// Fall back to the full kernel when one iteration would recompute
    /// more than this many nodes.
    pub max_frontier: usize,
}

impl IncrementalConfig {
    /// A tight default for a graph of `n` nodes: near-exact scores
    /// (absolute error ≤ `1e-9 · n/4 / (1 − α)`), with fallback once a
    /// quarter of the graph is in motion — past that the full kernel is
    /// cheaper than patch bookkeeping.
    pub fn tight(n: usize) -> Self {
        IncrementalConfig {
            tolerance: 1e-9,
            max_frontier: (n / 4).max(64),
        }
    }
}

/// Which path produced an [`IncrementalTrust`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementalOutcome {
    /// The frontier stayed under the cap: scores are trajectory values
    /// plus patches.
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
    /// [`crate::incremental`] for the exactness contract, the tolerance
    /// error bound, and the fallback rule.
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
        let base = self.base();
        let n = base.node_count();
        assert_eq!(
            trajectory.node_count(),
            n,
            "trajectory recorded over a different base graph"
        );
        let total = self.node_count();
        let alpha = trajectory.config.alpha;

        let spliced = match self.spliced_node() {
            Some(s) => s,
            None => {
                // No delta: the overlaid view *is* the base.
                return IncrementalTrust {
                    scores: trajectory.final_scores().to_vec(),
                    outcome: IncrementalOutcome::Incremental,
                    peak_frontier: 0,
                };
            }
        };

        // The spliced node's forward row in the overlaid view. Its
        // normalizer is summed in row order, matching the full kernel's
        // `out_weight`. Appended non-spliced nodes never gain rows (only
        // the spliced node links out), so this is the *only* changed or
        // new forward row besides trivially-empty ones.
        let spliced_row = self.spliced_row();
        let spliced_out: f64 = spliced_row.iter().map(|&(_, w)| w).sum();
        let spliced_edge: HashMap<NodeId, f64> = spliced_row.iter().copied().collect();
        let mut spliced_targets: Vec<NodeId> = spliced_row.iter().map(|&(v, _)| v).collect();
        spliced_targets.sort_unstable();
        // A preexisting spliced domain that was dangling in the base and
        // gained links stops feeding the dangling sum; its row can only
        // grow, so the opposite transition cannot happen.
        let spliced_left_dangling =
            (spliced as usize) < n && base.out_weight(spliced) == 0.0 && spliced_out > 0.0;

        // Patch set for the current iteration `k`: ascending `(node,
        // score)` pairs that differ from the trajectory by more than the
        // tolerance. Reads outside the patch fall through to the
        // trajectory (0.0 for appended nodes).
        let mut patch: Vec<(NodeId, f64)> = Vec::new();
        let patched = |patch: &[(NodeId, f64)], k: usize, v: usize| -> f64 {
            match patch.binary_search_by_key(&(v as NodeId), |&(i, _)| i) {
                Ok(p) => patch[p].1,
                Err(_) => trajectory.score_at(k, v),
            }
        };
        let mut peak = 0usize;

        for k in 0..trajectory.config.iterations {
            // Dangling mass of iteration k under the overlay. Reusable
            // exactly when no contributing term moved: no patches (so
            // appended nodes also still hold zero mass), and the spliced
            // node either kept its dangling status or holds no mass.
            let spliced_mass = patched(&patch, k, spliced as usize);
            let dangling = if patch.is_empty() && (!spliced_left_dangling || spliced_mass == 0.0) {
                trajectory.dangling[k]
            } else {
                // Re-sum in the full kernel's order: ascending base
                // nodes, then appended nodes, skipping zero masses.
                let mut sum = 0.0;
                for &u in &trajectory.dangling_nodes {
                    if u == spliced && spliced_left_dangling {
                        continue;
                    }
                    let mass = patched(&patch, k, u as usize);
                    if mass != 0.0 {
                        sum += mass;
                    }
                }
                for id in n..total {
                    if id == spliced as usize && spliced_out > 0.0 {
                        continue;
                    }
                    let mass = patched(&patch, k, id);
                    if mass != 0.0 {
                        sum += mass;
                    }
                }
                sum
            };
            let dangling_changed = dangling.to_bits() != trajectory.dangling[k].to_bits();

            // Recompute set for iteration k+1: targets of the changed
            // row whenever the spliced node carries mass in either run
            // (its weights/normalizer changed), targets of every patched
            // node, and the teleport support when the dangling mass
            // moved.
            let mut recompute: Vec<NodeId> = Vec::new();
            if spliced_mass != 0.0 || trajectory.score_at(k, spliced as usize) != 0.0 {
                recompute.extend_from_slice(&spliced_targets);
            }
            for &(u, _) in &patch {
                if u != spliced && (u as usize) < n {
                    for (v, _) in base.out_edges(u) {
                        recompute.push(v);
                    }
                }
            }
            if dangling_changed {
                recompute.extend_from_slice(&trajectory.seed_support);
            }
            recompute.sort_unstable();
            recompute.dedup();
            peak = peak.max(recompute.len());
            if recompute.len() > config.max_frontier {
                return IncrementalTrust {
                    scores: self.trust_rank(&trajectory.seeds, &trajectory.config),
                    outcome: IncrementalOutcome::FellBack,
                    peak_frontier: peak,
                };
            }

            // Gather each affected node with the full kernel's
            // accumulation order: base in-edges ascending by source, the
            // spliced node's (possibly new) contribution inserted at its
            // id position, appended nodes contributing nothing further.
            let mut next_patch: Vec<(NodeId, f64)> = Vec::with_capacity(recompute.len());
            for &v in &recompute {
                let vu = v as usize;
                let mut acc = 0.0;
                let spliced_w = spliced_edge.get(&v).copied();
                let mut spliced_pending = spliced_w.is_some() && spliced_mass != 0.0;
                if vu < n {
                    for (u, w) in base.in_edges(v) {
                        if u == spliced {
                            // The replaced row subsumes the base edge;
                            // use its weight and normalizer instead.
                            if spliced_pending {
                                // `spliced_w`/`spliced_out` are present and
                                // positive: the base edge is part of the row.
                                acc += spliced_mass * spliced_w.unwrap_or(0.0) / spliced_out;
                                spliced_pending = false;
                            }
                            continue;
                        }
                        if spliced_pending && spliced < u {
                            acc += spliced_mass * spliced_w.unwrap_or(0.0) / spliced_out;
                            spliced_pending = false;
                        }
                        let mass = patched(&patch, k, u as usize);
                        if mass != 0.0 {
                            acc += mass * w / base.out_weight(u);
                        }
                    }
                }
                if spliced_pending {
                    acc += spliced_mass * spliced_w.unwrap_or(0.0) / spliced_out;
                }
                let dv = if vu < n { trajectory.d[vu] } else { 0.0 };
                let score = alpha * (acc + dangling * dv) + (1.0 - alpha) * dv;
                let reference = trajectory.score_at(k + 1, vu);
                let keep = if config.tolerance == 0.0 {
                    score.to_bits() != reference.to_bits()
                } else {
                    (score - reference).abs() > config.tolerance
                };
                if keep {
                    next_patch.push((v, score));
                }
            }
            patch = next_patch;
        }

        let mut scores = Vec::with_capacity(total);
        scores.extend_from_slice(trajectory.final_scores());
        scores.resize(total, 0.0);
        for &(v, s) in &patch {
            scores[v as usize] = s;
        }
        IncrementalTrust {
            scores,
            outcome: IncrementalOutcome::Incremental,
            peak_frontier: peak,
        }
    }

    /// Anti-TrustRank over the overlaid view by incremental replay of a
    /// trajectory recorded over the **transposed** base graph:
    /// `TrustTrajectory::compute(&base.transposed(), bad_seeds, cfg)`.
    /// In the transposed view a splice is a *column* update — every
    /// spliced link `s → t` becomes an in-edge of `s` from `t`, changing
    /// `t`'s push normalizer and adding `s` as a receiver — so the
    /// affected-set bookkeeping differs from the forward path, but the
    /// contract is the same: at tolerance 0 the result is bit-identical
    /// to [`SpliceOverlay::anti_trust_rank`], tolerance > 0 obeys the
    /// module's error bound, and a frontier overflow falls back to the
    /// full kernel ([`IncrementalOutcome::FellBack`]).
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
        let base = self.base();
        let n = base.node_count();
        assert_eq!(
            trajectory.node_count(),
            n,
            "trajectory recorded over a different base graph"
        );
        let total = self.node_count();
        let alpha = trajectory.config.alpha;

        let spliced = match self.spliced_node() {
            Some(s) => s,
            None => {
                return IncrementalTrust {
                    scores: trajectory.final_scores().to_vec(),
                    outcome: IncrementalOutcome::Incremental,
                    peak_frontier: 0,
                };
            }
        };

        let spliced_row = self.spliced_row();
        let spliced_edge: HashMap<NodeId, f64> = spliced_row.iter().copied().collect();
        let mut spliced_targets: Vec<NodeId> = spliced_row.iter().map(|&(v, _)| v).collect();
        spliced_targets.sort_unstable();
        // Adjusted transposed-out normalizers (overlaid in-weights).
        // Targets whose recomputed normalizer carries the *same* bits as
        // the base (a replaced-row edge whose weight did not change) are
        // no perturbation at all and stay out of the changed set.
        let mut norm_changed: Vec<NodeId> = Vec::new();
        let mut a_out: HashMap<NodeId, f64> = HashMap::new();
        for &t in &spliced_targets {
            let w = self.in_weight_overlaid(t);
            let before = if (t as usize) < n {
                base.in_weight(t)
            } else {
                0.0
            };
            if w.to_bits() != before.to_bits() {
                norm_changed.push(t);
            }
            a_out.insert(t, w);
        }
        let norm = |a: NodeId| -> f64 {
            match a_out.get(&a) {
                Some(&w) => w,
                None if (a as usize) < n => base.in_weight(a),
                None => 0.0,
            }
        };
        // Preexisting targets that leave the transposed dangling set:
        // zero base in-weight, now carrying the spliced in-link. (The
        // spliced node itself never flips: its in-edges are untouched,
        // and a fresh splice starts dangling with zero mass.)
        let left_dangling: Vec<NodeId> = spliced_targets
            .iter()
            .copied()
            .filter(|&t| (t as usize) < n && base.in_weight(t) == 0.0)
            .collect();
        let fresh_spliced = (spliced as usize) >= n;

        let mut patch: Vec<(NodeId, f64)> = Vec::new();
        let patched = |patch: &[(NodeId, f64)], k: usize, v: usize| -> f64 {
            match patch.binary_search_by_key(&(v as NodeId), |&(i, _)| i) {
                Ok(p) => patch[p].1,
                Err(_) => trajectory.score_at(k, v),
            }
        };
        let mut peak = 0usize;

        for k in 0..trajectory.config.iterations {
            // Dangling mass of the transposed view at iteration k.
            // Reusable exactly when no contributing term moved: no
            // patches (so appended nodes, including a fresh spliced
            // node, still hold zero mass) and every node that left the
            // dangling set held zero mass in the base run.
            let reusable = patch.is_empty()
                && left_dangling
                    .iter()
                    .all(|&t| trajectory.score_at(k, t as usize) == 0.0);
            let dangling = if reusable {
                trajectory.dangling[k]
            } else {
                // Re-sum in the full kernel's order: ascending base
                // nodes, then appended — where only a fresh spliced
                // node is dangling (every other appended node carries
                // the spliced in-link).
                let mut sum = 0.0;
                for &u in &trajectory.dangling_nodes {
                    if left_dangling.binary_search(&u).is_ok() {
                        continue;
                    }
                    let mass = patched(&patch, k, u as usize);
                    if mass != 0.0 {
                        sum += mass;
                    }
                }
                if fresh_spliced {
                    let mass = patched(&patch, k, spliced as usize);
                    if mass != 0.0 {
                        sum += mass;
                    }
                }
                sum
            };
            let dangling_changed = dangling.to_bits() != trajectory.dangling[k].to_bits();

            // Recompute set for iteration k+1. The spliced node gathers
            // over its (new) row whenever any of its targets carries
            // mass in either run; cells gathering *from* a patched or
            // normalizer-changed node are its overlaid in-sources.
            let mut recompute: Vec<NodeId> = Vec::new();
            let spliced_gathers = spliced_targets.iter().any(|&a| {
                patched(&patch, k, a as usize) != 0.0 || trajectory.score_at(k, a as usize) != 0.0
            });
            if spliced_gathers {
                recompute.push(spliced);
            }
            for &(p, _) in &patch {
                if (p as usize) < n {
                    for (src, _) in base.in_edges(p) {
                        recompute.push(src);
                    }
                }
                if spliced_edge.contains_key(&p) {
                    recompute.push(spliced);
                }
            }
            for &a in &norm_changed {
                let moving = patched(&patch, k, a as usize) != 0.0
                    || trajectory.score_at(k, a as usize) != 0.0;
                if moving && (a as usize) < n {
                    for (src, _) in base.in_edges(a) {
                        recompute.push(src);
                    }
                }
            }
            if dangling_changed {
                recompute.extend_from_slice(&trajectory.seed_support);
            }
            recompute.sort_unstable();
            recompute.dedup();
            peak = peak.max(recompute.len());
            if recompute.len() > config.max_frontier {
                return IncrementalTrust {
                    scores: self.anti_trust_rank(&trajectory.seeds, &trajectory.config),
                    outcome: IncrementalOutcome::FellBack,
                    peak_frontier: peak,
                };
            }

            // Gather each affected cell in the full kernel's
            // accumulation order: a cell gathers over its forward
            // targets ascending (they are its in-sources in the
            // transposed view), the spliced node over its sorted row.
            let mut next_patch: Vec<(NodeId, f64)> = Vec::with_capacity(recompute.len());
            for &x in &recompute {
                let xu = x as usize;
                let mut acc = 0.0;
                if x == spliced {
                    for &a in &spliced_targets {
                        let mass = patched(&patch, k, a as usize);
                        if mass != 0.0 {
                            if let Some(&w) = spliced_edge.get(&a) {
                                acc += mass * w / norm(a);
                            }
                        }
                    }
                } else if xu < n {
                    for (a, w) in base.out_edges(x) {
                        let mass = patched(&patch, k, a as usize);
                        if mass != 0.0 {
                            acc += mass * w / norm(a);
                        }
                    }
                }
                let dv = if xu < n { trajectory.d[xu] } else { 0.0 };
                let score = alpha * (acc + dangling * dv) + (1.0 - alpha) * dv;
                let reference = trajectory.score_at(k + 1, xu);
                let keep = if config.tolerance == 0.0 {
                    score.to_bits() != reference.to_bits()
                } else {
                    (score - reference).abs() > config.tolerance
                };
                if keep {
                    next_patch.push((x, score));
                }
            }
            patch = next_patch;
        }

        let mut scores = Vec::with_capacity(total);
        scores.extend_from_slice(trajectory.final_scores());
        scores.resize(total, 0.0);
        for &(v, s) in &patch {
            scores[v as usize] = s;
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
