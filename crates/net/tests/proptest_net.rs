//! Property-based tests for the link graph and trust propagation:
//! algorithm invariants of the frozen [`CsrGraph`] kernels, the
//! [`SpliceOverlay`] splice/unsplice round trip, and the incremental
//! kernels' tolerance and fallback contracts. Bit-identity against the
//! push-order reference kernel lives in `tests/reference_oracle.rs`.

use pharmaverify_net::{
    CsrGraph, GraphBuilder, IncrementalConfig, NodeId, SpliceOverlay, TrustRankConfig,
    TrustTrajectory,
};
use proptest::prelude::*;

/// A random directed graph: `edges[i] = (from, to)` over `n` nodes.
fn random_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..20).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..40);
        (Just(n), edges)
    })
}

/// Freezes `n` pharmacies `n{i}.com` linked by the unit-weight `edges`,
/// self-links dropped.
fn build(n: usize, edges: &[(usize, usize)]) -> CsrGraph {
    let weighted: Vec<(usize, usize, f64)> = edges.iter().map(|&(a, b)| (a, b, 1.0)).collect();
    build_weighted(&vec![true; n], &weighted)
}

/// A random *weighted* mixed graph: per-node pharmacy flags plus
/// `edges[i] = (from, to, weight)` with integer weights in {1, 2, 3} and
/// duplicate `(from, to)` pairs allowed.
#[allow(clippy::type_complexity)]
fn random_weighted_graph() -> impl Strategy<Value = (Vec<bool>, Vec<(usize, usize, f64)>)> {
    (2usize..20).prop_flat_map(|n| {
        let pharmacy = prop::collection::vec(any::<bool>(), n..n + 1);
        let edges = prop::collection::vec((0..n, 0..n, (1usize..4).prop_map(|w| w as f64)), 0..60);
        (pharmacy, edges)
    })
}

/// Freezes the weighted mixed graph, self-links dropped.
fn build_weighted(pharmacy: &[bool], edges: &[(usize, usize, f64)]) -> CsrGraph {
    let mut builder = GraphBuilder::new();
    for (i, &is_pharmacy) in pharmacy.iter().enumerate() {
        let name = format!("n{i}.com");
        if is_pharmacy {
            builder.add_pharmacy(&name);
        } else {
            builder.add_external(&name);
        }
    }
    for &(a, b, w) in edges {
        if a != b {
            builder.add_link(a as NodeId, &format!("n{b}.com"), w);
        }
    }
    builder.freeze()
}

/// Seed ids selected by a random bit vector, clipped to the node range.
fn seeds_from_bits(n: usize, bits: &[bool]) -> Vec<NodeId> {
    (0..n as NodeId)
        .filter(|&i| bits.get(i as usize).copied().unwrap_or(false))
        .collect()
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

proptest! {
    /// Trust scores are non-negative and sum to at most 1 on any graph
    /// with any seed set.
    #[test]
    fn trustrank_mass_conserved(
        (n, edges) in random_graph(),
        seed_bits in prop::collection::vec(any::<bool>(), 2..20),
    ) {
        let g = build(n, &edges);
        let seeds = seeds_from_bits(n, &seed_bits);
        let t = g.trust_rank(&seeds, &TrustRankConfig::default());
        prop_assert_eq!(t.len(), n);
        for &x in &t {
            prop_assert!(x >= 0.0);
            prop_assert!(x.is_finite());
        }
        let sum: f64 = t.iter().sum();
        prop_assert!(sum <= 1.0 + 1e-9, "sum = {sum}");
        if !seeds.is_empty() {
            prop_assert!(sum > 0.0);
        }
    }

    /// Nodes unreachable from the seed set receive exactly zero trust.
    #[test]
    fn unreachable_nodes_zero((n, edges) in random_graph()) {
        let g = build(n, &edges);
        let t = g.trust_rank(&[0], &TrustRankConfig::default());
        // BFS reachability from node 0.
        let mut reachable = vec![false; n];
        reachable[0] = true;
        let mut queue = vec![0 as NodeId];
        while let Some(u) = queue.pop() {
            for (v, _) in g.out_edges(u) {
                if !reachable[v as usize] {
                    reachable[v as usize] = true;
                    queue.push(v);
                }
            }
        }
        for (i, &r) in reachable.iter().enumerate() {
            if !r {
                prop_assert_eq!(t[i], 0.0, "unreachable node {} has trust", i);
            }
        }
    }

    /// PageRank sums to 1 on any non-empty graph and assigns every node a
    /// positive score (teleportation guarantees it).
    #[test]
    fn pagerank_sums_to_one((n, edges) in random_graph()) {
        let r = build(n, &edges).pagerank(&TrustRankConfig::default());
        let sum: f64 = r.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        for &x in &r {
            prop_assert!(x > 0.0);
        }
    }

    /// Graph construction: parallel links merge, node count equals the
    /// number of distinct domains.
    #[test]
    fn graph_counts((n, edges) in random_graph()) {
        let g = build(n, &edges);
        prop_assert_eq!(g.node_count(), n);
        let distinct: std::collections::HashSet<(usize, usize)> = edges
            .iter()
            .filter(|&&(a, b)| a != b)
            .copied()
            .collect();
        prop_assert_eq!(g.edge_count(), distinct.len());
    }

    /// A splice/unsplice cycle on the overlay restores the exact frozen
    /// state: scores after unsplicing are bit-identical to the base
    /// graph's, and the spliced candidate is gone.
    #[test]
    fn overlay_splice_unsplice_round_trips(
        (pharmacy, edges) in random_weighted_graph(),
        seed_bits in prop::collection::vec(any::<bool>(), 2..20),
        link_bits in prop::collection::vec(any::<bool>(), 2..20),
    ) {
        let n = pharmacy.len();
        let csr = build_weighted(&pharmacy, &edges);
        let seeds = seeds_from_bits(n, &seed_bits);
        let config = TrustRankConfig::default();
        let base = csr.trust_rank(&seeds, &config);

        let links: Vec<(String, f64)> = (0..n)
            .filter(|&i| link_bits.get(i).copied().unwrap_or(false))
            .map(|i| (format!("n{i}.com"), 1.0 + (i % 3) as f64))
            .collect();
        let mut overlay = SpliceOverlay::new(&csr);
        let candidate = overlay.splice_pharmacy("candidate.example", &links);
        prop_assert!(overlay.is_spliced());
        let spliced = overlay.trust_rank(&seeds, &config);
        prop_assert_eq!(spliced.len(), n + 1);
        prop_assert_eq!(candidate as usize, n);

        overlay.unsplice();
        prop_assert!(!overlay.is_spliced());
        prop_assert_eq!(overlay.node_count(), csr.node_count());
        prop_assert_eq!(overlay.node("candidate.example"), None);
        prop_assert_eq!(bits(&overlay.trust_rank(&seeds, &config)), bits(&base));
    }

    /// The premise behind the verifier skipping trust propagation for a
    /// domain absent from the training graph: nothing links to it, and
    /// it is not a seed, so both the full and the incremental kernel
    /// give it exactly `0.0` trust.
    #[test]
    fn fresh_domain_gets_exactly_zero_trust(
        (pharmacy, edges) in random_weighted_graph(),
        seed_bits in prop::collection::vec(any::<bool>(), 2..20),
        links in prop::collection::vec((0usize..24, 1usize..4), 0..6),
    ) {
        let n = pharmacy.len();
        let csr = build_weighted(&pharmacy, &edges);
        let seeds = seeds_from_bits(n, &seed_bits);
        let cfg = TrustRankConfig::default();
        let traj = TrustTrajectory::compute(&csr, &seeds, &cfg);
        let links: Vec<(String, f64)> = links
            .iter()
            .map(|&(t, w)| (format!("n{t}.com"), w as f64))
            .collect();
        let mut overlay = SpliceOverlay::new(&csr);
        let node = overlay.splice_pharmacy("fresh.example", &links) as usize;
        prop_assert_eq!(overlay.trust_rank(&seeds, &cfg)[node].to_bits(), 0.0f64.to_bits());
        for max_frontier in [0, n + 64] {
            let config = IncrementalConfig { tolerance: 0.0, max_frontier };
            let inc = overlay.trust_rank_incremental(&traj, &config);
            prop_assert_eq!(inc.scores[node].to_bits(), 0.0f64.to_bits());
        }
    }

    /// Random churn: interleaved splice/unsplice sequences over one
    /// overlay and one recorded trajectory per direction — trust from
    /// good seeds, anti-trust (the link-farm access pattern) from bad
    /// ones. After every splice each incremental kernel must match its
    /// full overlay kernel — bit-identical in exact mode, within the
    /// documented `tolerance·F/(1−α)` bound in tolerance mode, and
    /// bit-identical again through the zero-cap fallback path; after
    /// every unsplice it must reproduce the base trajectory's final
    /// bits.
    #[test]
    fn incremental_matches_full_over_random_churn(
        (pharmacy, edges) in random_weighted_graph(),
        seed_bits in prop::collection::vec(any::<bool>(), 2..20),
        bad_bits in prop::collection::vec(any::<bool>(), 2..20),
        churn in prop::collection::vec(
            ((0usize..24), prop::collection::vec((0usize..24, 1usize..4), 0..6)),
            1..8,
        ),
    ) {
        let n = pharmacy.len();
        let csr = build_weighted(&pharmacy, &edges);
        let (seeds, bad) = (seeds_from_bits(n, &seed_bits), seeds_from_bits(n, &bad_bits));
        let cfg = TrustRankConfig::default();
        let traj = TrustTrajectory::compute(&csr, &seeds, &cfg);
        let anti_traj = TrustTrajectory::compute(&csr.transposed(), &bad, &cfg);
        let exact = IncrementalConfig { tolerance: 0.0, max_frontier: n + 64 };
        let loose = IncrementalConfig { tolerance: 1e-9, max_frontier: n + 64 };
        let capped = IncrementalConfig { tolerance: 0.0, max_frontier: 0 };
        let bound = loose.tolerance * loose.max_frontier as f64 / (1.0 - cfg.alpha);
        let mut overlay = SpliceOverlay::new(&csr);
        // Domain indices range past `n`, so splices mix preexisting
        // nodes (replaced rows, dangling flips) with fresh ones
        // (appended nodes); links include self-links and duplicates.
        for (dom, links) in churn {
            let links: Vec<(String, f64)> = links
                .iter()
                .map(|&(t, w)| (format!("n{t}.com"), w as f64))
                .collect();
            overlay.splice_pharmacy(&format!("n{dom}.com"), &links);
            let full = [overlay.trust_rank(&seeds, &cfg), overlay.anti_trust_rank(&bad, &cfg)];
            for (full, anti) in full.iter().zip([false, true]) {
                let run = |config: &IncrementalConfig| {
                    if anti {
                        overlay.anti_trust_rank_incremental(&anti_traj, config).scores
                    } else {
                        overlay.trust_rank_incremental(&traj, config).scores
                    }
                };
                prop_assert_eq!(bits(&run(&exact)), bits(full));
                for (a, b) in run(&loose).iter().zip(full) {
                    prop_assert!((a - b).abs() <= bound, "{a} vs {b} beyond {bound}");
                }
                prop_assert_eq!(bits(&run(&capped)), bits(full));
            }
            overlay.unsplice();
            let reset = overlay.trust_rank_incremental(&traj, &exact);
            prop_assert_eq!(bits(&reset.scores), bits(traj.final_scores()));
            let reset = overlay.anti_trust_rank_incremental(&anti_traj, &exact);
            prop_assert_eq!(bits(&reset.scores), bits(anti_traj.final_scores()));
        }
    }
}
