//! Bit-identity of every rank kernel against a push-order reference
//! kernel over a plain edge list: duplicate links merge left to right,
//! each source pushes `mass·w/out` in ascending id order, and dangling
//! mass returns through the teleport vector. PageRank is the
//! uniform-teleport case; Anti-TrustRank is the same kernel on the
//! reversed edge list.
//!
//! The frozen [`CsrGraph`] kernels, the overlay kernels and the exact
//! incremental kernels must match it on any positive weights: integer
//! link counts, the weights the system produces, and tenths, whose sums
//! depend on their order. The proptests' small graphs fit in one
//! destination tile; one graph spans two, with a splice whose row patch
//! crosses the boundary.

use std::collections::BTreeMap;

use pharmaverify_net::{
    trustrank_demo, CsrGraph, GraphBuilder, IncrementalConfig, NodeId, SpliceOverlay,
    TrustRankConfig, TrustTrajectory,
};
use proptest::prelude::*;

/// `(from, to, weight)` over node ids.
type Edge = (usize, usize, f64);

/// The reference power iteration `t ← α·(push(t) + dangling·d) + (1−α)·d`.
fn push_rank(n: usize, edges: &[Edge], d: &[f64]) -> Vec<f64> {
    let cfg = TrustRankConfig::default();
    let mut rows: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); n];
    for &(u, v, w) in edges {
        *rows[u].entry(v).or_insert(0.0) += w;
    }
    let out: Vec<f64> = rows
        .iter()
        .map(|row| row.values().fold(0.0, |sum, w| sum + w))
        .collect();
    let mut t = d.to_vec();
    for _ in 0..cfg.iterations {
        let mut next = vec![0.0; n];
        let mut dangling = 0.0;
        for u in 0..n {
            if rows[u].is_empty() {
                dangling += t[u];
            }
            for (&v, &w) in &rows[u] {
                next[v] += t[u] * w / out[u];
            }
        }
        t = (0..n)
            .map(|v| cfg.alpha * (next[v] + dangling * d[v]) + (1.0 - cfg.alpha) * d[v])
            .collect();
    }
    t
}

fn oracle_trust(n: usize, edges: &[Edge], seeds: &[NodeId]) -> Vec<f64> {
    let mut d = vec![0.0; n];
    for &s in seeds {
        d[s as usize] += 1.0 / seeds.len() as f64;
    }
    push_rank(n, edges, &d)
}

fn oracle_pagerank(n: usize, edges: &[Edge]) -> Vec<f64> {
    push_rank(n, edges, &vec![1.0 / n as f64; n])
}

fn oracle_anti(n: usize, edges: &[Edge], seeds: &[NodeId]) -> Vec<f64> {
    let reversed: Vec<Edge> = edges.iter().map(|&(u, v, w)| (v, u, w)).collect();
    oracle_trust(n, &reversed, seeds)
}

/// Freezes nodes `n{i}.com` (pharmacy or external per flag) linked by
/// `edges` in order.
fn freeze(pharmacy: &[bool], edges: &[Edge]) -> CsrGraph {
    let mut builder = GraphBuilder::new();
    for (i, &is_pharmacy) in pharmacy.iter().enumerate() {
        if is_pharmacy {
            builder.add_pharmacy(&format!("n{i}.com"));
        } else {
            builder.add_external(&format!("n{i}.com"));
        }
    }
    for &(a, b, w) in edges {
        builder.add_link(a as NodeId, &format!("n{b}.com"), w);
    }
    builder.freeze()
}

/// The overlaid graph as an edge list: the base edges followed by the
/// splice's links from `n{dom}.com`, ids assigned in the overlay's
/// intern order (spliced domain, then unseen targets). Returns the node
/// count too.
fn spliced_edges(
    n: usize,
    base: &[Edge],
    dom: usize,
    links: &[(usize, f64)],
) -> (usize, Vec<Edge>) {
    let mut appended: Vec<usize> = Vec::new();
    let mut id = |x: usize| {
        if x < n {
            return x;
        }
        let at = appended.iter().position(|&y| y == x).unwrap_or_else(|| {
            appended.push(x);
            appended.len() - 1
        });
        n + at
    };
    let s = id(dom);
    let mut edges = base.to_vec();
    for &(t, w) in links {
        if t != dom {
            edges.push((s, id(t), w));
        }
    }
    (n + appended.len(), edges)
}

fn seeds_from_bits(n: usize, bits: &[bool]) -> Vec<NodeId> {
    (0..n as NodeId)
        .filter(|&i| bits.get(i as usize).copied().unwrap_or(false))
        .collect()
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Random multigraphs over 2–19 nodes with up to 60 links, duplicates
/// and self-links allowed, weights drawn by `weight`.
fn multigraph(weight: fn(usize) -> f64) -> impl Strategy<Value = (Vec<bool>, Vec<Edge>)> {
    (2usize..20).prop_flat_map(move |n| {
        let pharmacy = prop::collection::vec(any::<bool>(), n..n + 1);
        let edges = prop::collection::vec((0..n, 0..n, (1usize..40).prop_map(weight)), 0..60);
        (pharmacy, edges)
    })
}

/// Tenths: sums of three or more depend on their order.
fn tenths(k: usize) -> f64 {
    k as f64 / 10.0
}

/// Integer link counts 1–3.
fn counts(k: usize) -> f64 {
    (k % 3 + 1) as f64
}

proptest! {
    /// The three frozen kernels, the transposed trust kernel, and an
    /// unspliced overlay all reproduce the oracle bit for bit. `cut`
    /// nodes lose every link, so they dangle in both directions, and
    /// they join the seed set so seeds dangle too.
    #[test]
    fn full_kernels_match_oracle(
        (pharmacy, edges) in multigraph(tenths),
        cut in prop::collection::vec(0usize..20, 0..4),
        seed_bits in prop::collection::vec(any::<bool>(), 2..20),
    ) {
        let n = pharmacy.len();
        let cut: Vec<usize> = cut.into_iter().map(|c| c % n).collect();
        let edges: Vec<Edge> = edges
            .into_iter()
            .filter(|&(a, b, _)| !cut.contains(&a) && !cut.contains(&b))
            .collect();
        let csr = freeze(&pharmacy, &edges);
        let mut seeds = seeds_from_bits(n, &seed_bits);
        seeds.extend(cut.iter().map(|&c| c as NodeId));
        let cfg = TrustRankConfig::default();
        let trust = oracle_trust(n, &edges, &seeds);
        let anti = oracle_anti(n, &edges, &seeds);
        prop_assert_eq!(bits(&csr.trust_rank(&seeds, &cfg)), bits(&trust));
        prop_assert_eq!(bits(&csr.pagerank(&cfg)), bits(&oracle_pagerank(n, &edges)));
        prop_assert_eq!(bits(&csr.anti_trust_rank(&seeds, &cfg)), bits(&anti));
        prop_assert_eq!(bits(&csr.transposed().trust_rank(&seeds, &cfg)), bits(&anti));
        let overlay = SpliceOverlay::new(&csr);
        prop_assert_eq!(bits(&overlay.trust_rank(&seeds, &cfg)), bits(&trust));
        prop_assert_eq!(bits(&overlay.anti_trust_rank(&seeds, &cfg)), bits(&anti));
    }

    /// Splice churn over one overlay: after every splice the full
    /// overlay kernels and both exact incremental kernels reproduce the
    /// oracle on the overlaid edge list; after every unsplice they
    /// reproduce it on the base. Splices mix preexisting domains with
    /// fresh ones, and links include self-links and duplicates. Base and
    /// splice weights are both link counts or both tenths.
    #[test]
    fn overlay_and_incremental_kernels_match_oracle(
        (weight, (pharmacy, edges)) in any::<bool>().prop_flat_map(|tenth| {
            let weight: fn(usize) -> f64 = if tenth { tenths } else { counts };
            (Just(weight), multigraph(weight))
        }),
        seed_bits in prop::collection::vec(any::<bool>(), 2..20),
        bad_bits in prop::collection::vec(any::<bool>(), 2..20),
        churn in prop::collection::vec(
            ((0usize..24), prop::collection::vec((0usize..24, 1usize..40), 0..6)),
            1..8,
        ),
    ) {
        let n = pharmacy.len();
        let edges: Vec<Edge> = edges.into_iter().filter(|&(a, b, _)| a != b).collect();
        let csr = freeze(&pharmacy, &edges);
        let (seeds, bad) = (seeds_from_bits(n, &seed_bits), seeds_from_bits(n, &bad_bits));
        let cfg = TrustRankConfig::default();
        let trust_traj = TrustTrajectory::compute(&csr, &seeds, &cfg);
        let anti_traj = TrustTrajectory::compute(&csr.transposed(), &bad, &cfg);
        let exact = IncrementalConfig { tolerance: 0.0, max_frontier: n + 64 };
        let mut overlay = SpliceOverlay::new(&csr);
        for (dom, links) in churn {
            let links: Vec<(usize, f64)> = links.iter().map(|&(t, w)| (t, weight(w))).collect();
            let named: Vec<(String, f64)> =
                links.iter().map(|&(t, w)| (format!("n{t}.com"), w)).collect();
            overlay.splice_pharmacy(&format!("n{dom}.com"), &named);
            let (total, spliced) = spliced_edges(n, &edges, dom, &links);
            prop_assert_eq!(overlay.node_count(), total);
            // First the spliced view, then (after unsplicing) the base.
            for (graph_n, graph_edges) in [(total, &spliced), (n, &edges)] {
                let trust = bits(&oracle_trust(graph_n, graph_edges, &seeds));
                let anti = bits(&oracle_anti(graph_n, graph_edges, &bad));
                prop_assert_eq!(&bits(&overlay.trust_rank(&seeds, &cfg)), &trust);
                prop_assert_eq!(&bits(&overlay.anti_trust_rank(&bad, &cfg)), &anti);
                let inc = overlay.trust_rank_incremental(&trust_traj, &exact);
                prop_assert_eq!(&bits(&inc.scores), &trust);
                let inc = overlay.anti_trust_rank_incremental(&anti_traj, &exact);
                prop_assert_eq!(&bits(&inc.scores), &anti);
                overlay.unsplice();
            }
        }
    }
}

/// A graph two destination tiles wide: 33,800 nodes put 1,032 past the
/// first tile's 32,768. Three permutation edges per node (a ring and
/// two strides) spread mass over both tiles, and every fifth node also
/// links a hub: local ids 0 and 32,767 of the first tile and local id 0
/// of the second, plus the last node. Hub links come from both sides of
/// the boundary in tenths, so their sums depend on order. Every 97th
/// node keeps no links of its own and dangles; one of them is a seed.
/// Then a domain in the second tile is spliced with links to every hub
/// (one of them already in its row) and to a fresh domain, so its
/// forward patch and its reverse patch both cross the boundary.
#[test]
fn kernels_match_oracle_across_a_tile_boundary() {
    const N: usize = 33_800;
    const TILE: usize = 32_768;
    let hubs = [0, TILE - 1, TILE, N - 1];
    let mut edges: Vec<Edge> = Vec::new();
    for u in (0..N).filter(|u| u % 97 != 5) {
        edges.push((u, (u + 1) % N, tenths(u % 7 + 1)));
        edges.push((u, (u * 7_919 + 13) % N, tenths(u % 11 + 1)));
        edges.push((u, (u * 31 + 7) % N, tenths(u % 3 + 1)));
        if u % 5 == 0 {
            edges.push((u, hubs[u / 5 % hubs.len()], tenths(u % 13 + 1)));
        }
    }
    let csr = freeze(&vec![true; N], &edges);
    assert_eq!(csr.node_count(), N);
    let seeds: Vec<NodeId> = [5, 100, TILE - 1, TILE, 33_000]
        .iter()
        .map(|&s| s as NodeId)
        .collect();
    let cfg = TrustRankConfig::default();
    let anti = bits(&oracle_anti(N, &edges, &seeds));
    assert_eq!(
        bits(&csr.trust_rank(&seeds, &cfg)),
        bits(&oracle_trust(N, &edges, &seeds))
    );
    assert_eq!(bits(&csr.pagerank(&cfg)), bits(&oracle_pagerank(N, &edges)));
    assert_eq!(bits(&csr.anti_trust_rank(&seeds, &cfg)), anti);
    assert_eq!(bits(&csr.transposed().trust_rank(&seeds, &cfg)), anti);

    // 32,870 is a multiple of five whose base row already links hub
    // 32,768, so one patch edge replaces a base edge.
    let dom = 32_870;
    let links: Vec<(usize, f64)> = hubs
        .iter()
        .chain(&[N + 5])
        .enumerate()
        .map(|(i, &t)| (t, tenths(i + 3)))
        .collect();
    let named: Vec<(String, f64)> = links
        .iter()
        .map(|&(t, w)| (format!("n{t}.com"), w))
        .collect();
    let mut overlay = SpliceOverlay::new(&csr);
    overlay.splice_pharmacy(&format!("n{dom}.com"), &named);
    let (total, spliced) = spliced_edges(N, &edges, dom, &links);
    assert_eq!(overlay.node_count(), total);
    assert_eq!(
        bits(&overlay.trust_rank(&seeds, &cfg)),
        bits(&oracle_trust(total, &spliced, &seeds))
    );
    assert_eq!(
        bits(&overlay.anti_trust_rank(&seeds, &cfg)),
        bits(&oracle_anti(total, &spliced, &seeds))
    );
}

/// Figure 3's demo network ranks exactly as the oracle on its links.
#[test]
fn demo_matches_oracle() {
    let (graph, seeds, _, converged) = trustrank_demo();
    let edges: Vec<Edge> = graph
        .nodes()
        .flat_map(|u| {
            graph
                .out_edges(u)
                .map(move |(v, w)| (u as usize, v as usize, w))
        })
        .collect();
    assert_eq!(
        bits(&converged),
        bits(&oracle_trust(graph.node_count(), &edges, &seeds))
    );
}
