//! Frozen compressed-sparse-row (CSR) web graph and block-based rank
//! kernels — the one graph representation every ranking runs on.
//!
//! The graph is the domain graph of Algorithm 1 (`GRAPH-CREATION` in the
//! paper): every pharmacy contributes a node, and the `endpoint()` of
//! every outbound link target becomes a node with a directed, weighted
//! edge. Construction and traversal are split:
//!
//! * [`GraphBuilder`] keeps the mutable interning API (`add_pharmacy`,
//!   `add_external`, `add_link`) but records raw edge triples without
//!   any per-insert duplicate scan;
//! * [`GraphBuilder::freeze`] sorts and merges once — counting-sort by
//!   source, stable per-row sort by target, adjacent-duplicate merge —
//!   into a [`CsrGraph`]: contiguous `offsets`/`targets`/`weights`
//!   arrays, precomputed out-weights, and a string-free O(V+E) transpose
//!   (`t_offsets`/`t_sources`/`t_weights`) so `anti_trust_rank` never
//!   re-interns a single domain name.
//!
//! # Summation order
//!
//! The kernels *gather*: element `v` sums over its in-edges, which the
//! counting-sort transpose stores in ascending-source order. That is the
//! accumulation order of a *push* kernel that visits sources in
//! ascending id order and scatters `mass·w/out(u)` into each target, so
//! the score vectors are bit-identical to that push order. The contract
//! is pinned against a push-order reference kernel over a plain edge
//! list in `tests/reference_oracle.rs`:
//!
//! * duplicate links merge by summing in insertion order (stable sort +
//!   left-to-right adjacent merge);
//! * per-node out-weights are summed over the merged row in
//!   ascending-target order;
//! * dangling mass (from nodes with no out-edges) is summed serially in
//!   ascending node order and returns through the teleport vector.
//!
//! # Determinism under parallel dispatch
//!
//! Each gather element is written by exactly one block, blocks are
//! merged in index order, and the dangling-mass pass stays serial — so
//! the output is byte-identical at any worker count. The xtask
//! determinism audit enforces this end-to-end (serial vs 4-worker runs
//! of the web tier).

use std::collections::HashMap;

/// Dense node identifier.
pub type NodeId = u32;

/// Power-iteration configuration shared by TrustRank, PageRank, and
/// Anti-TrustRank.
#[derive(Debug, Clone, Copy)]
pub struct TrustRankConfig {
    /// Decay / damping factor α (the original paper uses 0.85).
    pub alpha: f64,
    /// Number of propagation iterations (the original paper uses 20).
    pub iterations: usize,
}

impl Default for TrustRankConfig {
    fn default() -> Self {
        TrustRankConfig {
            alpha: 0.85,
            iterations: 20,
        }
    }
}

/// Nodes per dispatch block: small enough to spread a web-scale graph
/// over any realistic worker count, large enough that a paper-scale
/// graph stays a single block (no dispatch overhead).
const BLOCK_NODES: usize = 4096;

/// Deterministic fan-out used by the block kernels: run `blocks` closures
/// and return their results *in index order*. `core::pipeline::Executor`
/// implements this over its scoped-thread pool; [`SerialDispatch`] is
/// the dependency-free default.
pub trait BlockDispatch {
    /// Evaluates `f(0..blocks)` and returns the results index-ordered.
    fn dispatch(&self, blocks: usize, f: &(dyn Fn(usize) -> Vec<f64> + Sync)) -> Vec<Vec<f64>>;
}

/// Runs every block inline on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialDispatch;

impl BlockDispatch for SerialDispatch {
    fn dispatch(&self, blocks: usize, f: &(dyn Fn(usize) -> Vec<f64> + Sync)) -> Vec<Vec<f64>> {
        (0..blocks).map(f).collect()
    }
}

/// Mutable graph under construction: domain interning plus raw edges,
/// recorded for a one-shot [`GraphBuilder::freeze`].
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    names: Vec<String>,
    index: HashMap<String, NodeId>,
    is_pharmacy: Vec<bool>,
    /// Raw `(source, target, weight)` triples in insertion order;
    /// duplicates merge at freeze time.
    edges: Vec<(NodeId, NodeId, f64)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern(&mut self, domain: &str, pharmacy: bool) -> NodeId {
        if let Some(&id) = self.index.get(domain) {
            if pharmacy {
                self.is_pharmacy[id as usize] = true;
            }
            return id;
        }
        let id = self.names.len() as NodeId;
        self.names.push(domain.to_string());
        self.index.insert(domain.to_string(), id);
        self.is_pharmacy.push(pharmacy);
        id
    }

    /// Adds (or upgrades) a pharmacy node for `domain`.
    pub fn add_pharmacy(&mut self, domain: &str) -> NodeId {
        self.intern(domain, true)
    }

    /// Adds a non-pharmacy node for `domain`; an existing pharmacy node
    /// keeps its flag.
    pub fn add_external(&mut self, domain: &str) -> NodeId {
        self.intern(domain, false)
    }

    /// Records a directed link `from → to_domain` with multiplicity
    /// `weight`. The target is created as a non-pharmacy node if unseen.
    /// O(1): parallel links are merged at freeze time, not probed per
    /// insert.
    ///
    /// # Panics
    /// Panics if `from` is not a valid node id or `weight` is not
    /// positive.
    pub fn add_link(&mut self, from: NodeId, to_domain: &str, weight: f64) {
        assert!((from as usize) < self.names.len(), "unknown source node");
        assert!(weight > 0.0, "link weight must be positive");
        let to = self.intern(to_domain, false);
        self.edges.push((from, to, weight));
    }

    /// The id of `domain`, if present.
    pub fn node(&self, domain: &str) -> Option<NodeId> {
        self.index.get(domain).copied()
    }

    /// Number of nodes interned so far.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of raw (unmerged) link records so far.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the builder into a [`CsrGraph`]: counting-sorts edges by
    /// source, stably sorts each row by target, merges duplicates by
    /// summing in insertion order, and builds the transpose without
    /// touching a single domain string.
    pub fn freeze(self) -> CsrGraph {
        let _span = pharmaverify_obs::global().span("net/csr/freeze");
        let n = self.names.len();
        let m = self.edges.len();

        // Counting sort by source (stable: preserves insertion order
        // within a row, which the duplicate merge below relies on).
        let mut row_start = vec![0usize; n + 1];
        for &(u, _, _) in &self.edges {
            row_start[u as usize + 1] += 1;
        }
        for i in 0..n {
            row_start[i + 1] += row_start[i];
        }
        let mut cursor = row_start.clone();
        let mut by_src: Vec<(NodeId, f64)> = vec![(0, 0.0); m];
        for &(u, v, w) in &self.edges {
            let slot = &mut cursor[u as usize];
            by_src[*slot] = (v, w);
            *slot += 1;
        }

        // Per-row stable sort by target + adjacent-duplicate merge. The
        // stable sort keeps equal targets in insertion order, so
        // duplicates sum left to right in insertion order.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets: Vec<NodeId> = Vec::with_capacity(m);
        let mut weights: Vec<f64> = Vec::with_capacity(m);
        offsets.push(0usize);
        for u in 0..n {
            let row = &mut by_src[row_start[u]..row_start[u + 1]];
            row.sort_by_key(|&(t, _)| t);
            let first = targets.len();
            for &(v, w) in row.iter() {
                if targets.len() > first && targets[targets.len() - 1] == v {
                    let last = weights.len() - 1;
                    weights[last] += w;
                } else {
                    targets.push(v);
                    weights.push(w);
                }
            }
            offsets.push(targets.len());
        }
        targets.shrink_to_fit();
        weights.shrink_to_fit();

        let out_weights: Vec<f64> = (0..n)
            .map(|u| weights[offsets[u]..offsets[u + 1]].iter().sum())
            .collect();

        // String-free transpose by counting sort over the merged forward
        // arrays. Iterating sources in ascending order places each
        // row's in-edges in ascending-source order — exactly the
        // accumulation order of a push kernel.
        let merged = targets.len();
        let mut t_offsets = vec![0usize; n + 1];
        for &v in &targets {
            t_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            t_offsets[i + 1] += t_offsets[i];
        }
        let mut t_cursor = t_offsets.clone();
        let mut t_sources: Vec<NodeId> = vec![0; merged];
        let mut t_weights: Vec<f64> = vec![0.0; merged];
        for u in 0..n {
            for e in offsets[u]..offsets[u + 1] {
                let slot = &mut t_cursor[targets[e] as usize];
                t_sources[*slot] = u as NodeId;
                t_weights[*slot] = weights[e];
                *slot += 1;
            }
        }
        let in_weights: Vec<f64> = (0..n)
            .map(|v| t_weights[t_offsets[v]..t_offsets[v + 1]].iter().sum())
            .collect();

        CsrGraph {
            names: self.names,
            index: self.index,
            is_pharmacy: self.is_pharmacy,
            offsets,
            targets,
            weights,
            out_weights,
            t_offsets,
            t_sources,
            t_weights,
            in_weights,
        }
    }
}

/// A frozen, compact web graph: forward and transposed CSR arrays plus
/// the name→id index. Immutable by construction — temporary mutation
/// (batch verification) goes through [`crate::SpliceOverlay`], which
/// layers deltas over a shared `&CsrGraph` without touching these
/// arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    names: Vec<String>,
    index: HashMap<String, NodeId>,
    is_pharmacy: Vec<bool>,
    /// Forward CSR: row `u` is `targets[offsets[u]..offsets[u+1]]`,
    /// sorted by target, duplicates merged.
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<f64>,
    /// Total outgoing weight per node (sum of its merged row).
    out_weights: Vec<f64>,
    /// Transposed CSR: row `v` lists in-edge sources in ascending order.
    t_offsets: Vec<usize>,
    t_sources: Vec<NodeId>,
    t_weights: Vec<f64>,
    /// Total incoming weight per node (the transposed out-weight).
    in_weights: Vec<f64>,
}

impl CsrGraph {
    /// The id of `domain`, if present.
    pub fn node(&self, domain: &str) -> Option<NodeId> {
        self.index.get(domain).copied()
    }

    /// The domain name of node `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[id as usize]
    }

    /// True when node `id` is a pharmacy (vs an external domain).
    pub fn is_pharmacy(&self, id: NodeId) -> bool {
        self.is_pharmacy[id as usize]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of directed edges (parallel links merged into weights).
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Iterates all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.names.len() as NodeId
    }

    /// Outgoing edges of node `id` as `(target, weight)`, sorted by
    /// target.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let u = id as usize;
        self.targets[self.offsets[u]..self.offsets[u + 1]]
            .iter()
            .copied()
            .zip(
                self.weights[self.offsets[u]..self.offsets[u + 1]]
                    .iter()
                    .copied(),
            )
    }

    /// Total outgoing weight of node `id` (precomputed at freeze).
    pub fn out_weight(&self, id: NodeId) -> f64 {
        self.out_weights[id as usize]
    }

    /// Total incoming weight of node `id` (precomputed at freeze; the
    /// out-weight of the transposed graph).
    pub fn in_weight(&self, id: NodeId) -> f64 {
        self.in_weights[id as usize]
    }

    /// The transposed graph, frozen: every edge `u → v` becomes `v → u`
    /// with the same weight. Names, ids, and pharmacy flags are
    /// preserved; the forward and transposed CSR arrays swap roles, so
    /// this costs one clone and no re-sorting. `transposed().trust_rank`
    /// reads exactly the arrays [`CsrGraph::anti_trust_rank`] reads, so
    /// the two are bit-identical — which is what lets
    /// [`crate::TrustTrajectory`] record an anti-trust run: compute the
    /// trajectory over the transpose with the bad seeds.
    pub fn transposed(&self) -> CsrGraph {
        CsrGraph {
            names: self.names.clone(),
            index: self.index.clone(),
            is_pharmacy: self.is_pharmacy.clone(),
            offsets: self.t_offsets.clone(),
            targets: self.t_sources.clone(),
            weights: self.t_weights.clone(),
            out_weights: self.in_weights.clone(),
            t_offsets: self.offsets.clone(),
            t_sources: self.targets.clone(),
            t_weights: self.weights.clone(),
            in_weights: self.out_weights.clone(),
        }
    }

    /// Incoming edges of node `id` as `(source, weight)`, in ascending
    /// source order — the transpose's accumulation order, which is also
    /// the order a push kernel's contributions arrive in.
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let v = id as usize;
        self.t_sources[self.t_offsets[v]..self.t_offsets[v + 1]]
            .iter()
            .copied()
            .zip(
                self.t_weights[self.t_offsets[v]..self.t_offsets[v + 1]]
                    .iter()
                    .copied(),
            )
    }

    /// TrustRank over the frozen graph, serial. See
    /// [`CsrGraph::trust_rank_with`].
    ///
    /// # Examples
    ///
    /// ```
    /// use pharmaverify_net::{GraphBuilder, TrustRankConfig};
    ///
    /// let mut b = GraphBuilder::new();
    /// let seed = b.add_pharmacy("trusted.com");
    /// b.add_link(seed, "partner.com", 1.0);
    /// let g = b.freeze();
    /// let trust = g.trust_rank(&[seed], &TrustRankConfig::default());
    /// let partner = g.node("partner.com").unwrap() as usize;
    /// assert!(trust[seed as usize] > trust[partner]);
    /// assert!(trust[partner] > 0.0);
    /// ```
    pub fn trust_rank(&self, seeds: &[NodeId], config: &TrustRankConfig) -> Vec<f64> {
        self.trust_rank_with(seeds, config, &SerialDispatch)
    }

    /// TrustRank (Gyöngyi, Garcia-Molina, Pedersen; VLDB 2004) with
    /// block-parallel gather, bit-identical at any worker count.
    ///
    /// Trust propagates from a seed of known-good pages through the link
    /// structure, on the premise of *approximate isolation*: good pages
    /// rarely point to bad ones. The iteration is biased PageRank,
    /// `t ← α·T·t + (1 − α)·d`, with `T` the out-weight-normalized link
    /// matrix and `d` the normalized seed distribution; dangling trust
    /// returns to the seeds through `d` instead of vanishing, so the
    /// scores sum to at most 1. An empty seed set yields all-zero trust.
    ///
    /// # Panics
    /// Panics if a seed id is out of range, `alpha` is outside `(0, 1)`,
    /// or `iterations` is 0.
    pub fn trust_rank_with(
        &self,
        seeds: &[NodeId],
        config: &TrustRankConfig,
        dispatch: &dyn BlockDispatch,
    ) -> Vec<f64> {
        let _span = pharmaverify_obs::global().span("net/csr/trustrank");
        validate(config);
        let n = self.node_count();
        if n == 0 || seeds.is_empty() {
            return vec![0.0; n];
        }
        let d = seed_distribution(n, seeds);
        propagate(
            &d,
            config,
            &Gather {
                offsets: &self.t_offsets,
                sources: &self.t_sources,
                weights: &self.t_weights,
                norms: &self.out_weights,
                skip_zero_mass: true,
            },
            BLOCK_NODES,
            dispatch,
        )
    }

    /// PageRank over the frozen graph, serial: TrustRank with a uniform
    /// teleport vector, kept for the ablation that measures how much of
    /// the network signal comes from the trusted seed rather than raw
    /// connectivity.
    pub fn pagerank(&self, config: &TrustRankConfig) -> Vec<f64> {
        self.pagerank_with(config, &SerialDispatch)
    }

    /// PageRank with block-parallel gather. Scores sum to ≈ 1 (dangling
    /// mass is re-teleported uniformly).
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1)` or `iterations` is 0.
    pub fn pagerank_with(
        &self,
        config: &TrustRankConfig,
        dispatch: &dyn BlockDispatch,
    ) -> Vec<f64> {
        let _span = pharmaverify_obs::global().span("net/csr/pagerank");
        validate(config);
        let n = self.node_count();
        if n == 0 {
            return Vec::new();
        }
        let d = vec![1.0 / n as f64; n];
        propagate(
            &d,
            config,
            &Gather {
                offsets: &self.t_offsets,
                sources: &self.t_sources,
                weights: &self.t_weights,
                norms: &self.out_weights,
                skip_zero_mass: false,
            },
            BLOCK_NODES,
            dispatch,
        )
    }

    /// Anti-TrustRank (Krishnan & Raj, AIRWeb 2006; the paper's related
    /// work \[20\]), serial. See [`CsrGraph::anti_trust_rank_with`].
    ///
    /// Distrust propagates *backward* from known-bad seeds: a page that
    /// links to a bad page is itself suspicious. Illegitimate pharmacies
    /// link to affiliate hubs, so distrust seeded anywhere in the network
    /// flows back to every member of the affiliate ring.
    pub fn anti_trust_rank(&self, bad_seeds: &[NodeId], config: &TrustRankConfig) -> Vec<f64> {
        self.anti_trust_rank_with(bad_seeds, config, &SerialDispatch)
    }

    /// Anti-TrustRank with block-parallel gather: TrustRank over the
    /// transposed graph, using the precomputed transpose arrays — no
    /// string re-interning.
    ///
    /// The roles swap: propagation walks the transpose (rows =
    /// `t_offsets`), so the *gather* side is the forward CSR, whose
    /// sorted targets are exactly the ascending-source accumulation
    /// order of a push over the transpose.
    ///
    /// # Panics
    /// Panics if a seed id is out of range, `alpha` is outside `(0, 1)`,
    /// or `iterations` is 0.
    pub fn anti_trust_rank_with(
        &self,
        bad_seeds: &[NodeId],
        config: &TrustRankConfig,
        dispatch: &dyn BlockDispatch,
    ) -> Vec<f64> {
        let _span = pharmaverify_obs::global().span("net/csr/antitrustrank");
        validate(config);
        let n = self.node_count();
        if n == 0 || bad_seeds.is_empty() {
            return vec![0.0; n];
        }
        let d = seed_distribution(n, bad_seeds);
        propagate(
            &d,
            config,
            &Gather {
                offsets: &self.offsets,
                sources: &self.targets,
                weights: &self.weights,
                norms: &self.in_weights,
                skip_zero_mass: true,
            },
            BLOCK_NODES,
            dispatch,
        )
    }
}

/// Validates the shared kernel configuration.
fn validate(config: &TrustRankConfig) {
    assert!(
        config.alpha > 0.0 && config.alpha < 1.0,
        "alpha must be in (0, 1)"
    );
    assert!(config.iterations > 0, "need at least one iteration");
}

/// The normalized static seed distribution `d`.
///
/// # Panics
/// Panics if a seed id is out of range.
fn seed_distribution(n: usize, seeds: &[NodeId]) -> Vec<f64> {
    for &s in seeds {
        assert!((s as usize) < n, "seed {s} out of range");
    }
    let mut d = vec![0.0; n];
    let share = 1.0 / seeds.len() as f64;
    for &s in seeds {
        d[s as usize] += share;
    }
    d
}

/// One gather view: in-edge CSR arrays plus the per-source normalizers
/// (the out-weights of the propagation direction) and the TrustRank
/// kernels' zero-mass short-circuit flag (PageRank has none — its
/// masses are strictly positive after the uniform start).
struct Gather<'a> {
    offsets: &'a [usize],
    sources: &'a [NodeId],
    weights: &'a [f64],
    norms: &'a [f64],
    skip_zero_mass: bool,
}

/// The shared power iteration: `t ← α·(gather + dangling·d) + (1−α)·d`.
///
/// Determinism: the dangling pass is serial in ascending node order, and
/// each output element is computed by exactly one block, merged in index
/// order — identical bytes at any worker count.
fn propagate(
    d: &[f64],
    config: &TrustRankConfig,
    g: &Gather<'_>,
    block_nodes: usize,
    dispatch: &dyn BlockDispatch,
) -> Vec<f64> {
    let n = d.len();
    let alpha = config.alpha;
    let blocks = n.div_ceil(block_nodes).max(1);
    let mut t = d.to_vec();
    for _ in 0..config.iterations {
        // Dangling mass accumulates serially in ascending node order —
        // the summation order of a push kernel.
        let mut dangling = 0.0;
        for (u, &mass) in t.iter().enumerate() {
            if g.skip_zero_mass && mass == 0.0 {
                continue;
            }
            if g.norms[u] == 0.0 {
                dangling += mass;
            }
        }
        let shared = &t;
        let parts = dispatch.dispatch(blocks, &move |b| {
            let lo = b * block_nodes;
            let hi = n.min(lo + block_nodes);
            let mut out = Vec::with_capacity(hi - lo);
            for v in lo..hi {
                let mut acc = 0.0;
                for e in g.offsets[v]..g.offsets[v + 1] {
                    let u = g.sources[e] as usize;
                    let mass = shared[u];
                    if g.skip_zero_mass && mass == 0.0 {
                        continue;
                    }
                    // g.norms[u] > 0: u appears as a gather source only
                    // if its propagation-side row is non-empty.
                    acc += mass * g.weights[e] / g.norms[u];
                }
                out.push(alpha * (acc + dangling * d[v]) + (1.0 - alpha) * d[v]);
            }
            out
        });
        let mut merged = Vec::with_capacity(n);
        for part in parts {
            merged.extend_from_slice(&part);
        }
        t = merged;
    }
    t
}

/// The Figure 3 illustration: a small network of "good" (white) and "bad"
/// (black) nodes. Returns `(graph, good_seeds, initial, converged)` where
/// `initial` is the seed state (1 for seeds, 0 elsewhere) and `converged`
/// the TrustRank scores — the two panels of the figure.
pub fn trustrank_demo() -> (CsrGraph, Vec<NodeId>, Vec<f64>, Vec<f64>) {
    let mut b = GraphBuilder::new();
    // 4 good pages (0–3) forming a well-connected cluster, 3 bad pages
    // (4–6) in a chain that receives a single link from a deceived good
    // page (3 → 4) — the "approximate isolation of good pages" premise.
    let ids: Vec<NodeId> = (0..7)
        .map(|i| b.add_pharmacy(&format!("site{i}.example")))
        .collect();
    for (from, to) in [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 0),
        (0, 2),
        (3, 4),
        (4, 5),
        (5, 6),
    ] {
        b.add_link(ids[from], &format!("site{to}.example"), 1.0);
    }
    let graph = b.freeze();
    let seeds = vec![ids[0], ids[1]];
    let mut initial = vec![0.0; graph.node_count()];
    for &s in &seeds {
        initial[s as usize] = 1.0;
    }
    let converged = graph.trust_rank(&seeds, &TrustRankConfig::default());
    (graph, seeds, initial, converged)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Freezes `n` pharmacies `n{i}.com` linked by `(from, to, weight)`.
    fn build(edges: &[(usize, usize, f64)], n: usize) -> CsrGraph {
        let mut builder = GraphBuilder::new();
        for i in 0..n {
            builder.add_pharmacy(&format!("n{i}.com"));
        }
        for &(a, b, w) in edges {
            builder.add_link(a as NodeId, &format!("n{b}.com"), w);
        }
        builder.freeze()
    }

    /// A chain `n0 → n1 → … → n{n-1}`.
    fn chain(n: usize) -> CsrGraph {
        let edges: Vec<(usize, usize, f64)> = (1..n).map(|i| (i - 1, i, 1.0)).collect();
        build(&edges, n)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn freeze_sorts_rows_and_merges_duplicates() {
        let mut b = GraphBuilder::new();
        let p = b.add_pharmacy("p.com");
        b.add_link(p, "z.com", 2.0);
        b.add_link(p, "a.com", 1.0);
        b.add_link(p, "z.com", 3.0);
        assert_eq!(b.raw_edge_count(), 3);
        let g = b.freeze();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2, "duplicate z.com links merged");
        let row: Vec<(NodeId, f64)> = g.out_edges(p).collect();
        assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "row sorted");
        let z = g.node("z.com").unwrap();
        assert!(row.contains(&(z, 5.0)), "2 + 3 merged: {row:?}");
        assert_eq!(g.out_weight(p), 6.0);
        assert!(g.is_pharmacy(p));
        assert!(!g.is_pharmacy(z), "link targets are external nodes");
    }

    #[test]
    fn upgrade_to_pharmacy_applies_in_builder() {
        let mut b = GraphBuilder::new();
        let p = b.add_pharmacy("p.com");
        b.add_link(p, "x.com", 1.0);
        b.add_pharmacy("x.com");
        b.add_external("p.com");
        let g = b.freeze();
        assert!(g.is_pharmacy(g.node("x.com").unwrap()));
        assert!(
            g.is_pharmacy(p),
            "an external re-add keeps the pharmacy flag"
        );
    }

    #[test]
    fn transpose_arrays_list_sources_ascending() {
        let csr = build(&[(2, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0)], 3);
        // Node 0 has in-edges from 1 and 2; transpose row must be
        // ascending by source.
        let row = &csr.t_sources[csr.t_offsets[0]..csr.t_offsets[1]];
        assert_eq!(row, &[1, 2]);
        assert_eq!(csr.in_weights[0], 2.0);
    }

    #[test]
    fn transpose_reverses_edges() {
        let mut b = GraphBuilder::new();
        let p = b.add_pharmacy("pharm.com");
        b.add_link(p, "fda.gov", 3.0);
        b.add_link(p, "ext.org", 1.0);
        let g = b.freeze();
        let t = g.transposed();
        assert_eq!((t.node_count(), t.edge_count()), (3, 2));
        let fda = t.node("fda.gov").unwrap();
        assert_eq!(t.out_edges(fda).collect::<Vec<_>>(), [(p, 3.0)]);
        assert_eq!(t.out_edges(p).count(), 0, "p's out-edges became in-edges");
        assert!(t.is_pharmacy(p) && !t.is_pharmacy(fda));
        assert_eq!(t.transposed(), g, "transposing twice is the identity");
    }

    #[test]
    fn trust_decays_along_a_chain_and_dangling_mass_returns() {
        let t = chain(5).trust_rank(&[0], &TrustRankConfig::default());
        for w in t.windows(2) {
            assert!(w[0] > w[1], "trust must decay: {t:?}");
        }
        assert!(t[4] > 0.0);
        // n4 dangles: its mass returns to the seed instead of vanishing.
        let sum: f64 = t.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    fn weighted_links_split_trust_proportionally() {
        let g = build(&[(0, 1, 3.0), (0, 2, 1.0)], 3);
        let t = g.trust_rank(&[0], &TrustRankConfig::default());
        assert!((t[1] / t[2] - 3.0).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn pagerank_favors_the_hub_and_stays_uniform_without_links() {
        // Everyone links to n0 (the affiliate hub pattern of §6.3.2).
        let hub = build(&[(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0), (4, 0, 1.0)], 5);
        let r = hub.pagerank(&TrustRankConfig::default());
        assert!(r[1..].iter().all(|&x| x < r[0]), "{r:?}");
        let isolated = build(&[], 3).pagerank(&TrustRankConfig::default());
        assert!(isolated.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-9));
    }

    #[test]
    fn distrust_flows_back_to_linkers() {
        // 0 → 1 → 2 with distrust seeded at 2: the closer linker gets more.
        let d = chain(3).anti_trust_rank(&[2], &TrustRankConfig::default());
        assert!(d[2] > d[1] && d[1] > d[0] && d[0] > 0.0, "{d:?}");
        // Ring members linking to a distrusted hub (n0) inherit distrust;
        // a site linking elsewhere stays clean.
        let ring = build(&[(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0), (4, 5, 1.0)], 6);
        let d = ring.anti_trust_rank(&[0], &TrustRankConfig::default());
        assert!(d[1..4].iter().all(|&x| x > 0.0), "{d:?}");
        assert_eq!(d[4], 0.0);
    }

    #[test]
    fn transposed_trust_is_anti_trust_bit_for_bit() {
        let csr = build(
            &[
                (0, 1, 1.0),
                (2, 1, 2.0),
                (1, 3, 1.0),
                (3, 0, 2.0),
                (1, 3, 1.0),
            ],
            5, // node 4 isolated: dangling in both directions
        );
        let cfg = TrustRankConfig::default();
        let tr = csr.transposed();
        assert_eq!(
            bits(&csr.anti_trust_rank(&[1, 3], &cfg)),
            bits(&tr.trust_rank(&[1, 3], &cfg))
        );
        assert_eq!(
            bits(&csr.trust_rank(&[0], &cfg)),
            bits(&tr.anti_trust_rank(&[0], &cfg)),
            "double swap: transposed anti-trust is forward trust"
        );
        for id in csr.nodes() {
            assert_eq!(csr.name(id), tr.name(id));
            assert_eq!(csr.is_pharmacy(id), tr.is_pharmacy(id));
            assert_eq!(csr.in_weight(id).to_bits(), tr.out_weight(id).to_bits());
            let fwd: Vec<(NodeId, f64)> = csr.out_edges(id).collect();
            let back: Vec<(NodeId, f64)> = tr.in_edges(id).collect();
            assert_eq!(fwd, back, "forward row {id} must be the transposed in-row");
        }
    }

    #[test]
    fn demo_good_cluster_outranks_bad_chain() {
        let (graph, seeds, initial, converged) = trustrank_demo();
        assert_eq!((graph.node_count(), graph.edge_count()), (7, 8));
        // Initial state: exactly the seeds at 1.
        assert_eq!(initial.iter().filter(|&&x| x == 1.0).count(), seeds.len());
        // Converged: good cluster (0–3) all positive, and every good node
        // outranks every node of the bad chain (4–6).
        let min_good = converged[..4].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(min_good > 0.0, "{converged:?}");
        for (bad, &value) in converged.iter().enumerate().skip(4) {
            assert!(value < min_good, "bad node {bad}: {value} !< {min_good}");
        }
    }

    #[test]
    fn block_boundaries_do_not_change_bits() {
        let csr = build(
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 0, 1.0),
            ],
            5,
        );
        let cfg = TrustRankConfig::default();
        let d = seed_distribution(5, &[0]);
        let gather = Gather {
            offsets: &csr.t_offsets,
            sources: &csr.t_sources,
            weights: &csr.t_weights,
            norms: &csr.out_weights,
            skip_zero_mass: true,
        };
        let one = propagate(&d, &cfg, &gather, 4096, &SerialDispatch);
        let tiny = propagate(&d, &cfg, &gather, 2, &SerialDispatch);
        assert_eq!(
            bits(&one),
            bits(&tiny),
            "block size must not leak into bits"
        );
    }

    #[test]
    fn empty_graph_and_empty_seeds() {
        let g = GraphBuilder::new().freeze();
        assert!(g.trust_rank(&[], &TrustRankConfig::default()).is_empty());
        assert!(g.pagerank(&TrustRankConfig::default()).is_empty());
        let csr = build(&[(0, 1, 1.0)], 2);
        let t = csr.trust_rank(&[], &TrustRankConfig::default());
        assert!(t.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_seed_panics() {
        build(&[(0, 1, 1.0)], 2).trust_rank(&[99], &TrustRankConfig::default());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        build(&[(0, 1, 1.0)], 2).trust_rank(
            &[0],
            &TrustRankConfig {
                alpha: 1.5,
                iterations: 10,
            },
        );
    }

    #[test]
    #[should_panic(expected = "unknown source node")]
    fn builder_link_from_unknown_node_panics() {
        let mut b = GraphBuilder::new();
        b.add_link(5, "x.com", 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn builder_zero_weight_panics() {
        let mut b = GraphBuilder::new();
        let p = b.add_pharmacy("p.com");
        b.add_link(p, "x.com", 0.0);
    }
}
