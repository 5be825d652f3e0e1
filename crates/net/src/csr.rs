//! Frozen compressed-sparse-row (CSR) web graph and tiled push rank
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
//!   into a [`CsrGraph`]: contiguous `offsets`/`targets`/`weights` rows
//!   and their string-free O(V+E) transpose (`t_offsets`/`t_sources`/
//!   `t_weights`) behind [`CsrGraph::out_edges`] and
//!   [`CsrGraph::in_edges`], plus each propagation direction's edges
//!   laid out once more as destination tiles for the rank kernels.
//!
//! # Tiled push
//!
//! A rank iteration sends `mass·w/norm` along every edge, where `norm`
//! is the source's total weight in the propagation direction: forward
//! edges and out-weights for TrustRank and PageRank, reversed edges and
//! in-weights for Anti-TrustRank. Gathering over in-edges reads each
//! source's mass and normalizer at random positions across the whole
//! score vector; a plain push scatters its writes there instead. The
//! kernels do neither. Following propagation blocking (Beamer, Asanović,
//! Patterson; IPDPS 2017), `freeze` bins each direction's edges by
//! destination tile of 32,768 nodes, ascending by source within a tile,
//! each edge a `u32` source, a `u16` local destination and its `f64`
//! weight. A tile's block streams its edges, skips sources with zero
//! mass, and scatters into a tile-local accumulator, so the mass and
//! normalizer reads move forward through memory and the scattered
//! writes stay in cache. The tile size follows from both ends: local ids
//! are `u16`, so a tile holds at most 65,536 nodes, and 32,768 nodes
//! keep the accumulator at 256 KiB, small enough to stay in a core's L2
//! cache beside the edge stream.
//!
//! # Summation order
//!
//! Each destination sums its contributions in the order its tile stores
//! them, ascending by source: the summation order is the push order
//! itself, that of a push kernel visiting sources in ascending id order.
//! The contract is pinned against a push-order reference kernel over a
//! plain edge list in `tests/reference_oracle.rs`:
//!
//! * duplicate links merge by summing in insertion order (stable sort +
//!   left-to-right adjacent merge);
//! * per-node normalizers are summed over the merged rows: out-weights
//!   in ascending-target order, in-weights in ascending-source order;
//! * dangling mass (from nodes with no edge in the propagation
//!   direction, listed at freeze) is summed serially in ascending node
//!   order and returns through the teleport vector.
//!
//! Skipping a zero-mass source drops a `+0.0` contribution, which
//! leaves a non-negative accumulator's bits unchanged, so every kernel
//! skips them, PageRank included.
//!
//! # Row patches
//!
//! A splice ([`crate::SpliceOverlay`]) ranks through the same kernel as
//! a [`RowPatch`] over the base tiles: edges that each replace the base
//! edge with the same source and destination or are inserted at their
//! source's position, each source's normalizer summed over its patched
//! row in ascending destination order, and the node count with appended
//! nodes. The kernel cuts each patch edge into its destination tile's
//! stream at its (source, local destination) position, skipping the base
//! edge it replaces, so every destination still sums in ascending source
//! order and the edge stream is never copied. The patched normalizers
//! and dangling list are passed beside the tiles, an O(n) copy per call,
//! and appended nodes past the last base tile get tiles of their own.
//!
//! # Determinism under parallel dispatch
//!
//! Each tile is one dispatch block: every score is written by its
//! tile's block alone, blocks are merged in index order, and the
//! dangling-mass pass stays serial — so the output is byte-identical at
//! any worker count. The xtask determinism audit enforces this
//! end-to-end (serial vs 4-worker runs of a web tier that spans several
//! tiles).
//!
//! # Memory
//!
//! The tiles cost 14 bytes per edge per direction on top of the CSR
//! rows, plus 4 bytes per dangling node. `freeze` makes room for them:
//! it drops the builder's raw edge triples once the counting sort has
//! copied them, and the by-source buffer once the rows are merged, both
//! before the transpose and the tiles are built.

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

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

/// Nodes per destination tile, and so per dispatch block: a 256 KiB
/// accumulator, and a web-scale graph spans several tiles while a
/// paper-scale graph stays a single block (no dispatch overhead).
const TILE_NODES: usize = 32_768;

// Local destination ids are `u16`.
const _: () = assert!(TILE_NODES <= 1 << 16);

/// Deterministic fan-out used by the rank kernels: run `blocks` closures
/// and return their results *in index order*. `core::pipeline::Executor`
/// implements this over its scoped-thread pool; [`SerialDispatch`] is
/// the dependency-free default. The kernels dispatch one block per
/// destination tile, and each block returns its tile's scores.
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
    /// Panics if `from` is not a valid node id or `weight` is not finite
    /// and positive (an infinite weight would turn every score its row
    /// reaches into NaN).
    pub fn add_link(&mut self, from: NodeId, to_domain: &str, weight: f64) {
        assert!((from as usize) < self.names.len(), "unknown source node");
        assert!(
            weight.is_finite() && weight > 0.0,
            "link weight must be finite and positive"
        );
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
    /// summing in insertion order, builds the transpose without
    /// touching a single domain string, and lays out both directions'
    /// destination tiles.
    pub fn freeze(self) -> CsrGraph {
        let _span = pharmaverify_obs::global().span("net/csr/freeze");
        let GraphBuilder {
            names,
            index,
            is_pharmacy,
            edges,
        } = self;
        let n = names.len();
        let m = edges.len();

        // Counting sort by source (stable: preserves insertion order
        // within a row, which the duplicate merge below relies on).
        let mut row_start = vec![0usize; n + 1];
        for &(u, _, _) in &edges {
            row_start[u as usize + 1] += 1;
        }
        for i in 0..n {
            row_start[i + 1] += row_start[i];
        }
        let mut cursor = row_start.clone();
        let mut by_src: Vec<(NodeId, f64)> = vec![(0, 0.0); m];
        for &(u, v, w) in &edges {
            let slot = &mut cursor[u as usize];
            by_src[*slot] = (v, w);
            *slot += 1;
        }
        // The raw triples and the merge buffer are freeze's largest
        // transients; release each as soon as it is consumed, so the
        // tiles built below do not raise the peak.
        drop(edges);

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
        drop(by_src);
        targets.shrink_to_fit();
        weights.shrink_to_fit();

        // String-free transpose by counting sort over the merged forward
        // arrays. Iterating sources in ascending order places each
        // row's in-edges in ascending-source order.
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

        let forward = Tiles::build(&offsets, &targets, &weights, TILE_NODES);
        let reverse = Tiles::build(&t_offsets, &t_sources, &t_weights, TILE_NODES);
        CsrGraph {
            names,
            index,
            is_pharmacy,
            offsets,
            targets,
            weights,
            t_offsets,
            t_sources,
            t_weights,
            forward,
            reverse,
        }
    }
}

/// One propagation direction laid out for the push kernel: its edges
/// grouped by destination tile, ascending by source within a tile,
/// every node's normalizer, and the dangling nodes, whose normalizer is
/// zero. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tiles {
    /// Nodes per tile.
    width: usize,
    /// Tile `k`'s edges are `starts[k]..starts[k + 1]`.
    starts: Vec<usize>,
    /// Each edge's source.
    sources: Vec<NodeId>,
    /// Each edge's destination, minus its tile's first node.
    locals: Vec<u16>,
    /// Each edge's merged weight.
    weights: Vec<f64>,
    /// Total weight each node sends in this direction.
    norms: Vec<f64>,
    /// Nodes with a zero normalizer, ascending.
    dangling: Vec<NodeId>,
}

impl Tiles {
    /// Lays out CSR rows `offsets`/`targets`/`weights` in tiles of
    /// `width` nodes: a stable counting sort by destination tile over
    /// the rows in ascending source order. Each normalizer is its row
    /// summed in row order; a node with an empty row dangles.
    fn build(offsets: &[usize], targets: &[NodeId], weights: &[f64], width: usize) -> Tiles {
        assert!(width <= 1 << 16, "local destination ids are u16");
        let n = offsets.len() - 1;
        let mut starts = vec![0usize; n.div_ceil(width) + 1];
        for &v in targets {
            starts[v as usize / width + 1] += 1;
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        let m = targets.len();
        let mut cursor = starts.clone();
        let mut sources: Vec<NodeId> = vec![0; m];
        let mut locals: Vec<u16> = vec![0; m];
        let mut tiled: Vec<f64> = vec![0.0; m];
        for u in 0..n {
            for e in offsets[u]..offsets[u + 1] {
                let v = targets[e] as usize;
                let slot = &mut cursor[v / width];
                sources[*slot] = u as NodeId;
                locals[*slot] = (v % width) as u16;
                tiled[*slot] = weights[e];
                *slot += 1;
            }
        }
        let norms: Vec<f64> = (0..n)
            .map(|u| weights[offsets[u]..offsets[u + 1]].iter().sum())
            .collect();
        let dangling = (0..n as NodeId)
            .filter(|&u| norms[u as usize] == 0.0)
            .collect();
        Tiles {
            width,
            starts,
            sources,
            locals,
            weights: tiled,
            norms,
            dangling,
        }
    }

    /// Node `u`'s normalizer; zero past the base's nodes.
    pub(crate) fn norm(&self, u: NodeId) -> f64 {
        self.norms.get(u as usize).copied().unwrap_or(0.0)
    }
}

/// A splice as an edit of one propagation direction's rows: edges that
/// each replace the base edge with the same source and destination or
/// are inserted at their source's position, the normalizers those edges
/// change, and the patched view's node count. See the module docs.
#[derive(Debug)]
pub(crate) struct RowPatch {
    /// `(source, destination, weight)`, ascending by source then destination.
    by_source: Vec<(NodeId, NodeId, f64)>,
    /// The same edges ascending by destination, then source.
    by_destination: Vec<(NodeId, NodeId, f64)>,
    /// Each patch source and its patched normalizer, ascending.
    pub(crate) sources: Vec<(NodeId, f64)>,
    /// Nodes in the patched view, appended nodes included.
    pub(crate) nodes: usize,
}

/// One patch edge cut into its destination tile's stream.
#[derive(Debug)]
struct Cut {
    tile: usize,
    /// Position in the tile's stream, in (source, local destination) order.
    at: usize,
    /// The base edge at `at` has the same source and destination.
    replaces: bool,
    source: NodeId,
    local: usize,
    weight: f64,
}

impl RowPatch {
    /// Patches `base`'s rows in direction `reverse` with `edges`, whose
    /// `(source, destination)` pairs are unique, over a view of `nodes`
    /// nodes. Each source's normalizer is its patched row summed in
    /// ascending destination order, as [`GraphBuilder::freeze`] sums a
    /// row.
    pub(crate) fn new(
        base: &CsrGraph,
        reverse: bool,
        mut edges: Vec<(NodeId, NodeId, f64)>,
        nodes: usize,
    ) -> RowPatch {
        edges.sort_by_key(|&(u, v, _)| (u, v));
        let sources = edges
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| {
                let cuts = run.iter().map(|&(_, v, w)| (v, w));
                let row = patched_row(base.row(reverse, run[0].0), cuts);
                (run[0].0, row.map(|(_, w)| w).sum())
            })
            .collect();
        let mut by_destination = edges.clone();
        by_destination.sort_by_key(|&(u, v, _)| (v, u));
        RowPatch {
            by_source: edges,
            by_destination,
            sources,
            nodes,
        }
    }

    /// Node `u`'s normalizer in the patched view of `tiles`.
    pub(crate) fn norm(&self, tiles: &Tiles, u: NodeId) -> f64 {
        match self.sources.binary_search_by_key(&u, |&(x, _)| x) {
            Ok(i) => self.sources[i].1,
            Err(_) => tiles.norm(u),
        }
    }

    /// `(destination, weight)` of each patch edge out of `u`, ascending.
    pub(crate) fn edges_from(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let lo = self.by_source.partition_point(|e| e.0 < u);
        let hi = self.by_source.partition_point(|e| e.0 <= u);
        self.by_source[lo..hi].iter().map(|&(_, v, w)| (v, w))
    }

    /// `(source, weight)` of each patch edge into `v`, ascending.
    pub(crate) fn edges_into(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let lo = self.by_destination.partition_point(|e| e.1 < v);
        let hi = self.by_destination.partition_point(|e| e.1 <= v);
        self.by_destination[lo..hi].iter().map(|&(u, _, w)| (u, w))
    }

    /// The patched view's dangling nodes, ascending: the base's, less
    /// those a patch edge leaves, then the appended nodes no patch edge
    /// leaves.
    pub(crate) fn dangling<'a>(&'a self, tiles: &'a Tiles) -> impl Iterator<Item = NodeId> + 'a {
        let appended = tiles.norms.len() as NodeId..self.nodes as NodeId;
        tiles
            .dangling
            .iter()
            .copied()
            .chain(appended)
            .filter(|u| self.sources.binary_search_by_key(u, |&(x, _)| x).is_err())
    }

    /// Each patch edge as a cut into `tiles`, in stream order: ascending
    /// by destination tile, then source, then destination.
    fn cuts(&self, tiles: &Tiles) -> Vec<Cut> {
        let mut cuts: Vec<Cut> = self
            .by_source
            .iter()
            .map(|&(source, v, weight)| {
                let (tile, local) = (v as usize / tiles.width, v as usize % tiles.width);
                // Tiles past the base's last hold appended nodes only.
                let (start, end) = match tiles.starts.get(tile..tile + 2) {
                    Some(&[start, end]) => (start, end),
                    _ => (0, 0),
                };
                let stream = &tiles.sources[start..end];
                let lo = start + stream.partition_point(|&u| u < source);
                let hi = start + stream.partition_point(|&u| u <= source);
                let at = lo + tiles.locals[lo..hi].partition_point(|&x| (x as usize) < local);
                Cut {
                    tile,
                    at,
                    replaces: at < hi && tiles.locals[at] as usize == local,
                    source,
                    local,
                    weight,
                }
            })
            .collect();
        // Stable: each tile's cuts stay ascending by source.
        cuts.sort_by_key(|cut| cut.tile);
        cuts
    }
}

/// A base row with patch entries cut in, ascending by id: each entry
/// replaces the base entry with its id or is inserted at its position.
pub(crate) fn patched_row(
    base: impl Iterator<Item = (NodeId, f64)>,
    cuts: impl Iterator<Item = (NodeId, f64)>,
) -> impl Iterator<Item = (NodeId, f64)> {
    let (mut base, mut cuts) = (base.peekable(), cuts.peekable());
    std::iter::from_fn(move || {
        let Some(&(cut, _)) = cuts.peek() else {
            return base.next();
        };
        match base.peek() {
            Some(&(b, _)) if b < cut => base.next(),
            next => {
                if next.is_some_and(|&(b, _)| b == cut) {
                    base.next();
                }
                cuts.next()
            }
        }
    })
}

/// A frozen, compact web graph: forward and transposed CSR arrays, both
/// directions' destination tiles, and the name→id index. Immutable by
/// construction — temporary mutation (batch verification) goes through
/// [`crate::SpliceOverlay`], which layers deltas over a shared
/// `&CsrGraph` without touching these arrays.
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
    /// Transposed CSR: row `v` lists in-edge sources in ascending order.
    t_offsets: Vec<usize>,
    t_sources: Vec<NodeId>,
    t_weights: Vec<f64>,
    /// Forward edges by destination tile; normalizers are out-weights.
    forward: Tiles,
    /// Reversed edges by destination tile; normalizers are in-weights.
    reverse: Tiles,
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
        self.row(false, id)
    }

    /// Total outgoing weight of node `id` (precomputed at freeze).
    pub fn out_weight(&self, id: NodeId) -> f64 {
        self.forward.norms[id as usize]
    }

    /// Total incoming weight of node `id` (precomputed at freeze; the
    /// out-weight of the transposed graph).
    pub fn in_weight(&self, id: NodeId) -> f64 {
        self.reverse.norms[id as usize]
    }

    /// The transposed graph, frozen: every edge `u → v` becomes `v → u`
    /// with the same weight. Names, ids, and pharmacy flags are
    /// preserved; the forward and transposed arrays swap roles, tiles
    /// included, so this costs one clone and no re-sorting.
    /// `transposed().trust_rank` reads exactly the tiles
    /// [`CsrGraph::anti_trust_rank`] reads, so the two are bit-identical
    /// — which is what lets [`crate::TrustTrajectory`] record an
    /// anti-trust run: compute the trajectory over the transpose with
    /// the bad seeds.
    pub fn transposed(&self) -> CsrGraph {
        CsrGraph {
            names: self.names.clone(),
            index: self.index.clone(),
            is_pharmacy: self.is_pharmacy.clone(),
            offsets: self.t_offsets.clone(),
            targets: self.t_sources.clone(),
            weights: self.t_weights.clone(),
            t_offsets: self.offsets.clone(),
            t_sources: self.targets.clone(),
            t_weights: self.weights.clone(),
            forward: self.reverse.clone(),
            reverse: self.forward.clone(),
        }
    }

    /// The tiles TrustRank propagates over, or with `reverse` the tiles
    /// Anti-TrustRank propagates over.
    pub(crate) fn tiles(&self, reverse: bool) -> &Tiles {
        if reverse {
            &self.reverse
        } else {
            &self.forward
        }
    }

    /// Node `id`'s forward row, or with `transposed` its transposed row,
    /// ascending by id; empty past the base's nodes. In propagation
    /// direction `reverse`, `row(reverse, u)` lists the nodes `u` pushes
    /// to and `row(!reverse, v)` the nodes `v` gathers from.
    pub(crate) fn row(
        &self,
        transposed: bool,
        id: NodeId,
    ) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let (offsets, ids, weights) = if transposed {
            (&self.t_offsets, &self.t_sources, &self.t_weights)
        } else {
            (&self.offsets, &self.targets, &self.weights)
        };
        let u = id as usize;
        let span = match offsets.get(u..u + 2) {
            Some(&[lo, hi]) => lo..hi,
            _ => 0..0,
        };
        ids[span.clone()]
            .iter()
            .copied()
            .zip(weights[span].iter().copied())
    }

    /// Incoming edges of node `id` as `(source, weight)`, in ascending
    /// source order — the order a push kernel's contributions arrive in.
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.row(true, id)
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
    /// tile-parallel push, bit-identical at any worker count.
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
        propagate(&d, config, &self.forward, None, dispatch, &mut |_, _| {})
    }

    /// PageRank over the frozen graph, serial: TrustRank with a uniform
    /// teleport vector, kept for the ablation that measures how much of
    /// the network signal comes from the trusted seed rather than raw
    /// connectivity.
    pub fn pagerank(&self, config: &TrustRankConfig) -> Vec<f64> {
        self.pagerank_with(config, &SerialDispatch)
    }

    /// PageRank with tile-parallel push. Scores sum to ≈ 1 (dangling
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
        propagate(&d, config, &self.forward, None, dispatch, &mut |_, _| {})
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

    /// Anti-TrustRank with tile-parallel push: TrustRank over the
    /// transposed graph, pushing along the reversed edges' tiles with
    /// in-weights as normalizers — no string re-interning, no transpose
    /// at rank time.
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
        propagate(&d, config, &self.reverse, None, dispatch, &mut |_, _| {})
    }
}

/// Validates the shared kernel configuration.
pub(crate) fn validate(config: &TrustRankConfig) {
    assert!(
        config.alpha > 0.0 && config.alpha < 1.0,
        "alpha must be in (0, 1)"
    );
    assert!(config.iterations > 0, "need at least one iteration");
}

/// The normalized static seed distribution `d` (all zeros for an empty
/// seed set).
///
/// # Panics
/// Panics if a seed id is out of range.
pub(crate) fn seed_distribution(n: usize, seeds: &[NodeId]) -> Vec<f64> {
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

/// The shared power iteration `t ← α·(push(t) + dangling·d) + (1−α)·d`
/// over one direction's tiles, one dispatch block per tile, with `patch`
/// cut in when given: its normalizers and dangling list replace the
/// base's, an O(n) copy, and appended nodes past the last base tile get
/// tiles of their own. After every iteration `observe` sees the new
/// iterate and the dangling mass that iteration redistributed.
///
/// Determinism: the dangling pass is serial in ascending node order,
/// each score is written by its own tile's block, and the blocks'
/// results are merged in index order — identical bytes at any worker
/// count.
pub(crate) fn propagate(
    d: &[f64],
    config: &TrustRankConfig,
    tiles: &Tiles,
    patch: Option<&RowPatch>,
    dispatch: &dyn BlockDispatch,
    observe: &mut dyn FnMut(&[f64], f64),
) -> Vec<f64> {
    let n = d.len();
    let alpha = config.alpha;
    let (norms, dangling, cuts) = match patch {
        Some(patch) => {
            let mut norms = tiles.norms.clone();
            norms.resize(n, 0.0);
            for &(u, norm) in &patch.sources {
                norms[u as usize] = norm;
            }
            let dangling = patch.dangling(tiles).collect();
            (Cow::Owned(norms), Cow::Owned(dangling), patch.cuts(tiles))
        }
        None => (
            Cow::Borrowed(&tiles.norms[..]),
            Cow::Borrowed(&tiles.dangling[..]),
            Vec::new(),
        ),
    };
    let (norms, cuts) = (&norms[..], &cuts[..]);
    let mut t = d.to_vec();
    for _ in 0..config.iterations {
        // Dangling mass accumulates serially in ascending node order —
        // the summation order of a push kernel.
        let dangling = dangling.iter().fold(0.0, |sum, &u| sum + t[u as usize]);
        let shared = &t;
        let parts = dispatch.dispatch(n.div_ceil(tiles.width), &move |k| {
            let lo = k * tiles.width;
            let hi = n.min(lo + tiles.width);
            let mut acc = vec![0.0; hi - lo];
            let (mut from, end) = match tiles.starts.get(k..k + 2) {
                Some(&[from, end]) => (from, end),
                _ => (0, 0),
            };
            let mine = cuts.partition_point(|c| c.tile < k)..cuts.partition_point(|c| c.tile <= k);
            for cut in &cuts[mine] {
                push(tiles, norms, shared, &mut acc, from..cut.at);
                let mass = shared[cut.source as usize];
                if mass != 0.0 {
                    acc[cut.local] += mass * cut.weight / norms[cut.source as usize];
                }
                from = cut.at + usize::from(cut.replaces);
            }
            push(tiles, norms, shared, &mut acc, from..end);
            for (a, &dv) in acc.iter_mut().zip(&d[lo..hi]) {
                *a = alpha * (*a + dangling * dv) + (1.0 - alpha) * dv;
            }
            acc
        });
        for (part, out) in parts.iter().zip(t.chunks_mut(tiles.width)) {
            out.copy_from_slice(part);
        }
        observe(&t, dangling);
    }
    t
}

/// Pushes `mass·w/norm` along the tile edges `edges` into their tile's
/// accumulator `acc`, skipping sources with zero mass.
#[inline(always)]
fn push(tiles: &Tiles, norms: &[f64], t: &[f64], acc: &mut [f64], edges: Range<usize>) {
    for ((&u, &v), &w) in tiles.sources[edges.clone()]
        .iter()
        .zip(&tiles.locals[edges.clone()])
        .zip(&tiles.weights[edges])
    {
        let mass = t[u as usize];
        if mass != 0.0 {
            // norms[u] > 0: u has an edge in this direction.
            acc[v as usize] += mass * w / norms[u as usize];
        }
    }
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
    use proptest::prelude::*;

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
        assert_eq!(csr.in_weight(0), 2.0);
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

    /// `g` with both directions' tiles rebuilt `width` nodes wide.
    fn retiled(g: &CsrGraph, width: usize) -> CsrGraph {
        CsrGraph {
            forward: Tiles::build(&g.offsets, &g.targets, &g.weights, width),
            reverse: Tiles::build(&g.t_offsets, &g.t_sources, &g.t_weights, width),
            ..g.clone()
        }
    }

    /// `build(edges, n)` followed by a splice of pharmacy `n{dom}.com`
    /// linking to `links`, self-links skipped: the graph an overlay
    /// splicing the same links over `build(edges, n)` must rank as.
    fn build_spliced(
        edges: &[(usize, usize, f64)],
        n: usize,
        dom: usize,
        links: &[(String, f64)],
    ) -> CsrGraph {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_pharmacy(&format!("n{i}.com"));
        }
        for &(a, v, w) in edges {
            b.add_link(a as NodeId, &format!("n{v}.com"), w);
        }
        let domain = format!("n{dom}.com");
        let s = b.add_pharmacy(&domain);
        for (target, w) in links.iter().filter(|(t, _)| *t != domain) {
            b.add_link(s, target, *w);
        }
        b.freeze()
    }

    proptest! {
        /// Tile width never reaches the bits. Random multigraphs carry
        /// duplicate links, self-links and weights in tenths (sums of
        /// three or more depend on their order); `cut` nodes lose every
        /// link, so they dangle in both directions, and join the seeds.
        /// TrustRank, PageRank and Anti-TrustRank must be bit-identical
        /// at tiles 1, 2, 3 and the default width wide. Each splice of
        /// `churn` — a preexisting or fresh domain, with duplicate and
        /// self links in tenths — then runs over every width, where its
        /// row patch spans tiles and appended nodes get tiles of their
        /// own: the overlay's TrustRank and Anti-TrustRank must equal the
        /// default-width kernels on the frozen spliced graph.
        #[test]
        fn tile_width_does_not_change_bits(
            n in 2usize..24,
            links in prop::collection::vec((0usize..24, 0usize..24, 1usize..40), 0..80),
            cut in prop::collection::vec(0usize..24, 0..4),
            seed_bits in prop::collection::vec(any::<bool>(), 24..25),
            churn in prop::collection::vec(
                ((0usize..30), prop::collection::vec((0usize..30, 1usize..40), 0..6)),
                1..5,
            ),
        ) {
            let cut: Vec<usize> = cut.iter().map(|c| c % n).collect();
            let edges: Vec<(usize, usize, f64)> = links
                .iter()
                .map(|&(a, b, w)| (a % n, b % n, w as f64 / 10.0))
                .filter(|&(a, b, _)| !cut.contains(&a) && !cut.contains(&b))
                .collect();
            let g = build(&edges, n);
            let mut seeds: Vec<NodeId> =
                (0..n as NodeId).filter(|&i| seed_bits[i as usize]).collect();
            seeds.extend(cut.iter().map(|&c| c as NodeId));
            let cfg = TrustRankConfig::default();
            let trust = bits(&g.trust_rank(&seeds, &cfg));
            let anti = bits(&g.anti_trust_rank(&seeds, &cfg));
            let pagerank = bits(&g.pagerank(&cfg));
            let widths = [1, 2, 3, TILE_NODES];
            let tiled: Vec<CsrGraph> = widths.iter().map(|&w| retiled(&g, w)).collect();
            for (tiled, width) in tiled.iter().zip(widths) {
                let got = bits(&tiled.trust_rank(&seeds, &cfg));
                prop_assert_eq!(&got, &trust, "trust, width {}", width);
                let got = bits(&tiled.pagerank(&cfg));
                prop_assert_eq!(&got, &pagerank, "pagerank, width {}", width);
                let got = bits(&tiled.anti_trust_rank(&seeds, &cfg));
                prop_assert_eq!(&got, &anti, "anti-trust, width {}", width);
            }
            for (dom, links) in &churn {
                let links: Vec<(String, f64)> = links
                    .iter()
                    .map(|&(t, w)| (format!("n{t}.com"), w as f64 / 10.0))
                    .collect();
                let spliced = build_spliced(&edges, n, *dom, &links);
                let trust = bits(&spliced.trust_rank(&seeds, &cfg));
                let anti = bits(&spliced.anti_trust_rank(&seeds, &cfg));
                for (tiled, width) in tiled.iter().zip(widths) {
                    let mut overlay = crate::SpliceOverlay::new(tiled);
                    overlay.splice_pharmacy(&format!("n{dom}.com"), &links);
                    let got = bits(&overlay.trust_rank(&seeds, &cfg));
                    prop_assert_eq!(&got, &trust, "overlay trust, n{} width {}", dom, width);
                    let got = bits(&overlay.anti_trust_rank(&seeds, &cfg));
                    prop_assert_eq!(&got, &anti, "overlay anti-trust, n{} width {}", dom, width);
                }
            }
        }
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

    #[test]
    #[should_panic(expected = "finite")]
    fn builder_infinite_weight_panics() {
        let mut b = GraphBuilder::new();
        let p = b.add_pharmacy("p.com");
        b.add_link(p, "x.com", f64::INFINITY);
    }
}
