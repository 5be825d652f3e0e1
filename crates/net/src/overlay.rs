//! Delta overlay over a frozen [`CsrGraph`]: splice without cloning.
//!
//! Batch verification needs to add a candidate pharmacy (and its unseen
//! link targets) to the training graph, propagate trust, and roll the
//! graph back — thousands of times per workload. A frozen CSR graph
//! cannot be mutated at all, so [`SpliceOverlay`] layers the delta in a
//! small side structure instead: the base arrays are never touched, never
//! copied, and may be shared by any number of concurrent overlays.
//!
//! The overlaid view is the graph a [`crate::GraphBuilder`] would freeze
//! from the base links followed by the splice's — same node ids
//! (appended nodes get ids from the base node count upward in
//! first-appearance order), duplicate links merged left to right onto
//! the base weight, self-links skipped — and its serial push kernels
//! visit sources in ascending id order, so trust and distrust are
//! bit-identical to the push-order reference kernel on that edge list
//! (proptested in `tests/reference_oracle.rs`). One caveat: the spliced
//! row's out-weight is summed in row order rather than ascending-target
//! order. Link weights in this system are integer link *counts*
//! (Algorithm 1 multiplicities), whose f64 sums are exact in any order;
//! non-integer weights may differ in the last ulp of that normalizer.

use crate::csr::{CsrGraph, NodeId, TrustRankConfig};
use std::collections::HashMap;

/// The spliced node's replacement forward row, when the domain already
/// existed in the base graph: the base row materialized (in CSR order)
/// with the splice's links merged in.
#[derive(Debug)]
struct ReplacedRow {
    node: NodeId,
    edges: Vec<(NodeId, f64)>,
    /// Target → position in `edges`, for O(1) duplicate merging.
    pos: HashMap<NodeId, usize>,
}

/// A temporary splice of one pharmacy over a shared `&CsrGraph`.
///
/// At most one splice is active at a time (the batch-verification access
/// pattern); [`SpliceOverlay::unsplice`] discards the delta, restoring
/// the view to exactly the frozen base.
#[derive(Debug)]
pub struct SpliceOverlay<'g> {
    base: &'g CsrGraph,
    /// Nodes appended past the base, in intern order: id of
    /// `added_names[i]` is `base.node_count() + i`.
    added_names: Vec<String>,
    added_index: HashMap<String, NodeId>,
    added_pharmacy: Vec<bool>,
    added_rows: Vec<Vec<(NodeId, f64)>>,
    replaced: Option<ReplacedRow>,
    spliced: Option<NodeId>,
}

impl<'g> SpliceOverlay<'g> {
    /// An empty overlay: a view identical to `base`.
    pub fn new(base: &'g CsrGraph) -> Self {
        SpliceOverlay {
            base,
            added_names: Vec::new(),
            added_index: HashMap::new(),
            added_pharmacy: Vec::new(),
            added_rows: Vec::new(),
            replaced: None,
            spliced: None,
        }
    }

    /// The frozen base graph this overlay wraps.
    pub fn base(&self) -> &'g CsrGraph {
        self.base
    }

    /// Total nodes in the overlaid view (base + appended).
    pub fn node_count(&self) -> usize {
        self.base.node_count() + self.added_names.len()
    }

    /// The id of `domain` in the overlaid view, if present.
    pub fn node(&self, domain: &str) -> Option<NodeId> {
        self.base
            .node(domain)
            .or_else(|| self.added_index.get(domain).copied())
    }

    /// The domain name of node `id` in the overlaid view.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn name(&self, id: NodeId) -> &str {
        let base_n = self.base.node_count();
        if (id as usize) < base_n {
            self.base.name(id)
        } else {
            &self.added_names[id as usize - base_n]
        }
    }

    /// True when node `id` is a pharmacy in the overlaid view (the
    /// spliced node reads as a pharmacy even if the base node was not).
    pub fn is_pharmacy(&self, id: NodeId) -> bool {
        if self.spliced == Some(id) {
            return true;
        }
        let base_n = self.base.node_count();
        if (id as usize) < base_n {
            self.base.is_pharmacy(id)
        } else {
            self.added_pharmacy[id as usize - base_n]
        }
    }

    /// True when a splice is currently active.
    pub fn is_spliced(&self) -> bool {
        self.spliced.is_some()
    }

    /// The node id of the active splice, if any.
    pub fn spliced_node(&self) -> Option<NodeId> {
        self.spliced
    }

    /// The forward row of the spliced node in the overlaid view: the
    /// replaced row for a preexisting domain, the appended row for a
    /// fresh one, empty when nothing is spliced. Targets are unique
    /// (links merge on insert).
    pub(crate) fn spliced_row(&self) -> &[(NodeId, f64)] {
        match (&self.replaced, self.spliced) {
            (Some(row), _) => &row.edges,
            (None, Some(s)) => &self.added_rows[s as usize - self.base.node_count()],
            (None, None) => &[],
        }
    }

    fn intern_added(&mut self, domain: &str, pharmacy: bool) -> NodeId {
        if let Some(&id) = self.added_index.get(domain) {
            if pharmacy {
                self.added_pharmacy[id as usize - self.base.node_count()] = true;
            }
            return id;
        }
        let id = (self.base.node_count() + self.added_names.len()) as NodeId;
        self.added_names.push(domain.to_string());
        self.added_index.insert(domain.to_string(), id);
        self.added_pharmacy.push(pharmacy);
        self.added_rows.push(Vec::new());
        id
    }

    /// Splices a pharmacy node for `domain` with the given outbound
    /// `links` over the base graph, returning its node id. A preexisting
    /// domain keeps its id and gains the links on top of its base row;
    /// unseen targets are appended in first-appearance order; self-links
    /// are skipped; duplicate links merge left to right.
    ///
    /// # Panics
    /// Panics if a splice is already active or a link weight is not
    /// finite and positive.
    pub fn splice_pharmacy(&mut self, domain: &str, links: &[(String, f64)]) -> NodeId {
        assert!(
            self.spliced.is_none(),
            "overlay already holds an active splice"
        );
        let node = match self.base.node(domain) {
            Some(id) => {
                let edges: Vec<(NodeId, f64)> = self.base.out_edges(id).collect();
                let pos = edges
                    .iter()
                    .enumerate()
                    .map(|(i, &(t, _))| (t, i))
                    .collect();
                self.replaced = Some(ReplacedRow {
                    node: id,
                    edges,
                    pos,
                });
                id
            }
            None => self.intern_added(domain, true),
        };
        self.spliced = Some(node);
        for (target, weight) in links {
            assert!(
                weight.is_finite() && *weight > 0.0,
                "link weight must be finite and positive"
            );
            if target != domain {
                let to = match self.node(target) {
                    Some(id) => id,
                    None => self.intern_added(target, false),
                };
                self.merge_link(node, to, *weight);
            }
        }
        node
    }

    /// Merges a link out of the spliced node: a duplicate target adds
    /// its weight onto the existing one (`*w += weight`).
    fn merge_link(&mut self, from: NodeId, to: NodeId, weight: f64) {
        let base_n = self.base.node_count();
        let (edges, pos) = match &mut self.replaced {
            Some(row) if row.node == from => (&mut row.edges, &mut row.pos),
            _ => {
                let i = from as usize - base_n;
                // Appended rows are small; an index map would cost more
                // than it saves, but the access pattern is identical:
                // merge-or-append in first-appearance order.
                let row = &mut self.added_rows[i];
                if let Some(entry) = row.iter_mut().find(|(t, _)| *t == to) {
                    entry.1 += weight;
                } else {
                    row.push((to, weight));
                }
                return;
            }
        };
        match pos.get(&to) {
            Some(&p) => edges[p].1 += weight,
            None => {
                pos.insert(to, edges.len());
                edges.push((to, weight));
            }
        }
    }

    /// Discards the active splice, restoring the view to exactly the
    /// frozen base. A no-op when nothing is spliced.
    pub fn unsplice(&mut self) {
        self.added_names.clear();
        self.added_index.clear();
        self.added_pharmacy.clear();
        self.added_rows.clear();
        self.replaced = None;
        self.spliced = None;
    }

    /// Total outgoing weight of node `id` in the overlaid view.
    fn out_weight(&self, id: NodeId) -> f64 {
        if let Some(row) = &self.replaced {
            if row.node == id {
                return row.edges.iter().map(|&(_, w)| w).sum();
            }
        }
        let base_n = self.base.node_count();
        if (id as usize) < base_n {
            self.base.out_weight(id)
        } else {
            self.added_rows[id as usize - base_n]
                .iter()
                .map(|&(_, w)| w)
                .sum()
        }
    }

    /// Visits the outgoing edges of node `id` in the overlaid view.
    fn for_each_out(&self, id: NodeId, mut f: impl FnMut(NodeId, f64)) {
        if let Some(row) = &self.replaced {
            if row.node == id {
                for &(v, w) in &row.edges {
                    f(v, w);
                }
                return;
            }
        }
        let base_n = self.base.node_count();
        if (id as usize) < base_n {
            for (v, w) in self.base.out_edges(id) {
                f(v, w);
            }
        } else {
            for &(v, w) in &self.added_rows[id as usize - base_n] {
                f(v, w);
            }
        }
    }

    /// TrustRank over the overlaid view: a push iteration over sources
    /// in ascending id order, bit-identical to [`CsrGraph::trust_rank`]
    /// on the frozen overlaid graph. Serial — the overlay serves one
    /// splice at a time, and the spliced graphs stay at training size.
    ///
    /// # Panics
    /// Panics if a seed id is out of range, `alpha` is outside `(0, 1)`,
    /// or `iterations` is 0.
    pub fn trust_rank(&self, seeds: &[NodeId], config: &TrustRankConfig) -> Vec<f64> {
        let _span = pharmaverify_obs::global().span("net/overlay/trustrank");
        assert!(
            config.alpha > 0.0 && config.alpha < 1.0,
            "alpha must be in (0, 1)"
        );
        assert!(config.iterations > 0, "need at least one iteration");
        let n = self.node_count();
        if n == 0 || seeds.is_empty() {
            return vec![0.0; n];
        }
        for &s in seeds {
            assert!((s as usize) < n, "seed {s} out of range");
        }
        let mut d = vec![0.0; n];
        let share = 1.0 / seeds.len() as f64;
        for &s in seeds {
            d[s as usize] += share;
        }
        let mut t = d.clone();
        let mut next = vec![0.0; n];
        for _ in 0..config.iterations {
            next.iter_mut().for_each(|v| *v = 0.0);
            let mut dangling = 0.0;
            for u in 0..n {
                let mass = t[u];
                if mass == 0.0 {
                    continue;
                }
                let out = self.out_weight(u as NodeId);
                if out == 0.0 {
                    dangling += mass;
                    continue;
                }
                self.for_each_out(u as NodeId, |v, w| next[v as usize] += mass * w / out);
            }
            for ((ti, &ni), &di) in t.iter_mut().zip(&next).zip(&d) {
                *ti = config.alpha * (ni + dangling * di) + (1.0 - config.alpha) * di;
            }
        }
        t
    }

    /// Total incoming weight of node `id` in the overlaid view — the
    /// out-weight of the *transposed* overlaid graph, which normalizes
    /// the anti-trust kernels. Only the spliced row's targets differ
    /// from the base.
    pub(crate) fn in_weight_overlaid(&self, id: NodeId) -> f64 {
        let base_n = self.base.node_count();
        let spliced_w = self
            .spliced_row()
            .iter()
            .find(|&&(t, _)| t == id)
            .map(|&(_, w)| w);
        if (id as usize) >= base_n {
            // Appended nodes receive only the spliced node's link (the
            // spliced node itself, when fresh, receives nothing).
            return spliced_w.unwrap_or(0.0);
        }
        let Some(w_new) = spliced_w else {
            return self.base.in_weight(id);
        };
        // The spliced row changed this node's in-weight: re-sum the
        // in-edges in ascending-source order with the spliced weight
        // substituted (or inserted at its id position) — the summation
        // order a freeze of the overlaid graph would use, so the
        // normalizer is bit-identical to a rebuild.
        let spliced = match self.spliced {
            Some(s) => s,
            None => return self.base.in_weight(id),
        };
        let mut sum = 0.0;
        let mut pending = true;
        for (src, w) in self.base.in_edges(id) {
            if src == spliced {
                sum += w_new;
                pending = false;
                continue;
            }
            if pending && spliced < src {
                sum += w_new;
                pending = false;
            }
            sum += w;
        }
        if pending {
            sum += w_new;
        }
        sum
    }

    /// Anti-TrustRank over the overlaid view: TrustRank over the
    /// *transposed* overlaid graph, seeded at known-bad nodes, so
    /// distrust flows backward into every node that links toward a bad
    /// neighborhood — including the spliced candidate, which gathers
    /// distrust through its own outbound links. Serial push over the
    /// transposed view, visiting nodes in ascending id order;
    /// bit-identical to rebuilding the overlaid graph with
    /// [`crate::GraphBuilder`] and calling [`CsrGraph::anti_trust_rank`]
    /// (proptested in `tests/reference_oracle.rs`), and to the base's
    /// `anti_trust_rank` when nothing is spliced.
    ///
    /// # Panics
    /// Panics if a seed id is out of range, `alpha` is outside `(0, 1)`,
    /// or `iterations` is 0.
    pub fn anti_trust_rank(&self, bad_seeds: &[NodeId], config: &TrustRankConfig) -> Vec<f64> {
        let _span = pharmaverify_obs::global().span("net/overlay/antitrustrank");
        assert!(
            config.alpha > 0.0 && config.alpha < 1.0,
            "alpha must be in (0, 1)"
        );
        assert!(config.iterations > 0, "need at least one iteration");
        let total = self.node_count();
        if total == 0 || bad_seeds.is_empty() {
            return vec![0.0; total];
        }
        for &s in bad_seeds {
            assert!((s as usize) < total, "seed {s} out of range");
        }
        let base_n = self.base.node_count();
        let spliced = self.spliced;
        let mut d = vec![0.0; total];
        let share = 1.0 / bad_seeds.len() as f64;
        for &s in bad_seeds {
            d[s as usize] += share;
        }
        // Transposed out-weights = overlaid in-weights, adjusted only
        // for the spliced row's targets.
        let a_out: Vec<f64> = (0..total as NodeId)
            .map(|u| self.in_weight_overlaid(u))
            .collect();
        let spliced_edge: HashMap<NodeId, f64> = self.spliced_row().iter().copied().collect();
        let mut t = d.clone();
        let mut next = vec![0.0; total];
        for _ in 0..config.iterations {
            next.iter_mut().for_each(|v| *v = 0.0);
            let mut dangling = 0.0;
            for u in 0..total {
                let mass = t[u];
                if mass == 0.0 {
                    continue;
                }
                let out = a_out[u];
                if out == 0.0 {
                    dangling += mass;
                    continue;
                }
                // Push along the transposed row of `u`: the in-edges of
                // `u` in the overlaid view, ascending by source, with
                // the spliced node's contribution at its id position.
                let mut pending = spliced_edge.get(&(u as NodeId)).copied();
                if u < base_n {
                    for (src, w) in self.base.in_edges(u as NodeId) {
                        if Some(src) == spliced {
                            // The replaced row subsumes the base edge;
                            // its merged weight is in `pending`.
                            if let Some(w_new) = pending.take() {
                                next[src as usize] += mass * w_new / out;
                            }
                            continue;
                        }
                        if let (Some(w_new), Some(s)) = (pending, spliced) {
                            if s < src {
                                next[s as usize] += mass * w_new / out;
                                pending = None;
                            }
                        }
                        next[src as usize] += mass * w / out;
                    }
                }
                if let (Some(w_new), Some(s)) = (pending, spliced) {
                    next[s as usize] += mass * w_new / out;
                }
            }
            for ((ti, &ni), &di) in t.iter_mut().zip(&next).zip(&d) {
                *ti = config.alpha * (ni + dangling * di) + (1.0 - config.alpha) * di;
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Two training pharmacies linking to each other and to one external
    /// domain.
    fn training_graph() -> CsrGraph {
        let mut builder = GraphBuilder::new();
        let a = builder.add_pharmacy("a.com");
        let b = builder.add_pharmacy("b.com");
        builder.add_link(a, "b.com", 2.0);
        builder.add_link(a, "ext.org", 1.0);
        builder.add_link(b, "ext.org", 3.0);
        builder.freeze()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fresh_splice_appends_and_unsplice_restores() {
        let csr = training_graph();
        let mut ov = SpliceOverlay::new(&csr);
        let before_nodes = ov.node_count();
        let node = ov.splice_pharmacy(
            "new-pharm.com",
            &[("ext.org".to_string(), 1.0), ("other.net".to_string(), 2.0)],
        );
        assert!(ov.is_spliced());
        assert!(ov.is_pharmacy(node));
        assert_eq!(
            ov.node_count(),
            before_nodes + 2,
            "site + one unseen target"
        );
        assert_eq!(ov.out_weight(node), 3.0);
        assert_eq!(ov.node("other.net"), Some(node + 1));
        ov.unsplice();
        assert_eq!(ov.node_count(), before_nodes);
        assert_eq!(ov.node("new-pharm.com"), None);
        assert_eq!(ov.node("other.net"), None);
        assert!(!ov.is_spliced());
    }

    #[test]
    fn preexisting_splice_layers_over_base_row() {
        let csr = training_graph();
        let mut ov = SpliceOverlay::new(&csr);
        let ext = csr.node("ext.org").unwrap();
        assert!(!csr.is_pharmacy(ext));
        let node = ov.splice_pharmacy(
            "ext.org",
            &[("a.com".to_string(), 1.0), ("fresh.net".to_string(), 1.0)],
        );
        assert_eq!(node, ext, "preexisting domain keeps its base id");
        assert!(ov.is_pharmacy(node));
        assert_eq!(ov.out_weight(node), 2.0);
        ov.unsplice();
        assert!(!ov.is_pharmacy(ext), "flag override discarded");
        assert_eq!(ov.out_weight(ext), 0.0, "base row untouched");
    }

    /// After unsplicing a splice over a preexisting domain,
    /// every observable of the view — names, flags, edge rows, weights,
    /// and propagation bits — is restored exactly.
    #[test]
    fn splice_of_preexisting_domain_restores_prior_state_bit_exactly() {
        let csr = training_graph();
        let cfg = TrustRankConfig::default();
        let state = |ov: &SpliceOverlay| {
            let mut rows = Vec::new();
            for id in 0..ov.node_count() as NodeId {
                let mut edges = Vec::new();
                ov.for_each_out(id, |v, w| edges.push((v, w.to_bits())));
                rows.push((
                    ov.name(id).to_string(),
                    ov.is_pharmacy(id),
                    ov.out_weight(id).to_bits(),
                    edges,
                ));
            }
            rows
        };
        let mut ov = SpliceOverlay::new(&csr);
        let before = state(&ov);
        let trust_before = bits(&ov.trust_rank(&[0, 1], &cfg));
        let ext = csr.node("ext.org").unwrap();
        // ext.org already exists as an external (non-pharmacy) node with
        // no out-edges; splicing upgrades it and gives it links — one to
        // a base node, one to an unseen target.
        let node = ov.splice_pharmacy(
            "ext.org",
            &[("a.com".to_string(), 1.0), ("fresh.net".to_string(), 1.0)],
        );
        assert_eq!(node, ext, "preexisting domain keeps its base id");
        assert!(ov.is_pharmacy(node));
        assert_eq!(ov.out_weight(node), 2.0);
        ov.unsplice();
        assert_eq!(
            state(&ov),
            before,
            "unsplice must restore every row bit-exactly"
        );
        assert_eq!(bits(&ov.trust_rank(&[0, 1], &cfg)), trust_before);
        assert_eq!(ov.node("fresh.net"), None, "appended target discarded");
        assert!(!ov.is_pharmacy(ext), "pharmacy upgrade discarded");
        // A second splice over the same domain starts from clean state:
        // no residue of the first splice's appended nodes or merged row.
        let again = ov.splice_pharmacy("ext.org", &[("b.com".to_string(), 3.0)]);
        assert_eq!(again, ext);
        assert_eq!(
            ov.out_weight(again),
            3.0,
            "first splice's links must not leak"
        );
        ov.unsplice();
        assert_eq!(state(&ov), before);
    }

    #[test]
    fn splice_skips_self_links_and_merges_duplicates() {
        let csr = training_graph();
        let mut ov = SpliceOverlay::new(&csr);
        let node = ov.splice_pharmacy(
            "p.com",
            &[
                ("p.com".to_string(), 5.0),
                ("x.com".to_string(), 1.0),
                ("x.com".to_string(), 2.0),
            ],
        );
        assert_eq!(ov.out_weight(node), 3.0, "self skipped, duplicates merged");
        ov.unsplice();
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn splice_infinite_weight_panics() {
        let csr = training_graph();
        let mut ov = SpliceOverlay::new(&csr);
        ov.splice_pharmacy("cand.com", &[("ext.org".to_string(), f64::INFINITY)]);
    }

    #[test]
    #[should_panic(expected = "active splice")]
    fn double_splice_panics() {
        let csr = training_graph();
        let mut ov = SpliceOverlay::new(&csr);
        ov.splice_pharmacy("one.com", &[]);
        ov.splice_pharmacy("two.com", &[]);
    }

    /// The equivalence that lets the verifier drop its graph clones:
    /// overlay propagation == freezing the overlaid graph from scratch.
    #[test]
    fn overlay_trust_matches_rebuilt_frozen_graph() {
        let csr = training_graph();
        let cfg = TrustRankConfig::default();
        let seeds = [0, 1];
        for (domain, links) in [
            (
                "cand.com",
                vec![("ext.org".to_string(), 2.0), ("new.net".to_string(), 1.0)],
            ),
            (
                "ext.org",
                vec![("a.com".to_string(), 1.0), ("b.com".to_string(), 3.0)],
            ),
            (
                "b.com",
                vec![("ext.org".to_string(), 1.0), ("b.com".to_string(), 9.0)],
            ),
        ] {
            let mut ov = SpliceOverlay::new(&csr);
            let node = ov.splice_pharmacy(domain, &links);
            let want = rebuild_overlaid(&ov).trust_rank(&seeds, &cfg);
            let got = ov.trust_rank(&seeds, &cfg);
            ov.unsplice();

            assert_eq!(bits(&want), bits(&got), "domain {domain}");
            assert_eq!(
                ov.node_count(),
                csr.node_count(),
                "unsplice restored the frozen view for {domain} (node {node})"
            );
        }
    }

    #[test]
    fn unspliced_overlay_matches_base_trust() {
        let csr = training_graph();
        let cfg = TrustRankConfig::default();
        let ov = SpliceOverlay::new(&csr);
        assert_eq!(
            bits(&csr.trust_rank(&[0], &cfg)),
            bits(&ov.trust_rank(&[0], &cfg))
        );
    }

    /// Rebuilds the overlaid view as a frozen graph: base names in id
    /// order, then the spliced links in row order, so appended targets
    /// get the same ids the overlay assigned.
    fn rebuild_overlaid(ov: &SpliceOverlay) -> CsrGraph {
        let base = ov.base();
        let mut b = GraphBuilder::new();
        for id in base.nodes() {
            if base.is_pharmacy(id) {
                b.add_pharmacy(base.name(id));
            } else {
                b.add_external(base.name(id));
            }
        }
        for id in base.nodes() {
            if ov.spliced_node() == Some(id) {
                continue; // replaced row added below, in overlay order
            }
            for (v, w) in base.out_edges(id) {
                b.add_link(id, base.name(v), w);
            }
        }
        if let Some(s) = ov.spliced_node() {
            if (s as usize) >= base.node_count() {
                b.add_pharmacy(ov.name(s));
            }
            for &(v, w) in ov.spliced_row() {
                b.add_link(s, ov.name(v), w);
            }
        }
        b.freeze()
    }

    #[test]
    fn unspliced_overlay_matches_base_anti_trust() {
        let csr = training_graph();
        let cfg = TrustRankConfig::default();
        let ov = SpliceOverlay::new(&csr);
        let ext = csr.node("ext.org").unwrap();
        assert_eq!(
            bits(&csr.anti_trust_rank(&[1, ext], &cfg)),
            bits(&ov.anti_trust_rank(&[1, ext], &cfg))
        );
    }

    /// The anti-trust analogue of `overlay_trust_matches_rebuilt_frozen_graph`:
    /// overlay distrust == freezing the overlaid graph and running the
    /// CSR anti-trust kernel, for fresh, preexisting-external, and
    /// preexisting-pharmacy splices.
    #[test]
    fn overlay_anti_trust_matches_rebuilt_frozen_graph() {
        let csr = training_graph();
        let cfg = TrustRankConfig::default();
        let ext = csr.node("ext.org").unwrap();
        for (domain, links) in [
            (
                "cand.com",
                vec![("ext.org".to_string(), 2.0), ("new.net".to_string(), 1.0)],
            ),
            (
                "ext.org",
                vec![("a.com".to_string(), 1.0), ("b.com".to_string(), 3.0)],
            ),
            (
                "b.com",
                vec![("ext.org".to_string(), 1.0), ("b.com".to_string(), 9.0)],
            ),
        ] {
            let mut ov = SpliceOverlay::new(&csr);
            let node = ov.splice_pharmacy(domain, &links);
            let rebuilt = rebuild_overlaid(&ov);
            assert_eq!(rebuilt.node_count(), ov.node_count(), "domain {domain}");
            for seeds in [vec![1], vec![ext], vec![1, ext, node]] {
                let want = rebuilt.anti_trust_rank(&seeds, &cfg);
                let got = ov.anti_trust_rank(&seeds, &cfg);
                assert_eq!(bits(&want), bits(&got), "domain {domain} seeds {seeds:?}");
            }
            ov.unsplice();
        }
    }

    #[test]
    fn spliced_candidate_gathers_distrust_through_its_links() {
        let csr = training_graph();
        let cfg = TrustRankConfig::default();
        let mut ov = SpliceOverlay::new(&csr);
        // The candidate links toward the known-bad node, so distrust
        // must flow back into it even though nothing links to it.
        let node = ov.splice_pharmacy("cand.com", &[("b.com".to_string(), 2.0)]);
        let bad = [csr.node("b.com").unwrap()];
        let scores = ov.anti_trust_rank(&bad, &cfg);
        assert!(
            scores[node as usize] > 0.0,
            "candidate must inherit distrust: {scores:?}"
        );
    }
}
