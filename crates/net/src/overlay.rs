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
//! the base weight, self-links skipped. Only the spliced node gains a
//! row, so the overlay keeps that one merged row. Each propagation reads
//! it as a row patch (see [`crate::csr`]): forward, the row's edges
//! `s → t` replace or extend the spliced node's base row; reversed, each
//! target `t` gains the edge `t → s`. Both kernels are the base graph's
//! tiled push with that patch cut in — the overlay has no kernel of its
//! own — so trust and distrust are bit-identical to the push-order
//! reference kernel on the overlaid edge list (proptested in
//! `tests/reference_oracle.rs`).

use crate::csr::{
    propagate, seed_distribution, validate, CsrGraph, NodeId, RowPatch, SerialDispatch,
    TrustRankConfig,
};
use std::collections::HashMap;

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
    spliced: Option<NodeId>,
    /// The spliced node's merged forward row: its base row in CSR order
    /// (for a preexisting domain), then new targets in first-appearance
    /// order. Targets are unique.
    row: Vec<(NodeId, f64)>,
    /// Target → position in `row`, for O(1) duplicate merging.
    pos: HashMap<NodeId, usize>,
}

impl<'g> SpliceOverlay<'g> {
    /// An empty overlay: a view identical to `base`.
    pub fn new(base: &'g CsrGraph) -> Self {
        SpliceOverlay {
            base,
            added_names: Vec::new(),
            added_index: HashMap::new(),
            added_pharmacy: Vec::new(),
            spliced: None,
            row: Vec::new(),
            pos: HashMap::new(),
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
                self.row = self.base.out_edges(id).collect();
                self.pos = self
                    .row
                    .iter()
                    .enumerate()
                    .map(|(i, &(t, _))| (t, i))
                    .collect();
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
                match self.pos.get(&to) {
                    Some(&p) => self.row[p].1 += weight,
                    None => {
                        self.pos.insert(to, self.row.len());
                        self.row.push((to, *weight));
                    }
                }
            }
        }
        node
    }

    /// Discards the active splice, restoring the view to exactly the
    /// frozen base. A no-op when nothing is spliced.
    pub fn unsplice(&mut self) {
        self.added_names.clear();
        self.added_index.clear();
        self.added_pharmacy.clear();
        self.spliced = None;
        self.row.clear();
        self.pos.clear();
    }

    /// The splice as a row patch in direction `reverse`: forward, the
    /// spliced node's merged row `s → t`; reversed, one edge `t → s` per
    /// target `t`. Empty when nothing is spliced.
    pub(crate) fn patch(&self, reverse: bool) -> RowPatch {
        let edges = match self.spliced {
            Some(s) if reverse => self.row.iter().map(|&(t, w)| (t, s, w)).collect(),
            Some(s) => self.row.iter().map(|&(t, w)| (s, t, w)).collect(),
            None => Vec::new(),
        };
        RowPatch::new(self.base, reverse, edges, self.node_count())
    }

    /// TrustRank over the overlaid view: the base graph's tiled push
    /// with the forward patch cut in, bit-identical to
    /// [`CsrGraph::trust_rank`] on the frozen overlaid graph. Serial —
    /// the overlay serves one splice at a time.
    ///
    /// # Panics
    /// Panics if a seed id is out of range, `alpha` is outside `(0, 1)`,
    /// or `iterations` is 0.
    pub fn trust_rank(&self, seeds: &[NodeId], config: &TrustRankConfig) -> Vec<f64> {
        let _span = pharmaverify_obs::global().span("net/overlay/trustrank");
        self.rank(false, seeds, config)
    }

    /// Anti-TrustRank over the overlaid view: TrustRank over the
    /// *transposed* overlaid graph, seeded at known-bad nodes, so
    /// distrust flows backward into every node that links toward a bad
    /// neighborhood — including the spliced candidate, which gathers
    /// distrust through its own outbound links. The base graph's tiled
    /// push over reversed edges with the reverse patch cut in;
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
        self.rank(true, bad_seeds, config)
    }

    /// Ranks the overlaid view in direction `reverse`.
    fn rank(&self, reverse: bool, seeds: &[NodeId], config: &TrustRankConfig) -> Vec<f64> {
        validate(config);
        let n = self.node_count();
        if n == 0 || seeds.is_empty() {
            return vec![0.0; n];
        }
        let d = seed_distribution(n, seeds);
        let patch = self.patch(reverse);
        let tiles = self.base.tiles(reverse);
        propagate(
            &d,
            config,
            tiles,
            Some(&patch),
            &SerialDispatch,
            &mut |_, _| {},
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::patched_row;
    use crate::GraphBuilder;

    /// Node `id`'s forward row in the overlaid view, read through the
    /// forward patch.
    fn patched_out_row(ov: &SpliceOverlay, id: NodeId) -> Vec<(NodeId, f64)> {
        let patch = ov.patch(false);
        patched_row(ov.base().row(false, id), patch.edges_from(id)).collect()
    }

    /// Node `id`'s out-weight in the overlaid view, read through the
    /// forward patch.
    fn patched_out_weight(ov: &SpliceOverlay, id: NodeId) -> f64 {
        ov.patch(false).norm(ov.base().tiles(false), id)
    }

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
        assert_eq!(patched_out_weight(&ov, node), 3.0);
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
        assert_eq!(patched_out_weight(&ov, node), 2.0);
        ov.unsplice();
        assert!(!ov.is_pharmacy(ext), "flag override discarded");
        assert_eq!(patched_out_weight(&ov, ext), 0.0, "base row untouched");
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
                let edges: Vec<(NodeId, u64)> = patched_out_row(ov, id)
                    .iter()
                    .map(|&(v, w)| (v, w.to_bits()))
                    .collect();
                rows.push((
                    ov.name(id).to_string(),
                    ov.is_pharmacy(id),
                    patched_out_weight(ov, id).to_bits(),
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
        assert_eq!(patched_out_weight(&ov, node), 2.0);
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
            patched_out_weight(&ov, again),
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
        assert_eq!(
            patched_out_weight(&ov, node),
            3.0,
            "self skipped, duplicates merged"
        );
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
            for &(v, w) in &ov.row {
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
