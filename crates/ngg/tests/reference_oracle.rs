//! Bit-identity of the frozen n-gram graph against a reference model:
//! grams interned in first-appearance order, edges in a `BTreeMap` keyed
//! by id pair, class graphs as running sums scaled once, the class pair
//! as one joint gram list with both classes' weights per edge, and the
//! four similarity measures computed one by one with by-name lookups.

use std::collections::{BTreeMap, HashMap};

use pharmaverify_ngg::{ClassGraph, NGramGraph, NGramGraphBuilder, NggClassGraphs};
use proptest::prelude::*;

/// The reference n-gram graph.
#[derive(Default)]
struct RefGraph {
    grams: Vec<String>,
    index: HashMap<String, u32>,
    edges: BTreeMap<(u32, u32), f64>,
}

impl RefGraph {
    fn intern(&mut self, gram: &str) -> u32 {
        if let Some(&id) = self.index.get(gram) {
            return id;
        }
        let id = self.grams.len() as u32;
        self.grams.push(gram.to_string());
        self.index.insert(gram.to_string(), id);
        id
    }

    fn build(text: &str, rank: usize, window: usize) -> Self {
        let mut g = RefGraph::default();
        let chars: Vec<char> = text.chars().collect();
        let ids: Vec<u32> = chars
            .windows(rank)
            .map(|gram| g.intern(&gram.iter().collect::<String>()))
            .collect();
        for (pos, &from) in ids.iter().enumerate() {
            for &to in &ids[pos + 1..(pos + 1 + window).min(ids.len())] {
                *g.edges.entry((from, to)).or_insert(0.0) += 1.0;
            }
        }
        g
    }

    /// Edge-weight sums in merge order, each scaled once by `1 / docs`.
    fn class(docs: &[RefGraph]) -> Self {
        let mut sums = RefGraph::default();
        for doc in docs {
            for (&(f, t), &w) in &doc.edges {
                let f = sums.intern(&doc.grams[f as usize]);
                let t = sums.intern(&doc.grams[t as usize]);
                *sums.edges.entry((f, t)).or_insert(0.0) += w;
            }
        }
        if docs.len() > 1 {
            let factor = 1.0 / docs.len() as f64;
            sums.edges.values_mut().for_each(|w| *w *= factor);
        }
        sums
    }

    fn weight_by_name(&self, from: &str, to: &str) -> Option<f64> {
        let key = (*self.index.get(from)?, *self.index.get(to)?);
        self.edges.get(&key).copied()
    }

    /// `[CS, SS, VS, NVS]` of `self` against `other`.
    fn similarities(&self, other: &RefGraph) -> [f64; 4] {
        let min = self.edges.len().min(other.edges.len());
        let max = self.edges.len().max(other.edges.len());
        if max == 0 {
            return [1.0; 4];
        }
        let ratios: Vec<f64> = self
            .edges
            .iter()
            .filter_map(|(&(f, t), &wi)| {
                let wj = other.weight_by_name(&self.grams[f as usize], &self.grams[t as usize])?;
                let (lo, hi) = if wi < wj { (wi, wj) } else { (wj, wi) };
                Some(if hi == 0.0 { 0.0 } else { lo / hi })
            })
            .collect();
        let cs = if min == 0 {
            0.0
        } else {
            ratios.len() as f64 / min as f64
        };
        let ss = min as f64 / max as f64;
        let vs = ratios.iter().sum::<f64>() / max as f64;
        let nvs = if ss == 0.0 { 0.0 } else { vs / ss };
        [cs, ss, vs, nvs]
    }

    fn named_edges(&self) -> Vec<(&str, &str, u64)> {
        let name = |id: u32| self.grams[id as usize].as_str();
        self.edges
            .iter()
            .map(|(&(f, t), w)| (name(f), name(t), w.to_bits()))
            .collect()
    }
}

/// Edges by name with both classes' weight bits.
type PairEdges = Vec<(String, String, [Option<u64>; 2])>;

/// The reference class pair: the first class's grams in id order, then
/// the second's that the first lacks, and every edge of either class by
/// name, in joint `(from, to)` id order, with both classes' weight bits.
fn reference_pair(classes: [&RefGraph; 2]) -> (Vec<String>, PairEdges) {
    let mut joint = RefGraph::default();
    for class in classes {
        for gram in &class.grams {
            joint.intern(gram);
        }
    }
    let mut edges: BTreeMap<(u32, u32), [Option<u64>; 2]> = BTreeMap::new();
    for (c, class) in classes.iter().enumerate() {
        for (&(f, t), w) in &class.edges {
            let id = |g: u32| joint.index[&class.grams[g as usize]];
            edges.entry((id(f), id(t))).or_insert([None; 2])[c] = Some(w.to_bits());
        }
    }
    let name = |id: u32| joint.grams[id as usize].clone();
    let edges = edges
        .into_iter()
        .map(|((f, t), w)| (name(f), name(t), w))
        .collect();
    (joint.grams, edges)
}

/// The pair table's joint grams and edges against [`reference_pair`].
fn assert_pair_matches(
    graphs: &NggClassGraphs,
    legit: &RefGraph,
    illegit: &RefGraph,
) -> Result<(), TestCaseError> {
    let (grams, edges) = reference_pair([legit, illegit]);
    let got: Vec<&str> = (0..graphs.node_count() as u32)
        .map(|id| graphs.gram(id))
        .collect();
    prop_assert_eq!(got, grams);
    let got: PairEdges = graphs
        .iter_edges()
        .map(|(f, t, w)| (f.to_string(), t.to_string(), w.map(|w| w.map(f64::to_bits))))
        .collect();
    prop_assert_eq!(got, edges);
    prop_assert_eq!(
        graphs.edge_counts(),
        [legit.edges.len(), illegit.edges.len()]
    );
    Ok(())
}

fn named_edges(g: &NGramGraph) -> Vec<(&str, &str, u64)> {
    g.iter_edges()
        .map(|(f, t, w)| (f, t, w.to_bits()))
        .collect()
}

/// Equation (3) over the reference's `[CS, SS, VS, NVS]` pairs.
fn text_rank(legit: [f64; 4], illegit: [f64; 4]) -> f64 {
    (0..4).fold(0.0, |rank, k| rank + legit[k] + (1.0 - illegit[k]))
}

fn assert_doc_graph_matches(text: &str, rank: usize, window: usize) -> Result<(), TestCaseError> {
    let g = NGramGraphBuilder::new(rank, window).build(text);
    let r = RefGraph::build(text, rank, window);
    prop_assert_eq!(g.node_count(), r.grams.len());
    for (id, gram) in r.grams.iter().enumerate() {
        prop_assert_eq!(g.gram(id as u32), gram.as_str());
    }
    prop_assert_eq!(named_edges(&g), r.named_edges());
    Ok(())
}

const ASCII: &str = "[ -~]{0,80}";
const UNICODE: &str = ".{0,60}";
const SHORTER_THAN_RANK: &str = "[a-zé]{0,3}";
/// Runs of one char: their n-grams repeat, giving self-loops
/// such as `aaaa → aaaa`.
const RUNS: &str = "a{0,12}b{0,3}a{0,12} {0,6}é{0,9}";
/// A small alphabet, so documents share many edges.
const SHARED: &str = "[a-dé ]{0,50}";

proptest! {
    #[test]
    fn doc_graphs_match_reference(
        ascii in ASCII,
        unicode in UNICODE,
        short in SHORTER_THAN_RANK,
        runs in RUNS,
        // Up to 9: ASCII grams of at most 7 bytes are keyed by their
        // packed bytes, longer ones through the arena.
        rank in 1usize..10,
        window in 1usize..6,
    ) {
        for text in [&ascii, &unicode, &short, &runs] {
            assert_doc_graph_matches(text, 4, 4)?;
            assert_doc_graph_matches(text, rank, window)?;
        }
    }

    #[test]
    fn class_graphs_match_reference(
        docs in prop::collection::vec(SHARED, 1..9),
        unicode in prop::collection::vec(UNICODE, 1..9),
        rank in 1usize..5,
    ) {
        for docs in [&docs, &unicode] {
            let builder = NGramGraphBuilder::new(rank, 4);
            let mut class = ClassGraph::new();
            class.merge_all(docs.iter().map(|d| builder.build(d)).collect::<Vec<_>>().iter());
            let graph = class.into_graph();
            let refs: Vec<RefGraph> = docs.iter().map(|d| RefGraph::build(d, rank, 4)).collect();
            let reference = RefGraph::class(&refs);
            prop_assert_eq!(named_edges(&graph), reference.named_edges());
        }
    }

    #[test]
    fn features_match_reference(
        legit in prop::collection::vec(SHARED, 1..5),
        illegit in prop::collection::vec(SHARED, 1..5),
        docs in prop::collection::vec(SHARED, 1..4),
        unicode in UNICODE,
        runs in RUNS,
    ) {
        let legit: Vec<&str> = legit.iter().map(String::as_str).collect();
        let illegit: Vec<&str> = illegit.iter().map(String::as_str).collect();
        let graphs = NggClassGraphs::build_full(NGramGraphBuilder::default(), &legit, &illegit);
        let ref_class = |texts: &[&str]| {
            RefGraph::class(&texts.iter().map(|t| RefGraph::build(t, 4, 4)).collect::<Vec<_>>())
        };
        let (ref_legit, ref_illegit) = (ref_class(&legit), ref_class(&illegit));
        assert_pair_matches(&graphs, &ref_legit, &ref_illegit)?;
        for doc in docs.iter().chain([&unicode, &runs]) {
            let features = graphs.features(doc);
            let r = RefGraph::build(doc, 4, 4);
            let (l, i) = (r.similarities(&ref_legit), r.similarities(&ref_illegit));
            let expected: Vec<u64> = l.iter().chain(&i).map(|v| v.to_bits()).collect();
            let got: Vec<u64> = features.to_vec().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, expected);
            prop_assert_eq!(features.text_rank().to_bits(), text_rank(l, i).to_bits());
        }
    }
}

/// Legitimate texts over `[a-d ]` and illegitimate ones over `[c-fé ]`:
/// the class graphs share only the grams over `[c-d ]`, so the pair
/// table holds grams and edges missing from one class. Documents over
/// `[a-fé ]` also hold grams missing from both.
const LEGIT_ONLY: &str = "[a-d ]{0,50}";
const ILLEGIT_ONLY: &str = "[c-fé ]{0,50}";
const EITHER: &str = "[a-fé ]{0,50}";

proptest! {
    #[test]
    fn features_match_reference_over_partly_shared_grams(
        legit in prop::collection::vec(LEGIT_ONLY, 1..5),
        illegit in prop::collection::vec(ILLEGIT_ONLY, 1..5),
        docs in prop::collection::vec(EITHER, 1..4),
    ) {
        let legit: Vec<&str> = legit.iter().map(String::as_str).collect();
        let illegit: Vec<&str> = illegit.iter().map(String::as_str).collect();
        let graphs = NggClassGraphs::build_full(NGramGraphBuilder::default(), &legit, &illegit);
        let ref_class = |texts: &[&str]| {
            RefGraph::class(&texts.iter().map(|t| RefGraph::build(t, 4, 4)).collect::<Vec<_>>())
        };
        let (ref_legit, ref_illegit) = (ref_class(&legit), ref_class(&illegit));
        assert_pair_matches(&graphs, &ref_legit, &ref_illegit)?;
        for doc in &docs {
            let r = RefGraph::build(doc, 4, 4);
            let (l, i) = (r.similarities(&ref_legit), r.similarities(&ref_illegit));
            let expected: Vec<u64> = l.iter().chain(&i).map(|v| v.to_bits()).collect();
            let features = graphs.features(doc);
            let got: Vec<u64> = features.to_vec().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, expected);
            prop_assert_eq!(features.text_rank().to_bits(), text_rank(l, i).to_bits());
        }
    }
}

/// A run of one char at the fast path's 4,096-char cap: one gram, whose
/// row holds every window pair (16,362 equal targets) before they count
/// into a single self-loop.
#[test]
fn one_char_run_at_the_fast_path_cap() {
    for c in ['a', 'é'] {
        let text: String = std::iter::repeat(c).take(4096).collect();
        assert_doc_graph_matches(&text, 4, 4).unwrap();
        let g = NGramGraphBuilder::default().build(&text);
        assert_eq!((g.node_count(), g.edge_count()), (1, 1));
        assert_eq!(g.edge_weight(0, 0), Some(16_362.0));
    }
}

const LEGIT: &[&str] = &[
    "refill your prescription with a licensed pharmacist and insurance coverage",
    "consult our pharmacist about prescription refills and health insurance",
    "licensed pharmacy with verified prescription services and patient privacy",
];
const ILLEGIT: &[&str] = &[
    "cheap viagra no prescription needed discount cialis bonus pills",
    "buy viagra cialis online no prescription required best discount",
    "no prescription viagra discount pills cheap cialis fast shipping",
];

/// Feature and text-rank bits of three texts, as the `BTreeMap` edge
/// store computed them.
#[test]
fn pinned_feature_bits() {
    let graphs = NggClassGraphs::build_full(NGramGraphBuilder::default(), LEGIT, ILLEGIT);
    let pinned: [(&str, [u64; 8], u64); 3] = [
        (
            "licensed pharmacist prescription refill insurance",
            [
                0x3fe9ee58469ee584,
                0x3fd197a8a5013699,
                0x3fc4161bc5394b15,
                0x3fe244a8b4799fdf,
                0x3fcee58469ee5847,
                0x3fd51745d1745d17,
                0x3fb1c71c71c71c73,
                0x3fcaf922545a3cd2,
            ],
            0x4013d905830c4782,
        ),
        (
            "viagra cialis no prescription cheap discount pills",
            [
                0x3fc8730e61cc3987,
                0x3fd1ff30ef6b2c15,
                0x3fab8033c42534fb,
                0x3fc8730e61cc3987,
                0x3fe64ac9592b2565,
                0x3fd59364d9364d93,
                0x3fc6c9b26c9b26c8,
                0x3fe0e61cc398730d,
            ],
            0x4007d10770161f4c,
        ),
        (
            // No edge shared with the illegitimate class: VS and NVS
            // against it are `-0.0`.
            "naïve café — pharmacie en ligne sans ordonnance, aaaaaaaa ordonnance",
            [
                0x3fb15062efec366a,
                0x3fd4edcd0aeb5fd9,
                0x3f947da40fa34092,
                0x3faf5482446e7ad8,
                0x0000000000000000,
                0x3fd91745d1745d17,
                0x8000000000000000,
                0x8000000000000000,
            ],
            0x401055d0a7efa13c,
        ),
    ];
    for (text, bits, rank) in pinned {
        let features = graphs.features(text);
        let got: Vec<u64> = features.to_vec().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, bits, "{text}");
        assert_eq!(features.text_rank().to_bits(), rank, "{text}");
    }
}
