//! Character N-Gram Graph text representation (§4.1.2 of the paper).
//!
//! An n-gram graph has character n-grams as vertices; a weighted edge
//! connects two n-grams that co-occur within a sliding window of the text,
//! with the weight counting how often they do. Unlike bag-of-words models,
//! the graph conserves the order of character appearance, which makes it
//! robust for raw web documents.
//!
//! Following the paper (and Giannakopoulos et al., WIMS 2012) we use
//! `Lmin = Lmax = Dwin = 4`.
//!
//! * [`graph`] — the frozen n-gram graph: interned grams and sorted
//!   edge rows of integer counts, with one scale per edge set;
//! * [`builder`] — document → graph extraction;
//! * [`merge`] — class-graph construction by averaging document graphs,
//!   and the joining of class graphs into one table;
//! * [`similarity`] — the CS / SS / VS / NVS measures of §4.1.2;
//! * [`features`] — the 8-value per-document feature extraction of the
//!   classification process in Figure 2, against the class pair held as
//!   one table, plus the Equation (3) text-rank score used for ranking.

pub mod builder;
pub mod features;
pub mod graph;
mod intern;
pub mod merge;
pub mod similarity;

pub use builder::NGramGraphBuilder;
pub use features::{ngg_feature_names, NggClassGraphs, NggFeatures};
pub use graph::NGramGraph;
pub use merge::ClassGraph;
pub use similarity::GraphSimilarities;

/// The n-gram rank used throughout the paper (`Lmin = Lmax = 4`).
pub const NGRAM_RANK: usize = 4;

/// The neighbourhood window used throughout the paper (`Dwin = 4`).
pub const WINDOW: usize = 4;
