//! Web link graph and trust propagation (§4.2 of the paper).
//!
//! * [`csr`] — the directed domain graph of Algorithm 1 (pharmacy nodes
//!   plus the external domains their outbound links point to), built
//!   through the [`GraphBuilder`] interning API and frozen into a
//!   [`CsrGraph`] with contiguous edge arrays, a string-free transpose,
//!   and a tiled push power iteration (one block per destination tile)
//!   dispatched through any [`BlockDispatch`] (worker-count independent
//!   by index-ordered merge): TrustRank (Gyöngyi et al., VLDB 2004)
//!   seeded with the known-legitimate pharmacies, its distrust
//!   counterpart Anti-TrustRank, and unbiased PageRank for ablations;
//! * [`linked`] — the most-linked-to analysis behind Table 11;
//! * [`overlay`] — [`SpliceOverlay`], the delta side structure that lets
//!   verification splice a candidate pharmacy over a frozen [`CsrGraph`]
//!   without cloning or mutating the base arrays; each propagation reads
//!   the splice as a row patch cut into the base tiles, so the overlay
//!   ranks through the same tiled push;
//! * [`incremental`] — online re-ranking on splice: [`TrustTrajectory`]
//!   records the base graph's per-iteration history once, and one replay
//!   over the row patch serves [`SpliceOverlay::trust_rank_incremental`]
//!   and [`SpliceOverlay::anti_trust_rank_incremental`], recomputing only
//!   the affected neighborhood, with a deterministic tolerance boundary
//!   and a frontier-capped fallback to the full kernel.

pub mod csr;
pub mod incremental;
pub mod linked;
pub mod overlay;

pub use csr::{
    trustrank_demo, BlockDispatch, CsrGraph, GraphBuilder, NodeId, SerialDispatch, TrustRankConfig,
};
pub use incremental::{IncrementalConfig, IncrementalOutcome, IncrementalTrust, TrustTrajectory};
pub use linked::{top_linked, LinkedSite};
pub use overlay::SpliceOverlay;
