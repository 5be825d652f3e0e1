//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§6) against the synthetic corpus.
//!
//! Entry points:
//!
//! * `cargo run --release -p pharmaverify-bench --bin repro` — prints all
//!   tables (`--table N` / `--figure 3` select one; `--scale small|medium|paper`
//!   controls corpus size, default `paper`);
//! * `cargo xtask bench` — runs the `microbench` binary over the graph
//!   substrate's hot paths and gates it against the newest committed
//!   `BENCH_<n>.json`.
//!
//! Independent tables (and the cells within the classifier grids) run in
//! parallel over a shared artifact store; `PHARMAVERIFY_JOBS` (or
//! `repro --jobs N`) sets the worker count, defaulting to the available
//! cores. Output is byte-identical at any width — see `DESIGN.md`,
//! "Artifact pipeline & caching". The `serving` module holds the three
//! replay studies, each byte-identical at any `--serve-workers` count:
//! `repro --serve-workload N` appends the serving study
//! (`serving::serving_study_in`), a seeded workload replayed through the
//! concurrent verification service — see `DESIGN.md` §10; `repro
//! --online-waves N` appends the online study
//! (`serving::online_study_in`), a drifting workload whose drift monitor
//! triggers a seeded retrain and a mid-replay model hot-swap — see
//! `DESIGN.md` §12; `repro --federation N` appends the federation study
//! (`serving::federation_study_in`), the same seeded workload replayed
//! through the tiered verdict federation (response cache → persisted
//! store → text-only fast path → graph-spliced slow path), with
//! `--staleness-budget` / `--fast-confidence` policy knobs — see
//! `DESIGN.md` §14. `repro --attack <kind> --attack-strength S` appends
//! the adversarial study (`adversarial::adversarial_study`): link-farm /
//! cloaking / mimicry attacks swept over strengths 0, S/2, S with the
//! spam-mass defense off and on — see `DESIGN.md` §13.
//!
//! Numbers are *shape*-comparable to the paper, not identical: the corpus
//! is synthetic (see `DESIGN.md` §1). EXPERIMENTS.md records the
//! paper-vs-measured comparison for every table.

pub mod adversarial;
pub mod context;
pub mod figures;
pub mod report;
pub mod scale;
pub mod serving;
pub mod tables;

pub use adversarial::adversarial_study;
pub use context::{ReproContext, Scale, ScaleError};
pub use report::{render_report, render_report_with, ReproReport, Selection};
pub use scale::{build_web_tier, rank_web_tier, scale_section, WebTierBuild, WebTierScores};
pub use serving::{federation_study_in, online_study_in, serving_study_in};
