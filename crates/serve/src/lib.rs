//! Concurrent verification serving (the deployment story of §6).
//!
//! The paper's system is framed as a service "assisting the human
//! reviewers": requests to verify a pharmacy arrive continuously, and
//! the verifier — expensive to run, because each verification crawls a
//! site and propagates trust through the link graph — must be shared,
//! batched, and cached behind a front-end. This crate is that front-end:
//!
//! * [`service`] — [`VerifyService`]: a worker pool over a frozen
//!   [`pharmaverify_core::TrainedVerifier`], with bounded admission
//!   (reject, never block), request batching by distinct domain, and a
//!   degradation breaker that sheds load when crawl health collapses;
//! * [`cache`] — [`ResponseCache`]: domain → verdict, capacity-bounded
//!   with deterministic smallest-seq eviction and virtual-time TTL;
//!   degraded verdicts are never cached;
//! * [`registry`] — [`ModelRegistry`]: versioned `Arc` swap of the
//!   fitted model; batches pin the version they were dispatched with, so
//!   a hot-swap never blocks readers or mixes models within a batch;
//! * [`drift`] — [`DriftMonitor`]: windowed verdict-score histograms and
//!   a deterministic shift statistic that triggers retraining;
//! * [`workload`] — [`WorkloadGenerator`]: seeded, Zipf-skewed request
//!   streams drawn from the synthetic corpus's two snapshots;
//! * [`replay`] — one wave driver behind the serving
//!   ([`replay_workload`]), online ([`replay_online`]) and federation
//!   ([`replay_federation`]) replays, whose [`ServingStats`],
//!   [`OnlineStats`] and [`FederationStats`] are byte-identical across
//!   worker counts for the same seed (enforced by `cargo xtask check`'s
//!   determinism audit);
//! * [`federation`] — [`Federation`]: a tiered front-end (response
//!   cache → persisted [`VerdictStore`] → text-only fast path → full
//!   graph-spliced slow path) with a deterministic
//!   [`FederationPolicy`] and provenance on every verdict.

pub mod cache;
pub mod drift;
pub mod federation;
pub mod registry;
pub mod replay;
pub mod service;
pub mod workload;

pub use cache::{Fill, Lookup, Reserve, ResponseCache};
pub use drift::{DriftMonitor, DriftVerdict};
pub use federation::{
    Federation, FederationPolicy, FederationStats, Recorded, Routed, StoredVerdict, VerdictStore,
};
pub use registry::ModelRegistry;
pub use replay::{replay_federation, replay_online, replay_workload, OnlineStats, ServingStats};
pub use service::{Outcome, ServeConfig, ServeError, Ticket, VerifyService};
pub use workload::{Request, RequestKind, WorkloadGenerator};
