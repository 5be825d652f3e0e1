//! Deterministic workload replay: drive a front end with a seeded
//! request stream and tally what happened.
//!
//! The serving ([`replay_workload`]), online ([`replay_online`]) and
//! federation ([`replay_federation`]) studies share one wave driver. It
//! submits requests in **waves**: up to `QUEUE_CAPACITY` submissions,
//! then a flush, then a blocking wait on every ticket of the wave in
//! submission order, then a virtual-clock advance. The wave barrier is
//! what pins down the deterministic view — within a wave, workers race
//! freely (that is the point of the worker pool), but every wave starts
//! from a settled state: no request in flight, cache contents a pure
//! function of the submission history, clock advanced by a fixed amount.
//! Combined with the service's determinism contract (submission-side
//! batching, merged hit counting, seq-based eviction), every tally is
//! byte-identical across worker counts for the same seed.
//!
//! A study supplies only what differs: its front end, which requests a
//! wave draws and what runs at a wave boundary, and what each outcome
//! does. Refusals at the door stay counted per study (`Overloaded` and
//! `Shedding` are service counters in the serving tallies, errors in the
//! federation's): no wave outgrows the queue, but whether the breaker
//! sheds depends on how the corpus crawls.
//!
//! Latency is the one thing the barrier cannot (and should not) pin
//! down; it is recorded non-deterministically by the service and
//! reported by the binary on stderr, never inside the report.

use crate::drift::{DriftMonitor, DriftVerdict};
use crate::federation::{Federation, FederationPolicy, FederationStats, Routed};
use crate::service::{Outcome, ServeConfig, ServeError, Ticket, VerifyService};
use crate::workload::{Request, RequestKind, WorkloadGenerator};
use pharmaverify_core::{
    extract_corpus, TextLearnerKind, TrainedVerifier, Verdict, VerdictSource, VerifyError,
};
use pharmaverify_corpus::Snapshot;
use pharmaverify_crawl::{CrawlConfig, InMemoryWeb};
use pharmaverify_obs::{Clock, Registry, VirtualClock};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Requests per wave, and the service's admission queue.
const QUEUE_CAPACITY: usize = 16;
const MAX_BATCH: usize = 4;
/// Sized against the small corpus (~60 verifiable domains): tight
/// enough to evict, roomy enough that a hot entry usually lives past its
/// two-wave TTL — seq-based eviction is FIFO, so an over-tight cache
/// would evict every entry before it could expire.
const CACHE_CAPACITY: usize = 16;
const CACHE_TTL_MICROS: u64 = 200;
/// Virtual time per wave (drives cache TTL and store staleness).
const WAVE_MICROS: u64 = 100;
/// Drift histogram buckets, verdicts per window (so at least one clean
/// window closes on each side of the online mix shift) and threshold.
const DRIFT_BUCKETS: usize = 16;
const DRIFT_WINDOW: usize = 24;
const DRIFT_THRESHOLD: f64 = 0.3;

/// Distinguishes concurrently running federation replays within one
/// process when picking a scratch path for the store checkpoint.
static STORE_SCRATCH: AtomicU64 = AtomicU64::new(0);

fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: QUEUE_CAPACITY,
        max_batch: MAX_BATCH,
        cache_capacity: CACHE_CAPACITY,
        cache_ttl_micros: CACHE_TTL_MICROS,
    }
}

/// What one study adds to the shared wave protocol.
trait Study {
    /// What a request carries from submission to its outcome.
    type Note;

    /// Runs the wave-boundary work after `submitted` requests and draws
    /// the next wave of `size`.
    fn open_wave(
        &mut self,
        generator: &mut WorkloadGenerator,
        _submitted: usize,
        size: usize,
    ) -> Vec<Request> {
        generator.take(size)
    }

    /// Submits one request: `Some` is a ticket to wait on; an answer or
    /// a refusal at the door is tallied here.
    fn submit(&mut self, seed_url: &str) -> Option<(Ticket, Self::Note)>;

    fn flush(&mut self);

    /// Takes one ticket's outcome, in submission order.
    fn answer(&mut self, outcome: &Outcome, note: Self::Note);
}

/// The one wave loop: replays `requests` seeded requests through the
/// study `start` builds over the snapshot-2 web and the replay's clock.
fn drive<S: Study>(
    snapshot1: &Snapshot,
    snapshot2: &Snapshot,
    seed: u64,
    requests: usize,
    start: impl FnOnce(Arc<InMemoryWeb>, Arc<dyn Clock>) -> S,
) -> S {
    let host = Arc::new(snapshot2.web.clone());
    // Frozen virtual time: readings never advance the clock, only the
    // inter-wave step does — so TTL expiry is a pure function of the
    // wave schedule, independent of how often anyone reads the clock.
    let clock = VirtualClock::new(0);
    let mut generator = WorkloadGenerator::new(snapshot1, snapshot2, seed);
    let mut study = start(host, Arc::new(clock.clone()));
    let mut submitted = 0;
    while submitted < requests {
        let size = (requests - submitted).min(QUEUE_CAPACITY);
        let wave = study.open_wave(&mut generator, submitted, size);
        submitted += size;
        let tickets: Vec<_> = wave
            .iter()
            .filter_map(|request| study.submit(&request.seed_url))
            .collect();
        study.flush();
        for (ticket, note) in tickets {
            study.answer(&ticket.wait(), note);
        }
        clock.advance(WAVE_MICROS);
    }
    study
}

/// Counters a replay reads back as deltas, each with its tally field.
type Counters<T> = [(&'static str, fn(&mut T) -> &mut u64)];

fn read_counters<T>(obs: &Registry, counters: &Counters<T>) -> Vec<u64> {
    counters.iter().map(|(name, _)| obs.counter(name)).collect()
}

fn fill_deltas<T>(obs: &Registry, counters: &Counters<T>, before: &[u64], stats: &mut T) {
    for ((name, field), before) in counters.iter().zip(before) {
        *field(stats) = obs.counter(name).saturating_sub(*before);
    }
}

/// Deterministic tally of one replay. Every field is a pure function of
/// the seed and configuration — worker count must not change any of
/// them (the xtask determinism audit enforces this end to end).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServingStats {
    /// Requests drawn from the generator.
    pub requests: u64,
    /// Requests admitted past the breaker and queue.
    pub accepted: u64,
    /// Rejections with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// Rejections with [`ServeError::Shedding`].
    pub shed: u64,
    /// Cache hits (completed entries plus coalesced in-flight joins).
    pub cache_hits: u64,
    /// Requests that triggered a verification.
    pub cache_misses: u64,
    /// Capacity evictions.
    pub cache_evictions: u64,
    /// TTL expirations observed at lookup.
    pub cache_expired: u64,
    /// Batches executed.
    pub batches: u64,
    /// Verdicts predicting a legitimate site.
    pub verdicts_legitimate: u64,
    /// Verdicts predicting an illegitimate site.
    pub verdicts_illegitimate: u64,
    /// Verdicts flagged degraded (partial crawl).
    pub verdicts_degraded: u64,
    /// `EmptySite` errors (vanished sites).
    pub errors_empty_site: u64,
    /// `Unreachable` errors (transient-only crawl failures).
    pub errors_unreachable: u64,
    /// Any other error (bad URLs, lost requests).
    pub errors_other: u64,
}

impl ServingStats {
    /// Stable, alignment-free report lines (label + value pairs). The
    /// repro binary turns these into the "Serving" report section; tests
    /// byte-compare them across worker counts.
    pub fn lines(&self) -> Vec<(String, u64)> {
        vec![
            ("requests".to_string(), self.requests),
            ("accepted".to_string(), self.accepted),
            ("rejected (overloaded)".to_string(), self.rejected),
            ("shed (breaker)".to_string(), self.shed),
            ("cache hits".to_string(), self.cache_hits),
            ("cache misses".to_string(), self.cache_misses),
            ("cache evictions".to_string(), self.cache_evictions),
            ("cache TTL expiries".to_string(), self.cache_expired),
            ("batches".to_string(), self.batches),
            ("verdicts: legitimate".to_string(), self.verdicts_legitimate),
            (
                "verdicts: illegitimate".to_string(),
                self.verdicts_illegitimate,
            ),
            ("verdicts: degraded".to_string(), self.verdicts_degraded),
            ("errors: empty site".to_string(), self.errors_empty_site),
            ("errors: unreachable".to_string(), self.errors_unreachable),
            ("errors: other".to_string(), self.errors_other),
        ]
    }
}

/// Service counters the serving and online replays read back.
const COUNTERS: &Counters<ServingStats> = &[
    ("serve/enqueue", |s| &mut s.accepted),
    ("serve/rejected", |s| &mut s.rejected),
    ("serve/shed", |s| &mut s.shed),
    ("serve/cache/hit", |s| &mut s.cache_hits),
    ("serve/cache/miss", |s| &mut s.cache_misses),
    ("serve/cache/evict", |s| &mut s.cache_evictions),
    ("serve/cache/expired", |s| &mut s.cache_expired),
    ("serve/batch", |s| &mut s.batches),
];

/// The serving study: the plain service and its tally.
struct Served {
    service: VerifyService<InMemoryWeb>,
    stats: ServingStats,
}

impl Served {
    fn start(
        verifier: Arc<TrainedVerifier>,
        host: Arc<InMemoryWeb>,
        clock: Arc<dyn Clock>,
        workers: usize,
        requests: usize,
        obs: &Arc<Registry>,
    ) -> Served {
        Served {
            service: VerifyService::with_observability(
                verifier,
                host,
                serve_config(workers),
                Arc::clone(obs),
                clock,
            ),
            stats: ServingStats {
                requests: requests as u64,
                ..ServingStats::default()
            },
        }
    }

    /// Stops the service and reads its counters back.
    fn finish(self, obs: &Registry, before: &[u64]) -> ServingStats {
        let mut stats = self.stats;
        self.service.shutdown();
        fill_deltas(obs, COUNTERS, before, &mut stats);
        stats
    }
}

impl Study for Served {
    type Note = ();

    fn submit(&mut self, seed_url: &str) -> Option<(Ticket, ())> {
        match self.service.submit(seed_url) {
            Ok(ticket) => return Some((ticket, ())),
            Err(ServeError::Overloaded) | Err(ServeError::Shedding) => {}
            Err(_) => self.stats.errors_other += 1,
        }
        None
    }

    fn flush(&mut self) {
        self.service.flush();
    }

    fn answer(&mut self, outcome: &Outcome, (): ()) {
        let stats = &mut self.stats;
        match outcome {
            Ok(verdict) => {
                if verdict.predicted_legitimate {
                    stats.verdicts_legitimate += 1;
                } else {
                    stats.verdicts_illegitimate += 1;
                }
                if verdict.degraded {
                    stats.verdicts_degraded += 1;
                }
            }
            Err(ServeError::Verify(VerifyError::EmptySite(_))) => stats.errors_empty_site += 1,
            Err(ServeError::Verify(VerifyError::Unreachable { .. })) => {
                stats.errors_unreachable += 1;
            }
            Err(_) => stats.errors_other += 1,
        }
    }
}

/// Replays `requests` seeded requests against a service of `workers`
/// workers built from `verifier` and the snapshot-2 web, recording
/// metrics into `obs`. Returns the deterministic tally. See the module
/// docs for the wave protocol.
pub fn replay_workload(
    verifier: Arc<TrainedVerifier>,
    snapshot1: &Snapshot,
    snapshot2: &Snapshot,
    requests: usize,
    workers: usize,
    seed: u64,
    obs: Arc<Registry>,
) -> ServingStats {
    let _span = obs.span("serve/replay");
    let before = read_counters(&obs, COUNTERS);
    drive(snapshot1, snapshot2, seed, requests, |host, clock| {
        Served::start(verifier, host, clock, workers, requests, &obs)
    })
    .finish(&obs, &before)
}

/// Deterministic tally of one online replay: the serving tally plus the
/// drift/retrain/hot-swap ledger. Byte-identical across worker counts
/// for the same seed, exactly like [`ServingStats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OnlineStats {
    /// The underlying serving tally.
    pub serving: ServingStats,
    /// Responses delivered (every admitted request answers exactly once,
    /// in submission order — so this always equals `serving.accepted`).
    pub responses: u64,
    /// Drift windows closed (reference window included).
    pub windows: u64,
    /// Windows that crossed the drift threshold.
    pub triggers: u64,
    /// Seeded retrains performed (one per trigger).
    pub retrains: u64,
    /// Model version live when the replay finished.
    pub final_version: u64,
    /// Verdicts produced by the initial model (version 0).
    pub verdicts_v0: u64,
    /// Verdicts produced by hot-swapped models (version ≥ 1).
    pub verdicts_swapped: u64,
}

impl OnlineStats {
    /// Report lines in the same shape as [`ServingStats::lines`]; the
    /// repro binary renders them as the "Online" section.
    pub fn lines(&self) -> Vec<(String, u64)> {
        let mut lines = vec![
            ("requests".to_string(), self.serving.requests),
            ("accepted".to_string(), self.serving.accepted),
            ("responses".to_string(), self.responses),
            ("drift windows".to_string(), self.windows),
            ("drift triggers".to_string(), self.triggers),
            ("retrains".to_string(), self.retrains),
            ("model swaps".to_string(), self.retrains),
            ("final model version".to_string(), self.final_version),
            ("verdicts on v0".to_string(), self.verdicts_v0),
            (
                "verdicts on swapped models".to_string(),
                self.verdicts_swapped,
            ),
        ];
        lines.push((
            "verdicts: legitimate".to_string(),
            self.serving.verdicts_legitimate,
        ));
        lines.push((
            "verdicts: illegitimate".to_string(),
            self.serving.verdicts_illegitimate,
        ));
        lines
    }
}

/// Draws up to `n` requests of the wanted population from the shared
/// generator: established sites (`Known`/`Vanished`) before the shift,
/// snapshot-2 newcomers (`Unknown`) after it. Skipped draws still
/// consume RNG state, so the sequence stays a pure function of the seed.
fn draw_phase(generator: &mut WorkloadGenerator, newcomers: bool, n: usize) -> Vec<Request> {
    let mut out = Vec::with_capacity(n);
    let mut budget = n.saturating_mul(200).max(1);
    while out.len() < n && budget > 0 {
        budget -= 1;
        match generator.next_request() {
            Some(r) if (r.kind == RequestKind::Unknown) == newcomers => out.push(r),
            Some(_) => {}
            None => break,
        }
    }
    out
}

/// The online study: the serving study plus a drift monitor fed every
/// verdict in submission order, and the retrain that answers a drifted
/// window. `stats.serving` is filled when the replay finishes.
struct Online<'a> {
    served: Served,
    stats: OnlineStats,
    drift: DriftMonitor,
    obs: Arc<Registry>,
    /// Requests submitted before the incoming mix shifts from
    /// established sites to snapshot-2 newcomers (the simulated wave of
    /// new rogue pharmacies whose score distribution the monitor should
    /// catch).
    shift_at: usize,
    /// The retrain corpus.
    snapshot2: &'a Snapshot,
    seed: u64,
}

impl Study for Online<'_> {
    type Note = ();

    fn open_wave(
        &mut self,
        generator: &mut WorkloadGenerator,
        submitted: usize,
        size: usize,
    ) -> Vec<Request> {
        draw_phase(generator, submitted >= self.shift_at, size)
    }

    fn submit(&mut self, seed_url: &str) -> Option<(Ticket, ())> {
        self.served.submit(seed_url)
    }

    fn flush(&mut self) {
        self.served.flush();
    }

    fn answer(&mut self, outcome: &Outcome, (): ()) {
        self.stats.responses += 1;
        self.served.answer(outcome, ());
        let Ok(verdict) = outcome else {
            return;
        };
        if verdict.model_version == 0 {
            self.stats.verdicts_v0 += 1;
        } else {
            self.stats.verdicts_swapped += 1;
        }
        if let Some(DriftVerdict::Drifted { .. }) = self.drift.observe(verdict.rank, &self.obs) {
            // The score population moved: retrain on the current
            // (snapshot-2) population with the replay seed and hot-swap,
            // mid-replay. In-flight batches finish on their pinned
            // version; the remaining tickets of this wave were all
            // dispatched before the swap and are unaffected.
            let retrained = retrain_on(self.snapshot2, self.seed);
            self.served.service.swap_model(retrained);
            self.stats.retrains += 1;
            self.drift.rebase();
        }
    }
}

/// Online verification replay: `waves` waves through a service of
/// `workers` workers whose request mix shifts at the halfway wave, plus
/// a [`DriftMonitor`] fed every completed verdict (in submission order,
/// on this thread), a **seeded retrain on the snapshot-2 corpus**
/// whenever a window drifts, and an atomic hot-swap of the retrained
/// model through the service's [`crate::ModelRegistry`] — mid-replay,
/// while the service keeps answering.
///
/// Determinism: batches pin their model at dispatch time and all of a
/// wave's batches dispatch before any drift trigger can fire (triggers
/// are observed while waiting the wave's tickets), so the version each
/// verdict carries is a pure function of the submission history. Every
/// field of [`OnlineStats`] is byte-identical across worker counts.
///
/// No response is dropped or reordered across a swap: every admitted
/// ticket is waited in submission order, swap or no swap, and the
/// `responses` field double-entry-checks `accepted`.
pub fn replay_online(
    verifier: Arc<TrainedVerifier>,
    snapshot1: &Snapshot,
    snapshot2: &Snapshot,
    waves: usize,
    workers: usize,
    seed: u64,
    obs: Arc<Registry>,
) -> OnlineStats {
    let _span = obs.span("serve/replay_online");
    let before = read_counters(&obs, COUNTERS);
    let triggers_before = obs.counter("serve/drift/triggers");
    let requests = waves * QUEUE_CAPACITY;
    let online = drive(snapshot1, snapshot2, seed, requests, |host, clock| Online {
        served: Served::start(verifier, host, clock, workers, requests, &obs),
        stats: OnlineStats::default(),
        drift: DriftMonitor::new(DRIFT_BUCKETS, DRIFT_WINDOW, DRIFT_THRESHOLD),
        obs: Arc::clone(&obs),
        shift_at: waves / 2 * QUEUE_CAPACITY,
        snapshot2,
        seed,
    });
    let mut stats = online.stats;
    stats.windows = online.drift.windows_closed();
    stats.triggers = obs
        .counter("serve/drift/triggers")
        .saturating_sub(triggers_before);
    stats.final_version = online.served.service.model_version();
    stats.serving = online.served.finish(&obs, &before);
    stats
}

/// Federation counters the federation replay reads back.
const FED_COUNTERS: &Counters<FederationStats> = &[
    ("serve/federation/requests", |s| &mut s.requests),
    ("serve/federation/tier/cache/hit", |s| &mut s.cache_hits),
    ("serve/federation/tier/cache/fallthrough", |s| {
        &mut s.cache_fallthroughs
    }),
    ("serve/federation/tier/store/hit", |s| &mut s.store_hits),
    ("serve/federation/tier/store/stale", |s| &mut s.store_stale),
    ("serve/federation/tier/store/fallthrough", |s| {
        &mut s.store_fallthroughs
    }),
    ("serve/federation/tier/fast/hit", |s| &mut s.fast_hits),
    ("serve/federation/tier/fast/fallthrough", |s| {
        &mut s.fast_fallthroughs
    }),
    ("serve/federation/tier/fast/error", |s| &mut s.fast_errors),
    ("serve/federation/tier/slow/hit", |s| &mut s.slow_hits),
];

/// The federation study: the tiered front end, its tally, and the
/// checkpoint-restart at the first wave boundary past `restart_at`
/// requests (`None` once it has run).
struct Federated {
    federation: Federation<InMemoryWeb>,
    stats: FederationStats,
    restart_at: Option<usize>,
    store_path: PathBuf,
}

impl Federated {
    fn tally(&mut self, outcome: Result<&Verdict, &ServeError>) {
        let stats = &mut self.stats;
        match outcome {
            Ok(verdict) => match verdict.source {
                VerdictSource::ResponseCache => stats.via_cache += 1,
                VerdictSource::VerdictStore => stats.via_store += 1,
                VerdictSource::TextOnly => stats.via_fast += 1,
                VerdictSource::GraphSpliced => stats.via_slow += 1,
            },
            Err(ServeError::Verify(VerifyError::EmptySite(_))) => stats.errors_empty_site += 1,
            Err(ServeError::Verify(VerifyError::Unreachable { .. })) => {
                stats.errors_unreachable += 1;
            }
            Err(_) => stats.errors_other += 1,
        }
    }
}

impl Study for Federated {
    /// The fast path's rejected prediction, if it made one.
    type Note = Option<bool>;

    fn open_wave(
        &mut self,
        generator: &mut WorkloadGenerator,
        submitted: usize,
        size: usize,
    ) -> Vec<Request> {
        if self.restart_at.is_some_and(|at| submitted >= at) {
            self.restart_at = None;
            let checkpoint = self.federation.checkpoint_restart(&self.store_path);
            // lint:allow(no-panic): the scratch path lives in temp_dir; failing
            // to persist there is an environment bug the replay cannot continue past.
            #[allow(clippy::expect_used)]
            let (persisted, reloaded) = checkpoint.expect("store checkpoint persists");
            self.stats.store_persisted = persisted;
            self.stats.store_reloaded = reloaded;
        }
        generator.take(size)
    }

    fn submit(&mut self, seed_url: &str) -> Option<(Ticket, Option<bool>)> {
        match self.federation.submit(seed_url) {
            Routed::Done(verdict) => self.tally(Ok(&verdict)),
            Routed::Slow { ticket, fast_label } => return Some((ticket, fast_label)),
            Routed::Failed(error) => self.tally(Err(&error)),
        }
        None
    }

    fn flush(&mut self) {
        self.federation.flush();
    }

    fn answer(&mut self, outcome: &Outcome, fast_label: Option<bool>) {
        if let Ok(verdict) = outcome {
            self.federation.complete_slow(verdict);
            match fast_label {
                Some(label) if label == verdict.predicted_legitimate => {
                    self.stats.agreement_agree += 1;
                }
                Some(_) => self.stats.agreement_disagree += 1,
                None => {}
            }
        }
        self.tally(outcome.as_ref());
    }
}

/// Replays `requests` seeded Zipf requests through a [`Federation`]
/// with `workers` slow-path workers and the routing `policy` over the
/// snapshot-2 web, with a simulated restart (store save + reload, cache
/// dropped) at the first wave boundary past the halfway request. Every
/// [`FederationStats`] field is byte-identical across worker counts.
#[allow(clippy::too_many_arguments)]
pub fn replay_federation(
    verifier: Arc<TrainedVerifier>,
    snapshot1: &Snapshot,
    snapshot2: &Snapshot,
    requests: usize,
    workers: usize,
    seed: u64,
    policy: FederationPolicy,
    obs: Arc<Registry>,
) -> FederationStats {
    let _span = obs.span("serve/federation/replay");
    let before = read_counters(&obs, FED_COUNTERS);
    let scratch = STORE_SCRATCH.fetch_add(1, Ordering::Relaxed);
    // Never printed: report output stays path-independent.
    let store_path = std::env::temp_dir().join(format!(
        "pharmaverify-federation-{}-{scratch}.json",
        std::process::id()
    ));
    let federated = drive(snapshot1, snapshot2, seed, requests, |host, clock| {
        Federated {
            federation: Federation::with_observability(
                verifier,
                host,
                serve_config(workers),
                policy,
                Arc::clone(&obs),
                clock,
            ),
            stats: FederationStats::default(),
            restart_at: Some(requests / 2),
            store_path,
        }
    });
    let mut stats = federated.stats;
    stats.store_records = federated.federation.store_len() as u64;
    federated.federation.shutdown();
    fill_deltas(&obs, FED_COUNTERS, &before, &mut stats);
    // Scratch hygiene: the checkpoint file has served its purpose.
    let _ = std::fs::remove_file(&federated.store_path);
    stats
}

/// The drift response: a fresh fit on the snapshot-2 corpus, fully
/// seeded so any two runs (and any two worker counts) retrain the exact
/// same model.
fn retrain_on(snapshot2: &Snapshot, seed: u64) -> TrainedVerifier {
    // lint:allow(no-panic): the replay harness runs on synthetic
    // snapshots that always extract; a failure here is a corpus bug.
    #[allow(clippy::expect_used)]
    let corpus = extract_corpus(snapshot2, &CrawlConfig::default()).expect("snapshot-2 extracts");
    TrainedVerifier::fit(
        &corpus,
        TextLearnerKind::Nbm,
        CrawlConfig::default(),
        Some(250),
        seed,
    )
}
