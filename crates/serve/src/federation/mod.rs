//! Tiered verdict federation: answer most requests from tiers cheaper
//! than the full graph-spliced verifier, with provenance on every
//! verdict.
//!
//! A [`Federation`] consults four tiers in fixed cost order — the order
//! of [`Federation::submit`]'s code and of the [`VerdictSource`] enum:
//!
//! 1. **response cache** — the existing TTL [`ResponseCache`], owned by
//!    the federation (the inner [`VerifyService`] runs cache-disabled);
//! 2. **verdict store** — a persisted map of prior slow-path verdicts
//!    ([`VerdictStore`]), served while within the policy's staleness
//!    budget and promoted into the cache on a hit;
//! 3. **text-only fast path** —
//!    [`TrainedVerifier::verify_text_only`], accepted only when its
//!    confidence clears the policy floor; deterministic crawl errors
//!    (both paths run the identical crawl) are answered here too;
//! 4. **graph-spliced slow path** — the worker pool's full
//!    [`TrainedVerifier::verify_batch`] pipeline.
//!
//! Routing happens synchronously on the submitting thread under the
//! `serve/federation/route` span; only tier-4 requests enter the worker
//! pool. All federation state (cache, store, sequence numbers) is
//! mutated on that thread, and slow-path completions are recorded in
//! ticket-wait (submission) order — so every tally of
//! [`FederationStats`] is a pure function of the submission history,
//! byte-identical across worker counts (the xtask audit's 7th
//! double-run enforces this end to end).

pub mod policy;
pub mod store;

pub use policy::FederationPolicy;
pub use store::{StoredVerdict, VerdictStore};

use crate::cache::{Lookup, Reserve, ResponseCache};
use crate::replay::ReplayConfig;
use crate::service::{ServeConfig, ServeError, Ticket, VerifyService};
use crate::workload::WorkloadGenerator;
use pharmaverify_core::{TrainedVerifier, Verdict, VerdictSource, VerifyError};
use pharmaverify_corpus::{PersistError, Snapshot};
use pharmaverify_crawl::{InMemoryWeb, Url, WebHost};
use pharmaverify_obs::{Clock, Registry, VirtualClock};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How [`Federation::submit`] answered (or routed) one request.
pub enum Routed {
    /// Answered synchronously by a tier cheaper than the slow path; the
    /// verdict's `source` says which one.
    Done(Verdict),
    /// Routed to the graph-spliced slow path. `fast_label` carries the
    /// low-confidence fast-path prediction (when one was computed) so
    /// the caller can tally fast-vs-slow agreement on completion.
    Slow {
        /// The slow-path ticket to wait on.
        ticket: Ticket,
        /// The fast path's (rejected) prediction, if it produced one.
        fast_label: Option<bool>,
    },
    /// Rejected at the door (bad URL, queue full, breaker open) or
    /// served a cached error.
    Failed(ServeError),
}

/// The federation engine: a cache + store + policy front-end over a
/// cache-disabled [`VerifyService`]. Not `Sync` — routing state belongs
/// to one submitting thread (the replay harness), which is exactly what
/// keeps it deterministic.
pub struct Federation<H: WebHost + Send + Sync + 'static> {
    service: VerifyService<H>,
    verifier: Arc<TrainedVerifier>,
    host: Arc<H>,
    cache: ResponseCache,
    store: VerdictStore,
    policy: FederationPolicy,
    obs: Arc<Registry>,
    clock: Arc<dyn Clock>,
    cache_capacity: usize,
    cache_ttl_micros: u64,
    /// Federation-owned insertion sequence for cache eviction order.
    next_seq: u64,
}

impl<H: WebHost + Send + Sync + 'static> Federation<H> {
    /// Builds a federation over `verifier` and `host`. The `serve`
    /// config's cache settings size the **federation's** cache; the
    /// inner service runs with its response cache disabled (request
    /// coalescing in the service is independent of its cache, so
    /// in-flight slow-path requests still merge).
    pub fn with_observability(
        verifier: Arc<TrainedVerifier>,
        host: Arc<H>,
        serve: ServeConfig,
        policy: FederationPolicy,
        obs: Arc<Registry>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let cache_capacity = serve.cache_capacity;
        let cache_ttl_micros = serve.cache_ttl_micros;
        let inner = ServeConfig {
            cache_capacity: 0,
            ..serve
        };
        let service = VerifyService::with_observability(
            Arc::clone(&verifier),
            Arc::clone(&host),
            inner,
            Arc::clone(&obs),
            Arc::clone(&clock),
        );
        Federation {
            service,
            verifier,
            host,
            cache: ResponseCache::new(cache_capacity, cache_ttl_micros),
            store: VerdictStore::new(),
            policy,
            obs,
            clock,
            cache_capacity,
            cache_ttl_micros,
            next_seq: 0,
        }
    }

    /// The routing policy in force.
    pub fn policy(&self) -> &FederationPolicy {
        &self.policy
    }

    /// Records held by the verdict store.
    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    /// Routes one request down the tier ladder. Tiers 1–3 answer
    /// synchronously on this thread; tier 4 returns a ticket.
    pub fn submit(&mut self, seed_url: &str) -> Routed {
        let obs = Arc::clone(&self.obs);
        let _route = obs.span("serve/federation/route");
        obs.add("serve/federation/requests", 1);
        let domain = match Url::parse(seed_url) {
            Ok(url) => url.endpoint(),
            Err(_) => {
                // Unroutable: hand it to the service, which rejects it
                // with the canonical BadUrl accounting.
                return match self.service.submit(seed_url) {
                    Ok(ticket) => Routed::Slow {
                        ticket,
                        fast_label: None,
                    },
                    Err(e) => Routed::Failed(e),
                };
            }
        };
        let now = self.clock.now_micros();

        // Tier 1: response cache.
        match self.cache.lookup(&domain, now) {
            Lookup::Hit(mut verdict) => {
                obs.add("serve/federation/tier/cache/hit", 1);
                verdict.source = VerdictSource::ResponseCache;
                return Routed::Done(verdict);
            }
            Lookup::HitError(error) => {
                obs.add("serve/federation/tier/cache/hit", 1);
                return Routed::Failed(ServeError::Verify(error));
            }
            Lookup::Pending | Lookup::Expired | Lookup::Miss => {
                obs.add("serve/federation/tier/cache/fallthrough", 1);
            }
        }

        // Tier 2: persisted verdict store, judged by the staleness
        // policy against the current model version.
        let model_version = self.service.model_version();
        match self.store.lookup(&domain, model_version) {
            Some(record) if self.policy.store_fresh(record.stamped_at_micros, now) => {
                obs.add("serve/federation/tier/store/hit", 1);
                let verdict = record.to_verdict();
                // Promote into the cache so the next repeat is tier-1.
                self.cache_insert(&verdict, now);
                return Routed::Done(verdict);
            }
            Some(_) => {
                obs.add("serve/federation/tier/store/stale", 1);
                obs.add("serve/federation/tier/store/fallthrough", 1);
            }
            None => {
                obs.add("serve/federation/tier/store/fallthrough", 1);
            }
        }

        // Tier 3: text-only fast path, gated on confidence. Crawl
        // errors are answered here: both paths run the identical crawl,
        // so the slow path would only rediscover the same deterministic
        // error at full graph-splice cost (the federation proptest pins
        // the two error strings equal).
        let fast_label = match self.verifier.verify_text_only(self.host.as_ref(), seed_url) {
            Ok(verdict) if self.policy.accepts_fast(verdict.confidence) => {
                obs.add("serve/federation/tier/fast/hit", 1);
                self.cache_insert(&verdict, now);
                return Routed::Done(verdict);
            }
            Ok(verdict) => {
                obs.add("serve/federation/tier/fast/fallthrough", 1);
                Some(verdict.predicted_legitimate)
            }
            Err(error) => {
                obs.add("serve/federation/tier/fast/error", 1);
                self.cache_fail(&domain, &error, now);
                return Routed::Failed(ServeError::Verify(error));
            }
        };

        // Tier 4: the graph-spliced slow path.
        match self.service.submit(seed_url) {
            Ok(ticket) => Routed::Slow { ticket, fast_label },
            Err(e) => Routed::Failed(e),
        }
    }

    /// Seals the slow path's forming batch (see [`VerifyService::flush`]).
    pub fn flush(&self) {
        self.service.flush();
    }

    /// Records a completed slow-path verdict into the store and cache
    /// (clean crawls only) and counts the tier-4 hit. Call in ticket
    /// submission order to keep store/cache contents deterministic.
    pub fn complete_slow(&mut self, verdict: &Verdict) {
        self.obs.add("serve/federation/tier/slow/hit", 1);
        let now = self.clock.now_micros();
        self.store.record(verdict, now);
        self.cache_insert(verdict, now);
    }

    /// Simulates a process restart at a wave boundary: persists the
    /// store to `path`, reloads it from disk, and drops the in-memory
    /// cache (which does not survive a restart). Returns
    /// `(records persisted, records reloaded)`.
    pub fn checkpoint_restart(
        &mut self,
        path: &std::path::Path,
    ) -> Result<(u64, u64), PersistError> {
        self.store.save(path)?;
        let persisted = self.store.len() as u64;
        self.store = VerdictStore::load(path)?;
        let reloaded = self.store.len() as u64;
        self.cache = ResponseCache::new(self.cache_capacity, self.cache_ttl_micros);
        Ok((persisted, reloaded))
    }

    /// Drains the slow path and stops its workers.
    pub fn shutdown(self) {
        self.service.shutdown();
    }

    /// Inserts a clean verdict into the federation's response cache
    /// (reserve + fill back to back, so the cache never holds a pending
    /// entry between submissions).
    fn cache_insert(&mut self, verdict: &Verdict, now: u64) {
        if verdict.degraded {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.cache.reserve(&verdict.domain, seq) {
            Reserve::Stored | Reserve::Evicted(_) => {
                let _ = self.cache.fill(&verdict.domain, verdict, now);
            }
            Reserve::RejectedDisabled => {}
        }
    }

    /// Caches a fast-path crawl error (same-instant semantics as the
    /// service's error caching: it answers repeats within this wave).
    fn cache_fail(&mut self, domain: &str, error: &VerifyError, now: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.cache.reserve(domain, seq) {
            Reserve::Stored | Reserve::Evicted(_) => self.cache.fail(domain, error, now),
            Reserve::RejectedDisabled => {}
        }
    }
}

/// Knobs for [`replay_federation`], layered on a [`ReplayConfig`].
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// The underlying wave-driven replay (requests, seed, service).
    pub replay: ReplayConfig,
    /// Tier-selection policy.
    pub policy: FederationPolicy,
    /// Where the mid-replay restart persists the verdict store. Never
    /// printed — report output stays path-independent.
    pub store_path: PathBuf,
}

/// Distinguishes concurrently running replays within one process when
/// picking a scratch store path.
static STORE_SCRATCH: AtomicU64 = AtomicU64::new(0);

impl FederationConfig {
    /// A federation replay of `requests` requests with `workers`
    /// workers, the default policy, and a process-unique scratch path
    /// for the store checkpoint.
    pub fn new(requests: usize, workers: usize, seed: u64) -> FederationConfig {
        let scratch = STORE_SCRATCH.fetch_add(1, Ordering::Relaxed);
        FederationConfig {
            replay: ReplayConfig::new(requests, workers, seed),
            policy: FederationPolicy::default(),
            store_path: std::env::temp_dir().join(format!(
                "pharmaverify-federation-{}-{scratch}.json",
                std::process::id()
            )),
        }
    }
}

/// Deterministic tally of one federation replay. Every field is a pure
/// function of the seed and configuration; worker count must not change
/// any of them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FederationStats {
    /// Requests drawn from the generator.
    pub requests: u64,
    /// Tier-1 hits (cache answers, including cached errors).
    pub cache_hits: u64,
    /// Tier-1 fallthroughs (miss, expired, or pending).
    pub cache_fallthroughs: u64,
    /// Tier-2 hits (store answers within the staleness budget).
    pub store_hits: u64,
    /// Store records found but beyond the staleness budget.
    pub store_stale: u64,
    /// Tier-2 fallthroughs (absent or stale).
    pub store_fallthroughs: u64,
    /// Tier-3 hits (fast-path answers above the confidence floor).
    pub fast_hits: u64,
    /// Tier-3 fallthroughs (low-confidence clean verdicts).
    pub fast_fallthroughs: u64,
    /// Tier-3 crawl errors answered without entering the slow path.
    pub fast_errors: u64,
    /// Tier-4 verdicts (slow-path completions).
    pub slow_hits: u64,
    /// Verdicts answered with `source == ResponseCache`.
    pub via_cache: u64,
    /// Verdicts answered with `source == VerdictStore`.
    pub via_store: u64,
    /// Verdicts answered with `source == TextOnly`.
    pub via_fast: u64,
    /// Verdicts answered with `source == GraphSpliced`.
    pub via_slow: u64,
    /// Low-confidence fast predictions that matched the slow verdict.
    pub agreement_agree: u64,
    /// Low-confidence fast predictions the slow verdict overturned.
    pub agreement_disagree: u64,
    /// Store records held when the replay finished.
    pub store_records: u64,
    /// Records persisted at the mid-replay restart.
    pub store_persisted: u64,
    /// Records reloaded from disk after the restart.
    pub store_reloaded: u64,
    /// `EmptySite` errors (vanished sites).
    pub errors_empty_site: u64,
    /// `Unreachable` errors (transient-only crawl failures).
    pub errors_unreachable: u64,
    /// Any other error (bad URLs, shed or rejected requests, lost
    /// tickets).
    pub errors_other: u64,
}

impl FederationStats {
    /// Requests answered (verdict *or* deterministic error) by a tier
    /// cheaper than the graph-spliced slow path — the federation's
    /// reason to exist (the xtask audit checks this is the majority).
    pub fn answered_cheap(&self) -> u64 {
        self.cache_hits + self.store_hits + self.fast_hits + self.fast_errors
    }

    /// Stable report lines (label + value pairs), rendered as the
    /// "Federation" section and byte-compared across worker counts.
    pub fn lines(&self) -> Vec<(String, u64)> {
        vec![
            ("requests".to_string(), self.requests),
            ("tier cache: hits".to_string(), self.cache_hits),
            (
                "tier cache: fallthroughs".to_string(),
                self.cache_fallthroughs,
            ),
            ("tier store: hits".to_string(), self.store_hits),
            ("tier store: stale".to_string(), self.store_stale),
            (
                "tier store: fallthroughs".to_string(),
                self.store_fallthroughs,
            ),
            ("tier fast: hits".to_string(), self.fast_hits),
            (
                "tier fast: fallthroughs".to_string(),
                self.fast_fallthroughs,
            ),
            ("tier fast: errors answered".to_string(), self.fast_errors),
            ("tier slow: verdicts".to_string(), self.slow_hits),
            (
                "answered before slow path".to_string(),
                self.answered_cheap(),
            ),
            ("verdicts via cache".to_string(), self.via_cache),
            ("verdicts via store".to_string(), self.via_store),
            ("verdicts via text-only".to_string(), self.via_fast),
            ("verdicts via graph-spliced".to_string(), self.via_slow),
            ("fast vs slow: agree".to_string(), self.agreement_agree),
            (
                "fast vs slow: disagree".to_string(),
                self.agreement_disagree,
            ),
            ("store records".to_string(), self.store_records),
            (
                "store persisted at restart".to_string(),
                self.store_persisted,
            ),
            (
                "store reloaded after restart".to_string(),
                self.store_reloaded,
            ),
            ("errors: empty site".to_string(), self.errors_empty_site),
            ("errors: unreachable".to_string(), self.errors_unreachable),
            ("errors: other".to_string(), self.errors_other),
        ]
    }
}

/// Counter names the federation replay reads back as deltas.
const FED_COUNTERS: [(&str, fn(&mut FederationStats) -> &mut u64); 10] = [
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

/// Replays a seeded Zipf workload through a [`Federation`] over the
/// snapshot-2 web, with a simulated restart (store save + reload, cache
/// dropped) at the halfway wave boundary. Same wave protocol as
/// [`crate::replay_workload`]; every [`FederationStats`] field is
/// byte-identical across worker counts.
pub fn replay_federation(
    verifier: Arc<TrainedVerifier>,
    snapshot1: &Snapshot,
    snapshot2: &Snapshot,
    config: &FederationConfig,
    obs: Arc<Registry>,
) -> FederationStats {
    let _span = obs.span("serve/federation/replay");
    let host: Arc<InMemoryWeb> = Arc::new(snapshot2.web.clone());
    let clock = VirtualClock::new(0);
    let replay = &config.replay;
    let mut generator = WorkloadGenerator::new(snapshot1, snapshot2, replay.seed);
    let before: Vec<u64> = FED_COUNTERS
        .iter()
        .map(|(name, _)| obs.counter(name))
        .collect();

    let mut federation = Federation::with_observability(
        verifier,
        host,
        replay.serve.clone(),
        config.policy.clone(),
        Arc::clone(&obs),
        Arc::new(clock.clone()),
    );
    let mut stats = FederationStats::default();
    let tally_verdict = |stats: &mut FederationStats, verdict: &Verdict| match verdict.source {
        VerdictSource::ResponseCache => stats.via_cache += 1,
        VerdictSource::VerdictStore => stats.via_store += 1,
        VerdictSource::TextOnly => stats.via_fast += 1,
        VerdictSource::GraphSpliced => stats.via_slow += 1,
    };
    let tally_error = |stats: &mut FederationStats, error: &ServeError| match error {
        ServeError::Verify(VerifyError::EmptySite(_)) => stats.errors_empty_site += 1,
        ServeError::Verify(VerifyError::Unreachable { .. }) => stats.errors_unreachable += 1,
        _ => stats.errors_other += 1,
    };
    let wave_size = replay.serve.queue_capacity.max(1);
    let restart_at = replay.requests / 2;
    let mut restarted = false;
    let mut submitted = 0usize;
    let mut remaining = replay.requests;
    while remaining > 0 {
        if !restarted && submitted >= restart_at {
            restarted = true;
            let checkpoint = federation.checkpoint_restart(&config.store_path);
            // lint:allow(no-panic): the scratch path lives in temp_dir; failing
            // to persist there is an environment bug the replay cannot continue past.
            #[allow(clippy::expect_used)]
            let (persisted, reloaded) = checkpoint.expect("store checkpoint persists");
            stats.store_persisted = persisted;
            stats.store_reloaded = reloaded;
        }
        let wave = remaining.min(wave_size);
        remaining -= wave;
        submitted += wave;
        let mut slow: Vec<(Ticket, Option<bool>)> = Vec::with_capacity(wave);
        for request in generator.take(wave) {
            match federation.submit(&request.seed_url) {
                Routed::Done(verdict) => tally_verdict(&mut stats, &verdict),
                Routed::Slow { ticket, fast_label } => slow.push((ticket, fast_label)),
                Routed::Failed(ServeError::Overloaded) | Routed::Failed(ServeError::Shedding) => {
                    stats.errors_other += 1;
                }
                Routed::Failed(error) => tally_error(&mut stats, &error),
            }
        }
        federation.flush();
        for (ticket, fast_label) in slow {
            match ticket.wait() {
                Ok(verdict) => {
                    federation.complete_slow(&verdict);
                    tally_verdict(&mut stats, &verdict);
                    if let Some(label) = fast_label {
                        if label == verdict.predicted_legitimate {
                            stats.agreement_agree += 1;
                        } else {
                            stats.agreement_disagree += 1;
                        }
                    }
                }
                Err(error) => tally_error(&mut stats, &error),
            }
        }
        clock.advance(replay.advance_micros);
    }
    stats.store_records = federation.store_len() as u64;
    federation.shutdown();
    for (i, (name, field)) in FED_COUNTERS.iter().enumerate() {
        *field(&mut stats) = obs.counter(name).saturating_sub(before[i]);
    }
    // Scratch hygiene: the checkpoint file has served its purpose.
    let _ = std::fs::remove_file(&config.store_path);
    stats
}
