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
//!    [`TrainedVerifier::verify_batch`] pipeline. A domain sent here
//!    again before the next [`Federation::flush`] shares the first
//!    request's ticket instead of entering the pool twice.
//!
//! Routing happens synchronously on the submitting thread under the
//! `serve/federation/route` span; only tier-4 requests enter the worker
//! pool. All federation state (cache, store, sequence numbers, tier-4
//! tickets) is mutated on that thread, and slow-path completions are
//! recorded in ticket-wait (submission) order — so every tally of
//! [`FederationStats`] is a pure function of the submission history,
//! byte-identical across worker counts (the xtask audit's 7th
//! double-run enforces this end to end).

pub mod policy;
pub mod store;

pub use policy::FederationPolicy;
pub use store::{Recorded, StoredVerdict, VerdictStore};

use crate::cache::{Lookup, Reserve, ResponseCache};
use crate::service::{ServeConfig, ServeError, Ticket, VerifyService};
use pharmaverify_core::{TrainedVerifier, Verdict, VerdictSource, VerifyError};
use pharmaverify_corpus::PersistError;
use pharmaverify_crawl::{Url, WebHost};
use pharmaverify_obs::{Clock, Registry};
use std::collections::BTreeMap;
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
    /// Tier-4 tickets by domain since the last [`Federation::flush`]. The
    /// cache-disabled service forgets a domain once its batch completes,
    /// so without this a repeat would coalesce or verify again depending
    /// on worker timing.
    sent_slow: BTreeMap<String, Ticket>,
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
    /// inner service runs with its response cache disabled, and a
    /// domain's repeats within one flush window share its tier-4 ticket.
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
            sent_slow: BTreeMap::new(),
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
        if let Some(ticket) = self.sent_slow.get(&domain) {
            return Routed::Slow {
                ticket: ticket.clone(),
                fast_label,
            };
        }
        match self.service.submit(seed_url) {
            Ok(ticket) => {
                self.sent_slow.insert(domain, ticket.clone());
                Routed::Slow { ticket, fast_label }
            }
            Err(e) => Routed::Failed(e),
        }
    }

    /// Seals the slow path's forming batch (see [`VerifyService::flush`])
    /// and ends the window in which repeats share a tier-4 ticket.
    pub fn flush(&mut self) {
        self.sent_slow.clear();
        self.service.flush();
    }

    /// Records a completed slow-path verdict into the store and cache
    /// (clean crawls only) and counts the tier-4 hit. A verdict the
    /// store refuses as out of range is counted under
    /// `serve/federation/store/refused`. Call in ticket submission order
    /// to keep store/cache contents deterministic.
    pub fn complete_slow(&mut self, verdict: &Verdict) {
        self.obs.add("serve/federation/tier/slow/hit", 1);
        let now = self.clock.now_micros();
        if let Recorded::Invalid(_) = self.store.record(verdict, now) {
            self.obs.add("serve/federation/store/refused", 1);
        }
        self.cache_insert(verdict, now);
    }

    /// Simulates a process restart at a wave boundary: persists the
    /// store to `path`, reloads it from disk, and drops the in-memory
    /// cache (which does not survive a restart). Returns
    /// `(records persisted, records reloaded)`.
    ///
    /// # Errors
    /// The save's or the load's [`PersistError`], counted under
    /// `serve/federation/checkpoint/save_failed` or `.../load_failed`;
    /// either way the store and the cache stay as they were.
    pub fn checkpoint_restart(
        &mut self,
        path: &std::path::Path,
    ) -> Result<(u64, u64), PersistError> {
        if let Err(error) = self.store.save(path) {
            self.obs.add("serve/federation/checkpoint/save_failed", 1);
            return Err(error);
        }
        let persisted = self.store.len() as u64;
        let store = match VerdictStore::load(path) {
            Ok(store) => store,
            Err(error) => {
                self.obs.add("serve/federation/checkpoint/load_failed", 1);
                return Err(error);
            }
        };
        self.store = store;
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
