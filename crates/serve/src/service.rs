//! The concurrent verification service: admission control, batching,
//! caching, and graceful degradation around a frozen
//! [`TrainedVerifier`].
//!
//! # Architecture
//!
//! ```text
//! submit() ──┬─ breaker open? ──────────────→ Err(Shedding)
//!            ├─ pending ≥ queue_capacity? ──→ Err(Overloaded)
//!            ├─ cache hit ──────────────────→ Ticket (ready)
//!            ├─ domain in flight ───────────→ Ticket (coalesced)
//!            └─ new domain → forming batch ─→ Ticket (pending)
//!                               │ seals at max_batch or flush()
//!                               ▼
//!                        mpsc channel ──→ worker pool ──→ verify_batch
//!                                               │
//!                         fulfill waiters ◄─────┴──→ cache + breaker
//! ```
//!
//! # Determinism contract
//!
//! The service is multi-threaded, so *latencies* and *interleavings* are
//! not reproducible — but every deterministic-flagged metric it records
//! is a pure function of the submission sequence (given a frozen
//! [`pharmaverify_obs::VirtualClock`]):
//!
//! * **Batch composition is decided at submission time**, under the
//!   service lock, by the submitting thread: a batch seals when it
//!   reaches `max_batch` distinct new domains or on [`VerifyService::flush`].
//!   Workers only ever *execute* sealed batches, so the number of batches
//!   and their contents cannot depend on the worker count.
//! * **`serve/cache/hit` counts completed-cache hits *and* coalesced
//!   requests** (a request for a domain already being verified joins its
//!   in-flight waiters). Whether a duplicate lands before or after its
//!   predecessor's batch completes is a race; *that it does not trigger a
//!   second verification* is not. The split is timing-dependent, the sum
//!   is deterministic — so only the sum is recorded.
//! * **Cache eviction is by submission seq** (see [`crate::cache`]), so
//!   final cache contents are insertion-order-independent.
//! * Request latencies are recorded with
//!   [`pharmaverify_obs::Registry::observe_nondet`] and stay out of the
//!   deterministic trace view.
//!
//! # Graceful degradation
//!
//! Crawl faults surface in two ways: per-request (a partial crawl yields
//! a `degraded` verdict — never cached; a fully transient-failed crawl
//! yields [`VerifyError::Unreachable`]) and service-wide (a sliding
//! window of recent outcomes; when the degraded+unreachable fraction
//! crosses `BREAKER_THRESHOLD`, new submissions are shed with
//! [`ServeError::Shedding`] until a probe request refreshes the window).
//! A panic inside verification is contained per batch: every request of
//! that batch resolves with [`ServeError::WorkerPanicked`] and the worker
//! keeps serving.

use crate::cache::{Fill, Lookup, ResponseCache};
use crate::registry::ModelRegistry;
use pharmaverify_core::{TrainedVerifier, Verdict, VerifyError};
use pharmaverify_crawl::{Url, WebHost};
use pharmaverify_obs::{Clock, Registry, WallClock};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Degraded fraction of the breaker's outcome window at which it opens.
const BREAKER_THRESHOLD: f64 = 0.5;
/// Sliding-window length for breaker outcomes; also the number of
/// consecutive sheds after which one probe request is admitted.
const BREAKER_WINDOW: usize = 16;
/// Minimum outcomes in the window before the breaker may open.
const BREAKER_MIN_SAMPLES: usize = 8;

/// Tuning knobs for a [`VerifyService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing batches (min 1).
    pub workers: usize,
    /// Maximum admitted-but-unfulfilled requests; submissions beyond
    /// this are rejected with [`ServeError::Overloaded`] — never queued
    /// indefinitely, never blocking the submitter.
    pub queue_capacity: usize,
    /// Distinct domains per batch; a forming batch seals when it reaches
    /// this size (or on [`VerifyService::flush`]).
    pub max_batch: usize,
    /// Response-cache capacity in domains (0 disables caching).
    pub cache_capacity: usize,
    /// Response-cache TTL in clock microseconds (0 = never expire).
    pub cache_ttl_micros: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 8,
            cache_capacity: 128,
            cache_ttl_micros: 0,
        }
    }
}

/// Why the service did not (or could not) produce a verdict.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The admission queue is full; retry after in-flight work drains.
    Overloaded,
    /// The degradation breaker is open; the service is shedding load.
    Shedding,
    /// Verification itself failed (bad URL, empty site, unreachable).
    Verify(VerifyError),
    /// The service shut down before the request completed.
    Lost,
    /// Verification panicked inside a worker (a host, crawler, or kernel
    /// bug); every request of that batch resolves with this error and
    /// the worker lives on.
    WorkerPanicked,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "service overloaded: admission queue full"),
            ServeError::Shedding => write!(f, "service shedding load: degradation breaker open"),
            ServeError::Verify(e) => write!(f, "verification failed: {e}"),
            ServeError::Lost => write!(f, "request lost: service shut down"),
            ServeError::WorkerPanicked => write!(f, "verification panicked in a worker"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

/// The service's answer for one request.
pub type Outcome = Result<Verdict, ServeError>;

/// One-shot result cell shared between a [`Ticket`] and the worker (or
/// waiters list) that will fulfill it.
struct Slot {
    value: Mutex<Option<Outcome>>,
    ready: Condvar,
}

impl Slot {
    fn fulfill(&self, outcome: Outcome) {
        *lock(&self.value) = Some(outcome);
        self.ready.notify_all();
    }
}

/// A claim on a submitted request's eventual outcome. Clones share the
/// one outcome: each `wait` returns a copy of it.
#[derive(Clone)]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    fn ready(outcome: Outcome) -> Ticket {
        Ticket {
            slot: Arc::new(Slot {
                value: Mutex::new(Some(outcome)),
                ready: Condvar::new(),
            }),
        }
    }

    fn pending() -> (Ticket, Arc<Slot>) {
        let slot = Arc::new(Slot {
            value: Mutex::new(None),
            ready: Condvar::new(),
        });
        (
            Ticket {
                slot: Arc::clone(&slot),
            },
            slot,
        )
    }

    /// Blocks until the request completes. Never blocks forever: every
    /// admitted request is fulfilled by a worker (with
    /// [`ServeError::WorkerPanicked`] when verification panics), and
    /// shutdown fulfills stragglers with [`ServeError::Lost`].
    pub fn wait(self) -> Outcome {
        let mut guard = lock(&self.slot.value);
        loop {
            if let Some(outcome) = guard.as_ref() {
                return outcome.clone();
            }
            // lint:allow(lock-order): the condvar wait atomically releases and reacquires this slot mutex.
            guard = wait(&self.slot.ready, guard);
        }
    }
}

/// One admitted request inside a batch.
#[derive(Debug, Clone)]
struct BatchRequest {
    domain: String,
    seed_url: String,
    /// Wall-clock submission time. Latency is honestly nondeterministic,
    /// so it is always measured against real time — even when the
    /// service's *logical* clock (cache TTL) is virtual.
    submitted_wall: u64,
}

/// A sealed batch handed to the worker pool, pinned to the model that
/// was live when it left the submission path: a hot-swap never mixes
/// models within a batch (see [`ModelRegistry`]).
struct SealedBatch {
    requests: Vec<BatchRequest>,
    model: Arc<TrainedVerifier>,
}

/// Everything behind the single service lock. One mutex (not separate
/// cache/batch/breaker locks) so a request's state classification —
/// cached, in flight, or new — is atomic and lock ordering cannot invert.
struct ServeState {
    cache: ResponseCache,
    forming: Vec<BatchRequest>,
    in_flight: BTreeMap<String, Vec<Arc<Slot>>>,
    pending: usize,
    next_seq: u64,
    window: VecDeque<bool>,
    degraded_in_window: usize,
    sheds_since_probe: usize,
}

struct Shared<H> {
    registry: ModelRegistry,
    host: Arc<H>,
    config: ServeConfig,
    obs: Arc<Registry>,
    /// Logical clock: cache TTL and error-outcome instants. Virtual in
    /// tests and the replay harness.
    clock: Arc<dyn Clock>,
    /// Real time, for the (nondeterministic) latency histogram only.
    wall: WallClock,
    state: Mutex<ServeState>,
}

/// A multi-threaded verification front-end over a frozen
/// [`TrainedVerifier`]. See the module docs for the architecture and
/// determinism contract.
pub struct VerifyService<H: WebHost + Send + Sync + 'static> {
    shared: Arc<Shared<H>>,
    tx: Option<Sender<SealedBatch>>,
    workers: Vec<JoinHandle<()>>,
}

/// Locks a mutex, recovering the data from a poisoned lock (a worker
/// panic must not wedge every other thread on top of it).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Waits on a condvar with the same poison recovery as [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|poison| poison.into_inner())
}

impl<H: WebHost + Send + Sync + 'static> VerifyService<H> {
    /// Starts a service with an injected registry and clock — tests use
    /// a private [`Registry`] and a frozen
    /// [`pharmaverify_obs::VirtualClock`] for full isolation and
    /// deterministic TTL behavior.
    pub fn with_observability(
        verifier: Arc<TrainedVerifier>,
        host: Arc<H>,
        config: ServeConfig,
        obs: Arc<Registry>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let worker_count = config.workers.max(1);
        let cache = ResponseCache::new(config.cache_capacity, config.cache_ttl_micros);
        let shared = Arc::new(Shared {
            registry: ModelRegistry::new(verifier),
            host,
            config,
            obs,
            clock,
            wall: WallClock::new(),
            state: Mutex::new(ServeState {
                cache,
                forming: Vec::new(),
                in_flight: BTreeMap::new(),
                pending: 0,
                next_seq: 0,
                window: VecDeque::new(),
                degraded_in_window: 0,
                sheds_since_probe: 0,
            }),
        });
        let (tx, rx) = channel::<SealedBatch>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(shared, rx))
            })
            .collect();
        VerifyService {
            shared,
            tx: Some(tx),
            workers,
        }
    }

    /// Submits one seed URL for verification. Returns a [`Ticket`]
    /// immediately, or an error if the request was rejected at the door
    /// (breaker open, queue full, or unparsable URL). Never blocks on a
    /// full queue.
    pub fn submit(&self, seed_url: &str) -> Result<Ticket, ServeError> {
        let obs = &self.shared.obs;
        let domain = match Url::parse(seed_url) {
            Ok(url) => url.endpoint(),
            Err(_) => {
                obs.add("serve/rejected", 1);
                return Err(ServeError::Verify(VerifyError::BadUrl(
                    seed_url.to_string(),
                )));
            }
        };
        let now = self.shared.clock.now_micros();
        let mut sealed = None;
        let ticket = {
            let mut state = lock(&self.shared.state);
            if self.breaker_open(&state) {
                if state.sheds_since_probe >= BREAKER_WINDOW {
                    // Admit one probe so the window can refresh; without
                    // it an open breaker would never see a healthy
                    // outcome again.
                    state.sheds_since_probe = 0;
                } else {
                    state.sheds_since_probe += 1;
                    obs.add("serve/shed", 1);
                    return Err(ServeError::Shedding);
                }
            }
            if state.pending >= self.shared.config.queue_capacity {
                obs.add("serve/rejected", 1);
                return Err(ServeError::Overloaded);
            }
            obs.add("serve/enqueue", 1);
            let seq = state.next_seq;
            state.next_seq += 1;
            match state.cache.lookup(&domain, now) {
                Lookup::Hit(mut verdict) => {
                    obs.add("serve/cache/hit", 1);
                    // Provenance: this answer was served from the cache,
                    // not recomputed — retag it so the federation's
                    // per-source tallies see where it came from.
                    verdict.source = pharmaverify_core::VerdictSource::ResponseCache;
                    return Ok(Ticket::ready(Ok(verdict)));
                }
                Lookup::HitError(error) => {
                    // A just-completed error for this domain: delivered
                    // as if this request had been coalesced onto that
                    // verification (same counter, see the determinism
                    // contract).
                    obs.add("serve/cache/hit", 1);
                    return Ok(Ticket::ready(Err(ServeError::Verify(error))));
                }
                // A pending slot coalesces below via the in-flight map.
                Lookup::Pending => {}
                Lookup::Expired => {
                    obs.add("serve/cache/expired", 1);
                }
                Lookup::Miss => {}
            }
            if let Some(waiters) = state.in_flight.get_mut(&domain) {
                // Coalesce onto the in-flight verification; counted as a
                // hit (see the module's determinism contract).
                obs.add("serve/cache/hit", 1);
                let (ticket, slot) = Ticket::pending();
                waiters.push(slot);
                state.pending += 1;
                ticket
            } else {
                obs.add("serve/cache/miss", 1);
                // Claim the cache slot now, on the submission thread:
                // evictions must be a function of the submission order,
                // not of which worker completes first (see crate::cache).
                if let crate::cache::Reserve::Evicted(_) = state.cache.reserve(&domain, seq) {
                    obs.add("serve/cache/evict", 1);
                }
                let (ticket, slot) = Ticket::pending();
                state.in_flight.insert(domain.clone(), vec![slot]);
                state.pending += 1;
                state.forming.push(BatchRequest {
                    domain,
                    seed_url: seed_url.to_string(),
                    submitted_wall: self.shared.wall.now_micros(),
                });
                if state.forming.len() >= self.shared.config.max_batch.max(1) {
                    sealed = Some(std::mem::take(&mut state.forming));
                }
                ticket
            }
        };
        if let Some(batch) = sealed {
            self.dispatch(batch);
        }
        Ok(ticket)
    }

    /// Seals and dispatches the forming batch, if any. Call after a burst
    /// of submissions so a partial batch does not wait for more traffic.
    pub fn flush(&self) {
        let sealed = {
            let mut state = lock(&self.shared.state);
            if state.forming.is_empty() {
                None
            } else {
                Some(std::mem::take(&mut state.forming))
            }
        };
        if let Some(batch) = sealed {
            self.dispatch(batch);
        }
    }

    /// Publishes a newly fitted model and hot-swaps it in: batches
    /// dispatched from now on score on the new model; in-flight batches
    /// finish on the version they were pinned to. Returns the assigned
    /// version. Never blocks readers or drops requests.
    pub fn swap_model(&self, model: TrainedVerifier) -> u64 {
        let version = self.shared.registry.publish(model);
        self.shared.obs.add("serve/model/swap", 1);
        version
    }

    /// The live model's version (what newly dispatched batches will pin).
    pub fn model_version(&self) -> u64 {
        self.shared.registry.current_version()
    }

    /// Admitted-but-unfulfilled request count (the "queue depth").
    pub fn pending(&self) -> usize {
        lock(&self.shared.state).pending
    }

    /// True when the degradation breaker is currently open.
    pub fn shedding(&self) -> bool {
        self.breaker_open(&lock(&self.shared.state))
    }

    /// Drains in-flight work and stops the worker pool. Equivalent to
    /// dropping the service, but explicit at call sites that care.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn breaker_open(&self, state: &ServeState) -> bool {
        state.window.len() >= BREAKER_MIN_SAMPLES
            && (state.degraded_in_window as f64) >= BREAKER_THRESHOLD * state.window.len() as f64
    }

    fn dispatch(&self, requests: Vec<BatchRequest>) {
        // Pin the live model here, after the state lock is released and
        // before the batch can reach a worker: the batch's composition
        // and its model version are both fixed at dispatch time.
        let batch = SealedBatch {
            requests,
            model: self.shared.registry.current(),
        };
        self.shared.obs.add("serve/batch", 1);
        let undeliverable = match &self.tx {
            Some(tx) => tx.send(batch).err().map(|e| e.0),
            None => Some(batch),
        };
        // Only reachable in a shutdown race (every worker already gone):
        // fail the waiters rather than strand them.
        if let Some(batch) = undeliverable {
            let stranded: Vec<Arc<Slot>> = {
                let mut state = lock(&self.shared.state);
                let slots: Vec<Arc<Slot>> = batch
                    .requests
                    .iter()
                    .flat_map(|req| state.in_flight.remove(&req.domain).unwrap_or_default())
                    .collect();
                state.pending = state.pending.saturating_sub(slots.len());
                slots
            };
            for slot in stranded {
                slot.fulfill(Err(ServeError::Lost));
            }
        }
    }

    fn shutdown_impl(&mut self) {
        self.flush();
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            if handle.join().is_err() {
                self.shared.obs.add("serve/worker_panics", 1);
            }
        }
        // Defensive: fulfill anything a panicked worker left behind so
        // no Ticket::wait ever hangs.
        let stranded: Vec<Arc<Slot>> = {
            let mut state = lock(&self.shared.state);
            state.pending = 0;
            std::mem::take(&mut state.in_flight)
                .into_values()
                .flatten()
                .collect()
        };
        for slot in stranded {
            slot.fulfill(Err(ServeError::Lost));
        }
    }
}

impl<H: WebHost + Send + Sync + 'static> Drop for VerifyService<H> {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn worker_loop<H: WebHost + Send + Sync>(
    shared: Arc<Shared<H>>,
    rx: Arc<Mutex<Receiver<SealedBatch>>>,
) {
    loop {
        // Hold the receiver lock only while waiting for one batch; the
        // queue then drains to whichever worker wins the lock next.
        let batch = {
            let receiver = lock(&rx);
            receiver.recv()
        };
        match batch {
            Ok(batch) => process_batch(&shared, batch),
            Err(_) => break, // sender dropped: shutdown
        }
    }
}

fn process_batch<H: WebHost + Send + Sync>(shared: &Shared<H>, batch: SealedBatch) {
    let obs = &shared.obs;
    let span = obs.span("serve/batch/run");
    let urls: Vec<&str> = batch.requests.iter().map(|r| r.seed_url.as_str()).collect();
    // Contain a panic inside verification so it cannot strand this
    // batch's waiters or kill the worker. The cache needs no repair: a
    // leftover reservation is re-claimed by the next `reserve`.
    let run = catch_unwind(AssertUnwindSafe(|| {
        batch.model.verify_batch(shared.host.as_ref(), &urls)
    }));
    drop(span);
    let panicked = run.is_err();
    let now = shared.clock.now_micros();
    let wall_now = shared.wall.now_micros();
    let mut fulfilled: Vec<(Vec<Arc<Slot>>, Outcome)> = Vec::with_capacity(batch.requests.len());
    let mut skipped_degraded = 0u64;
    {
        let mut state = lock(&shared.state);
        let results = match run {
            Ok(results) => results,
            Err(_) => {
                for req in &batch.requests {
                    let waiters = state.in_flight.remove(&req.domain).unwrap_or_default();
                    state.pending = state.pending.saturating_sub(waiters.len());
                    fulfilled.push((waiters, Err(ServeError::WorkerPanicked)));
                }
                Vec::new()
            }
        };
        for (req, result) in batch.requests.iter().zip(results) {
            let degraded_outcome = match &result {
                Ok(v) => v.degraded,
                Err(VerifyError::Unreachable { .. }) => true,
                // EmptySite/BadUrl are definitive answers about the
                // site, not signs the service is degrading.
                Err(_) => false,
            };
            push_outcome(&mut state, degraded_outcome);
            // Complete the reservation in place — membership never
            // changes on a worker thread (see crate::cache).
            match &result {
                Ok(verdict) => {
                    if let Fill::RejectedDegraded = state.cache.fill(&req.domain, verdict, now) {
                        skipped_degraded += 1;
                    }
                }
                Err(error) => state.cache.fail(&req.domain, error, now),
            }
            let waiters = state.in_flight.remove(&req.domain).unwrap_or_default();
            state.pending = state.pending.saturating_sub(waiters.len());
            let outcome: Outcome = result.map_err(ServeError::Verify);
            fulfilled.push((waiters, outcome));
        }
    }
    // Record per-request observability outside the state lock: the obs
    // registry takes its own internal locks, and a worker must never
    // enter them while holding the service state mutex (lock-order
    // hygiene — see the xtask lock-order lint).
    if panicked {
        obs.add("serve/worker_panics", 1);
    }
    for req in &batch.requests {
        let _req_span = obs.span("serve/request");
        obs.observe_nondet(
            "serve/latency_micros",
            wall_now.saturating_sub(req.submitted_wall),
        );
    }
    if skipped_degraded > 0 {
        obs.add("serve/cache/skip_degraded", skipped_degraded);
    }
    // Notify outside the state lock so woken waiters never contend on it.
    for (waiters, outcome) in fulfilled {
        for slot in waiters {
            slot.fulfill(outcome.clone());
        }
    }
}

fn push_outcome(state: &mut ServeState, degraded: bool) {
    state.window.push_back(degraded);
    if degraded {
        state.degraded_in_window += 1;
    }
    while state.window.len() > BREAKER_WINDOW {
        if state.window.pop_front() == Some(true) {
            state.degraded_in_window = state.degraded_in_window.saturating_sub(1);
        }
    }
}
