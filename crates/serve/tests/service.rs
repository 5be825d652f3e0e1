//! Service-level integration tests (ISSUE 5, satellites 3 and 4):
//! admission control rejects instead of hanging, the degradation
//! breaker sheds under sustained crawl faults, TTL expiry re-verifies,
//! degraded verdicts are never served from the cache, and a federation
//! sends a repeated domain to the slow path once per flush window.

use pharmaverify_core::{extract_corpus, TextLearnerKind, TrainedVerifier, VerdictSource};
use pharmaverify_corpus::{
    apply_attack, AttackConfig, AttackKind, CorpusConfig, Snapshot, SyntheticWeb,
};
use pharmaverify_crawl::{
    CrawlConfig, FaultConfig, FaultyWeb, FetchError, InMemoryWeb, Page, Url, WebHost,
};
use pharmaverify_obs::{Registry, VirtualClock};
use pharmaverify_serve::{
    Federation, FederationPolicy, Routed, ServeConfig, ServeError, Ticket, VerifyService,
};
use std::sync::{Arc, Condvar, Mutex};

fn trained() -> (Arc<TrainedVerifier>, Snapshot, Snapshot) {
    let web = SyntheticWeb::generate(&CorpusConfig::small(), 42);
    let corpus = extract_corpus(web.snapshot(), &CrawlConfig::default()).expect("extracts");
    let verifier = TrainedVerifier::fit(
        &corpus,
        TextLearnerKind::Nbm,
        CrawlConfig::default(),
        Some(250),
        7,
    );
    (
        Arc::new(verifier),
        web.snapshot().clone(),
        web.snapshot2().clone(),
    )
}

fn test_obs() -> (Arc<Registry>, VirtualClock) {
    let clock = VirtualClock::new(0);
    let reg = Registry::with_clock(Box::new(clock.clone()));
    (Arc::new(reg), clock)
}

/// A host whose fetches block until the gate opens — lets a test pin
/// every worker and fill the admission queue deterministically.
struct GateHost {
    inner: InMemoryWeb,
    open: Mutex<bool>,
    turn: Condvar,
}

impl GateHost {
    fn closed(inner: InMemoryWeb) -> GateHost {
        GateHost {
            inner,
            open: Mutex::new(false),
            turn: Condvar::new(),
        }
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.turn.notify_all();
    }
}

impl WebHost for GateHost {
    fn fetch(&self, url: &Url) -> Result<Page, FetchError> {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.turn.wait(open).unwrap();
        }
        drop(open);
        self.inner.fetch(url)
    }
}

/// A host with a bug: every fetch under one domain panics.
struct PanickingHost {
    inner: InMemoryWeb,
    poisoned: String,
}

impl WebHost for PanickingHost {
    fn fetch(&self, url: &Url) -> Result<Page, FetchError> {
        assert_ne!(url.endpoint(), self.poisoned, "host bug");
        self.inner.fetch(url)
    }
}

#[test]
fn panicking_batch_resolves_its_waiters_and_the_worker_survives() {
    let (verifier, snap1, _snap2) = trained();
    let (obs, clock) = test_obs();
    let [poisoned, healthy] = [&snap1.sites[0].seed_url, &snap1.sites[1].seed_url];
    let host = Arc::new(PanickingHost {
        inner: snap1.web.clone(),
        poisoned: Url::parse(poisoned).unwrap().endpoint(),
    });
    let service = VerifyService::with_observability(
        verifier,
        host,
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            max_batch: 2, // the second submission seals the batch
            cache_capacity: 8,
            ..ServeConfig::default()
        },
        Arc::clone(&obs),
        Arc::new(clock),
    );
    let tickets = [
        service.submit(poisoned).unwrap(),
        service.submit(healthy).unwrap(),
    ];
    for ticket in tickets {
        assert!(matches!(ticket.wait(), Err(ServeError::WorkerPanicked)));
    }
    assert_eq!(service.pending(), 0);
    assert_eq!(obs.counter("serve/worker_panics"), 1);
    // The only worker lives on, and the healthy site's leftover cache
    // reservation is re-claimed by its next request.
    let again = service.submit(healthy).unwrap();
    service.flush();
    again.wait().expect("the worker survived the panic");
}

#[test]
fn full_queue_rejects_overloaded_instead_of_hanging() {
    let (verifier, snap1, _snap2) = trained();
    let (obs, clock) = test_obs();
    let host = Arc::new(GateHost::closed(snap1.web.clone()));
    let capacity = 4;
    let service = VerifyService::with_observability(
        verifier,
        Arc::clone(&host),
        ServeConfig {
            workers: 1,
            queue_capacity: capacity,
            max_batch: 1, // every submission dispatches immediately
            cache_capacity: 8,
            ..ServeConfig::default()
        },
        Arc::clone(&obs),
        Arc::new(clock),
    );

    let urls: Vec<&str> = snap1
        .sites
        .iter()
        .take(6)
        .map(|s| s.seed_url.as_str())
        .collect();
    assert!(urls.len() > capacity, "corpus too small for this test");
    let mut tickets = Vec::new();
    let mut overloaded = 0usize;
    for url in &urls {
        match service.submit(url) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded) => overloaded += 1,
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert_eq!(tickets.len(), capacity, "exactly queue_capacity admitted");
    assert_eq!(overloaded, urls.len() - capacity);
    assert_eq!(
        obs.counter("serve/rejected"),
        (urls.len() - capacity) as u64
    );
    assert_eq!(service.pending(), capacity);

    // Release the workers; every admitted ticket completes (the test
    // finishing at all proves no wait() hung).
    host.open();
    for ticket in tickets {
        ticket.wait().expect("gated site verifies once released");
    }
    assert_eq!(service.pending(), 0);

    // With the queue drained, admission works again.
    let ticket = service.submit(urls[urls.len() - 1]).expect("queue drained");
    ticket.wait().expect("verifies");
}

#[test]
fn sustained_faults_open_the_breaker_and_shed() {
    let (verifier, snap1, _snap2) = trained();
    let (obs, clock) = test_obs();
    // Fault nearly every URL, with transient faults outliving the retry
    // budget: most crawls come back degraded or unreachable.
    let host = Arc::new(FaultyWeb::new(
        snap1.web.clone(),
        FaultConfig {
            rate: 0.9,
            seed: 99,
            max_failures: 50,
        },
    ));
    let service = VerifyService::with_observability(
        verifier,
        host,
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 2,
            cache_capacity: 8,
            ..ServeConfig::default()
        },
        Arc::clone(&obs),
        Arc::new(clock),
    );

    let mut shed = 0usize;
    let mut tickets = Vec::new();
    for site in snap1.sites.iter().cycle().take(60) {
        match service.submit(&site.seed_url) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Shedding) => shed += 1,
            Err(ServeError::Overloaded) => {}
            Err(other) => panic!("unexpected rejection: {other}"),
        }
        // Let in-flight work finish so outcomes reach the window.
        service.flush();
        if tickets.len() >= 8 {
            for t in tickets.drain(..) {
                let _ = t.wait();
            }
        }
    }
    for t in tickets {
        let _ = t.wait();
    }
    assert!(shed > 0, "breaker never opened under 90% faults");
    assert!(obs.counter("serve/shed") >= shed as u64);
    assert!(service.shedding(), "window should still be mostly degraded");
}

#[test]
fn ttl_expiry_forces_reverification() {
    let (verifier, snap1, _snap2) = trained();
    let (obs, clock) = test_obs();
    let host = Arc::new(snap1.web.clone());
    let service = VerifyService::with_observability(
        verifier,
        host,
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            max_batch: 1,
            cache_capacity: 8,
            cache_ttl_micros: 1_000,
            ..ServeConfig::default()
        },
        Arc::clone(&obs),
        Arc::new(clock.clone()),
    );
    let url = &snap1.sites[0].seed_url;

    service
        .submit(url)
        .expect("admitted")
        .wait()
        .expect("verifies");
    assert_eq!(obs.counter("serve/cache/miss"), 1);

    // Within TTL: served from cache, no new verification.
    service
        .submit(url)
        .expect("admitted")
        .wait()
        .expect("cached");
    assert_eq!(obs.counter("serve/cache/hit"), 1);
    assert_eq!(obs.counter("serve/cache/miss"), 1);

    // Past TTL: the entry expires and the domain is re-verified.
    clock.advance(1_000);
    service
        .submit(url)
        .expect("admitted")
        .wait()
        .expect("re-verified");
    assert_eq!(obs.counter("serve/cache/expired"), 1);
    assert_eq!(obs.counter("serve/cache/miss"), 2);
}

/// Wrapper failing all non-root pages transiently: crawls stay nonempty
/// but lose coverage, so every verdict is degraded.
struct Patchy {
    inner: InMemoryWeb,
}

impl WebHost for Patchy {
    fn fetch(&self, url: &Url) -> Result<Page, FetchError> {
        let path = url.path_without_query();
        if path != "/" && path != "/robots.txt" {
            return Err(FetchError::Timeout);
        }
        self.inner.fetch(url)
    }
}

#[test]
fn degraded_verdicts_are_never_served_from_cache() {
    let (verifier, snap1, _snap2) = trained();
    let (obs, clock) = test_obs();
    let host = Arc::new(Patchy {
        inner: snap1.web.clone(),
    });
    let service = VerifyService::with_observability(
        verifier,
        host,
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            max_batch: 1,
            cache_capacity: 8,
            ..ServeConfig::default()
        },
        Arc::clone(&obs),
        Arc::new(clock),
    );
    let url = &snap1.sites[0].seed_url;
    let first = service
        .submit(url)
        .expect("admitted")
        .wait()
        .expect("verifies");
    assert!(first.degraded, "patchy host must degrade the crawl");
    assert_eq!(obs.counter("serve/cache/skip_degraded"), 1);

    // The degraded verdict was not cached: the repeat is a fresh miss
    // and a second verification. One degraded outcome is below the
    // breaker's minimum sample count, so the repeat is still admitted.
    let second = service
        .submit(url)
        .expect("admitted")
        .wait()
        .expect("verifies");
    assert!(second.degraded);
    assert_eq!(obs.counter("serve/cache/miss"), 2);
    assert_eq!(obs.counter("serve/cache/hit"), 0);
}

/// Hot-swap protocol: a batch already dispatched keeps the model it was
/// pinned to; batches dispatched after the swap score on the new
/// version; nothing is dropped and every verdict names its model.
#[test]
fn hot_swap_pins_in_flight_batches_and_versions_new_ones() {
    let (verifier, snap1, _snap2) = trained();
    let (obs, clock) = test_obs();
    let host = Arc::new(GateHost::closed(snap1.web.clone()));
    let service = VerifyService::with_observability(
        verifier,
        Arc::clone(&host),
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            max_batch: 1, // every submission dispatches (and pins) immediately
            cache_capacity: 8,
            ..ServeConfig::default()
        },
        Arc::clone(&obs),
        Arc::new(clock),
    );
    assert_eq!(service.model_version(), 0, "initial model is unversioned");

    // First request dispatches pinned to version 0 and blocks at the gate.
    let before = service.submit(&snap1.sites[0].seed_url).expect("admitted");

    // Retrain (same corpus — the version stamp is what we're testing)
    // and hot-swap while the first batch is still in flight.
    let web = SyntheticWeb::generate(&CorpusConfig::small(), 42);
    let corpus = extract_corpus(web.snapshot(), &CrawlConfig::default()).expect("extracts");
    let retrained = TrainedVerifier::fit(
        &corpus,
        TextLearnerKind::Nbm,
        CrawlConfig::default(),
        Some(250),
        7,
    );
    assert_eq!(service.swap_model(retrained), 1);
    assert_eq!(service.model_version(), 1);
    assert_eq!(obs.counter("serve/model/swap"), 1);

    // Second request dispatches after the swap: pinned to version 1.
    let after = service.submit(&snap1.sites[1].seed_url).expect("admitted");

    host.open();
    let first = before.wait().expect("pre-swap request completes");
    let second = after.wait().expect("post-swap request completes");
    assert_eq!(
        first.model_version, 0,
        "in-flight batch must finish on its pinned version"
    );
    assert_eq!(
        second.model_version, 1,
        "post-swap batch must carry the new version"
    );
    assert_eq!(service.pending(), 0, "no request dropped across the swap");
}

/// Adversarial serving path: a verifier trained on the clean snapshot
/// serves domains from a link-farm-attacked copy of the same web. Farm
/// domains are *fresh* — nothing in the training graph links to them,
/// so their trust is exactly `0.0` — but their out-links into the
/// existing (bad-seeded) illegitimate sites still gather distrust via
/// the incremental anti-trust kernel, and compromised legitimate
/// domains keep verifying normally.
#[test]
fn attacked_domains_flow_through_the_service_with_distrust() {
    let (verifier, snap1, _snap2) = trained();
    let attacked = apply_attack(&snap1, &AttackConfig::new(AttackKind::LinkFarm, 1.0), 42);
    let (obs, clock) = test_obs();
    let host = Arc::new(attacked.snapshot.web.clone());
    let service = VerifyService::with_observability(
        verifier,
        host,
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 2,
            cache_capacity: 64,
            ..ServeConfig::default()
        },
        Arc::clone(&obs),
        Arc::new(clock),
    );

    let farm_sites: Vec<_> = attacked
        .snapshot
        .sites
        .iter()
        .filter(|s| attacked.farm_domains.contains(&s.domain))
        .collect();
    assert!(!farm_sites.is_empty(), "attack must inject farm sites");
    let tickets: Vec<_> = farm_sites
        .iter()
        .map(|s| service.submit(&s.seed_url).expect("admitted"))
        .collect();
    service.flush();
    let verdicts: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("farm domain verifies"))
        .collect();
    for v in &verdicts {
        assert_eq!(
            v.trust_score.to_bits(),
            0.0f64.to_bits(),
            "fresh farm domain must have exactly zero inbound trust: {v}"
        );
        assert!(v.spam_mass >= 0.0, "spam mass is non-negative: {v}");
    }
    assert!(
        verdicts.iter().any(|v| v.distrust_score > 0.0),
        "farm nodes linking into bad-seeded sites must gather distrust"
    );

    // Compromised legitimate domains (front pages now link to the farm)
    // still flow through the same service path.
    for domain in attacked.mutated_domains.iter().take(2) {
        let site = attacked
            .snapshot
            .sites
            .iter()
            .find(|s| &s.domain == domain)
            .expect("mutated domain is a corpus site");
        let ticket = service.submit(&site.seed_url).expect("admitted");
        service.flush();
        let v = ticket.wait().expect("compromised domain verifies");
        assert!(v.spam_mass >= 0.0, "spam mass is non-negative: {v}");
    }
}

/// Regression for the lock-order fix in `process_batch`: per-request
/// observability (the `serve/request` span and the latency histogram)
/// is recorded after the state lock is released but before waiters are
/// fulfilled — so by the time `wait()` returns, every completed request
/// is visible in the registry.
#[test]
fn request_metrics_are_recorded_before_fulfillment() {
    let (verifier, snap1, _snap2) = trained();
    let (obs, clock) = test_obs();
    let host = Arc::new(snap1.web.clone());
    let service = VerifyService::with_observability(
        verifier,
        host,
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            max_batch: 1,
            cache_capacity: 8,
            ..ServeConfig::default()
        },
        Arc::clone(&obs),
        Arc::new(clock),
    );
    for (i, site) in snap1.sites.iter().take(2).enumerate() {
        service
            .submit(&site.seed_url)
            .expect("admitted")
            .wait()
            .expect("verifies");
        let done = (i + 1) as u64;
        assert_eq!(obs.span_count("serve/request"), done);
        let latency = obs
            .histogram("serve/latency_micros")
            .expect("latency histogram exists once a request completes");
        assert_eq!(latency.count, done);
    }
}

/// The federation's inner service runs cache-disabled, so it forgets a
/// domain once its batch completes. A repeat routed to the slow path
/// before the next flush must share the first request's ticket rather
/// than verify the domain a second time (or coalesce, depending on how
/// fast the worker was).
#[test]
fn slow_path_repeat_before_flush_shares_one_ticket() {
    let (verifier, snap1, _snap2) = trained();
    let (obs, clock) = test_obs();
    let mut federation = Federation::with_observability(
        verifier,
        Arc::new(snap1.web.clone()),
        ServeConfig {
            workers: 1,
            max_batch: 1, // the first submission dispatches at once
            ..ServeConfig::default()
        },
        FederationPolicy {
            fast_confidence: 1.01, // every clean verdict falls through
            ..FederationPolicy::default()
        },
        Arc::clone(&obs),
        Arc::new(clock),
    );
    let url = &snap1.sites[0].seed_url;
    let mut slow = || -> Ticket {
        match federation.submit(url) {
            Routed::Slow { ticket, .. } => ticket,
            _ => panic!("expected a slow-path route"),
        }
    };
    let first = slow().wait().expect("verifies");
    // Same instant, no complete_slow: the federation cache cannot answer.
    let again = slow().wait().expect("verifies");
    assert_eq!(obs.counter("serve/batch"), 1, "the repeat entered the pool");
    assert_eq!(again.rank.to_bits(), first.rank.to_bits());
    federation.flush();
    federation.shutdown();
}

/// A federation over the first snapshot whose every clean verdict falls
/// through to the slow path, with its registry.
fn slow_federation(
    verifier: &Arc<TrainedVerifier>,
    snap1: &Snapshot,
) -> (Federation<InMemoryWeb>, Arc<Registry>) {
    let (obs, clock) = test_obs();
    let federation = Federation::with_observability(
        Arc::clone(verifier),
        Arc::new(snap1.web.clone()),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        FederationPolicy::default(),
        Arc::clone(&obs),
        Arc::new(clock),
    );
    (federation, obs)
}

/// A slow verdict the store could not load back (a NaN confidence) is
/// refused and counted, so the next checkpoint still saves and reloads.
#[test]
fn out_of_range_slow_verdict_is_refused_and_checkpoints_still_reload() {
    let (verifier, snap1, _snap2) = trained();
    let (mut federation, obs) = slow_federation(&verifier, &snap1);
    let good = verifier
        .verify(&snap1.web, &snap1.sites[0].seed_url)
        .expect("verifies");
    let mut bad = verifier
        .verify(&snap1.web, &snap1.sites[1].seed_url)
        .expect("verifies");
    bad.confidence = f64::NAN;
    federation.complete_slow(&good);
    federation.complete_slow(&bad);
    assert_eq!(federation.store_len(), 1);
    assert_eq!(obs.counter("serve/federation/store/refused"), 1);
    let path = std::env::temp_dir().join(format!(
        "pharmaverify-refused-store-{}.json",
        std::process::id()
    ));
    assert_eq!(
        federation.checkpoint_restart(&path).expect("reloads"),
        (1, 1)
    );
    assert_eq!(obs.counter("serve/federation/checkpoint/save_failed"), 0);
    assert_eq!(obs.counter("serve/federation/checkpoint/load_failed"), 0);
    std::fs::remove_file(&path).expect("removes the saved store");
    federation.shutdown();
}

/// A checkpoint into a missing directory fails to save: the failure is
/// counted, and the store and the cache stay as they were.
#[test]
fn failed_checkpoint_is_counted_and_keeps_store_and_cache() {
    let (verifier, snap1, _snap2) = trained();
    let (mut federation, obs) = slow_federation(&verifier, &snap1);
    let url = &snap1.sites[0].seed_url;
    let verdict = verifier.verify(&snap1.web, url).expect("verifies");
    federation.complete_slow(&verdict);
    let missing = std::env::temp_dir()
        .join(format!("pharmaverify-missing-{}", std::process::id()))
        .join("store.json");
    assert!(federation.checkpoint_restart(&missing).is_err());
    assert_eq!(obs.counter("serve/federation/checkpoint/save_failed"), 1);
    assert_eq!(federation.store_len(), 1);
    match federation.submit(url) {
        Routed::Done(cached) => {
            assert_eq!(cached.source, VerdictSource::ResponseCache);
            assert_eq!(cached.rank.to_bits(), verdict.rank.to_bits());
        }
        _ => panic!("the cache no longer answers the domain"),
    }
    federation.shutdown();
}
