//! Replay determinism: the tentpole guarantee that [`ServingStats`] is a
//! pure function of the seed — identical at any worker count — plus
//! sanity checks that the workload actually exercises cache hits,
//! misses, evictions, and batching.

use pharmaverify_core::{extract_corpus, TextLearnerKind, TrainedVerifier};
use pharmaverify_corpus::{CorpusConfig, Snapshot, SyntheticWeb};
use pharmaverify_crawl::CrawlConfig;
use pharmaverify_obs::{Registry, VirtualClock};
use pharmaverify_serve::{replay_online, replay_workload, OnlineStats, ServingStats};
use std::sync::Arc;

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

fn run(workers: usize, requests: usize) -> ServingStats {
    let (verifier, snap1, snap2) = trained();
    let obs = Arc::new(Registry::with_clock(Box::new(VirtualClock::new(0))));
    replay_workload(verifier, &snap1, &snap2, requests, workers, 20180326, obs)
}

#[test]
fn stats_are_identical_across_worker_counts() {
    let serial = run(1, 120);
    let four = run(4, 120);
    assert_eq!(serial, four, "worker count leaked into the stats");
    // And the rendered lines (what the report prints) match byte for
    // byte.
    assert_eq!(serial.lines(), four.lines());
}

#[test]
fn workload_exercises_the_interesting_paths() {
    let stats = run(2, 120);
    assert_eq!(stats.requests, 120);
    assert_eq!(stats.accepted, 120, "waves never exceed queue capacity");
    assert_eq!(stats.rejected, 0);
    assert!(stats.cache_hits > 0, "Zipf repeats must hit the cache");
    assert!(stats.cache_misses > 0);
    assert!(
        stats.cache_evictions > 0,
        "capacity 16 must evict on this pool: {stats:?}"
    );
    assert!(
        stats.cache_expired > 0,
        "TTL 200 with +100/wave must expire entries: {stats:?}"
    );
    assert!(stats.batches > 0);
    assert!(stats.verdicts_legitimate + stats.verdicts_illegitimate > 0);
    assert!(
        stats.errors_empty_site > 0,
        "vanished snapshot-1 sites must surface as EmptySite: {stats:?}"
    );
    // Bookkeeping: every accepted request is a hit, a miss, or an error
    // whose URL never reached the cache path (none here — bad URLs are
    // rejected at the door, and vanished sites still count as misses).
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.accepted);
}

fn run_online(workers: usize, waves: usize) -> OnlineStats {
    let (verifier, snap1, snap2) = trained();
    let obs = Arc::new(Registry::with_clock(Box::new(VirtualClock::new(0))));
    replay_online(verifier, &snap1, &snap2, waves, workers, 20180326, obs)
}

#[test]
fn online_stats_are_identical_across_worker_counts() {
    let serial = run_online(1, 8);
    let four = run_online(4, 8);
    assert_eq!(serial, four, "worker count leaked into the online stats");
    assert_eq!(serial.lines(), four.lines());
}

#[test]
fn online_replay_drifts_retrains_and_swaps_without_dropping_responses() {
    let stats = run_online(2, 8);
    assert_eq!(
        stats.responses, stats.serving.accepted,
        "every admitted request must answer exactly once across the swap"
    );
    assert!(stats.windows >= 2, "too few drift windows: {stats:?}");
    assert!(
        stats.triggers >= 1,
        "the mix shift must register as drift: {stats:?}"
    );
    assert_eq!(stats.retrains, stats.triggers, "one retrain per trigger");
    assert!(
        stats.final_version >= 1,
        "a retrain must have been hot-swapped in: {stats:?}"
    );
    assert!(
        stats.verdicts_v0 > 0,
        "pre-swap verdicts missing: {stats:?}"
    );
    assert!(
        stats.verdicts_swapped > 0,
        "post-swap verdicts must carry the new version: {stats:?}"
    );
}

#[test]
fn different_seeds_give_different_tallies() {
    let (verifier, snap1, snap2) = trained();
    let obs_a = Arc::new(Registry::with_clock(Box::new(VirtualClock::new(0))));
    let obs_b = Arc::new(Registry::with_clock(Box::new(VirtualClock::new(0))));
    let a = replay_workload(Arc::clone(&verifier), &snap1, &snap2, 80, 2, 1, obs_a);
    let b = replay_workload(verifier, &snap1, &snap2, 80, 2, 2, obs_b);
    assert_ne!(a, b, "seeds 1 and 2 produced identical tallies");
}
