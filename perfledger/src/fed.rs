//! The federation workloads. One client drives a [`Federation`] in
//! closed-loop waves: submit a wave of requests, flush, wait on the
//! slow-path tickets in submission order, record their verdicts, then
//! advance the virtual clock. Slow-path work runs on the federation's one
//! worker thread beside the submitting thread.
//!
//! * `fed-zipf` replays one endless Zipf stream over one federation with
//!   a store checkpoint-and-restart at a fixed request interval: cache
//!   and store answer the hot head, vanished sites are answered at the
//!   fast tier, the tail reaches the fast and slow tiers.
//! * `fed-cold` sends every live site once per pass, reshuffled per
//!   pass, each pass to a fresh federation: cache and store never hit.
//!
//! The first waves of each replay (the prefix) are the same requests on
//! every run of a seed, so their tallies and verdict digest must repeat
//! exactly; the replay then continues until the time budget is spent.

use crate::inputs::{cold_pass, live_sites, zipf_pool, Site, ZipfStream, ZIPF_EXPONENT};
use crate::ledger::{Fnv, Ledger};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{out_dir, Size};
use pharmaverify_core::{
    extract_corpus, ExtractedCorpus, TextLearnerKind, TrainedVerifier, Verdict, VerdictSource,
    VerifyError,
};
use pharmaverify_corpus::SyntheticWeb;
use pharmaverify_crawl::{summarize_crawl, CrawlConfig, Crawler, InMemoryWeb, Url};
use pharmaverify_net::{
    IncrementalConfig, IncrementalOutcome, NodeId, SpliceOverlay, TrustRankConfig, TrustTrajectory,
};
use pharmaverify_obs::{Registry, VirtualClock};
use pharmaverify_serve::{Federation, FederationPolicy, Routed, ServeConfig, ServeError, Ticket};
use pharmaverify_text::preprocess;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which federation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Zipf stream over snapshot-1 sites and snapshot-2 newcomers.
    Zipf,
    /// Every live site once per pass, fresh federation per pass.
    Cold,
}

/// Seed of the served web, of the verifier fitted on it, and of the
/// web's popularity ranking (the `fed-zipf` pool shuffle). These are
/// fixed; `--seed` draws the requests, so the spread between seeds is
/// that of the traffic, not of differently trained models or of which
/// few sites happen to be hottest.
const CORPUS_SEED: u64 = 20180326;
/// Term subsample of the served verifier's text model.
const SUBSAMPLE: usize = 1000;
/// Virtual time per wave.
const ADVANCE_MICROS: u64 = 100;
/// Sites per `verify_batch` call in the breakdown pass (the service's
/// default batch size).
const BATCH: usize = 8;
/// Checkpoint intervals `fed-zipf` completes before the time budget may
/// end it; their tallies and digest repeat exactly per seed.
const PREFIX_INTERVALS: usize = 2;
/// Zipf draws scanned for distinct live sites for the breakdown pass.
const BREAKDOWN_DRAWS: usize = 100_000;

/// Federation counters read back from the injected registry:
/// `(registry name, per-layer metric)`.
const COUNTERS: [(&str, &str); 8] = [
    ("serve/federation/tier/cache/hit", "serve.tier.cache.hits"),
    ("serve/federation/tier/store/hit", "serve.tier.store.hits"),
    (
        "serve/federation/tier/store/stale",
        "serve.tier.store.stale",
    ),
    ("serve/federation/tier/fast/hit", "serve.tier.fast.hits"),
    (
        "serve/federation/tier/fast/fallthrough",
        "serve.tier.fast.fallthroughs",
    ),
    ("serve/federation/tier/fast/error", "serve.tier.fast.errors"),
    ("serve/federation/tier/slow/hit", "serve.tier.slow.verdicts"),
    ("serve/batch", "serve.batches"),
];
const REQUESTS: &str = "serve/federation/requests";

/// Tier that answered a request, as seen from the submitting side.
#[derive(Debug, Clone, Copy)]
enum Answer {
    Cache = 0,
    Store = 1,
    Fast = 2,
    Error = 3,
    Fallthrough = 4,
}

/// A fitted verifier over a generated web.
struct Setup {
    web: SyntheticWeb,
    corpus: ExtractedCorpus,
    verifier: Arc<TrainedVerifier>,
}

/// Generates the corpus, extracts it and fits the verifier, `size.setups`
/// times; records the median of each step and keeps the last set-up.
fn set_up(size: &Size, ledger: &mut Ledger) -> Result<Setup, String> {
    let mut steps: [Vec<f64>; 4] = Default::default();
    let mut kept = None;
    for _ in 0..size.setups {
        // Free the previous set-up first, so peak memory is one set-up.
        drop(kept.take());
        let t0 = Instant::now();
        let web = SyntheticWeb::generate(&size.corpus, CORPUS_SEED);
        let t1 = Instant::now();
        let corpus = extract_corpus(web.snapshot(), &CrawlConfig::default())
            .map_err(|e| format!("extracting the training corpus: {e}"))?;
        let t2 = Instant::now();
        let verifier = TrainedVerifier::fit(
            &corpus,
            TextLearnerKind::Nbm,
            CrawlConfig::default(),
            Some(SUBSAMPLE),
            CORPUS_SEED,
        );
        let t3 = Instant::now();
        for (i, (a, b)) in [(t0, t1), (t1, t2), (t2, t3), (t0, t3)].iter().enumerate() {
            steps[i].push(b.duration_since(*a).as_secs_f64());
        }
        kept = Some(Setup {
            web,
            corpus,
            verifier: Arc::new(verifier),
        });
    }
    let n = size.setups;
    ledger.put("corpus.generate_s", median(&steps[0]), n);
    ledger.put("core.extract_s", median(&steps[1]), n);
    ledger.put("core.fit_s", median(&steps[2]), n);
    ledger.put("setup_s", median(&steps[3]), n);
    kept.ok_or_else(|| "no set-up ran".to_string())
}

/// Outcome accounting of one replay.
#[derive(Default)]
struct Tally {
    requests: u64,
    /// Wave issue → answer in hand, per request.
    latency_ms: Vec<f64>,
    /// Verdicts by `VerdictSource` (cache, store, text-only, spliced).
    by_source: [u64; 4],
    /// Vanished sites answered `EmptySite`.
    empty_site: u64,
    /// Requests answered otherwise than expected.
    wrong: u64,
    wrong_examples: Vec<String>,
    /// Verdicts with an oracle label, and those matching it.
    labelled: u64,
    accurate: u64,
    digest: Fnv,
    window: Windows,
    /// Submit-call time by answering tier (traced replays only).
    route_ms: [Vec<f64>; 5],
    route_busy_s: f64,
    slow_wait_s: f64,
    slow_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
}

impl Tally {
    fn record(&mut self, id: u64, site: &Site, outcome: Result<&Verdict, &ServeError>, ms: f64) {
        self.requests += 1;
        self.latency_ms.push(ms);
        self.digest.write_u64(id);
        match (site.oracle, outcome) {
            (Some(oracle), Ok(v)) if v.domain == site.domain => {
                self.by_source[source_index(v.source)] += 1;
                self.labelled += 1;
                self.accurate += u64::from(oracle == v.predicted_legitimate);
                self.digest.write_str(&v.domain);
                self.digest.write(&[u8::from(v.predicted_legitimate)]);
                self.digest.write_str(v.source.as_str());
                self.digest.write_u64(v.model_version);
            }
            (None, Err(ServeError::Verify(VerifyError::EmptySite(domain)))) => {
                self.empty_site += 1;
                self.digest.write_str(domain);
                self.digest.write_str("EmptySite");
            }
            (_, other) => {
                self.wrong += 1;
                if self.wrong_examples.len() < 5 {
                    let got = match other {
                        Ok(v) => format!("a verdict for {}", v.domain),
                        Err(e) => e.to_string(),
                    };
                    let expected = if site.live() {
                        "a verdict"
                    } else {
                        "EmptySite"
                    };
                    self.wrong_examples.push(format!(
                        "request {id} ({}): expected {expected}, got {got}",
                        site.domain
                    ));
                }
            }
        }
    }
}

/// Length of a throughput window. Windows close at the first wave
/// boundary after it, and throughput is the median over windows, so a
/// short stall on a shared machine moves a few windows and not the
/// result.
const WINDOW: Duration = Duration::from_millis(250);

/// Request rate per window.
struct Windows {
    started: Instant,
    first_request: u64,
    rps: Vec<f64>,
}

impl Default for Windows {
    fn default() -> Windows {
        Windows {
            started: Instant::now(),
            first_request: 0,
            rps: Vec::new(),
        }
    }
}

impl Windows {
    /// Closes the open window if it has run for [`WINDOW`].
    fn close_if_due(&mut self, requests: u64) {
        if self.started.elapsed() >= WINDOW {
            self.close(requests);
        }
    }

    fn close(&mut self, requests: u64) {
        let served = requests - self.first_request;
        if served > 0 {
            self.rps
                .push(served as f64 / self.started.elapsed().as_secs_f64());
        }
        self.started = Instant::now();
        self.first_request = requests;
    }

    /// Ends a replay: a replay too short to close a window counts as one
    /// window; otherwise the partial last window is dropped.
    fn finish(&mut self, requests: u64) {
        if self.rps.is_empty() {
            self.close(requests);
        }
    }
}

fn source_index(source: VerdictSource) -> usize {
    match source {
        VerdictSource::ResponseCache => 0,
        VerdictSource::VerdictStore => 1,
        VerdictSource::TextOnly => 2,
        VerdictSource::GraphSpliced => 3,
    }
}

/// The deterministic prefix of a replay: tallies, digest and federation
/// counters after its last wave.
struct Prefix {
    requests: u64,
    by_source: [u64; 4],
    empty_site: u64,
    wrong: u64,
    labelled: u64,
    accurate: u64,
    digest: String,
    /// `COUNTERS` values, then the federation's request counter.
    counters: [u64; COUNTERS.len() + 1],
}

/// One federation and the client state around it.
struct Replay<'a> {
    federation: Federation<InMemoryWeb>,
    obs: Arc<Registry>,
    clock: VirtualClock,
    sites: &'a [Site],
}

impl<'a> Replay<'a> {
    fn new(verifier: &Arc<TrainedVerifier>, host: &Arc<InMemoryWeb>, sites: &'a [Site]) -> Self {
        let obs = Arc::new(Registry::new());
        let clock = VirtualClock::new(0);
        let federation = Federation::with_observability(
            Arc::clone(verifier),
            Arc::clone(host),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            FederationPolicy::default(),
            Arc::clone(&obs),
            Arc::new(clock.clone()),
        );
        Replay {
            federation,
            obs,
            clock,
            sites,
        }
    }

    /// Submits `wave` (`(request id, site index)` pairs), flushes, and
    /// waits on the slow tickets in submission order. The wave's requests
    /// are issued together, so each one's latency runs from the wave's
    /// start to its answer: its own routing plus that of the requests
    /// ahead of it, and for slow-tier requests the wait on the ticket.
    fn wave(&mut self, wave: &[(u64, usize)], tally: &mut Tally, tracer: &mut Tracer) {
        let traced = tracer.is_on();
        let wave_span = tracer.open("fed.wave", None);
        let issued = Instant::now();
        let since_issue = || issued.elapsed().as_secs_f64() * 1e3;
        let mut slow: Vec<(u64, usize, Ticket, Instant)> = Vec::new();
        for &(id, i) in wave {
            let site = &self.sites[i];
            // A cached error and a fast-tier crawl error look alike from
            // outside; the cache-hit counter tells them apart.
            let cache_hits = if traced {
                self.obs.counter(COUNTERS[0].0)
            } else {
                0
            };
            let started = Instant::now();
            let open = tracer.open("serve.submit", Some(id));
            let routed = self.federation.submit(&site.seed_url);
            let took = tracer.close(open);
            let ms = took.as_secs_f64() * 1e3;
            tally.route_busy_s += took.as_secs_f64();
            let answer = match routed {
                Routed::Done(verdict) => {
                    tally.record(id, site, Ok(&verdict), since_issue());
                    match verdict.source {
                        VerdictSource::ResponseCache => Answer::Cache,
                        VerdictSource::VerdictStore => Answer::Store,
                        _ => Answer::Fast,
                    }
                }
                Routed::Failed(error) => {
                    tally.record(id, site, Err(&error), since_issue());
                    if traced && self.obs.counter(COUNTERS[0].0) > cache_hits {
                        Answer::Cache
                    } else {
                        Answer::Error
                    }
                }
                Routed::Slow { ticket, .. } => {
                    slow.push((id, i, ticket, started));
                    Answer::Fallthrough
                }
            };
            if traced {
                tally.route_ms[answer as usize].push(ms);
            }
        }
        self.federation.flush();
        for (id, i, ticket, started) in slow {
            let (outcome, waited) = tracer.time("serve.wait", Some(id), || ticket.wait());
            let latency = since_issue();
            tally.slow_wait_s += waited.as_secs_f64();
            tally.slow_ms.push(started.elapsed().as_secs_f64() * 1e3);
            if let Ok(verdict) = &outcome {
                self.federation.complete_slow(verdict);
            }
            tally.record(id, &self.sites[i], outcome.as_ref(), latency);
        }
        self.clock.advance(ADVANCE_MICROS);
        tracer.close(wave_span);
    }

    /// Persists the store, reloads it and drops the cache; checks that
    /// every record came back.
    fn checkpoint(
        &mut self,
        path: &Path,
        tally: &mut Tally,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
    ) {
        let (result, took) = tracer.time("serve.checkpoint", None, || {
            self.federation.checkpoint_restart(path)
        });
        tally.checkpoint_ms.push(took.as_secs_f64() * 1e3);
        match result {
            Ok((persisted, reloaded)) => ledger.check(persisted == reloaded, || {
                format!("checkpoint persisted {persisted} records but reloaded {reloaded}")
            }),
            Err(e) => ledger.fail(format!("checkpoint to {}: {e}", path.display())),
        }
    }

    fn prefix(&self, tally: &Tally) -> Prefix {
        let mut counters = [0; COUNTERS.len() + 1];
        for (slot, (name, _)) in counters.iter_mut().zip(COUNTERS.iter()) {
            *slot = self.obs.counter(name);
        }
        counters[COUNTERS.len()] = self.obs.counter(REQUESTS);
        Prefix {
            requests: tally.requests,
            by_source: tally.by_source,
            empty_site: tally.empty_site,
            wrong: tally.wrong,
            labelled: tally.labelled,
            accurate: tally.accurate,
            digest: tally.digest.hex(),
            counters,
        }
    }
}

/// A finished replay.
struct Run {
    tally: Tally,
    prefix: Prefix,
    elapsed: Duration,
}

/// Submits `sites` (site indices) as waves, numbering requests from
/// `next_id`.
fn send(
    replay: &mut Replay<'_>,
    sites: &[usize],
    next_id: &mut u64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) {
    for chunk in sites.chunks(ServeConfig::default().queue_capacity) {
        let wave: Vec<(u64, usize)> = chunk
            .iter()
            .map(|&i| {
                *next_id += 1;
                (*next_id - 1, i)
            })
            .collect();
        replay.wave(&wave, tally, tracer);
        tally.window.close_if_due(tally.requests);
    }
}

/// Replays the Zipf stream over one federation, with a store
/// checkpoint-and-restart every `size.checkpoint_waves` waves. Runs
/// [`PREFIX_INTERVALS`] intervals, then more until `budget` is spent.
fn replay_zipf(
    setup: &Setup,
    pool: &[Site],
    seed: u64,
    size: &Size,
    budget: Duration,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Run {
    let host = Arc::new(setup.web.snapshot2().web.clone());
    let store = out_dir().join(format!("store-{}.json", std::process::id()));
    let mut replay = Replay::new(&setup.verifier, &host, pool);
    let mut stream = ZipfStream::new(pool.len(), ZIPF_EXPONENT, seed);
    let per_interval = size.checkpoint_waves * ServeConfig::default().queue_capacity;
    let mut next_id = 0u64;
    let mut interval = |replay: &mut Replay<'_>, tally: &mut Tally, tracer: &mut Tracer| {
        let sites: Vec<usize> = (0..per_interval).map(|_| stream.next_index()).collect();
        send(replay, &sites, &mut next_id, tally, tracer);
    };
    let mut tally = Tally::default();
    let started = Instant::now();
    for k in 0..PREFIX_INTERVALS {
        if k > 0 {
            replay.checkpoint(&store, &mut tally, tracer, ledger);
        }
        interval(&mut replay, &mut tally, tracer);
    }
    let prefix = replay.prefix(&tally);
    while started.elapsed() < budget {
        replay.checkpoint(&store, &mut tally, tracer, ledger);
        interval(&mut replay, &mut tally, tracer);
    }
    let elapsed = started.elapsed();
    replay.federation.shutdown();
    tally.window.finish(tally.requests);
    // The checkpoint file has served its purpose.
    let _ = std::fs::remove_file(&store);
    Run {
        tally,
        prefix,
        elapsed,
    }
}

/// Sends every live site once per pass, each pass to a fresh federation,
/// for at least one pass and until `budget` is spent.
fn replay_cold(
    setup: &Setup,
    live: &[Site],
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> Run {
    let host = Arc::new(setup.web.snapshot2().web.clone());
    let mut next_id = 0u64;
    // One pass on a fresh federation; returns its tallies and counters.
    let mut pass = |k: u64, tally: &mut Tally, tracer: &mut Tracer| {
        let mut replay = Replay::new(&setup.verifier, &host, live);
        let order = cold_pass(live.len(), seed, k);
        send(&mut replay, &order, &mut next_id, tally, tracer);
        let prefix = replay.prefix(tally);
        replay.federation.shutdown();
        prefix
    };
    let mut tally = Tally::default();
    let started = Instant::now();
    let prefix = pass(0, &mut tally, tracer);
    for k in 1u64.. {
        if started.elapsed() >= budget {
            break;
        }
        pass(k, &mut tally, tracer);
    }
    tally.window.finish(tally.requests);
    Run {
        tally,
        prefix,
        elapsed: started.elapsed(),
    }
}

/// Checks a replay's accounting and, for the untraced replay
/// (`end_to_end`), records its end-to-end metrics.
fn account(run: &Run, end_to_end: bool, ledger: &mut Ledger) {
    let t = &run.tally;
    ledger.attempted += t.requests;
    ledger.failed += t.wrong;
    for example in &t.wrong_examples {
        ledger.fail(example.clone());
    }
    ledger.check(
        t.requests == t.latency_ms.len() as u64
            && t.by_source.iter().sum::<u64>() + t.empty_site + t.wrong == t.requests,
        || format!("outcome tallies do not add up to {} requests", t.requests),
    );
    let p = &run.prefix;
    // The answering tiers: cache, store, fast hit, fast error, slow.
    let ladder: u64 = [0, 1, 3, 5, 6].iter().map(|&i| p.counters[i]).sum();
    ledger.check(
        ladder == p.requests && p.counters[COUNTERS.len()] == p.requests,
        || {
            format!(
                "prefix: tier answers {ladder} and federation requests {} differ from {} submitted",
                p.counters[COUNTERS.len()],
                p.requests
            )
        },
    );
    if !end_to_end {
        return;
    }
    ledger.put("throughput", median(&t.window.rps), t.window.rps.len());
    ledger.put_median("latency_p50_ms", &t.latency_ms);
    ledger.put_tail("latency_tail_ms", &t.latency_ms);
}

/// Records the deterministic prefix as facts.
fn prefix_facts(p: &Prefix, ledger: &mut Ledger) {
    ledger.fact("prefix.requests", p.requests);
    ledger.fact("prefix.verdict_digest", &p.digest);
    ledger.fact(
        "prefix.verdicts_by_source",
        format!(
            "cache={} store={} text_only={} graph_spliced={}",
            p.by_source[0], p.by_source[1], p.by_source[2], p.by_source[3]
        ),
    );
    ledger.fact("prefix.empty_site", p.empty_site);
    ledger.fact("prefix.wrong", p.wrong);
    ledger.fact("prefix.accuracy", format!("{}/{}", p.accurate, p.labelled));
    let tiers: Vec<String> = COUNTERS
        .iter()
        .zip(p.counters.iter())
        .map(|((_, metric), v)| format!("{metric}={v}"))
        .collect();
    ledger.fact("prefix.counters", tiers.join(" "));
}

/// Per-layer serving metrics of a traced replay.
fn serve_layers(run: &Run, ledger: &mut Ledger) {
    let t = &run.tally;
    let p = &run.prefix;
    ledger.put("serve.route.busy_s", t.route_busy_s, t.requests as usize);
    for (answer, name) in [
        (Answer::Cache, "serve.route.cache_us_p50"),
        (Answer::Store, "serve.route.store_us_p50"),
        (Answer::Error, "serve.route.error_us_p50"),
    ] {
        let us: Vec<f64> = t.route_ms[answer as usize]
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        ledger.put_median(name, &us);
    }
    let fast = &t.route_ms[Answer::Fast as usize];
    ledger.put_median("serve.route.fast_ms_p50", fast);
    ledger.put_tail("serve.route.fast_ms_p99", fast);
    ledger.put_median(
        "serve.route.fallthrough_ms_p50",
        &t.route_ms[Answer::Fallthrough as usize],
    );
    ledger.put("serve.slow.wait_s", t.slow_wait_s, t.slow_ms.len());
    ledger.put_median("serve.slow.ms_p50", &t.slow_ms);
    ledger.put_tail("serve.slow.ms_p99", &t.slow_ms);
    ledger.put(
        "serve.store.checkpoint_ms",
        median(&t.checkpoint_ms),
        t.checkpoint_ms.len(),
    );
    for ((_, metric), &v) in COUNTERS.iter().zip(p.counters.iter()) {
        ledger.put(metric, v as f64, 1);
    }
    // Answered before the slow tier: cache, store, fast hit, fast error.
    let cheap = p.counters[0] + p.counters[1] + p.counters[3] + p.counters[5];
    let share = |num: u64, base: u64| {
        if base == 0 {
            0.0
        } else {
            num as f64 / base as f64
        }
    };
    ledger.put(
        "serve.tier.cheap_share",
        share(cheap, p.requests),
        p.requests as usize,
    );
    let fast_base = p.counters[3] + p.counters[4];
    ledger.put(
        "serve.tier.fast.accept_share",
        share(p.counters[3], fast_base),
        fast_base as usize,
    );
    ledger.put(
        "serve.verdict_accuracy",
        share(p.accurate, p.labelled),
        p.labelled as usize,
    );
}

/// Runs a federation workload.
pub fn run(
    mix: Mix,
    seed: u64,
    size: &Size,
    budget: Duration,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) {
    let setup = match set_up(size, ledger) {
        Ok(setup) => setup,
        Err(e) => return ledger.fail(e),
    };
    let (s1, s2) = (setup.web.snapshot(), setup.web.snapshot2());
    let pool = zipf_pool(s1, s2, CORPUS_SEED);
    let live = live_sites(s2);
    let traced = tracer.is_on();
    let phase = if traced { budget / 2 } else { budget };
    let replay = |tracer: &mut Tracer, ledger: &mut Ledger| match mix {
        Mix::Zipf => replay_zipf(&setup, &pool, seed, size, phase, tracer, ledger),
        Mix::Cold => replay_cold(&setup, &live, seed, phase, tracer),
    };
    let plain = replay(&mut Tracer::new(false), ledger);
    account(&plain, true, ledger);
    prefix_facts(&plain.prefix, ledger);
    if !traced {
        return;
    }
    let run = replay(tracer, ledger);
    account(&run, false, ledger);
    ledger.check(run.prefix.digest == plain.prefix.digest, || {
        "the traced replay's verdict digest differs from the untraced one".to_string()
    });
    serve_layers(&run, ledger);
    let per_op = |r: &Run| r.elapsed.as_secs_f64() / r.tally.requests as f64;
    ledger.put(
        "trace.overhead",
        per_op(&run) / per_op(&plain),
        run.tally.requests as usize,
    );

    // Breakdown sites: distinct live sites in the order the workload
    // first requests them.
    let order: Vec<&Site> = match mix {
        Mix::Zipf => {
            let mut stream = ZipfStream::new(pool.len(), ZIPF_EXPONENT, seed);
            (0..BREAKDOWN_DRAWS)
                .map(|_| &pool[stream.next_index()])
                .collect()
        }
        Mix::Cold => cold_pass(live.len(), seed, 0)
            .into_iter()
            .map(|i| &live[i])
            .collect(),
    };
    let mut seen = std::collections::BTreeSet::new();
    let chosen: Vec<&Site> = order
        .into_iter()
        .filter(|s| s.live() && seen.insert(&s.domain))
        .take(size.breakdown_sites)
        .collect();
    breakdown(&setup, &chosen, tracer, ledger);
}

/// Times each layer a verification passes through, over `sites`, from
/// outside: crawl, text preparation, the fast and full verifier paths,
/// batched verification, and the incremental kernels re-run on a
/// rebuilt overlay. Checks that the rebuilt kernel reproduces the
/// verifier's trust score bit for bit, so the timed kernel is the one
/// the verifier runs.
fn breakdown(setup: &Setup, sites: &[&Site], tracer: &mut Tracer, ledger: &mut Ledger) {
    let host = &setup.web.snapshot2().web;
    let verifier = &setup.verifier;
    let graph = verifier.graph();
    let corpus = &setup.corpus;
    let nodes = |indices: Vec<usize>| -> Option<Vec<NodeId>> {
        indices
            .into_iter()
            .map(|i| graph.node(&corpus.domains[i]))
            .collect()
    };
    let (good, bad) = corpus.indices_by_class();
    let (Some(good), Some(bad)) = (nodes(good), nodes(bad)) else {
        return ledger.fail("breakdown: a training pharmacy is not a node of the training graph");
    };
    let config = TrustRankConfig::default();
    let trajectory = TrustTrajectory::compute(graph, &good, &config);
    let anti_trajectory = TrustTrajectory::compute(&graph.transposed(), &bad, &config);
    let incremental = IncrementalConfig {
        tolerance: 0.0,
        max_frontier: (graph.node_count() / 2).max(64),
    };
    let scale = graph.node_count() as f64;
    let crawler = Crawler::new(CrawlConfig::default());
    let mut overlay = SpliceOverlay::new(graph);

    let mut crawl_us = Vec::new();
    let mut pages = 0usize;
    let mut prepare_us = Vec::new();
    let mut fast_ms = Vec::new();
    let mut slow_ms = Vec::new();
    let mut ngg_ms = Vec::new();
    let mut trust_us = Vec::new();
    let mut anti_us = Vec::new();
    let mut frontier = Vec::new();
    let mut fallbacks = 0usize;
    let mut trust_bits = Vec::new();
    for (k, site) in sites.iter().enumerate() {
        let id = Some(k as u64);
        let Ok(url) = Url::parse(&site.seed_url) else {
            ledger.fail(format!("breakdown: {} does not parse", site.seed_url));
            continue;
        };
        let (crawl, t) = tracer.time("crawl.crawl", id, || crawler.crawl(host, &url));
        crawl_us.push(t.as_secs_f64() * 1e6);
        pages += crawl.pages.len();
        let (_, t) = tracer.time("text.prepare", id, || {
            preprocess(&summarize_crawl(&crawl).text)
        });
        prepare_us.push(t.as_secs_f64() * 1e6);
        let (fast, t_fast) = tracer.time("core.verify_text_only", id, || {
            verifier.verify_text_only(host, &site.seed_url)
        });
        let (slow, t_slow) =
            tracer.time("core.verify", id, || verifier.verify(host, &site.seed_url));
        let (Ok(_), Ok(slow)) = (fast, slow) else {
            ledger.fail(format!(
                "breakdown: live site {} was not verified",
                site.domain
            ));
            continue;
        };
        let links: Vec<(String, f64)> = crawl
            .outbound_endpoints()
            .into_iter()
            .map(|(target, count)| (target, count as f64))
            .collect();
        let spliced = overlay.splice_pharmacy(&crawl.domain, &links);
        let (trust, t_trust) = tracer.time("net.trust_incremental", id, || {
            overlay.trust_rank_incremental(&trajectory, &incremental)
        });
        let (anti, t_anti) = tracer.time("net.anti_incremental", id, || {
            overlay.anti_trust_rank_incremental(&anti_trajectory, &incremental)
        });
        overlay.unsplice();
        let rebuilt = trust.scores[spliced as usize] * scale;
        ledger.check(rebuilt.to_bits() == slow.trust_score.to_bits(), || {
            format!(
                "breakdown: rebuilt incremental trust {rebuilt:e} != verify() trust {:e} for {}",
                slow.trust_score, site.domain
            )
        });
        trust_bits.push(slow.trust_score.to_bits());
        fast_ms.push(t_fast.as_secs_f64() * 1e3);
        slow_ms.push(t_slow.as_secs_f64() * 1e3);
        trust_us.push(t_trust.as_secs_f64() * 1e6);
        anti_us.push(t_anti.as_secs_f64() * 1e6);
        // Fast path minus full path plus the kernels the fast path skips:
        // what the NGG second opinion costs beyond the shared crawl and
        // text scoring (derived, not measured directly).
        ngg_ms.push(
            (t_fast.as_secs_f64() - t_slow.as_secs_f64()) * 1e3
                + (t_trust + t_anti).as_secs_f64() * 1e3,
        );
        frontier.push((trust.peak_frontier + anti.peak_frontier) as f64);
        fallbacks += usize::from(trust.outcome == IncrementalOutcome::FellBack)
            + usize::from(anti.outcome == IncrementalOutcome::FellBack);
    }

    // Batched verification in chunks of the service's batch size; the
    // verdicts must carry the same trust bits as one-at-a-time verify().
    let urls: Vec<&str> = sites.iter().map(|s| s.seed_url.as_str()).collect();
    let mut batch_s = 0.0;
    let mut batch_bits = Vec::new();
    for (c, chunk) in urls.chunks(BATCH).enumerate() {
        let (verdicts, t) = tracer.time("core.verify_batch", Some(c as u64), || {
            verifier.verify_batch(host, chunk)
        });
        batch_s += t.as_secs_f64();
        batch_bits.extend(
            verdicts
                .iter()
                .map(|v| v.as_ref().map(|v| v.trust_score.to_bits()).ok()),
        );
    }
    let batch_bits: Vec<u64> = batch_bits.into_iter().flatten().collect();
    ledger.check(batch_bits == trust_bits, || {
        "breakdown: verify_batch trust scores differ from verify()".to_string()
    });

    let n = sites.len();
    ledger.put_median("crawl.site_us_p50", &crawl_us);
    ledger.put("crawl.pages_mean", pages as f64 / n.max(1) as f64, n);
    ledger.put_median("text.prepare_us_p50", &prepare_us);
    ledger.put_median("core.verify_text_only_ms_p50", &fast_ms);
    ledger.put_tail("core.verify_text_only_ms_p99", &fast_ms);
    ledger.put_labelled(
        "ngg.fast_opinion_ms_p50",
        median(&ngg_ms),
        ngg_ms.len(),
        Some("derived"),
    );
    ledger.put_median("core.verify_ms_p50", &slow_ms);
    ledger.put_tail("core.verify_ms_p99", &slow_ms);
    ledger.put(
        "core.verify_batch_ms_per_site",
        batch_s * 1e3 / n.max(1) as f64,
        n,
    );
    ledger.put_median("net.incremental.trust_us_p50", &trust_us);
    ledger.put_median("net.incremental.anti_us_p50", &anti_us);
    ledger.put_median("net.incremental.frontier_p50", &frontier);
    ledger.put(
        "net.incremental.fallbacks",
        fallbacks as f64,
        2 * trust_us.len(),
    );
    ledger.fact("breakdown.sites", n);
}
