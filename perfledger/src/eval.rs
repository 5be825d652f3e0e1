//! The evaluation-suite workload: the paper's training-side evaluation
//! (every table, figure, ablation and future-work study) rendered at
//! small scale on a two-wide executor, each time on a fresh context so
//! the artifact store starts cold. The suite pins its own seed
//! (`REPRO_SEED`), so this workload ignores `--seed`.

use crate::ledger::{Fnv, Ledger};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Size;
use pharmaverify_bench::context::{ReproContext, Scale};
use pharmaverify_bench::report::{render_report_with, Selection};
use pharmaverify_core::pipeline::Executor;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Report sections timed on their own, by the span the report already
/// records for each (`report/section/<name>`); every other section
/// counts toward `bench.report.rest_s`.
const SECTIONS: [(&str, &str); 6] = [
    ("tables 3-6 (TF-IDF grid)", "bench.report.tfidf_grid_s"),
    ("tables 7-10 (N-Gram-Graph grid)", "bench.report.ngg_grid_s"),
    ("tables 12-13 (network)", "bench.report.network_s"),
    ("table 14 (ensemble)", "bench.report.ensemble_s"),
    ("table 15 (ranking) + outliers", "bench.report.ranking_s"),
    ("tables 16-17 (drift)", "bench.report.drift_s"),
];

/// Spans the program records inside its layers, read as busy time:
/// `(path prefix, metric)`. `pipeline/stage/` covers every artifact the
/// store computed on a miss.
const LAYER_SPANS: [(&str, &str); 3] = [
    ("text/tfidf/fit", "text.tfidf.fit_s"),
    ("ngg/class-graphs/build", "ngg.class_graphs.build_s"),
    ("pipeline/stage/", "core.pipeline.stage_s"),
];

/// Contexts built per set-up of the other workloads: one takes about
/// 15 ms, so many cost little and steady the median.
const CONTEXTS_PER_SETUP: usize = 5;

fn context() -> Result<ReproContext, String> {
    ReproContext::try_new(Scale::Small).map_err(|e| format!("building the evaluation context: {e}"))
}

/// One timed phase of suite runs.
#[derive(Default)]
struct Phase {
    run_ms: Vec<f64>,
    elapsed: Duration,
    digests: Vec<String>,
    /// `ArtifactStore::totals` of the last run: (hits, misses).
    pipeline: (u64, u64),
}

/// Runs the suite on fresh contexts until `budget` is spent (at least
/// once).
fn suite(budget: Duration, tracer: &mut Tracer) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let started = Instant::now();
    for run in 0u64.. {
        if run > 0 && started.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        let (ctx, _) = tracer.time("bench.context", Some(run), context);
        let ctx = ctx?;
        let (report, _) = tracer.time("bench.render_report", Some(run), || {
            render_report_with(&ctx, &Selection::everything(), Executor::new(2), 0.0)
        });
        phase.run_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut digest = Fnv::default();
        digest.write(report.output.as_bytes());
        phase.digests.push(digest.hex());
        phase.pipeline = ctx.store.totals();
    }
    phase.elapsed = started.elapsed();
    Ok(phase)
}

/// Busy microseconds per span path in the process-wide registry.
fn span_micros() -> BTreeMap<String, u64> {
    pharmaverify_obs::global()
        .span_totals()
        .into_iter()
        .map(|(path, _, micros)| (path, micros))
        .collect()
}

/// Runs the evaluation-suite workload.
pub fn run(size: &Size, budget: Duration, tracer: &mut Tracer, ledger: &mut Ledger) {
    ledger.fact("seed", "ignored: the evaluation suite pins REPRO_SEED");
    let mut setup_s = Vec::new();
    for _ in 0..size.setups * CONTEXTS_PER_SETUP {
        let t = Instant::now();
        if let Err(e) = context() {
            return ledger.fail(e);
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    ledger.put("setup_s", median(&setup_s), setup_s.len());

    let traced = tracer.is_on();
    let plain = match suite(
        if traced { budget / 2 } else { budget },
        &mut Tracer::new(false),
    ) {
        Ok(phase) => phase,
        Err(e) => return ledger.fail(e),
    };
    record_phase(&plain, &plain.digests[0], true, ledger);
    ledger.fact("report_digest", &plain.digests[0]);
    ledger.fact(
        "pipeline",
        format!("hits={} misses={}", plain.pipeline.0, plain.pipeline.1),
    );
    if !traced {
        return;
    }

    let before = span_micros();
    let run = match suite(budget / 2, tracer) {
        Ok(phase) => phase,
        Err(e) => return ledger.fail(e),
    };
    let after = span_micros();
    record_phase(&run, &plain.digests[0], false, ledger);
    let runs = run.run_ms.len();
    let per_op = |p: &Phase| p.elapsed.as_secs_f64() / p.run_ms.len() as f64;
    ledger.put("trace.overhead", per_op(&run) / per_op(&plain), runs);

    // Busy seconds per run, from the spans the program records.
    let delta = |path: &str| -> f64 {
        let micros = after.get(path).copied().unwrap_or(0) - before.get(path).copied().unwrap_or(0);
        micros as f64 / 1e6 / runs as f64
    };
    let mut rest = 0.0;
    for (path, _) in after
        .iter()
        .filter(|(p, _)| p.starts_with("report/section/"))
    {
        let section = &path["report/section/".len()..];
        if !SECTIONS.iter().any(|(s, _)| *s == section) {
            rest += delta(path);
        }
    }
    for (section, metric) in SECTIONS {
        ledger.put(metric, delta(&format!("report/section/{section}")), runs);
    }
    ledger.put("bench.report.rest_s", rest, runs);
    for (prefix, metric) in LAYER_SPANS {
        let busy: f64 = after
            .keys()
            .filter(|p| p.starts_with(prefix))
            .map(|p| delta(p))
            .sum();
        ledger.put(metric, busy, runs);
    }
    ledger.put("core.pipeline.hits", run.pipeline.0 as f64, 1);
    ledger.put("core.pipeline.misses", run.pipeline.1 as f64, 1);
}

/// Checks that every suite run rendered the expected report and, for
/// the untraced phase (`end_to_end`), records its end-to-end metrics.
fn record_phase(phase: &Phase, expected_digest: &str, end_to_end: bool, ledger: &mut Ledger) {
    let runs = phase.run_ms.len();
    let differing = phase
        .digests
        .iter()
        .filter(|d| *d != expected_digest)
        .count() as u64;
    ledger.attempted += runs as u64;
    ledger.failed += differing;
    ledger.check(differing == 0, || {
        format!("{differing} of {runs} suite runs rendered a different report")
    });
    if end_to_end {
        ledger.put_operations(&phase.run_ms);
    }
}
