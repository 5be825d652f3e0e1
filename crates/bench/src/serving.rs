//! The serving studies: a seeded workload replayed through the
//! concurrent verification service ("Serving"), through the service
//! with drift-triggered retrain and model hot-swap ("Online"), and
//! through the tiered [`pharmaverify_serve::Federation`] ("Federation"),
//! each rendered as a report section.
//!
//! Every section is a **pure suffix** of the report (like the robustness
//! study): a run with `--serve-workload N`, `--online-waves N` or
//! `--federation N` prints everything a plain run prints, then its
//! table. The tables hold counts only — per-tier hits and fallthroughs,
//! drift windows and model versions, verdict tallies — so the xtask
//! determinism audit can byte-compare each section between
//! `--serve-workers 1` and `--serve-workers 4` runs of the same seed;
//! throughput and latency are timing-dependent, so the `repro` binary
//! reports them on stderr, never here. Titles omit the worker count for
//! the same reason.

use crate::context::{ReproContext, REPRO_SEED};
use pharmaverify_core::report::Table;
use pharmaverify_core::{TextLearnerKind, TrainedVerifier};
use pharmaverify_obs::Registry;
use pharmaverify_serve::{
    replay_federation, replay_online, replay_workload, FederationPolicy, FederationStats,
    OnlineStats, ServingStats,
};
use std::sync::Arc;

/// Term-subsample size of the served verifier's text model (the paper's
/// best-OPC column).
const SERVE_SUBSAMPLE: usize = 1000;

/// The verifier every serving study serves: fitted on Dataset 1.
fn served_verifier(ctx: &ReproContext) -> Arc<TrainedVerifier> {
    Arc::new(TrainedVerifier::fit(
        &ctx.corpus1,
        TextLearnerKind::Nbm,
        Default::default(),
        Some(SERVE_SUBSAMPLE),
        REPRO_SEED,
    ))
}

fn section(title: &str, lines: Vec<(String, u64)>) -> Table {
    let mut t = Table::new(title, &["Metric", "Count"]);
    for (label, value) in lines {
        t.push_row(vec![label, value.to_string()]);
    }
    t
}

/// Runs the serving study: replays `requests` seeded requests with
/// `workers` workers against the Dataset 2 web, recording into `obs`
/// (the process-global registry puts `serve/*` metrics in the trace;
/// tests pass a private one so concurrent replays cannot interleave
/// their counter deltas). Returns the rendered section and the tally.
pub fn serving_study_in(
    ctx: &ReproContext,
    requests: usize,
    workers: usize,
    obs: Arc<Registry>,
) -> (Table, ServingStats) {
    let _span = obs.span("report/section/serving (workload replay)");
    let stats = replay_workload(
        served_verifier(ctx),
        &ctx.snapshot1,
        &ctx.snapshot2,
        requests,
        workers,
        REPRO_SEED,
        Arc::clone(&obs),
    );
    let title = format!("Serving: workload replay ({requests} requests, seed {REPRO_SEED})");
    (section(&title, stats.lines()), stats)
}

/// Runs the online study: replays `waves` waves of a mix-shifting
/// workload with `workers` workers, recording into `obs`.
pub fn online_study_in(
    ctx: &ReproContext,
    waves: usize,
    workers: usize,
    obs: Arc<Registry>,
) -> (Table, OnlineStats) {
    let _span = obs.span("report/section/online (drift replay)");
    let stats = replay_online(
        served_verifier(ctx),
        &ctx.snapshot1,
        &ctx.snapshot2,
        waves,
        workers,
        REPRO_SEED,
        Arc::clone(&obs),
    );
    let title = format!("Online: drift-triggered retrain ({waves} waves, seed {REPRO_SEED})");
    (section(&title, stats.lines()), stats)
}

/// Runs the federation study: replays `requests` seeded requests
/// through the four-tier federation with `workers` slow-path workers
/// and the routing `policy`, recording into `obs`.
pub fn federation_study_in(
    ctx: &ReproContext,
    requests: usize,
    workers: usize,
    policy: FederationPolicy,
    obs: Arc<Registry>,
) -> (Table, FederationStats) {
    let _span = obs.span("report/section/federation (tiered replay)");
    let stats = replay_federation(
        served_verifier(ctx),
        &ctx.snapshot1,
        &ctx.snapshot2,
        requests,
        workers,
        REPRO_SEED,
        policy,
        Arc::clone(&obs),
    );
    let title =
        format!("Federation: tiered verdict replay ({requests} requests, seed {REPRO_SEED})");
    (section(&title, stats.lines()), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;
    use pharmaverify_obs::VirtualClock;

    fn private_obs() -> Arc<Registry> {
        Arc::new(Registry::with_clock(Box::new(VirtualClock::new(0))))
    }

    fn values(lines: Vec<(String, u64)>) -> Vec<u64> {
        lines.into_iter().map(|(_, value)| value).collect()
    }

    fn assert_renders_every_line(table: &Table, title: &str, lines: Vec<(String, u64)>) {
        let text = table.to_string();
        assert!(text.contains(title), "missing title {title:?}:\n{text}");
        for (label, _) in lines {
            assert!(text.contains(&label), "missing line {label:?}:\n{text}");
        }
    }

    #[test]
    fn serving_section_is_worker_count_independent() {
        let ctx = ReproContext::new(Scale::Small);
        let (table_1, stats_1) = serving_study_in(&ctx, 48, 1, private_obs());
        let (table_4, stats_4) = serving_study_in(&ctx, 48, 4, private_obs());
        assert_eq!(stats_1, stats_4, "worker count leaked into the tally");
        assert_eq!(table_1.to_string(), table_4.to_string());
        // Pinned: refactoring the replay must not move the section's bytes.
        assert_eq!(
            values(stats_1.lines()),
            [48, 48, 0, 0, 19, 29, 5, 1, 8, 9, 10, 0, 29, 0, 0]
        );
    }

    #[test]
    fn serving_section_renders_every_stat_line() {
        let ctx = ReproContext::new(Scale::Small);
        let (table, stats) = serving_study_in(&ctx, 32, 2, private_obs());
        assert_renders_every_line(
            &table,
            "Serving: workload replay (32 requests",
            stats.lines(),
        );
        assert_eq!(stats.requests, 32);
        assert!(stats.cache_misses > 0);
    }

    #[test]
    fn online_section_is_worker_count_independent() {
        let ctx = ReproContext::new(Scale::Small);
        let (table_1, stats_1) = online_study_in(&ctx, 6, 1, private_obs());
        let (table_4, stats_4) = online_study_in(&ctx, 6, 4, private_obs());
        assert_eq!(stats_1, stats_4, "worker count leaked into the tally");
        assert_eq!(table_1.to_string(), table_4.to_string());
        // Pinned: refactoring the replay must not move the section's bytes.
        assert_eq!(
            values(stats_1.lines()),
            [96, 96, 96, 2, 1, 1, 1, 1, 59, 0, 20, 39]
        );
    }

    #[test]
    fn online_section_shows_a_swap_under_drift() {
        let ctx = ReproContext::new(Scale::Small);
        let (table, stats) = online_study_in(&ctx, 8, 2, private_obs());
        assert_renders_every_line(
            &table,
            "Online: drift-triggered retrain (8 waves",
            stats.lines(),
        );
        assert!(
            stats.triggers >= 1,
            "no drift trigger at 8 waves: {stats:?}"
        );
        assert!(stats.final_version >= 1);
        assert_eq!(stats.responses, stats.serving.accepted);
    }

    fn federation(ctx: &ReproContext, requests: usize, workers: usize) -> (Table, FederationStats) {
        federation_study_in(
            ctx,
            requests,
            workers,
            FederationPolicy::default(),
            private_obs(),
        )
    }

    #[test]
    fn federation_section_is_worker_count_independent() {
        let ctx = ReproContext::new(Scale::Small);
        let (table_1, stats_1) = federation(&ctx, 48, 1);
        let (table_4, stats_4) = federation(&ctx, 48, 4);
        assert_eq!(stats_1, stats_4, "worker count leaked into the tally");
        assert_eq!(table_1.to_string(), table_4.to_string());
        // Pinned: refactoring the replay must not move the section's bytes.
        assert_eq!(
            values(stats_1.lines()),
            [48, 18, 30, 1, 0, 29, 2, 12, 15, 12, 36, 4, 1, 2, 12, 12, 0, 11, 7, 7, 29, 0, 0]
        );
    }

    #[test]
    fn federation_section_renders_every_stat_line() {
        let ctx = ReproContext::new(Scale::Small);
        let (table, stats) = federation(&ctx, 32, 2);
        let title = "Federation: tiered verdict replay (32 requests";
        assert_renders_every_line(&table, title, stats.lines());
        assert_eq!(stats.requests, 32);
    }

    #[test]
    fn majority_of_requests_answered_by_cheaper_tiers() {
        let ctx = ReproContext::new(Scale::Small);
        let (_, stats) = federation(&ctx, 64, 2);
        // The acceptance criterion: the majority of requests are
        // answered by a tier cheaper than the graph-spliced slow path.
        assert!(
            stats.answered_cheap() * 2 > stats.requests,
            "cheap tiers answered {} of {} requests: {stats:?}",
            stats.answered_cheap(),
            stats.requests
        );
        // Every tier actually participated, and every verdict carried a
        // provenance tag (the four source tallies cover all verdicts).
        assert!(stats.via_cache > 0, "cache tier never answered");
        assert!(stats.via_slow > 0, "slow path never ran");
        assert_eq!(
            stats.via_cache + stats.via_store + stats.via_fast + stats.via_slow,
            stats.requests
                - stats.errors_empty_site
                - stats.errors_unreachable
                - stats.errors_other,
        );
    }

    #[test]
    fn store_restart_persists_and_reloads_records() {
        let ctx = ReproContext::new(Scale::Small);
        let (_, stats) = federation(&ctx, 64, 2);
        assert!(stats.store_persisted > 0, "restart persisted nothing");
        assert_eq!(stats.store_persisted, stats.store_reloaded);
        assert!(stats.store_records >= stats.store_reloaded);
    }

    #[test]
    fn policy_knobs_change_tier_traffic() {
        let ctx = ReproContext::new(Scale::Small);
        // A zero staleness budget stales every store record instantly…
        let strict = FederationPolicy {
            staleness_budget_micros: 1,
            fast_confidence: 1.01,
        };
        let (_, strict) = federation_study_in(&ctx, 48, 2, strict, private_obs());
        assert_eq!(strict.store_hits, 0, "budget 1µs must stale all records");
        assert_eq!(
            strict.fast_hits, 0,
            "confidence > 1 must reject all fast verdicts"
        );
        // …while the defaults serve from both tiers.
        let (_, default) = federation(&ctx, 48, 2);
        assert!(default.fast_hits + default.store_hits > 0);
    }
}
