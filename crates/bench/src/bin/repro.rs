//! Reproduces the paper's tables and figures.
//!
//! ```text
//! repro [--scale small|medium|paper|web] [--table N]... [--figure 3] [--jobs N]
//!       [--fault-rate F] [--trace PATH] [--serve-workload N] [--serve-workers W]
//!       [--online-waves N] [--web-domains N]
//!       [--attack link-farm|cloak|mimicry] [--attack-strength S]
//!       [--federation N] [--staleness-budget M] [--fast-confidence F]
//! ```
//!
//! With no selection, every table and figure is printed. Scale defaults
//! to the `PHARMAVERIFY_SCALE` environment variable, then to `paper`;
//! worker count defaults to `PHARMAVERIFY_JOBS`, then to the available
//! cores. `--fault-rate F` (0 < F ≤ 1) appends the fault-injection
//! robustness study after the regular output; the rest of the report is
//! byte-identical to a run without the flag. `--trace PATH` (or the
//! `PHARMAVERIFY_TRACE` environment variable) writes the full
//! metrics-and-spans trace as canonical JSON; its deterministic view is
//! byte-identical across worker counts at the same seed.
//! `--serve-workload N` replays N seeded requests through the concurrent
//! verification service (`--serve-workers W` sizes its worker pool,
//! default 2) and appends the "Serving" section after the regular
//! output — a pure suffix whose counts are byte-identical at any worker
//! count; throughput and latency quantiles go to stderr.
//! `--online-waves N` replays N waves of a mix-shifting workload through
//! the service with drift monitoring, retraining, and mid-replay model
//! hot-swap, and appends the "Online" section — a pure suffix,
//! byte-identical at any `--serve-workers` count. Tables go to
//! stdout; progress, span summaries, and artifact cache statistics go to
//! stderr, so redirected output stays clean.
//!
//! `--attack <kind>` appends the adversarial study: the named attack
//! (link-farm, cloak, or mimicry) mutates the Dataset 1 snapshot at
//! strengths 0, S/2, and S (`--attack-strength S`, default 0.6), and
//! the "Adversarial" section reports OPC accuracy/AUC and OPR pairwise
//! orderedness with the spam-mass defense off vs on — a pure suffix,
//! byte-identical at any worker count.
//!
//! `--federation N` replays N seeded requests through the tiered verdict
//! federation (response cache → persisted store → text-only fast path →
//! graph-spliced slow path) and appends the "Federation" section — the
//! final pure suffix, byte-identical at any `--serve-workers` count.
//! `--staleness-budget M` (virtual microseconds, 0 = never stale) and
//! `--fast-confidence F` (in [0, 1]) override the routing policy's
//! defaults; wall time goes to stderr.
//!
//! `--scale web` runs the paper pipeline on the small corpus, then
//! streams a sharded synthetic web (`--web-domains N`, default 100000)
//! through the CSR graph builder, ranks it with the tiled TrustRank
//! kernel, and appends the "Scale" section — another pure suffix,
//! byte-identical at any worker count; domains/sec and edges/sec per
//! power iteration go to stderr.

use pharmaverify_bench::{
    adversarial_study, build_web_tier, federation_study_in, online_study_in, rank_web_tier,
    render_report_with, scale_section, serving_study_in, ReproContext, Scale, Selection,
};
use pharmaverify_core::pipeline::Executor;
use pharmaverify_corpus::AttackKind;
use pharmaverify_obs::global_arc;
use pharmaverify_serve::FederationPolicy;
use std::time::Instant;

/// Environment variable naming a trace output file (`--trace` wins).
const TRACE_ENV: &str = "PHARMAVERIFY_TRACE";

/// The value following `flag`, or a uniform "missing value" error on
/// exit code 2 when the command line ends at the flag.
fn require_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("missing value for '{flag}'");
        std::process::exit(2);
    })
}

fn main() {
    let mut scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let mut exec = Executor::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let mut sel = Selection::everything();
    let mut fault_rate = 0.0_f64;
    let mut serve_workload: Option<usize> = None;
    let mut online_waves: Option<usize> = None;
    let mut serve_workers = 2usize;
    let mut web_domains = 100_000usize;
    let mut attack: Option<AttackKind> = None;
    let mut attack_strength = 0.6_f64;
    let mut federation: Option<usize> = None;
    let mut policy = FederationPolicy::default();
    let mut trace_path = std::env::var(TRACE_ENV).ok().filter(|p| !p.is_empty());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = require_value(&mut args, "--scale");
                scale = Scale::parse(&value).unwrap_or_else(|| {
                    eprintln!("unknown scale '{value}' (small|medium|paper|web)");
                    std::process::exit(2);
                });
            }
            "--table" => {
                let value = require_value(&mut args, "--table");
                match value.parse() {
                    Ok(n) if (1..=17).contains(&n) => {
                        sel.add_table(n);
                    }
                    _ => {
                        eprintln!("--table expects a number in 1..=17, got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--figure" => {
                let value = require_value(&mut args, "--figure");
                match value.parse() {
                    Ok(3u32) => {
                        sel.add_figure(3);
                    }
                    _ => {
                        eprintln!("--figure expects 3 (the only data figure), got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--jobs" => {
                let value = require_value(&mut args, "--jobs");
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => {
                        exec = Executor::new(n);
                    }
                    _ => {
                        eprintln!("--jobs expects a positive worker count, got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--fault-rate" => {
                let value = require_value(&mut args, "--fault-rate");
                match value.parse::<f64>() {
                    Ok(f) if (0.0..=1.0).contains(&f) => {
                        fault_rate = f;
                    }
                    _ => {
                        eprintln!("--fault-rate expects a number in [0, 1], got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--serve-workload" => {
                let value = require_value(&mut args, "--serve-workload");
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => {
                        serve_workload = Some(n);
                    }
                    _ => {
                        eprintln!(
                            "--serve-workload expects a positive request count, got '{value}'"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--online-waves" => {
                let value = require_value(&mut args, "--online-waves");
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => {
                        online_waves = Some(n);
                    }
                    _ => {
                        eprintln!("--online-waves expects a positive wave count, got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--serve-workers" => {
                let value = require_value(&mut args, "--serve-workers");
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => {
                        serve_workers = n;
                    }
                    _ => {
                        eprintln!("--serve-workers expects a positive worker count, got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--web-domains" => {
                let value = require_value(&mut args, "--web-domains");
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => {
                        web_domains = n;
                    }
                    _ => {
                        eprintln!("--web-domains expects a positive domain count, got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--attack" => {
                let value = require_value(&mut args, "--attack");
                attack = Some(AttackKind::parse(&value).unwrap_or_else(|| {
                    eprintln!("unknown attack '{value}' (link-farm|cloak|mimicry)");
                    std::process::exit(2);
                }));
            }
            "--attack-strength" => {
                let value = require_value(&mut args, "--attack-strength");
                match value.parse::<f64>() {
                    Ok(s) if (0.0..=1.0).contains(&s) => {
                        attack_strength = s;
                    }
                    _ => {
                        eprintln!("--attack-strength expects a number in [0, 1], got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--federation" => {
                let value = require_value(&mut args, "--federation");
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => {
                        federation = Some(n);
                    }
                    _ => {
                        eprintln!("--federation expects a positive request count, got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--staleness-budget" => {
                let value = require_value(&mut args, "--staleness-budget");
                match value.parse::<u64>() {
                    Ok(n) => {
                        policy.staleness_budget_micros = n;
                    }
                    _ => {
                        eprintln!(
                            "--staleness-budget expects a microsecond count \
                             (0 = never stale), got '{value}'"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--fast-confidence" => {
                let value = require_value(&mut args, "--fast-confidence");
                match value.parse::<f64>() {
                    Ok(f) if (0.0..=1.0).contains(&f) => {
                        policy.fast_confidence = f;
                    }
                    _ => {
                        eprintln!("--fast-confidence expects a number in [0, 1], got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--trace" => {
                trace_path = Some(require_value(&mut args, "--trace"));
            }
            "--help" | "-h" => {
                println!(
                    "repro [--scale small|medium|paper|web] [--table N]... [--figure 3] [--jobs N] \
                     [--fault-rate F] [--trace PATH] [--serve-workload N] [--serve-workers W] \
                     [--online-waves N] [--web-domains N] \
                     [--attack link-farm|cloak|mimicry] [--attack-strength S] \
                     [--federation N] [--staleness-budget M] [--fast-confidence F]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    let started = Instant::now();
    eprintln!("[repro] generating corpus at {scale:?} scale…");
    let ctx = match ReproContext::try_new(scale) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("[repro] corpus extraction failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[repro] corpus ready in {:.1}s ({} + {} pharmacies, {} workers)",
        started.elapsed().as_secs_f64(),
        ctx.corpus1.len(),
        ctx.corpus2.len(),
        exec.jobs()
    );

    let report = render_report_with(&ctx, &sel, exec, fault_rate);
    print!("{}", report.output);

    if let Some(requests) = serve_workload {
        // A pure suffix, like the robustness study: everything above is
        // byte-identical to a run without the flag, and the section
        // itself is byte-identical at any worker count.
        let serve_started = Instant::now();
        let (table, stats) = serving_study_in(&ctx, requests, serve_workers, global_arc());
        println!("{table}");
        let elapsed = serve_started.elapsed().as_secs_f64();
        let obs = pharmaverify_obs::global();
        let quantile = |q: f64| {
            obs.histogram("serve/latency_micros")
                .and_then(|h| h.quantile(q))
                .map_or_else(|| "n/a".to_string(), |v| format!("≤{v}µs"))
        };
        eprintln!(
            "[repro] serving: {} requests in {elapsed:.1}s ({:.0} req/s, {} workers), \
             latency p50 {} p99 {}",
            stats.requests,
            stats.requests as f64 / elapsed.max(f64::EPSILON),
            serve_workers,
            quantile(0.5),
            quantile(0.99),
        );
    }

    if let Some(waves) = online_waves {
        // Another pure suffix: the online study replays a drifting
        // workload, retrains on trigger, and hot-swaps the model while
        // the service keeps answering. Counts only; wall time on stderr.
        let online_started = Instant::now();
        let (table, stats) = online_study_in(&ctx, waves, serve_workers, global_arc());
        println!("{table}");
        eprintln!(
            "[repro] online: {} responses over {waves} waves in {:.1}s \
             ({} retrains, final model v{})",
            stats.responses,
            online_started.elapsed().as_secs_f64(),
            stats.retrains,
            stats.final_version,
        );
    }

    if let Some(kind) = attack {
        // Another pure suffix: the adversarial study replays the attack
        // at strengths 0, S/2, S and measures OPC/OPR with the spam-mass
        // defense off and on. Byte-identical at any worker count.
        let attack_started = Instant::now();
        let table = adversarial_study(&ctx, exec, kind, attack_strength);
        println!("{table}");
        eprintln!(
            "[repro] adversarial: {kind} sweep to strength {attack_strength:.2} in {:.1}s",
            attack_started.elapsed().as_secs_f64(),
        );
    }

    if scale == Scale::Web {
        // The final pure suffix: web-tier scale study. Wall clocks stay
        // on stderr; the table holds only seed-determined facts.
        let obs = pharmaverify_obs::global();
        let build_started = Instant::now();
        let build = build_web_tier(web_domains, obs);
        let build_secs = build_started.elapsed().as_secs_f64();
        let rank_started = Instant::now();
        let scores = rank_web_tier(&build, &exec, obs);
        let rank_secs = rank_started.elapsed().as_secs_f64();
        println!("{}", scale_section(&build, &scores));
        eprintln!(
            "[repro] scale: generated {} domains in {build_secs:.1}s ({:.0} domains/sec, \
             {} shards)",
            build.config.domains,
            build.config.domains as f64 / build_secs.max(f64::EPSILON),
            build.shards,
        );
        eprintln!(
            "[repro] scale: {} power iterations over {} edges in {rank_secs:.1}s \
             ({:.0} edges/sec/iteration, {} workers)",
            scores.config.iterations,
            build.graph.edge_count(),
            (build.graph.edge_count() * scores.config.iterations) as f64
                / rank_secs.max(f64::EPSILON),
            exec.jobs(),
        );
    }

    if let Some(requests) = federation {
        // The final pure suffix: the tiered federation replay. The table
        // holds only seed-determined counts; wall time stays on stderr.
        let federation_started = Instant::now();
        let (table, stats) =
            federation_study_in(&ctx, requests, serve_workers, policy, global_arc());
        println!("{table}");
        let elapsed = federation_started.elapsed().as_secs_f64();
        eprintln!(
            "[repro] federation: {} requests in {elapsed:.1}s ({:.0} req/s, {} workers), \
             {} answered before the slow path",
            stats.requests,
            stats.requests as f64 / elapsed.max(f64::EPSILON),
            serve_workers,
            stats.answered_cheap(),
        );
    }

    let obs = pharmaverify_obs::global();
    for (path, count, micros) in obs.span_totals() {
        if let Some(name) = path.strip_prefix("report/section/") {
            if !name.contains('/') {
                eprintln!(
                    "[repro] {name} in {:.1}s (×{count})",
                    micros as f64 / 1_000_000.0
                );
            }
        }
    }
    eprintln!("[repro] artifact cache (stage: hits/misses):");
    for c in ctx.cache_counters() {
        eprintln!(
            "[repro]   {:<18} {:>4} hits / {:<4} misses",
            c.stage, c.hits, c.misses
        );
    }
    if let Some(path) = trace_path {
        if let Err(e) = std::fs::write(&path, obs.render_trace()) {
            eprintln!("[repro] failed to write trace to '{path}': {e}");
            std::process::exit(1);
        }
        eprintln!("[repro] trace written to {path}");
    }
    let (hits, misses) = ctx.store.totals();
    eprintln!(
        "[repro] done in {:.1}s ({hits} cache hits, {misses} misses)",
        started.elapsed().as_secs_f64()
    );
}
