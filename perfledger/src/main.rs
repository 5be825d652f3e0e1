//! `perfledger`: the end-to-end performance ledger of the pharmacy
//! verification system.
//!
//! ```text
//! perfledger --workload <fed-zipf|fed-cold|web-200k|eval-small>
//!            --seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke]
//! ```
//!
//! One workload per process, so peak memory is per workload. Inputs come
//! from `--seed` alone. The untraced run (`--trace 0`) measures the
//! end-to-end metrics; the traced run (`--trace 1`) re-runs the workload
//! with spans around every public call it makes and reports the
//! per-layer metrics, writing its spans to `out/`. Every run checks its
//! outputs; stdout ends with one detailed JSON document and then the
//! summary line. A failed check exits 1, a bad argument 2. See
//! README.md for the workloads, metrics and comparison protocol.

mod eval;
mod fed;
mod inputs;
mod ledger;
mod stats;
mod trace;
mod web;

use ledger::Ledger;
use pharmaverify_corpus::CorpusConfig;
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;

const USAGE: &str = "usage: perfledger --workload <fed-zipf|fed-cold|web-200k|eval-small> \
                     --seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke]";

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FedZipf,
    FedCold,
    Web,
    Eval,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("fed-zipf", Workload::FedZipf),
        ("fed-cold", Workload::FedCold),
        ("web-200k", Workload::Web),
        ("eval-small", Workload::Eval),
    ];

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("?", |(n, _)| n)
    }
}

/// Input sizes: the measured size, or the `--smoke` size the tests run.
pub struct Size {
    /// Corpus of the federation workloads.
    pub corpus: CorpusConfig,
    /// Set-ups per run; `setup_s` is their median. `eval-small`, whose
    /// set-up is short, builds several contexts per set-up.
    pub setups: usize,
    /// Waves between `fed-zipf`'s store checkpoint-and-restarts.
    pub checkpoint_waves: usize,
    /// Most distinct live sites in the traced breakdown pass.
    pub breakdown_sites: usize,
    /// Domains of the web-tier workload.
    pub web_domains: usize,
}

impl Size {
    /// The measured size.
    pub fn full() -> Size {
        Size {
            corpus: CorpusConfig::medium(),
            setups: 5,
            // 3,008 requests: the first wave boundary past 3,000.
            checkpoint_waves: 47,
            breakdown_sites: 1000,
            web_domains: 200_000,
        }
    }

    /// A few seconds of everything: small corpus, 256-request prefix,
    /// 20k domains, one suite run.
    pub fn smoke() -> Size {
        Size {
            corpus: CorpusConfig::small(),
            setups: 1,
            checkpoint_waves: 2,
            breakdown_sites: 16,
            web_domains: 20_000,
        }
    }
}

/// Where span files and the store checkpoint go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, 20, false, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
    })
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs one workload and returns what it found.
fn run(workload: Workload, seed: u64, budget: Duration, traced: bool, size: &Size) -> Ledger {
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new(traced);
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        ledger.fail(format!("cannot create {}: {e}", out.display()));
        return ledger;
    }
    match workload {
        Workload::FedZipf => fed::run(fed::Mix::Zipf, seed, size, budget, &mut tracer, &mut ledger),
        Workload::FedCold => fed::run(fed::Mix::Cold, seed, size, budget, &mut tracer, &mut ledger),
        Workload::Web => web::run(seed, size, budget, &mut tracer, &mut ledger),
        Workload::Eval => eval::run(size, budget, &mut tracer, &mut ledger),
    }
    match peak_rss_mb() {
        Some(mb) => ledger.put("peak_rss_mb", mb, 1),
        None => ledger.fail("VmHWM is not readable from /proc/self/status"),
    }
    if traced {
        let path = out.join(format!("trace-{}-{seed}.json", workload.name()));
        match std::fs::write(&path, tracer.to_json()) {
            Ok(()) => ledger.fact("trace.file", path.display()),
            Err(e) => ledger.fail(format!("cannot write {}: {e}", path.display())),
        }
    }
    ledger
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfledger: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The library sizes its own executors from this variable; pin it to
    // the benchmark's two load threads before any thread starts.
    std::env::set_var("PHARMAVERIFY_JOBS", "2");
    let size = if args.smoke {
        Size::smoke()
    } else {
        Size::full()
    };
    let ledger = run(
        args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
        &size,
    );
    println!(
        "{}",
        ledger.detail_json(args.workload.name(), args.seed, args.trace)
    );
    println!("{}", ledger.summary_json(args.trace));
    if !ledger.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        assert_eq!(
            args("--workload fed-cold --seed 7 --seconds 3 --trace 1"),
            Ok(Args {
                workload: Workload::FedCold,
                seed: 7,
                seconds: 3,
                trace: true,
                smoke: false,
            })
        );
        assert!(args("--workload web-200k --seed 1 --smoke").is_ok_and(|a| a.smoke && !a.trace));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload eval-small").is_err());
        assert!(args("--workload eval-small --seed 1 --trace 2").is_err());
        assert!(args("--workload eval-small --seed 1 --bogus 2").is_err());
    }

    /// Whether `workload` records the per-layer `metric` itself (the
    /// summary fills in 0 for the others). Every workload records
    /// `trace.overhead`.
    fn owns(workload: Workload, metric: &str) -> bool {
        let prefixes: &[&str] = match workload {
            Workload::FedZipf | Workload::FedCold => &[
                "corpus.generate_s",
                "core.extract_s",
                "core.fit_s",
                "serve.",
                "crawl.",
                "text.prepare",
                "core.verify",
                "ngg.fast_opinion",
                "net.incremental.",
            ],
            Workload::Web => &["corpus.shard.", "net.csr."],
            Workload::Eval => &[
                "bench.report.",
                "core.pipeline.",
                "text.tfidf.",
                "ngg.class_graphs.",
            ],
        };
        metric == "trace.overhead" || prefixes.iter().any(|p| metric.starts_with(p))
    }

    #[test]
    fn every_per_layer_metric_has_an_owner() {
        for (metric, _) in ledger::PER_LAYER {
            assert!(
                Workload::ALL.iter().any(|&(_, w)| owns(w, metric)),
                "{metric}"
            );
        }
    }

    /// Every workload at the smoke size, traced (which includes an
    /// untraced phase), passes its checks, records every end-to-end
    /// metric and every per-layer metric it owns, and records no name
    /// outside the catalog.
    #[test]
    fn smoke_runs_all_four_workloads_with_checks_ok() {
        std::env::set_var("PHARMAVERIFY_JOBS", "2");
        let size = Size::smoke();
        for (name, workload) in Workload::ALL {
            let ledger = run(workload, 5, Duration::ZERO, true, &size);
            assert!(ledger.correct(), "{name}: {:?}", ledger.failures);
            assert!(ledger.attempted > 0, "{name}");
            let recorded = |metric: &str| ledger.metrics.iter().find(|m| m.name == metric);
            for (metric, _) in ledger::END_TO_END {
                assert!(
                    recorded(metric).is_some_and(|m| m.value > 0.0),
                    "{name}: {metric} missing or 0"
                );
            }
            for (metric, _) in ledger::PER_LAYER {
                if owns(workload, metric) {
                    assert!(recorded(metric).is_some(), "{name}: {metric} not recorded");
                }
            }
            for m in &ledger.metrics {
                assert!(ledger::unit_of(m.name).is_some(), "{name}: {}", m.name);
            }
        }
    }
}
