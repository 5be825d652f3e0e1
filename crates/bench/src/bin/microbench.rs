//! Micro-benchmarks of the graph substrate: sharded corpus generation,
//! CSR freeze, and the three power-iteration kernels on the frozen CSR
//! graph, plus the overlay re-rank and federation tier pairs with their
//! same-run ratios, the text preparation of crawled sites, and the
//! N-Gram-Graph document build, class-graph build and featurization.
//!
//! ```text
//! microbench [--domains N] [--repeat R] [--out PATH]
//! ```
//!
//! Every benchmark runs `R` times (default 3) and reports the *minimum*
//! wall clock — the least-noisy estimate on a shared machine. Results go
//! to stderr as they complete; `--out PATH` additionally writes one JSON
//! document (schema `pharmaverify-microbench-v1`) with per-bench
//! wall-clock seconds and items-per-second throughput. `cargo xtask
//! bench` drives this binary, writes the report under `target/`, and
//! gates it against the newest committed `BENCH_<n>.json`.
//!
//! The workload is the web-tier generator at `--domains N` (default
//! 50000) under the reproduction seed, so the numbers describe the same
//! graph shape the `--scale web` report ranks.

use pharmaverify_core::classify::{ngg_document_texts, subsampled_documents};
use pharmaverify_core::verifier::ngg_fast_input;
use pharmaverify_core::{extract_corpus, TextLearnerKind, TrainedVerifier};
use pharmaverify_corpus::{
    CorpusConfig, DomainRecord, ShardedWebGenerator, SyntheticWeb, WebScaleConfig,
};
use pharmaverify_crawl::{summarize_crawl, CrawlConfig, CrawlResult, Crawler, Url};
use pharmaverify_net::{
    CsrGraph, GraphBuilder, IncrementalConfig, NodeId, SpliceOverlay, TrustRankConfig,
    TrustTrajectory,
};
use pharmaverify_ngg::{NGramGraphBuilder, NggClassGraphs};
use pharmaverify_text::preprocess;
use std::time::Instant;

/// The reproduction's master seed (`bench::context::REPRO_SEED`).
const SEED: u64 = 20180326;

/// One benchmark's outcome.
struct BenchResult {
    /// Stable bench name, `area/what` style.
    name: &'static str,
    /// Work items processed per run (see `unit`).
    items: usize,
    /// What `items` counts: `domains`, `edges`, `edge-traversals`,
    /// `splices`, `requests`, `bytes`, `documents` or `chars`; `ratio`
    /// for a same-run ratio row.
    unit: &'static str,
    /// Minimum wall clock over the repeat runs, in seconds; for a ratio
    /// row, the two compared rows' wall clocks summed.
    wall_secs: f64,
    /// Items per second; for a ratio row, the ratio.
    throughput: f64,
}

impl BenchResult {
    /// A same-run ratio row: `numerator`'s throughput over
    /// `denominator`'s, both per item of one kind. Machine speed cancels
    /// out of it, so it gates a relative cost that the absolute rows'
    /// hardware noise hides.
    fn ratio(name: &'static str, numerator: &BenchResult, denominator: &BenchResult) -> Self {
        let out = BenchResult {
            name,
            items: 1,
            unit: "ratio",
            wall_secs: numerator.wall_secs + denominator.wall_secs,
            throughput: numerator.throughput / denominator.throughput.max(f64::EPSILON),
        };
        eprintln!(
            "[microbench] {:<24} {:>25.4} ratio",
            out.name, out.throughput
        );
        out
    }
}

/// Times `f` over `repeat` runs and keeps the fastest.
fn bench<T>(
    name: &'static str,
    items: usize,
    unit: &'static str,
    repeat: usize,
    mut f: impl FnMut() -> T,
) -> BenchResult {
    let mut best = f64::INFINITY;
    for _ in 0..repeat {
        let started = Instant::now();
        let result = f();
        best = best.min(started.elapsed().as_secs_f64());
        drop(result);
    }
    let out = BenchResult {
        name,
        items,
        unit,
        wall_secs: best,
        throughput: items as f64 / best.max(f64::EPSILON),
    };
    eprintln!(
        "[microbench] {:<24} {:>9.4}s  {:>14.0} {}/s",
        out.name, out.wall_secs, out.throughput, out.unit
    );
    out
}

/// Generates the full web-tier record stream once, for the graph-build
/// benches to consume without re-timing generation.
fn generate_records(config: WebScaleConfig) -> Vec<DomainRecord> {
    ShardedWebGenerator::new(config).flatten().collect()
}

/// Builds the mutable CSR builder from pre-generated records.
fn fill_builder(records: &[DomainRecord]) -> GraphBuilder {
    let mut builder = GraphBuilder::new();
    for record in records {
        let node = if record.is_pharmacy {
            builder.add_pharmacy(&record.domain)
        } else {
            builder.add_external(&record.domain)
        };
        for (target, weight) in &record.links {
            builder.add_link(node, target, *weight);
        }
    }
    builder
}

/// Resolves the generator's trusted-seed prefix against the frozen graph.
fn resolve_seeds(config: WebScaleConfig, graph: &CsrGraph) -> Vec<NodeId> {
    ShardedWebGenerator::new(config)
        .trusted_domains()
        .iter()
        .filter_map(|d| graph.node(d))
        .collect()
}

/// The value following `flag`, or a uniform "missing value" error on
/// exit code 2 — same convention as the `repro` binary.
fn require_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("missing value for '{flag}'");
        std::process::exit(2);
    })
}

fn render_json(domains: usize, repeat: usize, results: &[BenchResult]) -> String {
    let benches: Vec<String> = results
        .iter()
        .map(|r| {
            // A ratio near 1 needs more than one decimal to gate at 25%.
            let decimals = if r.unit == "ratio" { 4 } else { 1 };
            format!(
                "    {{\"name\": \"{}\", \"items\": {}, \"unit\": \"{}\", \
                 \"wall_secs\": {:.6}, \"throughput_per_sec\": {:.*}}}",
                r.name, r.items, r.unit, r.wall_secs, decimals, r.throughput
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"pharmaverify-microbench-v1\",\n  \"seed\": {SEED},\n  \
         \"domains\": {domains},\n  \"repeat\": {repeat},\n  \"benches\": [\n{}\n  ]\n}}\n",
        benches.join(",\n")
    )
}

fn main() {
    let mut domains = 50_000usize;
    let mut repeat = 3usize;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--domains" => {
                let value = require_value(&mut args, "--domains");
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => domains = n,
                    _ => {
                        eprintln!("--domains expects a positive domain count, got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--repeat" => {
                let value = require_value(&mut args, "--repeat");
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => repeat = n,
                    _ => {
                        eprintln!("--repeat expects a positive run count, got '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => {
                out_path = Some(require_value(&mut args, "--out"));
            }
            "--help" | "-h" => {
                println!("microbench [--domains N] [--repeat R] [--out PATH]");
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    let config = WebScaleConfig::new(domains, SEED);
    eprintln!("[microbench] {domains} domains, seed {SEED}, best of {repeat} run(s)");
    let mut results = Vec::new();

    results.push(bench(
        "corpus/shard_generate",
        domains,
        "domains",
        repeat,
        || generate_records(config),
    ));

    let records = generate_records(config);
    let raw_edges = fill_builder(&records).raw_edge_count();
    results.push(bench("csr/freeze", raw_edges, "edges", repeat, || {
        fill_builder(&records).freeze()
    }));

    let graph = fill_builder(&records).freeze();
    let seeds = resolve_seeds(config, &graph);
    let rank_config = TrustRankConfig::default();
    let traversals = graph.edge_count() * rank_config.iterations;
    eprintln!(
        "[microbench] graph: {} nodes, {} merged edges, {} seeds, {} iterations",
        graph.node_count(),
        graph.edge_count(),
        seeds.len(),
        rank_config.iterations
    );

    results.push(bench(
        "csr/trust_rank",
        traversals,
        "edge-traversals",
        repeat,
        || graph.trust_rank(&seeds, &rank_config),
    ));
    results.push(bench(
        "csr/pagerank",
        traversals,
        "edge-traversals",
        repeat,
        || graph.pagerank(&rank_config),
    ));
    results.push(bench(
        "csr/anti_trust_rank",
        traversals,
        "edge-traversals",
        repeat,
        || graph.anti_trust_rank(&seeds, &rank_config),
    ));

    // Online-serving pair: re-rank after splicing one pharmacy over the
    // frozen graph, full power iteration vs. the incremental replay of
    // a recorded trajectory (DESIGN.md §12), in exact mode as serving
    // runs it. Items count splices, so the throughputs compare directly
    // as per-splice serving cost.
    let trajectory = TrustTrajectory::compute(&graph, &seeds, &rank_config);
    let inc_config = IncrementalConfig {
        tolerance: 0.0,
        max_frontier: graph.node_count() / 2,
    };
    // A preexisting peripheral domain gaining a few links — the
    // small-churn shape the incremental path is built for. (Splicing a
    // trusted-seed hub instead would legitimately perturb most of the
    // graph and trip the frontier fallback.)
    let splice_domain = pharmaverify_corpus::domain_name(domains - 3);
    let splice_links: Vec<(String, f64)> = [1usize, 2, 3]
        .iter()
        .map(|&i| (pharmaverify_corpus::domain_name(i), 1.0))
        .collect();
    let full_rerank = bench("overlay/full_rerank", 1, "splices", repeat, || {
        let mut overlay = SpliceOverlay::new(&graph);
        overlay.splice_pharmacy(&splice_domain, &splice_links);
        overlay.trust_rank(&seeds, &rank_config)
    });
    let incremental_rerank = || {
        let mut overlay = SpliceOverlay::new(&graph);
        overlay.splice_pharmacy(&splice_domain, &splice_links);
        overlay.trust_rank_incremental(&trajectory, &inc_config)
    };
    let replay = incremental_rerank();
    eprintln!(
        "[microbench] overlay/incremental_rerank: peak frontier {}, {:?}",
        replay.peak_frontier, replay.outcome
    );
    let incremental = bench(
        "overlay/incremental_rerank",
        1,
        "splices",
        repeat,
        incremental_rerank,
    );
    let ratio = BenchResult::ratio("overlay/incremental_vs_full", &incremental, &full_rerank);
    results.extend([full_rerank, incremental, ratio]);

    // Federation pair: per-request cost of the two verdict-producing
    // tiers on the same small synthetic web — the text-only fast path
    // vs the full graph-spliced slow path (DESIGN.md §14). Items count
    // routed requests, so the throughputs compare directly as
    // per-request serving cost.
    let web = SyntheticWeb::generate(&CorpusConfig::small(), SEED);
    // lint:allow(no-panic): generator-produced snapshots extract by
    // construction; a failure here is a generator bug.
    #[allow(clippy::expect_used)]
    let small_corpus =
        extract_corpus(web.snapshot(), &CrawlConfig::default()).expect("synthetic corpus extracts");
    let verifier = TrainedVerifier::fit(
        &small_corpus,
        TextLearnerKind::Nbm,
        CrawlConfig::default(),
        Some(250),
        SEED,
    );
    let snap2 = web.snapshot2();
    let requests = snap2.sites.len();
    let fast = bench(
        "federation/route/fast",
        requests,
        "requests",
        repeat,
        || {
            for site in &snap2.sites {
                let _ = verifier.verify_text_only(&snap2.web, &site.seed_url);
            }
        },
    );
    let slow = bench(
        "federation/route/slow",
        requests,
        "requests",
        repeat,
        || {
            for site in &snap2.sites {
                let _ = verifier.verify(&snap2.web, &site.seed_url);
            }
        },
    );
    let ratio = BenchResult::ratio("federation/route/fast_vs_slow", &fast, &slow);
    results.extend([fast, slow, ratio]);

    // Text preparation: the summary and preprocessing (tokenize,
    // lowercase, drop stop words) both verifying tiers run on a crawl,
    // over the snapshot-2 sites' crawls, made outside the timed loop.
    // Items count summary bytes, so the unit counts input.
    let crawler = Crawler::new(CrawlConfig::default());
    let crawls: Vec<CrawlResult> = snap2
        .sites
        .iter()
        .filter_map(|site| Url::parse(&site.seed_url).ok())
        .map(|url| crawler.crawl(&snap2.web, &url))
        .collect();
    let summary_bytes = crawls
        .iter()
        .map(|crawl| summarize_crawl(crawl).text.len())
        .sum();
    results.push(bench(
        "text/prepare",
        summary_bytes,
        "bytes",
        repeat,
        || {
            crawls
                .iter()
                .map(|crawl| preprocess(&summarize_crawl(crawl).text).len())
                .sum::<usize>()
        },
    ));

    // N-Gram-Graph pair: the fit's class-graph build over the same
    // subsampled training texts (items: documents merged, a seeded half
    // of each class), and the fast path's featurization of the
    // snapshot-2 sites' NGG inputs against the fitted class graphs
    // (items: documents).
    let texts = ngg_document_texts(&subsampled_documents(&small_corpus, Some(250), SEED));
    let class_texts = |legit: bool| -> Vec<&str> {
        texts
            .iter()
            .zip(&small_corpus.labels)
            .filter(|&(_, &label)| label == legit)
            .map(|(t, _)| t.as_str())
            .collect()
    };
    let (legit, illegit) = (class_texts(true), class_texts(false));
    let merged = [&legit, &illegit]
        .iter()
        .map(|class| (class.len() / 2).max(1).min(class.len()))
        .sum();
    results.push(bench(
        "ngg/class_graphs",
        merged,
        "documents",
        repeat,
        || NggClassGraphs::build(NGramGraphBuilder::default(), &legit, &illegit, SEED),
    ));
    // lint:allow(no-panic): generator-produced snapshots extract by
    // construction; a failure here is a generator bug.
    #[allow(clippy::expect_used)]
    let fast_inputs: Vec<String> = extract_corpus(snap2, &CrawlConfig::default())
        .expect("synthetic corpus extracts")
        .tokens
        .iter()
        .map(|tokens| ngg_fast_input(tokens))
        .collect();
    // The fast path's document graphs alone (items: chars of input).
    let chars = fast_inputs.iter().map(|input| input.chars().count()).sum();
    results.push(bench("ngg/build", chars, "chars", repeat, || {
        let builder = NGramGraphBuilder::default();
        fast_inputs
            .iter()
            .map(|input| builder.build(input).edge_count())
            .sum::<usize>()
    }));
    let class_graphs = verifier.ngg_class_graphs();
    results.push(bench(
        "ngg/features",
        fast_inputs.len(),
        "documents",
        repeat,
        || {
            fast_inputs
                .iter()
                .map(|input| class_graphs.features(input).text_rank())
                .sum::<f64>()
        },
    ));

    let json = render_json(domains, repeat, &results);
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("[microbench] failed to write '{path}': {e}");
                std::process::exit(1);
            }
            eprintln!("[microbench] results written to {path}");
        }
        None => print!("{json}"),
    }
}
