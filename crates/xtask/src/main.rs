//! `cargo xtask` — workspace checks.
//!
//! ```text
//! cargo xtask check [--skip LAYER]... [--format human|json] [--lint NAME]...
//!                                       all layers (lints, fmt, clippy,
//!                                       determinism)
//! cargo xtask lint [PATH]... [--format human|json] [--lint NAME]...
//!                                       custom source lints only; with no
//!                                       PATH, lints the whole workspace
//! cargo xtask bench [--domains N] [--repeat R] [--out PATH]
//!                                       graph-kernel and corpus-generation
//!                                       micro-benches; writes
//!                                       target/microbench.json by default
//!                                       and gates throughput against the
//!                                       latest committed BENCH_<n>.json
//! ```
//!
//! `--lint NAME` restricts the custom-lint layer to the named lints
//! (repeatable; names as in `lint:allow(<name>)`). `--format json`
//! emits one machine-readable JSON document on stdout instead of the
//! human report. Exit code 0 when every executed layer passes; 1
//! otherwise. Layer names for `--skip`: `lints`, `fmt`, `clippy`,
//! `determinism`.

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::lints::{json_escape, Diagnostic, Lint};
use xtask::{audit, lints, tools, walk};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(true)
        }
        Some(other) => Err(format!("unknown task '{other}' (try --help)")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        "cargo xtask — workspace checks\n\n\
         USAGE:\n\
         \x20 cargo xtask check [--skip lints|fmt|clippy|determinism]...\n\
         \x20                   [--format human|json] [--lint NAME]...\n\
         \x20 cargo xtask lint [PATH]... [--format human|json] [--lint NAME]...\n\
         \x20 cargo xtask bench [--domains N] [--repeat R] [--out PATH]"
    );
}

const LAYERS: &[&str] = &["lints", "fmt", "clippy", "determinism"];

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Human,
    Json,
}

/// Options shared by `check` and `lint`: output format, lint-name
/// filter, and (for `check`) skipped layers, plus any positional paths.
struct Opts {
    format: Format,
    only: Vec<Lint>,
    skip: Vec<String>,
    paths: Vec<PathBuf>,
}

fn parse_opts(args: &[String], allow_skip: bool, allow_paths: bool) -> Result<Opts, String> {
    let mut opts = Opts {
        format: Format::Human,
        only: Vec::new(),
        skip: Vec::new(),
        paths: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let value = it.next().ok_or("--format needs 'human' or 'json'")?;
                opts.format = match value.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format '{other}'")),
                };
            }
            "--lint" => {
                let name = it.next().ok_or("--lint needs a lint name")?;
                let lint = Lint::from_name(name)
                    .ok_or_else(|| format!("unknown lint '{name}' (names: {})", lint_names()))?;
                opts.only.push(lint);
            }
            "--skip" if allow_skip => {
                let layer = it.next().ok_or("--skip needs a layer name")?;
                if !LAYERS.contains(&layer.as_str()) {
                    return Err(format!("unknown layer '{layer}' (layers: {LAYERS:?})"));
                }
                opts.skip.push(layer.clone());
            }
            other if allow_paths && !other.starts_with('-') => {
                opts.paths.push(PathBuf::from(other));
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

fn lint_names() -> String {
    let names: Vec<&str> = [
        Lint::NoPanic,
        Lint::HashIter,
        Lint::FloatEq,
        Lint::SafetyComment,
        Lint::NoRawEprintln,
        Lint::Nondet,
        Lint::ObsName,
        Lint::LockOrder,
    ]
    .iter()
    .map(|l| l.name())
    .collect();
    names.join(", ")
}

/// One layer's outcome for the JSON report.
struct LayerReport {
    name: &'static str,
    status: &'static str,
    detail: String,
}

fn cmd_check(args: &[String]) -> Result<bool, String> {
    let opts = parse_opts(args, true, false)?;
    let json = opts.format == Format::Json;
    let run = |layer: &str| !opts.skip.iter().any(|s| s == layer);
    let root = walk::workspace_root()?;
    let mut ok = true;
    let mut layers: Vec<LayerReport> = Vec::new();
    let mut findings: Vec<Diagnostic> = Vec::new();

    if run("lints") {
        let mut diags = workspace_findings()?;
        if !opts.only.is_empty() {
            diags.retain(|d| opts.only.contains(&d.lint));
        }
        let status = if diags.is_empty() { "ok" } else { "failed" };
        if !json {
            for diag in &diags {
                println!("{diag}");
            }
            if diags.is_empty() {
                println!("lints: ok");
            } else {
                println!("lints: {} finding(s)", diags.len());
            }
        }
        ok &= diags.is_empty();
        layers.push(LayerReport {
            name: "lints",
            status,
            detail: format!("{} finding(s)", diags.len()),
        });
        findings = diags;
    } else {
        layers.push(skipped("lints"));
    }

    for (layer, outcome) in [
        ("fmt", run("fmt").then(|| tools::fmt_check(&root))),
        ("clippy", run("clippy").then(|| tools::clippy_check(&root))),
    ] {
        match outcome {
            Some(out) => {
                let (passed, report) = tool_report(layer, out, json);
                ok &= passed;
                layers.push(report);
            }
            None => layers.push(skipped(layer)),
        }
    }

    if run("determinism") {
        if !json {
            println!("determinism: running the table harness serial vs 4-worker (seeded)...");
        }
        match audit::run(&root) {
            Ok(report) => {
                let outputs: Vec<String> = report
                    .outputs
                    .iter()
                    .map(|(mode, bytes)| format!("{mode} {bytes}"))
                    .collect();
                let detail = format!(
                    "bytes byte-identical: {}; {} bytes of deterministic trace view; \
                     every trace view matches its golden digest",
                    outputs.join(", "),
                    report.trace_bytes
                );
                if !json {
                    println!("determinism: ok ({detail})");
                }
                layers.push(LayerReport {
                    name: "determinism",
                    status: "ok",
                    detail,
                });
            }
            Err(message) => {
                if !json {
                    println!("determinism: FAILED\n  {message}");
                }
                ok = false;
                layers.push(LayerReport {
                    name: "determinism",
                    status: "failed",
                    detail: message,
                });
            }
        }
    } else {
        layers.push(skipped("determinism"));
    }

    if json {
        println!("{}", json_report(ok, &layers, &findings));
    } else {
        println!("\nxtask check: {}", if ok { "ok" } else { "FAILED" });
    }
    Ok(ok)
}

/// `cargo xtask bench`: builds and runs the `microbench` binary,
/// recording kernel wall clocks and throughput in
/// [`xtask::bench_gate::DEFAULT_OUT`] (`--out` overrides; `--domains` /
/// `--repeat` pass through to the binary), then gates the fresh numbers
/// against the latest committed `BENCH_<n>.json` — any shared bench name
/// whose throughput drops by more than 25% fails the task.
fn cmd_bench(args: &[String]) -> Result<bool, String> {
    let mut out = xtask::bench_gate::DEFAULT_OUT.to_string();
    let mut passthrough: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = it.next().ok_or("--out needs a path")?.clone();
            }
            "--domains" | "--repeat" => {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                passthrough.push(arg.clone());
                passthrough.push(value.clone());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let root = walk::workspace_root()?;
    if let Some(dir) = root.join(&out).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    println!("bench: running micro-benchmarks (results -> {out})...");
    let status = std::process::Command::new(cargo)
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "pharmaverify-bench",
            "--bin",
            "microbench",
            "--",
            "--out",
        ])
        .arg(&out)
        .args(&passthrough)
        .current_dir(&root)
        .status()
        .map_err(|e| format!("cannot spawn microbench: {e}"))?;
    if !status.success() {
        return Err(format!("microbench exited with {status}"));
    }
    let written = root.join(&out);
    if !written.exists() {
        return Err(format!(
            "microbench wrote no report at {}",
            written.display()
        ));
    }
    match xtask::bench_gate::gate(&root, &written) {
        Ok(detail) => println!("bench gate: ok ({detail})"),
        Err(message) => {
            println!("bench gate: FAILED\n  {message}");
            return Ok(false);
        }
    }
    println!("bench: ok ({})", written.display());
    Ok(true)
}

fn cmd_lint(args: &[String]) -> Result<bool, String> {
    let opts = parse_opts(args, false, true)?;
    let mut diags = if opts.paths.is_empty() {
        workspace_findings()?
    } else {
        // Explicit paths bypass the workspace walker (and its
        // fixture/test exclusions) so the violation fixtures can be
        // linted directly.
        let mut files = Vec::new();
        for path in &opts.paths {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            files.push((path.clone(), source));
        }
        lints::lint_workspace(&files, None)
    };
    if !opts.only.is_empty() {
        diags.retain(|d| opts.only.contains(&d.lint));
    }
    let ok = diags.is_empty();
    if opts.format == Format::Json {
        let layers = [LayerReport {
            name: "lints",
            status: if ok { "ok" } else { "failed" },
            detail: format!("{} finding(s)", diags.len()),
        }];
        println!("{}", json_report(ok, &layers, &diags));
    } else {
        for diag in &diags {
            println!("{diag}");
        }
        if ok {
            println!("lints: ok");
        } else {
            println!("lints: {} finding(s)", diags.len());
        }
    }
    Ok(ok)
}

/// Reads every lintable workspace source plus the trace contract test
/// and runs the full workspace analysis.
fn workspace_findings() -> Result<Vec<Diagnostic>, String> {
    let root = walk::workspace_root()?;
    let paths = walk::lintable_sources(&root).map_err(|e| format!("cannot walk sources: {e}"))?;
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push((path, source));
    }
    let trace_path = root.join("crates/bench/tests/trace.rs");
    let trace_source = std::fs::read_to_string(&trace_path).ok();
    let trace = trace_source
        .as_deref()
        .map(|source| (trace_path.as_path(), source));
    Ok(lints::lint_workspace(&files, trace))
}

fn skipped(name: &'static str) -> LayerReport {
    LayerReport {
        name,
        status: "skipped",
        detail: String::new(),
    }
}

fn tool_report(name: &'static str, outcome: tools::ToolOutcome, json: bool) -> (bool, LayerReport) {
    match outcome {
        tools::ToolOutcome::Passed => {
            if !json {
                println!("cargo {name}: ok");
            }
            (
                true,
                LayerReport {
                    name,
                    status: "ok",
                    detail: String::new(),
                },
            )
        }
        tools::ToolOutcome::Unavailable => {
            if !json {
                println!("cargo {name}: skipped (component not installed)");
            }
            (
                true,
                LayerReport {
                    name,
                    status: "unavailable",
                    detail: String::new(),
                },
            )
        }
        tools::ToolOutcome::Failed(output) => {
            if !json {
                println!("cargo {name}: FAILED");
                for line in output.lines().take(40) {
                    println!("  {line}");
                }
            }
            let detail: String = output.lines().take(10).collect::<Vec<_>>().join("\n");
            (
                false,
                LayerReport {
                    name,
                    status: "failed",
                    detail,
                },
            )
        }
    }
}

/// Renders the whole check as one JSON document.
fn json_report(ok: bool, layers: &[LayerReport], findings: &[Diagnostic]) -> String {
    let layer_objs: Vec<String> = layers
        .iter()
        .map(|l| {
            format!(
                "{{\"layer\":\"{}\",\"status\":\"{}\",\"detail\":\"{}\"}}",
                l.name,
                l.status,
                json_escape(&l.detail)
            )
        })
        .collect();
    let finding_objs: Vec<String> = findings.iter().map(Diagnostic::to_json).collect();
    format!(
        "{{\"ok\":{ok},\"layers\":[{}],\"findings\":[{}]}}",
        layer_objs.join(","),
        finding_objs.join(",")
    )
}
