//! Black-box tests of the observability trace contract, driving the
//! `repro` binary as a subprocess so every run gets a fresh process-wide
//! registry.
//!
//! The contract under test: `--trace` writes a canonical JSON document
//! whose *deterministic view* is byte-identical between a serial and a
//! 4-worker run of the same seed, the span tree nests the pipeline
//! stages under the sections that drive them, and a fault-injected run
//! changes the recorded metrics without perturbing the fault-free
//! stdout prefix.

use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pharmaverify-trace-test-{}-{name}",
        std::process::id()
    ))
}

/// Runs `repro --scale small --table 1 --table 15 [extra…]` with `jobs`
/// workers and a `--trace` file, returning `(stdout, trace)`. The small
/// two-table selection keeps each subprocess run in the seconds range
/// while still exercising the corpus, crawl, pipeline, and ranking
/// layers.
fn run_repro(jobs: &str, name: &str, extra: &[&str]) -> (String, String) {
    let trace = temp_path(name);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(["--scale", "small", "--table", "1", "--table", "15"])
        .args(extra)
        .arg("--trace")
        .arg(&trace)
        .env("PHARMAVERIFY_JOBS", jobs)
        .env_remove("PHARMAVERIFY_TRACE")
        .env_remove("PHARMAVERIFY_SCALE");
    let Output {
        status,
        stdout,
        stderr,
    } = cmd.output().expect("repro runs");
    assert!(
        status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&stderr)
    );
    let rendered = std::fs::read_to_string(&trace).expect("trace file written");
    let _ = std::fs::remove_file(&trace);
    (String::from_utf8(stdout).expect("utf-8 stdout"), rendered)
}

/// Extracts the `"deterministic"` object of a rendered trace, exactly as
/// the obs renderer would (string-aware brace matching).
fn deterministic_view(trace: &str) -> &str {
    let key = "\"deterministic\":";
    let start = trace.find(key).expect("trace has a deterministic section") + key.len();
    let open = start + trace[start..].find('{').expect("object follows the key");
    let bytes = trace.as_bytes();
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, &b) in bytes[open..].iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return &trace[open..=open + i];
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced deterministic section");
}

/// The integer value of `"name": N` inside a deterministic view.
fn counter_value(view: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = view
        .find(&key)
        .unwrap_or_else(|| panic!("counter {name} missing from trace"));
    view[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer counter value")
}

#[test]
fn deterministic_trace_view_is_identical_across_worker_counts() {
    let (stdout_serial, trace_serial) = run_repro("1", "serial.json", &[]);
    let (stdout_parallel, trace_parallel) = run_repro("4", "parallel.json", &[]);

    assert_eq!(
        stdout_serial, stdout_parallel,
        "report output must not depend on worker count"
    );
    let view_serial = deterministic_view(&trace_serial);
    let view_parallel = deterministic_view(&trace_parallel);
    assert_eq!(
        view_serial, view_parallel,
        "deterministic trace views must be byte-identical across worker counts"
    );
    // The full traces still differ: wall-clock durations live (only) in
    // the non-deterministic section.
    assert_ne!(
        trace_serial, trace_parallel,
        "raw durations should make full traces differ run to run"
    );
    assert!(
        !view_serial.contains("total_micros"),
        "durations leaked into the deterministic view"
    );
    assert!(trace_serial.contains("\"nondeterministic\""));
}

#[test]
fn span_tree_nests_sections_and_stages() {
    let (_, trace) = run_repro("4", "spans.json", &[]);
    let view = deterministic_view(&trace);

    // Hierarchy: report → section → the selected sections, by name.
    let report_at = view.find("\"report\"").expect("report span");
    let section_at = view[report_at..]
        .find("\"section\"")
        .expect("section child")
        + report_at;
    assert!(
        view[section_at..].contains("\"table 1 (datasets)\""),
        "table 1 span must nest under report/section"
    );
    assert!(view[section_at..].contains("\"table 15 (ranking) + outliers\""));

    // Pipeline stages and crawl sites record under their own subtrees,
    // with counts matching the cache-miss counters.
    for stage in ["fold-split", "fitted-tfidf", "ngg-features", "trust-scores"] {
        assert_eq!(
            counter_value(view, &format!("pipeline/cache/{stage}/misses")),
            span_count(view, stage),
            "stage span count must equal the miss count for {stage}"
        );
    }
    assert!(view.contains("\"crawl\""));
    assert!(counter_value(view, "crawl/sites") > 0);
    assert!(counter_value(view, "crawl/pages/fetched") > 0);
}

/// Count of the `pipeline/stage/<name>` span in the rendered view: the
/// `"count": N` immediately after the span's key.
fn span_count(view: &str, stage: &str) -> u64 {
    let stage_key = format!("\"{stage}\": {{");
    let pipeline_at = view.find("\"stage\"").expect("pipeline stage subtree");
    let at = view[pipeline_at..]
        .find(&stage_key)
        .unwrap_or_else(|| panic!("no span for stage {stage}"))
        + pipeline_at;
    let count_key = "\"count\": ";
    let count_at = view[at..].find(count_key).expect("span has a count") + at;
    view[count_at + count_key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer span count")
}

#[test]
fn federation_replay_records_tier_counters_and_route_spans() {
    let (_, trace) = run_repro("2", "federation.json", &["--federation", "48"]);
    let view = deterministic_view(&trace);

    // Every request is counted once and routed under its own span.
    assert_eq!(counter_value(view, "serve/federation/requests"), 48);
    let route_at = view.find("\"route\": {").expect("route span in trace");
    let count_key = "\"count\": ";
    let count_at = view[route_at..].find(count_key).expect("route span count") + route_at;
    let routes: u64 = view[count_at + count_key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer route span count");
    assert_eq!(routes, 48, "one serve/federation/route span per request");

    // Each tier leaves a hit-or-fallthrough trail.
    assert!(counter_value(view, "serve/federation/tier/cache/hit") > 0);
    assert!(counter_value(view, "serve/federation/tier/cache/fallthrough") > 0);
    assert!(counter_value(view, "serve/federation/tier/store/fallthrough") > 0);
    assert!(counter_value(view, "serve/federation/tier/fast/error") > 0);
    assert!(counter_value(view, "serve/federation/tier/slow/hit") > 0);
    // Ladder conservation: tier-2 consultations equal tier-1
    // fallthroughs (every cache miss consults the store).
    assert_eq!(
        counter_value(view, "serve/federation/tier/cache/fallthrough"),
        counter_value(view, "serve/federation/tier/store/hit")
            + counter_value(view, "serve/federation/tier/store/fallthrough"),
    );
}

#[test]
fn fault_injection_adds_metrics_without_perturbing_stdout() {
    let (clean_stdout, clean_trace) = run_repro("4", "clean.json", &[]);
    let (fault_stdout, fault_trace) = run_repro("4", "fault.json", &["--fault-rate", "0.2"]);

    assert!(
        fault_stdout.starts_with(&clean_stdout),
        "fault-injected stdout must extend the fault-free output"
    );

    let clean_view = deterministic_view(&clean_trace);
    let fault_view = deterministic_view(&fault_trace);
    assert_ne!(
        clean_view, fault_view,
        "injected faults must leave a metric trail"
    );
    // The clean run records no transient trouble; the faulted run must.
    assert_eq!(
        counter_value(clean_view, "crawl/fetch/failures/transient"),
        0
    );
    assert_eq!(counter_value(clean_view, "crawl/fetch/retries"), 0);
    assert!(
        counter_value(fault_view, "crawl/fetch/retries") > 0,
        "fault injection at rate 0.2 should force retries"
    );
    assert!(
        counter_value(fault_view, "crawl/backoff/virtual_ms")
            > counter_value(clean_view, "crawl/backoff/virtual_ms"),
        "retries must accumulate virtual backoff"
    );
    // The crawl counter *keys* are identical either way — telemetry
    // publishing touches every key even at zero, so only values move and
    // clean vs faulted traces stay structurally comparable.
    fn crawl_keys(view: &str) -> Vec<&str> {
        view.lines()
            .filter_map(|l| l.trim_start().strip_prefix("\"crawl/")?.split('"').next())
            .collect()
    }
    assert_eq!(
        crawl_keys(clean_view),
        crawl_keys(fault_view),
        "fault injection must not add or remove crawl metric keys"
    );
}

#[test]
fn trace_env_variable_writes_the_same_trace() {
    let trace_flag = temp_path("env-flag.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "small", "--table", "2"])
        .env("PHARMAVERIFY_JOBS", "2")
        .env("PHARMAVERIFY_TRACE", &trace_flag)
        .env_remove("PHARMAVERIFY_SCALE")
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let trace = std::fs::read_to_string(&trace_flag).expect("env-named trace written");
    let _ = std::fs::remove_file(&trace_flag);
    assert!(trace.contains("\"deterministic\""));
    assert!(trace.contains("\"nondeterministic\""));
}
