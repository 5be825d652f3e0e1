//! Determinism audit: the reproduction's headline guarantee is that the
//! whole experiment is a pure function of its seed — independent of
//! thread scheduling. The audit runs the table harness twice at the small
//! scale with the same seed, once single-threaded (`PHARMAVERIFY_JOBS=1`)
//! and once with four workers, and requires the two outputs to be
//! byte-identical — any hash-order leak, time dependence, or
//! thread-scheduling sensitivity shows up as a diff.
//!
//! The same double-run is then repeated with fault injection enabled
//! (`--fault-rate 0.2`): the injected fault universe is derived from the
//! corpus RNG, so a crawl that times out, retries, and trips circuit
//! breakers must still be a pure function of the seed. The faulted
//! output must additionally *start with* the fault-free output — the
//! robustness study is an appended section, never a perturbation of the
//! regular tables.
//!
//! Every run also writes an observability trace (`--trace`), and the
//! audit byte-compares the traces' *deterministic views* (the
//! `"deterministic"` object extracted by
//! [`pharmaverify_obs::deterministic_slice`]) across worker counts: the
//! metric registry and span tree must be as scheduling-independent as
//! the report itself. The fault-injected trace must *differ* from the
//! clean one — injected faults that leave no metric behind would mean
//! the crawl health instrumentation is dead.
//!
//! Finally the double-run is repeated with the serving engine enabled
//! (`--serve-workload 60`), once with `--serve-workers 1` and once with
//! `--serve-workers 4`: the "Serving" report section and the trace's
//! deterministic view (admission, batch, and cache counters; span
//! counts) must be byte-identical across *service* worker counts too —
//! the whole point of the service's determinism contract. The serving
//! section must also be a pure suffix of the fault-free output.
//!
//! The online double-run (`--online-waves 6`, `--serve-workers 1` vs
//! `4`) drives the drift-monitored replay: the workload mix shifts
//! mid-replay, the drift monitor triggers a seeded retrain, and the
//! retrained model is hot-swapped through the registry while requests
//! keep flowing. The "Online" section — drift windows, triggers,
//! retrains, per-model-version verdict tallies — must be byte-identical
//! across service worker counts and a pure suffix of the fault-free
//! output: the swap protocol must not let scheduling touch a single
//! count.
//!
//! The adversarial double-run (`--attack link-farm --attack-strength
//! 0.6`) sweeps a seeded link-farm attack over three strengths and
//! evaluates the spam-mass defense off vs. on at each. The attacked
//! corpora, the TrustRank/Anti-TrustRank kernels, and the CV folds are
//! all pure functions of the seed, so the appended "Adversarial"
//! section must be byte-identical across worker counts and a pure
//! suffix of the fault-free output.
//!
//! The web-tier double-run exercises the web-scale tier (`--scale web
//! --web-domains 70000`): the sharded generator streams seventy thousand
//! domains in nine shards into the CSR builder, and the tiled TrustRank
//! kernel ranks the frozen graph's three destination tiles on 1 vs 4
//! workers, so the parallel run really dispatches several rank blocks.
//! The whole report — paper tables plus the appended "Scale" section —
//! must be byte-identical across worker counts, and must *start with*
//! the plain fault-free output: the scale study is a pure suffix too.
//!
//! The last double-run drives the tiered verdict federation
//! (`--federation 400`, `--serve-workers 1` vs `4`): every request walks
//! the cache → store → text-only → graph-spliced ladder, a mid-replay
//! restart persists and reloads the verdict store, and the appended
//! "Federation" section — per-tier hits and fallthroughs, verdicts by
//! provenance, fast-vs-slow agreement — must be byte-identical across
//! slow-path worker counts and a pure suffix of the fault-free output.
//! At 400 requests some domains repeat within a wave after falling
//! through to the slow path, so the trace views also pin that such a
//! repeat shares its first request's ticket rather than reaching the
//! worker pool a second time.
//! The audit additionally parses the section and requires the majority
//! of requests to have been answered before the slow path: a federation
//! that routes everything to the expensive tier would make the
//! byte-compare vacuous.
//!
//! The six double-runs after the plain one are the rows of one table,
//! `MODES`, and each row makes the same checks in the same order.

use std::path::Path;
use std::process::Command;

/// Outcome of one audit run.
#[derive(Debug)]
pub struct AuditReport {
    /// `(mode, bytes of harness output compared)` per double-run, the
    /// plain run first.
    pub outputs: Vec<(&'static str, usize)>,
    /// Bytes of deterministic trace view compared per plain run.
    pub trace_bytes: usize,
}

/// Arguments of the harness invocation (after `cargo`).
const REPRO_ARGS: &[&str] = &[
    "run",
    "--release",
    "-q",
    "-p",
    "pharmaverify-bench",
    "--bin",
    "repro",
    "--",
    "--scale",
    "small",
];

/// One double-run beyond the plain one. Its serial and parallel
/// outputs and deterministic trace views must match; its output must
/// start with the plain output; its trace must differ from the plain
/// trace; and it must carry its section title and pass its extra check.
struct Mode {
    /// Name in failure messages and the report.
    name: &'static str,
    /// Harness arguments of the serial (`PHARMAVERIFY_JOBS=1`) run.
    serial: &'static [&'static str],
    /// Harness arguments of the 4-worker run.
    parallel: &'static [&'static str],
    /// The appended study, for the pure-suffix failure message.
    study: &'static str,
    /// What left no metric behind when the traces are identical.
    instrumented: &'static str,
    /// Section title the output must contain, if any.
    section: Option<&'static str>,
    /// A check on `(output, plain output)`, with its failure message.
    extra: Option<(fn(&str, &str) -> bool, &'static str)>,
}

/// The audited double-runs, in order. Every row runs with
/// `PHARMAVERIFY_JOBS` 1 vs 4; the serve, online, and federation rows
/// also vary the *service* worker count.
const MODES: &[Mode] = &[
    Mode {
        name: "fault-injected",
        serial: &["--fault-rate", "0.2"],
        parallel: &["--fault-rate", "0.2"],
        study: "robustness study",
        instrumented: "injected faults left no metric behind, the crawl health \
             instrumentation is not recording",
        section: None,
        extra: None,
    },
    Mode {
        name: "serve-workload",
        serial: &["--serve-workload", "60", "--serve-workers", "1"],
        parallel: &["--serve-workload", "60", "--serve-workers", "4"],
        study: "serving study",
        instrumented: "the serving engine left no metric behind, its \
             instrumentation is not recording",
        section: None,
        extra: None,
    },
    // Enough waves that the mix shift closes at least one drifted window
    // and forces a retrain+swap.
    Mode {
        name: "online",
        serial: &["--online-waves", "6", "--serve-workers", "1"],
        parallel: &["--online-waves", "6", "--serve-workers", "4"],
        study: "online study",
        instrumented: "the drift monitor and model registry left no metric \
             behind, their instrumentation is not recording",
        section: Some("Online: drift-triggered retrain"),
        // Hot-swap smoke: a drift monitor that never fires would make
        // the byte-compare vacuous.
        extra: Some((
            |output, _| swap_happened(output),
            "online run never hot-swapped a model: the drift monitor did not \
             trigger a retrain over the audited workload",
        )),
    },
    // A mid-strength link farm: enough to exercise the defended
    // evaluation without dominating the audit's runtime.
    Mode {
        name: "adversarial",
        serial: &["--attack", "link-farm", "--attack-strength", "0.6"],
        parallel: &["--attack", "link-farm", "--attack-strength", "0.6"],
        study: "attack study",
        instrumented: "the attack generators and defended evaluation left no \
             metric behind, their instrumentation is not recording",
        section: Some("Adversarial: "),
        extra: None,
    },
    // Big enough to span several shards (default shard size 8192) and
    // three rank tiles (32,768 nodes each), so the 4-worker run
    // dispatches blocks in parallel; small enough to keep the audit
    // quick.
    Mode {
        name: "web-tier",
        serial: &["--scale", "web", "--web-domains", "70000"],
        parallel: &["--scale", "web", "--web-domains", "70000"],
        study: "scale study",
        instrumented: "the scale build and rank phases left no metric behind, \
             their instrumentation is not recording",
        section: None,
        extra: Some((
            |output, plain| output.len() > plain.len(),
            "web-tier output appended no scale section: the `--scale web` \
             run printed nothing beyond the plain small report",
        )),
    },
    // Enough requests that several same-wave repeats reach the slow path
    // (eight at this seed, against one at 60), where they share one
    // ticket instead of racing the worker that verifies the first.
    Mode {
        name: "federation",
        serial: &["--federation", "400", "--serve-workers", "1"],
        parallel: &["--federation", "400", "--serve-workers", "4"],
        study: "federation study",
        instrumented: "the tier router left no metric behind, its \
             instrumentation is not recording",
        section: Some("Federation: tiered verdict replay"),
        extra: Some((
            |output, _| federation_majority_cheap(output),
            "federation run routed most requests to the graph-spliced slow \
             path: the cheaper tiers (cache, store, text-only) must answer \
             the majority over the audited workload",
        )),
    },
];

/// Runs the table harness serially and with four workers — first plain,
/// then once per [`MODES`] entry — and compares outputs byte-for-byte.
pub fn run(workspace_root: &Path) -> Result<AuditReport, String> {
    let (plain, plain_trace) = run_harness(workspace_root, "1", &[])?;
    let (parallel, parallel_trace) = run_harness(workspace_root, "4", &[])?;
    compare(&plain, &parallel, "fault-free")?;
    let det = compare_trace_views(&plain_trace, &parallel_trace, "fault-free")?;
    let plain_text = String::from_utf8_lossy(&plain);
    let mut outputs = vec![("plain", plain.len())];
    for mode in MODES {
        let (serial, serial_trace) = run_harness(workspace_root, "1", mode.serial)?;
        let (parallel, parallel_trace) = run_harness(workspace_root, "4", mode.parallel)?;
        compare(&serial, &parallel, mode.name)?;
        let mode_det = compare_trace_views(&serial_trace, &parallel_trace, mode.name)?;
        if !serial.starts_with(&plain) {
            return Err(format!(
                "{} output does not start with the plain output: the {} must \
                 be a pure suffix",
                mode.name, mode.study
            ));
        }
        if mode_det == det {
            return Err(format!(
                "{} trace is identical to the plain trace: {}",
                mode.name, mode.instrumented
            ));
        }
        let text = String::from_utf8_lossy(&serial);
        if let Some(title) = mode.section {
            if !text.contains(title) {
                return Err(format!("{} run printed no {title:?} section", mode.name));
            }
        }
        if let Some((check, message)) = mode.extra {
            if !check(&text, &plain_text) {
                return Err(message.to_string());
            }
        }
        outputs.push((mode.name, serial.len()));
    }
    Ok(AuditReport {
        outputs,
        trace_bytes: det.len(),
    })
}

/// True when the rendered "Federation" section shows a strict majority
/// of requests answered before the slow path.
fn federation_majority_cheap(report: &str) -> bool {
    let row = |label: &str| {
        report.lines().find_map(|line| {
            let mut cells = line.split('|').map(str::trim).filter(|c| !c.is_empty());
            if cells.next() != Some(label) {
                return None;
            }
            cells.next()?.parse::<u64>().ok()
        })
    };
    match (row("requests"), row("answered before slow path")) {
        (Some(requests), Some(cheap)) => cheap * 2 > requests,
        _ => false,
    }
}

/// True when the rendered "Online" section records a nonzero model
/// version — i.e. at least one drift-triggered retrain was swapped in.
fn swap_happened(report: &str) -> bool {
    report.lines().any(|line| {
        let mut cells = line.split('|').map(str::trim).filter(|c| !c.is_empty());
        cells.next() == Some("final model version")
            && cells
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .is_some_and(|v| v > 0)
    })
}

/// Byte-compares the deterministic views of two rendered traces and
/// returns the (shared) view.
fn compare_trace_views(serial: &str, parallel: &str, mode: &str) -> Result<String, String> {
    let a = pharmaverify_obs::deterministic_slice(serial)
        .ok_or_else(|| format!("{mode} serial trace has no deterministic section"))?;
    let b = pharmaverify_obs::deterministic_slice(parallel)
        .ok_or_else(|| format!("{mode} 4-worker trace has no deterministic section"))?;
    compare(
        a.as_bytes(),
        b.as_bytes(),
        &format!("{mode} trace (deterministic view)"),
    )?;
    Ok(a.to_string())
}

fn compare(serial: &[u8], parallel: &[u8], mode: &str) -> Result<(), String> {
    if serial == parallel {
        return Ok(());
    }
    let at = serial
        .iter()
        .zip(parallel)
        .position(|(a, b)| a != b)
        .unwrap_or(serial.len().min(parallel.len()));
    let context =
        String::from_utf8_lossy(&serial[at.saturating_sub(40)..serial.len().min(at + 40)])
            .into_owned();
    Err(format!(
        "{mode} harness output differs between serial and 4-worker runs of the \
         same seed (lengths {} vs {}, first divergence at byte {at}, near {context:?})",
        serial.len(),
        parallel.len(),
    ))
}

/// Runs the harness once, returning `(stdout, rendered trace)`.
fn run_harness(
    workspace_root: &Path,
    jobs: &str,
    extra_args: &[&str],
) -> Result<(Vec<u8>, String), String> {
    // lint:allow(nondet): xtask is tooling; honoring cargo's own CARGO env is the documented protocol.
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let trace_path = std::env::temp_dir().join(format!(
        "pharmaverify-audit-{}-j{jobs}-f{}.trace.json",
        std::process::id(),
        extra_args.len()
    ));
    let output = Command::new(cargo)
        .args(REPRO_ARGS)
        .args(extra_args)
        .args([std::ffi::OsStr::new("--trace"), trace_path.as_os_str()])
        .current_dir(workspace_root)
        .env("PHARMAVERIFY_SCALE", "small")
        .env("PHARMAVERIFY_JOBS", jobs)
        .output()
        .map_err(|e| format!("cannot spawn harness: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "harness exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let trace = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("harness wrote no trace at {}: {e}", trace_path.display()))?;
    let _ = std::fs::remove_file(&trace_path);
    Ok((output.stdout, trace))
}
