//! Micro-benchmark regression gate for `cargo xtask bench`.
//!
//! The workspace keeps a trajectory of micro-benchmark reports
//! (`BENCH_<n>.json` at the workspace root). After a fresh run the gate
//! compares the new report against the *latest* committed baseline and
//! fails on any shared bench name whose throughput dropped by more than
//! [`TOLERANCE`] — a cheap tripwire against quietly pessimizing a
//! kernel while refactoring around it. It also lists every shared bench
//! name whose throughput rose by more than [`TOLERANCE`], pass or fail:
//! a win the baseline does not protect until a new `BENCH_<n>.json`
//! records it.
//!
//! The reports are the `microbench` binary's own output, so the parser
//! here is a deliberately tiny scanner over the
//! `pharmaverify-microbench-v1` schema (`"name"` / `"throughput_per_sec"`
//! pairs inside the `benches` array) rather than a JSON library.

use std::path::{Path, PathBuf};

/// Where `cargo xtask bench` writes its fresh report by default, relative
/// to the workspace root: an untracked path, so a run never overwrites a
/// committed `BENCH_<n>.json` and the newest committed report stays the
/// baseline.
pub const DEFAULT_OUT: &str = "target/microbench.json";

/// Maximum tolerated throughput drop, as a fraction of the baseline.
/// A shared bench name regresses when
/// `fresh < (1 - TOLERANCE) * baseline`.
pub const TOLERANCE: f64 = 0.25;

/// One parsed bench row: `(name, throughput_per_sec)`.
pub type BenchRow = (String, f64);

/// Extracts `(name, throughput_per_sec)` pairs from a microbench
/// report. Unparsable rows are skipped — the gate only ever *compares*
/// rows, so a malformed row can weaken the gate but never wedge it.
pub fn parse_throughputs(json: &str) -> Vec<BenchRow> {
    let mut rows = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"name\"") {
        rest = &rest[at + "\"name\"".len()..];
        let Some(name) = next_string(rest) else {
            continue;
        };
        // The throughput belongs to this row only if it appears before
        // the next row starts.
        let segment_end = rest.find("\"name\"").unwrap_or(rest.len());
        let segment = &rest[..segment_end];
        if let Some(t) = segment
            .find("\"throughput_per_sec\"")
            .and_then(|p| next_number(&segment[p + "\"throughput_per_sec\"".len()..]))
        {
            rows.push((name, t));
        }
    }
    rows
}

fn next_string(s: &str) -> Option<String> {
    let open = s.find('"')?;
    let rest = &s[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_string())
}

fn next_number(s: &str) -> Option<f64> {
    let start = s.find(|c: char| c.is_ascii_digit() || c == '-' || c == '.')?;
    let rest = &s[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares a fresh run against a baseline and returns one message per
/// regressed shared bench name. Names present in only one report are
/// ignored — adding or retiring benches is not a regression.
pub fn regressions(baseline: &[BenchRow], fresh: &[BenchRow], tolerance: f64) -> Vec<String> {
    shared(baseline, fresh)
        .filter(|&(_, base, new)| base > 0.0 && new < (1.0 - tolerance) * base)
        .map(|(name, base, new)| {
            format!(
                "{name}: throughput {new:.1}/s is {:.0}% below baseline {base:.1}/s",
                100.0 * (1.0 - new / base)
            )
        })
        .collect()
}

/// Compares a fresh run against a baseline and returns one message per
/// shared bench name whose throughput rose by more than `tolerance`.
pub fn wins(baseline: &[BenchRow], fresh: &[BenchRow], tolerance: f64) -> Vec<String> {
    shared(baseline, fresh)
        .filter(|&(_, base, new)| base > 0.0 && new > (1.0 + tolerance) * base)
        .map(|(name, base, new)| {
            format!(
                "{name}: throughput {new:.1}/s is {:.0}% above baseline {base:.1}/s",
                100.0 * (new / base - 1.0)
            )
        })
        .collect()
}

/// `(name, baseline, fresh)` throughputs of each bench name in both
/// reports, in baseline order.
fn shared<'a>(
    baseline: &'a [BenchRow],
    fresh: &'a [BenchRow],
) -> impl Iterator<Item = (&'a str, f64, f64)> + 'a {
    baseline.iter().filter_map(|(name, base)| {
        let (_, new) = fresh.iter().find(|(n, _)| n == name)?;
        Some((name.as_str(), *base, *new))
    })
}

/// Finds the highest-numbered `BENCH_<n>.json` at the workspace root,
/// excluding `exclude` (the report the current run is about to write —
/// a report is never its own baseline).
pub fn latest_baseline(root: &Path, exclude: &Path) -> Option<PathBuf> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(root).ok()?.flatten() {
        let path = entry.path();
        if path == exclude {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| n > *b) {
            best = Some((n, path));
        }
    }
    best.map(|(_, path)| path)
}

/// Runs the gate: fresh report at `out`, baseline auto-discovered at
/// the workspace root. Returns a human summary on pass, the list of
/// regressions on fail; both list the wins. A missing baseline or an
/// unparsable report passes with a note — the first run of a new
/// trajectory has nothing to compare against.
pub fn gate(root: &Path, out: &Path) -> Result<String, String> {
    let Some(baseline_path) = latest_baseline(root, out) else {
        return Ok("no BENCH_<n>.json baseline to compare against".to_string());
    };
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let baseline = parse_throughputs(&read(&baseline_path)?);
    let fresh = parse_throughputs(&read(out)?);
    let shared = shared(&baseline, &fresh).count();
    if shared == 0 {
        return Ok(format!(
            "no shared bench names with {}",
            baseline_path.display()
        ));
    }
    let percent = 100.0 * TOLERANCE;
    let baseline_path = baseline_path.display();
    let wins = wins(&baseline, &fresh, TOLERANCE);
    let wins = if wins.is_empty() {
        String::new()
    } else {
        format!(
            "\nthroughput rose >{percent:.0}% vs {baseline_path}:\n  {}",
            wins.join("\n  ")
        )
    };
    let failures = regressions(&baseline, &fresh, TOLERANCE);
    if failures.is_empty() {
        Ok(format!(
            "{shared} shared bench name(s), none more than {percent:.0}% below {baseline_path}{wins}"
        ))
    } else {
        Err(format!(
            "throughput regressed >{percent:.0}% vs {baseline_path}:\n  {}{wins}",
            failures.join("\n  ")
        ))
    }
}
