//! Self-tests of the custom lints against fixture files.
//!
//! `fixtures/violations.rs` is self-describing: every line that must
//! fire carries a `VIOLATION <lint-name>` comment (a `(previous line)`
//! suffix anchors the expectation one line up, for findings inside a
//! `for` header whose marker sits in the loop body). The test derives
//! the expected `(line, lint)` set from those comments and requires the
//! lint output to match it exactly — no missing findings, no extras.
//! `fixtures/clean.rs` collects near-miss patterns and must stay silent.

use std::path::{Path, PathBuf};
use xtask::lints::{lint_source, Diagnostic, Lint};

fn fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path).unwrap();
    (path, source)
}

/// Parses `VIOLATION <name>` expectation comments out of fixture source.
fn expected_findings(source: &str) -> Vec<(usize, Lint)> {
    let mut expected = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let Some(rest) = line.split("VIOLATION ").nth(1) else {
            continue;
        };
        let name = rest.split_whitespace().next().unwrap();
        let lint = Lint::from_name(name)
            .or_else(|| (name == "bad-allow").then_some(Lint::BadAllow))
            .unwrap_or_else(|| panic!("unknown lint in expectation: {name}"));
        let line_no = if rest.contains("(previous line)") {
            idx // 1-based previous line == 0-based current index
        } else {
            idx + 1
        };
        expected.push((line_no, lint));
    }
    expected.sort_by_key(|&(l, _)| l);
    expected
}

fn findings(diags: &[Diagnostic]) -> Vec<(usize, Lint)> {
    let mut got: Vec<(usize, Lint)> = diags.iter().map(|d| (d.line, d.lint)).collect();
    got.sort_by_key(|&(l, _)| l);
    got
}

#[test]
fn violations_fixture_fires_every_lint() {
    let (path, source) = fixture("violations.rs");
    let diags = lint_source(&path, &source);
    let expected = expected_findings(&source);
    assert_eq!(
        findings(&diags),
        expected,
        "diagnostics:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Every lint is exercised at least once (lock-order has its own
    // fixture trio driven by tests/locks.rs).
    for lint in [
        Lint::NoPanic,
        Lint::HashIter,
        Lint::FloatEq,
        Lint::SafetyComment,
        Lint::NoRawEprintln,
        Lint::Nondet,
        Lint::ObsName,
        Lint::BadAllow,
    ] {
        assert!(
            diags.iter().any(|d| d.lint == lint),
            "fixture never fires {lint}"
        );
    }
}

#[test]
fn clean_fixture_stays_quiet() {
    let (path, source) = fixture("clean.rs");
    let diags = lint_source(&path, &source);
    assert!(
        diags.is_empty(),
        "clean fixture produced:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn diagnostics_render_file_line_and_lint() {
    let (path, source) = fixture("violations.rs");
    let diags = lint_source(&path, &source);
    let rendered = diags[0].to_string();
    assert!(rendered.contains("violations.rs:"));
    assert!(rendered.contains("[no-panic]"));
}

#[test]
fn binaries_are_exempt_from_no_raw_eprintln() {
    let src = "fn main() {\n    eprintln!(\"progress to the user\");\n}\n";
    for path in ["src/main.rs", "crates/bench/src/bin/repro.rs"] {
        assert!(
            lint_source(Path::new(path), src).is_empty(),
            "{path} should be exempt"
        );
    }
    let diags = lint_source(Path::new("crates/crawl/src/crawler.rs"), src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].lint, Lint::NoRawEprintln);
}

#[test]
fn whole_workspace_is_lint_clean() {
    let root = xtask::walk::workspace_root().unwrap();
    let paths = xtask::walk::lintable_sources(&root).unwrap();
    assert!(paths.len() > 50, "walker found only {} files", paths.len());
    let files: Vec<(PathBuf, String)> = paths
        .into_iter()
        .map(|p| {
            let source = std::fs::read_to_string(&p).unwrap();
            (p, source)
        })
        .collect();
    // The full workspace analysis, exactly as `cargo xtask check` runs
    // it: per-file lints, cross-file obs conflicts, the trace-contract
    // cross-check, and the whole-workspace lock-order pass.
    let trace_path = root.join("crates/bench/tests/trace.rs");
    let trace_source = std::fs::read_to_string(&trace_path).unwrap();
    let all =
        xtask::lints::lint_workspace(&files, Some((trace_path.as_path(), trace_source.as_str())));
    assert!(
        all.is_empty(),
        "workspace has lint findings:\n{}",
        all.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
