//! The table harness must produce byte-identical output regardless of
//! executor width or cache warmth: a serial fresh run, a parallel run
//! against the warm store, and a parallel fresh run all render the same
//! report. This is the contract that lets `repro --jobs N` and the xtask
//! determinism audit trust parallel execution.
//!
//! The same report is also held to the golden section digests in
//! `report_digests.tsv`, so a change that moves a report byte against
//! its parent fails here, naming the section.

use pharmaverify_bench::{
    adversarial_study, federation_study_in, online_study_in, render_report, serving_study_in,
    tables, ReproContext, Scale, Selection,
};
use pharmaverify_core::pipeline::Executor;
use pharmaverify_corpus::AttackKind;
use pharmaverify_obs::{Registry, VirtualClock};
use pharmaverify_serve::FederationPolicy;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The golden digest table: configuration, digest, section title, lineage.
const GOLDEN: &str = include_str!("report_digests.tsv");

/// FNV-1a-64, the digest the golden table records.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Checks every section of `rendered` (tables separated by one blank
/// line) against the golden rows of `config`, returning one line per
/// drifted, missing or new section, followed by the recomputed rows.
fn digest_drift(config: &str, rendered: &str) -> Vec<String> {
    let golden: BTreeMap<&str, &str> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| {
            let cols: Vec<&str> = l.split('\t').collect();
            (cols[0] == config).then(|| (cols[2], cols[1]))
        })
        .collect();
    let actual: Vec<(&str, String)> = rendered
        .split("\n\n")
        .map(|s| s.trim_end_matches('\n'))
        .filter(|s| !s.is_empty())
        .map(|s| {
            let title = s.lines().next().unwrap_or_default();
            (
                title,
                format!("{:016x}", fnv1a64(format!("{s}\n").as_bytes())),
            )
        })
        .collect();
    let mut drift = Vec::new();
    for (title, digest) in &actual {
        match golden.get(title) {
            None => drift.push(format!("new section [{config}] {title}")),
            Some(want) if want != digest => {
                drift.push(format!("drifted section [{config}] {title}"));
            }
            Some(_) => {}
        }
    }
    for title in golden.keys() {
        if !actual.iter().any(|(t, _)| t == title) {
            drift.push(format!("missing section [{config}] {title}"));
        }
    }
    if !drift.is_empty() {
        drift.push("recomputed rows:".to_string());
        drift.extend(
            actual
                .iter()
                .map(|(title, digest)| format!("{config}\t{digest}\t{title}")),
        );
    }
    drift
}

#[test]
fn report_is_identical_across_thread_counts_and_cache_warmth() {
    let sel = Selection::everything();

    let ctx = ReproContext::new(Scale::Small);
    let serial = render_report(&ctx, &sel, Executor::serial());
    assert!(!serial.output.is_empty());
    let drift = digest_drift("repro --scale small", &serial.output);
    assert!(drift.is_empty(), "{}", drift.join("\n"));
    let (hits_fresh, misses_fresh) = ctx.store.totals();
    assert!(misses_fresh > 0, "a fresh run must compute artifacts");
    assert!(
        hits_fresh > 0,
        "tables sharing a configuration must reuse artifacts"
    );

    // Same context, warm store, wide executor: artifacts served from
    // cache, nothing recomputed, identical bytes.
    let warm = render_report(&ctx, &sel, Executor::new(4));
    assert_eq!(serial.output, warm.output, "warm parallel run must match");
    let (_, misses_warm) = ctx.store.totals();
    assert_eq!(
        misses_fresh, misses_warm,
        "a warm rerun must not recompute any artifact"
    );

    // Fresh context, wide executor: artifacts race to compute, but the
    // per-key once-cell and ordered merge keep the bytes identical.
    let ctx2 = ReproContext::new(Scale::Small);
    let parallel = render_report(&ctx2, &sel, Executor::new(4));
    assert_eq!(
        serial.output, parallel.output,
        "fresh parallel run must match the serial run"
    );
    let (_, misses_parallel) = ctx2.store.totals();
    assert_eq!(
        misses_fresh, misses_parallel,
        "parallelism must not change which artifacts get computed"
    );

    // The adversarial section is a suffix of the report; check its bytes
    // against the golden row of the audited link-farm run.
    let adversarial = adversarial_study(&ctx, Executor::serial(), AttackKind::LinkFarm, 0.6);
    let drift = digest_drift(
        "repro --scale small --attack link-farm --attack-strength 0.6",
        &format!("{adversarial}"),
    );
    assert!(drift.is_empty(), "{}", drift.join("\n"));

    // The robustness section is the suffix `--fault-rate 0.2` appends:
    // the TF-IDF and ranking pipelines on faulted re-crawls of Dataset 1.
    let robustness = tables::robustness_study(&ctx, Executor::new(2), 0.2);
    let drift = digest_drift(
        "repro --scale small --fault-rate 0.2",
        &format!("{robustness}"),
    );
    assert!(drift.is_empty(), "{}", drift.join("\n"));
}

/// The serving, online and federation sections are the suffixes
/// `--serve-workload 60`, `--online-waves 6` and `--federation 400`
/// append: crawl, preprocess and verify over Dataset 2, at `repro`'s
/// default two serve workers.
#[test]
fn serving_sections_match_their_golden_digests() {
    let ctx = ReproContext::new(Scale::Small);
    let obs = || Arc::new(Registry::with_clock(Box::new(VirtualClock::new(0))));
    let (serving, _) = serving_study_in(&ctx, 60, 2, obs());
    let (online, _) = online_study_in(&ctx, 6, 2, obs());
    let (federation, _) = federation_study_in(&ctx, 400, 2, FederationPolicy::default(), obs());
    let drift: Vec<String> = [
        ("repro --scale small --serve-workload 60", serving),
        ("repro --scale small --online-waves 6", online),
        ("repro --scale small --federation 400", federation),
    ]
    .into_iter()
    .flat_map(|(config, table)| digest_drift(config, &format!("{table}")))
    .collect();
    assert!(drift.is_empty(), "{}", drift.join("\n"));
}

#[test]
fn explicit_selection_renders_only_the_selected_table() {
    let ctx = ReproContext::new(Scale::Small);
    let mut sel = Selection::everything();
    sel.add_table(1);
    sel.add_table(2);
    let report = render_report(&ctx, &sel, Executor::serial());
    assert!(report.output.contains("Table 1: Datasets"));
    assert!(report.output.contains("Table 2:"));
    assert!(!report.output.contains("Table 3:"));
    assert!(!report.output.contains("Ablation:"));
    let t1 = report.output.find("Table 1: Datasets");
    let t2 = report.output.find("Table 2:");
    assert!(t1 < t2, "sections must assemble in table order");
}
