//! Self-test of the `cargo xtask bench` regression gate against three
//! fixture reports: a baseline, a run where one kernel's throughput
//! halved, and a run where one kernel's throughput doubled. The gate
//! must flag exactly the halved bench, list exactly the doubled one as a
//! win without failing, tolerate within-noise drift, and ignore benches
//! present in only one report.

use xtask::bench_gate::{
    gate, latest_baseline, parse_throughputs, regressions, wins, DEFAULT_OUT, TOLERANCE,
};

const BASELINE: &str = include_str!("bench_fixtures/baseline.json");
const REGRESSED: &str = include_str!("bench_fixtures/regressed.json");
const IMPROVED: &str = include_str!("bench_fixtures/improved.json");

#[test]
fn parser_extracts_name_throughput_pairs() {
    let rows = parse_throughputs(BASELINE);
    assert_eq!(rows.len(), 4);
    assert_eq!(rows[0].0, "csr/trust_rank");
    assert!((rows[0].1 - 142_289_877.3).abs() < 1.0);
    assert_eq!(rows[3].0, "legacy/retired_bench");
}

#[test]
fn gate_flags_only_the_halved_bench() {
    let baseline = parse_throughputs(BASELINE);
    let fresh = parse_throughputs(REGRESSED);
    let failures = regressions(&baseline, &fresh, TOLERANCE);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].starts_with("csr/trust_rank:"),
        "{}",
        failures[0]
    );
    // Within-noise drift (pagerank −2%, anti_trust_rank +10%) passes,
    // and the retired/new benches are not shared so they never count.
    assert!(!failures.iter().any(|f| f.contains("pagerank")));
    assert!(!failures.iter().any(|f| f.contains("retired")));
    assert!(!failures.iter().any(|f| f.contains("brand_new")));
}

#[test]
fn gate_lists_the_doubled_bench_as_a_win() {
    let baseline = parse_throughputs(BASELINE);
    let fresh = parse_throughputs(IMPROVED);
    assert!(regressions(&baseline, &fresh, TOLERANCE).is_empty());
    let listed = wins(&baseline, &fresh, TOLERANCE);
    assert_eq!(listed.len(), 1, "{listed:?}");
    assert!(listed[0].starts_with("csr/pagerank:"), "{}", listed[0]);
    // Within-noise drift (trust_rank +3%, anti_trust_rank −5%) is no
    // win, and the halved bench of the regressed run is none either.
    assert!(listed.iter().all(|w| !w.contains("trust_rank")));
    let halved = parse_throughputs(REGRESSED);
    assert!(wins(&baseline, &halved, TOLERANCE).is_empty());
}

/// The gate's pass message and its failure message both list the win.
#[test]
fn gate_messages_list_wins_without_changing_the_decision() {
    let dir = std::env::temp_dir().join(format!("pharmaverify-gate-wins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("BENCH_1.json"), BASELINE).expect("write");
    let fresh = dir.join("fresh.json");
    std::fs::write(&fresh, IMPROVED).expect("write");
    let passed = gate(&dir, &fresh).expect("a win alone passes");
    assert!(passed.contains("csr/pagerank: throughput"), "{passed}");
    // The regressed run with pagerank doubled as well: still a failure,
    // naming both the regression and the win.
    let mixed = REGRESSED.replace("193116129.0", "395651312.5");
    std::fs::write(&fresh, mixed).expect("write");
    let failed = gate(&dir, &fresh).expect_err("a regression fails");
    assert!(failed.contains("csr/trust_rank: throughput"), "{failed}");
    assert!(failed.contains("csr/pagerank: throughput"), "{failed}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn gate_passes_a_report_against_itself() {
    let rows = parse_throughputs(BASELINE);
    assert!(regressions(&rows, &rows, TOLERANCE).is_empty());
}

#[test]
fn latest_baseline_picks_highest_number_and_skips_the_fresh_report() {
    let dir = std::env::temp_dir().join(format!("pharmaverify-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for name in [
        "BENCH_2.json",
        "BENCH_10.json",
        "BENCH_11.json",
        "notes.json",
    ] {
        std::fs::write(dir.join(name), BASELINE).expect("write");
    }
    let fresh = dir.join("BENCH_11.json");
    let picked = latest_baseline(&dir, &fresh).expect("baseline");
    assert_eq!(picked, dir.join("BENCH_10.json"));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn default_output_leaves_the_newest_committed_report_as_baseline() {
    let dir =
        std::env::temp_dir().join(format!("pharmaverify-gate-default-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for name in ["BENCH_9.json", "BENCH_10.json"] {
        std::fs::write(dir.join(name), BASELINE).expect("write");
    }
    // Writing the fresh report over the newest baseline would hide it
    // from the gate; the default output path never does.
    let picked = latest_baseline(&dir, &dir.join(DEFAULT_OUT)).expect("baseline");
    assert_eq!(picked, dir.join("BENCH_10.json"));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
