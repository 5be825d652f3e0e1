//! The executor's process-wide metrics. This is the only test in its
//! binary: the counters are global, and a test running beside it that
//! dispatches work (every TrustRank computation does) would move them.

use pharmaverify_core::pipeline::Executor;

#[test]
fn executor_records_runs_and_queue_depth() {
    let obs = pharmaverify_obs::global();
    let runs_before = obs.counter("pipeline/executor/runs");
    Executor::new(2).run(5, |i| i);
    Executor::serial().run(3, |i| i);
    assert_eq!(obs.counter("pipeline/executor/runs"), runs_before + 2);
    let depth = obs
        .histogram("pipeline/executor/queue_depth")
        .expect("executor ran");
    assert!(depth.count >= 2);
}
