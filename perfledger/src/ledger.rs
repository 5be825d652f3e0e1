//! The metric catalog and the two outputs of a run: one detailed JSON
//! document (every metric with its unit, sample count and percentile
//! label, the deterministic facts, and the check failures) and, as the
//! last line of stdout, the summary object the comparison reads.

use crate::stats::summarize;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload in an untraced run:
/// `(name, unit)`. Bounds and directions live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload in a traced run:
/// `(name, unit)`. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    // Set-up of the federation workloads.
    ("corpus.generate_s", "s"),
    ("core.extract_s", "s"),
    ("core.fit_s", "s"),
    // Serving: routing time by answering tier, slow path, store.
    ("serve.route.busy_s", "s"),
    ("serve.route.cache_us_p50", "us"),
    ("serve.route.store_us_p50", "us"),
    ("serve.route.error_us_p50", "us"),
    ("serve.route.fast_ms_p50", "ms"),
    ("serve.route.fast_ms_p99", "ms"),
    ("serve.route.fallthrough_ms_p50", "ms"),
    ("serve.slow.wait_s", "s"),
    ("serve.slow.ms_p50", "ms"),
    ("serve.slow.ms_p99", "ms"),
    ("serve.store.checkpoint_ms", "ms"),
    // Serving: tier counts over the deterministic prefix, and ratios.
    ("serve.tier.cache.hits", "count"),
    ("serve.tier.store.hits", "count"),
    ("serve.tier.store.stale", "count"),
    ("serve.tier.fast.hits", "count"),
    ("serve.tier.fast.fallthroughs", "count"),
    ("serve.tier.fast.errors", "count"),
    ("serve.tier.slow.verdicts", "count"),
    ("serve.batches", "count"),
    ("serve.tier.cheap_share", "fraction"),
    ("serve.tier.fast.accept_share", "fraction"),
    ("serve.verdict_accuracy", "fraction"),
    // Breakdown pass over distinct live sites.
    ("crawl.site_us_p50", "us"),
    ("crawl.pages_mean", "pages"),
    ("text.prepare_us_p50", "us"),
    ("core.verify_text_only_ms_p50", "ms"),
    ("core.verify_text_only_ms_p99", "ms"),
    ("ngg.fast_opinion_ms_p50", "ms"),
    ("core.verify_ms_p50", "ms"),
    ("core.verify_ms_p99", "ms"),
    ("core.verify_batch_ms_per_site", "ms"),
    ("net.incremental.trust_us_p50", "us"),
    ("net.incremental.anti_us_p50", "us"),
    ("net.incremental.frontier_p50", "nodes"),
    ("net.incremental.fallbacks", "count"),
    // Web tier.
    ("corpus.shard.generate_s", "s"),
    ("net.csr.intern_s", "s"),
    ("net.csr.freeze_s", "s"),
    ("net.csr.trust_s", "s"),
    ("net.csr.anti_s", "s"),
    ("net.csr.nodes", "count"),
    ("net.csr.edges", "count"),
    ("net.csr.trust_edges_nominal", "edges"),
    ("net.csr.trust_edges_useful", "edges"),
    ("net.csr.trust_useful_eps", "edges/s"),
    ("net.csr.anti_edges_useful", "edges"),
    ("net.csr.anti_useful_eps", "edges/s"),
    // Evaluation suite.
    ("bench.report.tfidf_grid_s", "s"),
    ("bench.report.ngg_grid_s", "s"),
    ("bench.report.network_s", "s"),
    ("bench.report.ensemble_s", "s"),
    ("bench.report.ranking_s", "s"),
    ("bench.report.drift_s", "s"),
    ("bench.report.rest_s", "s"),
    ("core.pipeline.hits", "count"),
    ("core.pipeline.misses", "count"),
    ("core.pipeline.stage_s", "s"),
    ("text.tfidf.fit_s", "s"),
    ("ngg.class_graphs.build_s", "s"),
    // The traced run against the untraced one.
    ("trace.overhead", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind it (1 for a single measurement or a count).
    pub n: usize,
    /// Percentile label, or `derived`, when the value is one.
    pub label: Option<&'static str>,
}

/// Everything a run found.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Measured values, in the order recorded.
    pub metrics: Vec<Metric>,
    /// Operations attempted (requests, rank passes or suite runs).
    pub attempted: u64,
    /// Operations whose outcome was wrong.
    pub failed: u64,
    /// Deterministic facts and notes: digests, prefix tallies.
    pub facts: Vec<(String, String)>,
    /// Failed checks; any entry makes the run incorrect.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records a single value.
    pub fn put(&mut self, name: &'static str, value: f64, n: usize) {
        self.put_labelled(name, value, n, None);
    }

    /// Records a value with a percentile label (or `derived`).
    pub fn put_labelled(
        &mut self,
        name: &'static str,
        value: f64,
        n: usize,
        label: Option<&'static str>,
    ) {
        assert!(unit_of(name).is_some(), "{name} is not in the catalog");
        self.metrics.push(Metric {
            name,
            value,
            n,
            label,
        });
    }

    /// Records the median of `samples`.
    pub fn put_median(&mut self, name: &'static str, samples: &[f64]) {
        let s = summarize(samples);
        self.put_labelled(name, s.p50, s.n, Some("p50"));
    }

    /// Records the highest percentile of `samples` with at least ten
    /// samples beyond it, labelled with which percentile that is.
    pub fn put_tail(&mut self, name: &'static str, samples: &[f64]) {
        let s = summarize(samples);
        self.put_labelled(name, s.tail, s.n, Some(s.tail_label));
    }

    /// Records the end-to-end metrics of a workload of whole operations
    /// (rank passes, suite runs) from their durations: median and tail
    /// latency, and throughput at the median operation, which one slow
    /// operation (or a neighbour on the machine) cannot drag the way
    /// operations over wall time can.
    pub fn put_operations(&mut self, op_ms: &[f64]) {
        let s = summarize(op_ms);
        self.put("throughput", 1e3 / s.p50, s.n);
        self.put_median("latency_p50_ms", op_ms);
        self.put_tail("latency_tail_ms", op_ms);
    }

    /// Records a deterministic fact or note.
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Checks `ok`, recording `what` as a failure when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rfind(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The detailed document: every recorded metric with unit, sample
    /// count and label, then facts and check results.
    pub fn detail_json(&self, workload: &str, seed: u64, traced: bool) -> String {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"traced\": {traced}, \"metrics\": ["
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"n\": {}{}}}",
                if i == 0 { "" } else { ", " },
                m.name,
                number(m.value),
                unit_of(m.name).unwrap_or("?"),
                m.n,
                m.label
                    .map_or(String::new(), |l| format!(", \"label\": \"{l}\""))
            );
        }
        out.push_str("], \"facts\": {");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": \"{}\"",
                if i == 0 { "" } else { ", " },
                escape(k),
                escape(v)
            );
        }
        let _ = write!(
            out,
            "}}, \"check\": {{\"ok\": {}, \"failures\": [{}]}}}}",
            self.correct(),
            self.failures
                .iter()
                .map(|f| format!("\"{}\"", escape(f)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out
    }

    /// The summary line: `correct`, `attempted`, `failed`, and the
    /// end-to-end metrics (untraced) or per-layer metrics (traced).
    /// Catalog metrics this workload did not record read 0.
    pub fn summary_json(&self, traced: bool) -> String {
        let catalog: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = catalog
            .iter()
            .map(|&(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(self.value(name).unwrap_or(0.0))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// FNV-1a, 64-bit: the digest of deterministic outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds in raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in a string and a terminator, so `("ab", "c")` and
    /// `("a", "bc")` differ.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// Folds in a number.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The unit of a catalog metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (never expected) become 0 so the document
/// stays valid.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    /// The `"name": "…", "unit": "…"` pairs of one section of
    /// `BENCHMARK.json`, by plain string scanning.
    fn registered(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |chunk: &str, key: &str| -> String {
            let at = chunk.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
            chunk[at..at + chunk[at..].find('"').expect("closing quote")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|chunk| (field(chunk, "name"), field(chunk, "unit")))
            .collect()
    }

    #[test]
    fn every_emitted_name_is_valid_and_registered() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (section, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = registered(&json, section);
            let ours: Vec<(String, String)> = catalog
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(
                listed, ours,
                "{section} in BENCHMARK.json differs from the catalog"
            );
            for (name, _) in &ours {
                assert!(valid_name(name), "invalid metric name {name:?}");
            }
        }
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn summary_lists_exactly_its_catalog() {
        let mut l = Ledger {
            attempted: 3,
            ..Ledger::default()
        };
        l.put("setup_s", 1.25, 3);
        l.put("serve.tier.cache.hits", 7.0, 1);
        let plain = l.summary_json(false);
        assert!(plain.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(plain.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!plain.contains("serve.tier"));
        let traced = l.summary_json(true);
        assert!(traced.contains("\"serve.tier.cache.hits\": {\"value\": 7, \"unit\": \"count\"}"));
        assert!(traced.contains("\"trace.overhead\": {\"value\": 0, \"unit\": \"ratio\"}"));
        l.fail("x");
        assert!(l.summary_json(false).starts_with("{\"correct\": false"));
    }
}
