//! The persisted verdict store — federation tier 2.
//!
//! A [`VerdictStore`] remembers clean slow-path verdicts keyed by
//! `(domain, model_version)`, each stamped with the virtual time it was
//! recorded at. The [`crate::federation::FederationPolicy`] decides at
//! lookup time whether a stored verdict is still within its staleness
//! budget; the store itself never discards by age, so a saved store can
//! be reloaded after a restart and re-judged under whatever budget the
//! new process runs with.
//!
//! Persistence rides on `corpus::persist`'s canonical-JSON machinery
//! ([`pharmaverify_corpus::save_json_file`] /
//! [`pharmaverify_corpus::load_json_file`]): records are serialized as a
//! BTreeMap-ordered vector, so the same store contents always produce
//! the same bytes, and a malformed file reports its path and byte
//! offset. Loading also validates every record — unique keys, scores in
//! range — and names the first record that breaks a rule, so a store
//! never serves a verdict no slow path could have produced. Recording
//! refuses a verdict that breaks the same range rules, so a store never
//! saves what it could not load back.

use pharmaverify_core::{Verdict, VerdictSource};
use pharmaverify_corpus::{load_json_file, save_json_file, PersistError};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::Path;

/// One persisted verdict: every score the slow path produced, plus the
/// virtual-time stamp the staleness policy judges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredVerdict {
    /// Second-level domain of the verified site.
    pub domain: String,
    /// Version of the model that produced the verdict.
    pub model_version: u64,
    /// Virtual-clock micros at which the verdict was recorded.
    pub stamped_at_micros: u64,
    /// Pages the crawl fetched.
    pub pages_crawled: u64,
    /// Text model score in [0, 1].
    pub text_score: f64,
    /// Spliced TrustRank score (node-count scaled).
    pub trust_score: f64,
    /// Spliced anti-TrustRank score (node-count scaled).
    pub distrust_score: f64,
    /// Spam mass (`min(trust⁺, distrust)`).
    pub spam_mass: f64,
    /// Network model score in [0, 1].
    pub network_score: f64,
    /// Combined legitimacy rank.
    pub rank: f64,
    /// The text model's hard decision.
    pub predicted_legitimate: bool,
    /// Self-assessed confidence of the original verdict.
    pub confidence: f64,
}

impl StoredVerdict {
    /// The first range rule this record breaks, if any: the text score,
    /// network score and confidence lie in [0, 1]; trust, distrust and
    /// spam mass are finite and non-negative; the rank is finite.
    fn broken_rule(&self) -> Option<String> {
        let unit = [
            ("text_score", self.text_score),
            ("network_score", self.network_score),
            ("confidence", self.confidence),
        ];
        let mass = [
            ("trust_score", self.trust_score),
            ("distrust_score", self.distrust_score),
            ("spam_mass", self.spam_mass),
        ];
        if let Some((name, v)) = unit.iter().find(|(_, v)| !(0.0..=1.0).contains(v)) {
            return Some(format!("{name} {v} outside [0, 1]"));
        }
        if let Some((name, v)) = mass.iter().find(|(_, v)| !(v.is_finite() && *v >= 0.0)) {
            return Some(format!("{name} {v} negative or not finite"));
        }
        (!self.rank.is_finite()).then(|| format!("rank {} not finite", self.rank))
    }

    /// Rebuilds a servable [`Verdict`] from this record, tagged with
    /// [`VerdictSource::VerdictStore`] provenance. Only clean crawls are
    /// ever recorded, so the verdict is never degraded and its coverage
    /// is 1.0.
    pub fn to_verdict(&self) -> Verdict {
        Verdict {
            domain: self.domain.clone(),
            pages_crawled: self.pages_crawled as usize,
            text_score: self.text_score,
            trust_score: self.trust_score,
            distrust_score: self.distrust_score,
            spam_mass: self.spam_mass,
            network_score: self.network_score,
            rank: self.rank,
            predicted_legitimate: self.predicted_legitimate,
            degraded: false,
            crawl_coverage: 1.0,
            model_version: self.model_version,
            source: VerdictSource::VerdictStore,
            confidence: self.confidence,
        }
    }
}

/// How [`VerdictStore::record`] treated a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recorded {
    /// Stored under its key, replacing any earlier record there.
    Stored,
    /// Refused: the crawl behind it was degraded.
    Degraded,
    /// Refused: it breaks the named range rule, which
    /// [`VerdictStore::load`] would refuse it for.
    Invalid(String),
}

/// A persisted map of slow-path verdicts keyed by
/// `(domain, model_version)`. Iteration, serialization, and therefore
/// the bytes [`VerdictStore::save`] writes are all BTreeMap-ordered: the
/// same contents always persist identically.
#[derive(Debug, Default)]
pub struct VerdictStore {
    records: BTreeMap<(String, u64), StoredVerdict>,
}

impl VerdictStore {
    /// An empty store.
    pub fn new() -> VerdictStore {
        VerdictStore::default()
    }

    /// Records a slow-path verdict stamped at virtual time `now`.
    /// Degraded verdicts are refused (like the response cache): a store
    /// outlives the crawl that produced it, so only full-coverage
    /// evidence is worth remembering. A verdict that breaks a range rule
    /// [`VerdictStore::load`] enforces is refused too, so every saved
    /// store reloads. Re-recording a key overwrites the old record and
    /// refreshes its stamp.
    pub fn record(&mut self, verdict: &Verdict, now: u64) -> Recorded {
        if verdict.degraded {
            return Recorded::Degraded;
        }
        let record = StoredVerdict {
            domain: verdict.domain.clone(),
            model_version: verdict.model_version,
            stamped_at_micros: now,
            pages_crawled: verdict.pages_crawled as u64,
            text_score: verdict.text_score,
            trust_score: verdict.trust_score,
            distrust_score: verdict.distrust_score,
            spam_mass: verdict.spam_mass,
            network_score: verdict.network_score,
            rank: verdict.rank,
            predicted_legitimate: verdict.predicted_legitimate,
            confidence: verdict.confidence,
        };
        if let Some(rule) = record.broken_rule() {
            return Recorded::Invalid(rule);
        }
        self.records
            .insert((record.domain.clone(), record.model_version), record);
        Recorded::Stored
    }

    /// The record for `(domain, model_version)`, if any. Staleness is
    /// the policy's judgement, not the store's — the caller compares
    /// [`StoredVerdict::stamped_at_micros`] against its budget.
    pub fn lookup(&self, domain: &str, model_version: u64) -> Option<&StoredVerdict> {
        self.records.get(&(domain.to_string(), model_version))
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Writes the store to `path` as canonical JSON (records in key
    /// order).
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        let records: Vec<&StoredVerdict> = self.records.values().collect();
        save_json_file(&records, path)
    }

    /// Reads a store back from `path`, validating every record.
    ///
    /// # Errors
    /// [`PersistError::Io`] or [`PersistError::Format`] when the file
    /// cannot be read or parsed; [`PersistError::Invalid`] naming the
    /// first record that repeats an earlier `(domain, model_version)` key
    /// or carries a score outside its range.
    pub fn load(path: &Path) -> Result<VerdictStore, PersistError> {
        let records: Vec<StoredVerdict> = load_json_file(path)?;
        let mut store = VerdictStore::new();
        for (record, r) in records.into_iter().enumerate() {
            let invalid = |rule| PersistError::Invalid {
                path: path.to_path_buf(),
                record,
                rule,
            };
            if let Some(rule) = r.broken_rule() {
                return Err(invalid(rule));
            }
            match store.records.entry((r.domain.clone(), r.model_version)) {
                Entry::Occupied(e) => {
                    let (domain, version) = e.key();
                    return Err(invalid(format!("duplicate key ({domain}, {version})")));
                }
                Entry::Vacant(e) => {
                    e.insert(r);
                }
            }
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(domain: &str, degraded: bool) -> Verdict {
        Verdict {
            domain: domain.to_string(),
            pages_crawled: 5,
            text_score: 0.75,
            trust_score: 0.125,
            distrust_score: 0.0625,
            spam_mass: 0.0625,
            network_score: 0.5,
            rank: 0.875,
            predicted_legitimate: true,
            degraded,
            crawl_coverage: if degraded { 0.5 } else { 1.0 },
            model_version: 2,
            source: VerdictSource::GraphSpliced,
            confidence: 0.5,
        }
    }

    #[test]
    fn record_and_lookup_round_trip() {
        let mut store = VerdictStore::new();
        assert_eq!(
            store.record(&verdict("a-pharmacy.com", false), 100),
            Recorded::Stored
        );
        let rec = store.lookup("a-pharmacy.com", 2).unwrap();
        assert_eq!(rec.stamped_at_micros, 100);
        let back = rec.to_verdict();
        assert_eq!(back.source, VerdictSource::VerdictStore);
        assert_eq!(back.text_score.to_bits(), 0.75f64.to_bits());
        assert!(!back.degraded);
        // A different model version is a different key.
        assert!(store.lookup("a-pharmacy.com", 0).is_none());
    }

    #[test]
    fn degraded_verdicts_are_refused() {
        let mut store = VerdictStore::new();
        assert_eq!(
            store.record(&verdict("a-pharmacy.com", true), 100),
            Recorded::Degraded
        );
        assert!(store.is_empty());
    }

    #[test]
    fn verdicts_load_would_refuse_are_refused() {
        let mut store = VerdictStore::new();
        let cases: [(fn(&mut Verdict), &str); 4] = [
            (|v| v.confidence = f64::NAN, "confidence"),
            (|v| v.text_score = 1.5, "text_score"),
            (|v| v.spam_mass = -0.5, "spam_mass"),
            (|v| v.rank = f64::INFINITY, "rank"),
        ];
        for (damage, field) in cases {
            let mut bad = verdict("a-pharmacy.com", false);
            damage(&mut bad);
            match store.record(&bad, 100) {
                Recorded::Invalid(rule) => assert!(rule.contains(field), "{rule}"),
                other => panic!("{field}: expected a refusal, got {other:?}"),
            }
        }
        assert!(store.is_empty());
    }

    #[test]
    fn rerecord_refreshes_the_stamp() {
        let mut store = VerdictStore::new();
        store.record(&verdict("a-pharmacy.com", false), 100);
        store.record(&verdict("a-pharmacy.com", false), 300);
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.lookup("a-pharmacy.com", 2).unwrap().stamped_at_micros,
            300
        );
    }

    #[test]
    fn save_load_round_trips_bit_exact_scores() {
        let mut store = VerdictStore::new();
        store.record(&verdict("b-pharmacy.com", false), 7);
        store.record(&verdict("a-pharmacy.com", false), 9);
        let dir = std::env::temp_dir().join("pharmaverify-verdict-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("store-{}.json", std::process::id()));
        store.save(&path).unwrap();
        let back = VerdictStore::load(&path).unwrap();
        assert_eq!(back.len(), 2);
        for (key, rec) in &store.records {
            assert_eq!(back.records.get(key), Some(rec));
        }
        // Canonical bytes: saving the reloaded store reproduces the file.
        let path2 = dir.join(format!("store-{}-b.json", std::process::id()));
        back.save(&path2).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&path2).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&path2).unwrap();
    }

    /// A saved two-record store's path and bytes, under a per-test name.
    fn saved_store(name: &str) -> (std::path::PathBuf, Vec<u8>) {
        let mut store = VerdictStore::new();
        store.record(&verdict("b-pharmacy.com", false), 7);
        store.record(&verdict("a-pharmacy.com", false), 9);
        let dir = std::env::temp_dir().join("pharmaverify-verdict-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.json", std::process::id()));
        store.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    /// Loads `text` written to `path`, expecting [`PersistError::Invalid`]
    /// at `want_record` with a rule containing `want_rule`.
    fn assert_invalid(path: &Path, text: &str, want_record: usize, want_rule: &str) {
        std::fs::write(path, text).unwrap();
        match VerdictStore::load(path) {
            Err(PersistError::Invalid {
                path: p,
                record,
                rule,
            }) => {
                assert_eq!(p, path);
                assert_eq!(record, want_record, "{rule}");
                assert!(rule.contains(want_rule), "{rule}");
            }
            other => panic!("expected an invalid record, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let (path, bytes) = saved_store("dup");
        let text = String::from_utf8(bytes).unwrap();
        let renamed = text.replacen("b-pharmacy.com", "a-pharmacy.com", 1);
        assert_invalid(&path, &renamed, 1, "duplicate key (a-pharmacy.com, 2)");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unit_scores_outside_zero_one_are_rejected() {
        let (path, bytes) = saved_store("unit");
        let text = String::from_utf8(bytes).unwrap();
        for (field, value) in [
            ("text_score", "0.75"),
            ("network_score", "0.5"),
            ("confidence", "0.5"),
        ] {
            for bad in ["7.5", "-0.25"] {
                let from = format!("\"{field}\":{value}");
                let to = format!("\"{field}\":{bad}");
                assert_invalid(&path, &text.replacen(&from, &to, 1), 0, field);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn negative_or_infinite_masses_are_rejected() {
        let (path, bytes) = saved_store("mass");
        let text = String::from_utf8(bytes).unwrap();
        for (field, value) in [
            ("trust_score", "0.125"),
            ("distrust_score", "0.0625"),
            ("spam_mass", "0.0625"),
        ] {
            for bad in ["-0.5", "1e999"] {
                let from = format!("\"{field}\":{value}");
                let to = format!("\"{field}\":{bad}");
                assert_invalid(&path, &text.replacen(&from, &to, 1), 0, field);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn infinite_rank_is_rejected() {
        let (path, bytes) = saved_store("rank");
        let text = String::from_utf8(bytes).unwrap();
        for bad in ["1e999", "-1e999"] {
            let to = format!("\"rank\":{bad}");
            assert_invalid(&path, &text.replacen("\"rank\":0.875", &to, 1), 0, "rank");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_or_bit_flipped_stores_never_load_invalid() {
        let (path, bytes) = saved_store("fuzz");
        let mut damaged: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
        for i in 0..bytes.len() {
            for bit in [0, 3, 5] {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                damaged.push(flipped);
            }
        }
        for file in damaged {
            std::fs::write(&path, &file).unwrap();
            if let Ok(store) = VerdictStore::load(&path) {
                for ((domain, version), rec) in &store.records {
                    assert_eq!((domain, *version), (&rec.domain, rec.model_version));
                    assert_eq!(rec.broken_rule(), None);
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_store_reports_path_and_offset() {
        let dir = std::env::temp_dir().join("pharmaverify-verdict-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("bad-{}.json", std::process::id()));
        std::fs::write(&path, "[{]").unwrap();
        let err = VerdictStore::load(&path).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("bad-"), "{text}");
        assert!(text.contains("byte"), "{text}");
        std::fs::remove_file(&path).unwrap();
    }
}
