//! Seeded request workloads for replaying against a [`crate::VerifyService`].
//!
//! A [`WorkloadGenerator`] draws seed URLs from the synthetic corpus's
//! two snapshots, mimicking what a verification desk actually sees:
//!
//! * **known-legitimate** pharmacies from snapshot 1 — their domains are
//!   nodes of the training link graph, so serving them exercises the
//!   spliced TrustRank path;
//! * **vanished** snapshot-1 illegitimate sites — rogue pharmacies churn
//!   fast, and these domains no longer resolve on the snapshot-2 web,
//!   yielding deterministic `EmptySite` errors;
//! * **unknown candidates** from snapshot 2 — newly appeared sites, mostly
//!   fresh domains, exercising the zero-trust shortcut.
//!
//! Requests repeat with a Zipf-like skew over a seeded shuffle of the
//! pool (rank `r` drawn with probability ∝ `1/r^s`), so a few hot
//! domains dominate — which is what makes the response cache earn its
//! keep. Everything is a pure function of `(snapshot pair, seed)`: the
//! same generator state yields the same request sequence on every run
//! and platform.

use pharmaverify_corpus::Snapshot;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// What the workload knows about a request it emits (used for tallying
/// replay results, never shown to the service).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Snapshot-1 site still present: expect a verdict.
    Known,
    /// Snapshot-1 illegitimate site that vanished: expect an error.
    Vanished,
    /// Snapshot-2 newcomer: expect a verdict, usually via the
    /// fresh-domain path.
    Unknown,
}

/// One request the generator emitted.
#[derive(Debug, Clone)]
pub struct Request {
    /// Seed URL to submit.
    pub seed_url: String,
    /// Provenance of the target site.
    pub kind: RequestKind,
}

/// A deterministic, Zipf-skewed stream of verification requests.
pub struct WorkloadGenerator {
    pool: Vec<Request>,
    /// Cumulative Zipf weights over pool ranks; `cumulative.last()` is
    /// the total mass.
    cumulative: Vec<f64>,
    rng: SmallRng,
}

impl WorkloadGenerator {
    /// Zipf exponent: steep enough that the head of the pool repeats
    /// often, shallow enough that the tail still appears.
    const ZIPF_EXPONENT: f64 = 1.1;

    /// Builds a generator over the two snapshots with the given seed.
    /// The pool mixes known-legitimate snapshot-1 sites, vanished
    /// snapshot-1 illegitimate sites, and unknown snapshot-2 sites, then
    /// shuffles once (seeded) so Zipf rank does not correlate with site
    /// class.
    pub fn new(snapshot1: &Snapshot, snapshot2: &Snapshot, seed: u64) -> WorkloadGenerator {
        let mut pool: Vec<Request> = Vec::new();
        let snap2_domains: std::collections::BTreeSet<&str> =
            snapshot2.sites.iter().map(|s| s.domain.as_str()).collect();
        for site in &snapshot1.sites {
            let kind = if snap2_domains.contains(site.domain.as_str()) {
                RequestKind::Known
            } else {
                RequestKind::Vanished
            };
            pool.push(Request {
                seed_url: site.seed_url.clone(),
                kind,
            });
        }
        let snap1_domains: std::collections::BTreeSet<&str> =
            snapshot1.sites.iter().map(|s| s.domain.as_str()).collect();
        for site in &snapshot2.sites {
            if !snap1_domains.contains(site.domain.as_str()) {
                pool.push(Request {
                    seed_url: site.seed_url.clone(),
                    kind: RequestKind::Unknown,
                });
            }
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        pool.shuffle(&mut rng);
        let mut cumulative = Vec::with_capacity(pool.len());
        let mut total = 0.0;
        for rank in 1..=pool.len() {
            total += 1.0 / (rank as f64).powf(Self::ZIPF_EXPONENT);
            cumulative.push(total);
        }
        WorkloadGenerator {
            pool,
            cumulative,
            rng,
        }
    }

    /// Draws the next request (Zipf-skewed over the shuffled pool).
    /// Returns `None` only for an empty pool.
    pub fn next_request(&mut self) -> Option<Request> {
        let total = *self.cumulative.last()?;
        let x: f64 = self.rng.gen_range(0.0..total);
        // Inverse CDF: first rank whose cumulative mass exceeds x.
        let idx = self
            .cumulative
            .partition_point(|&c| c <= x)
            .min(self.pool.len() - 1);
        Some(self.pool[idx].clone())
    }

    /// Draws `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<Request> {
        (0..n).filter_map(|_| self.next_request()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pharmaverify_corpus::{CorpusConfig, SyntheticWeb};

    fn snapshots() -> (Snapshot, Snapshot) {
        let web = SyntheticWeb::generate(&CorpusConfig::small(), 42);
        (web.snapshot().clone(), web.snapshot2().clone())
    }

    #[test]
    fn same_seed_same_stream() {
        let (s1, s2) = snapshots();
        let a: Vec<String> = WorkloadGenerator::new(&s1, &s2, 9)
            .take(50)
            .into_iter()
            .map(|r| r.seed_url)
            .collect();
        let b: Vec<String> = WorkloadGenerator::new(&s1, &s2, 9)
            .take(50)
            .into_iter()
            .map(|r| r.seed_url)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let (s1, s2) = snapshots();
        let a: Vec<String> = WorkloadGenerator::new(&s1, &s2, 9)
            .take(50)
            .into_iter()
            .map(|r| r.seed_url)
            .collect();
        let b: Vec<String> = WorkloadGenerator::new(&s1, &s2, 10)
            .take(50)
            .into_iter()
            .map(|r| r.seed_url)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn pool_mixes_all_three_kinds() {
        let (s1, s2) = snapshots();
        let gen = WorkloadGenerator::new(&s1, &s2, 9);
        let kinds: Vec<RequestKind> = gen.pool.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RequestKind::Known));
        assert!(kinds.contains(&RequestKind::Vanished));
        assert!(kinds.contains(&RequestKind::Unknown));
    }

    #[test]
    fn zipf_head_is_hotter_than_tail() {
        let (s1, s2) = snapshots();
        let mut gen = WorkloadGenerator::new(&s1, &s2, 9);
        let head = gen.pool[0].seed_url.clone();
        let tail = gen.pool[gen.pool.len() - 1].seed_url.clone();
        let reqs = gen.take(500);
        let count = |url: &str| reqs.iter().filter(|r| r.seed_url == url).count();
        assert!(
            count(&head) > count(&tail),
            "head {} vs tail {}",
            count(&head),
            count(&tail)
        );
    }
}
