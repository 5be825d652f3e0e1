//! The benchmark's inputs, built here from seeds alone: the request
//! pool, the Zipf stream over it, and the per-pass orders of the cold
//! workload. The generator is the benchmark's own, so a change to the
//! system's serving or random-number code cannot change what is
//! measured.

use pharmaverify_corpus::Snapshot;
use std::collections::{BTreeMap, BTreeSet};

/// SplitMix64 (Steele, Lea & Flood 2014): small, fast, and fully
/// specified, so the same seed gives the same inputs on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            // Multiply-shift maps 64 random bits onto [0, i] without a
            // modulo; the bias is below 2^-40 for any pool we build.
            let j = ((self.next_u64() as u128 * (i as u128 + 1)) >> 64) as usize;
            items.swap(i, j);
        }
    }
}

/// One site a request can name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// The seed URL submitted.
    pub seed_url: String,
    /// Its second-level domain.
    pub domain: String,
    /// Its label on the snapshot-2 web (the web the system serves), or
    /// `None` when the site vanished from it. A vanished site must be
    /// answered `EmptySite`, a live one a verdict.
    pub oracle: Option<bool>,
}

impl Site {
    /// Whether the served web still has this site.
    pub fn live(&self) -> bool {
        self.oracle.is_some()
    }
}

/// The Zipf workload's pool: every snapshot-1 site (live when snapshot
/// 2 still has its domain, vanished otherwise) plus every snapshot-2
/// newcomer, in one shuffle by `seed`. A site's position is its
/// popularity rank: the Zipf stream draws position 0 most often.
pub fn zipf_pool(snapshot1: &Snapshot, snapshot2: &Snapshot, seed: u64) -> Vec<Site> {
    let labels2: BTreeMap<&str, bool> = snapshot2
        .sites
        .iter()
        .map(|s| (s.domain.as_str(), s.label()))
        .collect();
    let in1: BTreeSet<&str> = snapshot1.sites.iter().map(|s| s.domain.as_str()).collect();
    let mut pool: Vec<Site> = snapshot1
        .sites
        .iter()
        .map(|s| Site {
            seed_url: s.seed_url.clone(),
            domain: s.domain.clone(),
            oracle: labels2.get(s.domain.as_str()).copied(),
        })
        .chain(
            live_sites(snapshot2)
                .into_iter()
                .filter(|s| !in1.contains(s.domain.as_str())),
        )
        .collect();
    SplitMix64::new(seed ^ 0x5eed_9001).shuffle(&mut pool);
    pool
}

/// Every snapshot-2 site, in snapshot order: the cold workload's pool.
pub fn live_sites(snapshot2: &Snapshot) -> Vec<Site> {
    snapshot2
        .sites
        .iter()
        .map(|s| Site {
            seed_url: s.seed_url.clone(),
            domain: s.domain.clone(),
            oracle: Some(s.label()),
        })
        .collect()
}

/// Zipf exponent of the hot-head stream.
pub const ZIPF_EXPONENT: f64 = 1.1;

/// An endless Zipf(`s`) stream of pool indices: rank `r` (1-based) is
/// drawn with probability ∝ `1/r^s`, by inverse CDF over the cumulative
/// weights.
#[derive(Debug, Clone)]
pub struct ZipfStream {
    cumulative: Vec<f64>,
    rng: SplitMix64,
}

impl ZipfStream {
    /// A stream over a pool of `len` sites (`len ≥ 1`).
    pub fn new(len: usize, exponent: f64, seed: u64) -> ZipfStream {
        let mut total = 0.0;
        let cumulative = (1..=len)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(exponent);
                total
            })
            .collect();
        ZipfStream {
            cumulative,
            rng: SplitMix64::new(seed ^ 0x21bf_0000_0000_0001),
        }
    }

    /// The next pool index.
    pub fn next_index(&mut self) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let x = self.rng.next_f64() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// The cold workload's order for pass `pass`: a permutation of
/// `0..len`, reshuffled per pass.
pub fn cold_pass(len: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    SplitMix64::new(seed ^ 0xc01d_0000 ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use pharmaverify_corpus::{CorpusConfig, SyntheticWeb};

    fn web() -> SyntheticWeb {
        SyntheticWeb::generate(&CorpusConfig::small(), 11)
    }

    /// The first `n` requested domains of the Zipf workload at `seed`.
    fn stream(web: &SyntheticWeb, seed: u64, n: usize) -> Vec<String> {
        let pool = zipf_pool(web.snapshot(), web.snapshot2(), seed);
        let mut z = ZipfStream::new(pool.len(), ZIPF_EXPONENT, seed);
        (0..n)
            .map(|_| pool[z.next_index()].domain.clone())
            .collect()
    }

    #[test]
    fn same_seed_same_stream_and_different_seed_different_stream() {
        let web = web();
        assert_eq!(stream(&web, 3, 500), stream(&web, 3, 500));
        assert_ne!(stream(&web, 3, 500), stream(&web, 4, 500));
    }

    #[test]
    fn vanished_and_live_labels_match_snapshot_membership() {
        let web = web();
        let (s1, s2) = (web.snapshot(), web.snapshot2());
        let pool = zipf_pool(s1, s2, 8);
        let in2: BTreeSet<&str> = s2.sites.iter().map(|s| s.domain.as_str()).collect();
        for site in &pool {
            assert_eq!(site.live(), in2.contains(site.domain.as_str()), "{site:?}");
            assert_eq!(site.oracle, s2.oracle(&site.domain));
        }
        assert!(pool.iter().any(|s| !s.live()), "some sites vanished");
        // Every site of either snapshot, each once.
        let distinct: BTreeSet<&str> = pool.iter().map(|s| s.domain.as_str()).collect();
        let both: BTreeSet<&str> = s1
            .sites
            .iter()
            .chain(s2.sites.iter())
            .map(|s| s.domain.as_str())
            .collect();
        assert_eq!(distinct, both);
        assert_eq!(
            distinct.len(),
            pool.len(),
            "a site appears once in the pool"
        );
    }

    #[test]
    fn the_seed_shuffles_the_pool_once() {
        let web = web();
        let (s1, s2) = (web.snapshot(), web.snapshot2());
        let domains = |seed| -> Vec<String> {
            zipf_pool(s1, s2, seed)
                .into_iter()
                .map(|s| s.domain)
                .collect()
        };
        assert_eq!(domains(8), domains(8));
        assert_ne!(
            domains(8),
            domains(9),
            "the seed decides which sites are hot"
        );
        let (mut a, mut b) = (domains(8), domains(9));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "every seed ranks the same sites");
    }

    #[test]
    fn each_cold_pass_covers_every_live_site_once() {
        let web = web();
        let live = live_sites(web.snapshot2());
        let first = cold_pass(live.len(), 9, 0);
        let second = cold_pass(live.len(), 9, 1);
        for order in [&first, &second] {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..live.len()).collect::<Vec<_>>());
        }
        assert_ne!(first, second, "passes are reshuffled");
        assert_eq!(first, cold_pass(live.len(), 9, 0));
    }

    #[test]
    fn zipf_head_is_hot() {
        let mut z = ZipfStream::new(500, ZIPF_EXPONENT, 1);
        let draws: Vec<usize> = (0..5000).map(|_| z.next_index()).collect();
        let head = draws.iter().filter(|&&i| i == 0).count();
        let tail = draws.iter().filter(|&&i| i >= 250).count();
        assert!(head > 500, "rank 1 drawn {head} times");
        assert!(tail > 0 && draws.iter().all(|&i| i < 500));
    }
}
