//! The federation's routing policy: a deterministic staleness budget
//! for the verdict store and a confidence floor for the fast path.
//!
//! Both knobs are pure functions of virtual time and verdict fields —
//! no wall clock, no randomness — so the tier that answers any given
//! request is a pure function of the submission history, which is what
//! keeps the federation replay byte-identical across worker counts.

/// Deterministic tier-selection knobs (`--staleness-budget`,
/// `--fast-confidence` on the repro binary).
#[derive(Debug, Clone, PartialEq)]
pub struct FederationPolicy {
    /// How long (virtual micros) a stored verdict stays servable,
    /// half-open like the response-cache TTL: fresh on
    /// `[stamp, stamp + budget)`, stale at `stamp + budget` exactly.
    /// `0` means stored verdicts never go stale.
    pub staleness_budget_micros: u64,
    /// Minimum fast-path confidence to accept its answer; below this
    /// the request falls through to the slow path.
    pub fast_confidence: f64,
}

impl Default for FederationPolicy {
    /// Defaults sized for the replay harness's wave clock (100 µs per
    /// wave): a stored verdict survives six waves, and the fast path
    /// must clear a balanced-coin margin to answer.
    fn default() -> FederationPolicy {
        FederationPolicy {
            staleness_budget_micros: 600,
            fast_confidence: 0.35,
        }
    }
}

impl FederationPolicy {
    /// Whether a store record stamped at `stamped_at` is still fresh at
    /// `now`. Half-open exactly like [`crate::ResponseCache`]'s TTL:
    /// age `budget - 1` is fresh, age `budget` is stale. A rewound
    /// clock reads as age zero (`saturating_sub`), again matching the
    /// cache.
    pub fn store_fresh(&self, stamped_at: u64, now: u64) -> bool {
        self.staleness_budget_micros == 0
            || now.saturating_sub(stamped_at) < self.staleness_budget_micros
    }

    /// Whether a fast-path verdict with this confidence stands.
    pub fn accepts_fast(&self, confidence: f64) -> bool {
        confidence >= self.fast_confidence
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_budget_is_half_open() {
        let policy = FederationPolicy {
            staleness_budget_micros: 200,
            ..FederationPolicy::default()
        };
        // Fresh on [stamp, stamp + budget), stale at the boundary.
        assert!(policy.store_fresh(1000, 1000));
        assert!(policy.store_fresh(1000, 1199));
        assert!(!policy.store_fresh(1000, 1200));
        assert!(!policy.store_fresh(1000, 1201));
    }

    #[test]
    fn zero_budget_means_never_stale() {
        let policy = FederationPolicy {
            staleness_budget_micros: 0,
            ..FederationPolicy::default()
        };
        assert!(policy.store_fresh(0, u64::MAX));
    }

    #[test]
    fn rewound_clock_reads_as_age_zero() {
        let policy = FederationPolicy {
            staleness_budget_micros: 1,
            ..FederationPolicy::default()
        };
        // now < stamp: saturating age 0, still fresh — same contract as
        // the response cache's TTL.
        assert!(policy.store_fresh(500, 400));
    }

    #[test]
    fn fast_confidence_floor_is_inclusive() {
        let policy = FederationPolicy {
            fast_confidence: 0.5,
            ..FederationPolicy::default()
        };
        assert!(policy.accepts_fast(0.5));
        assert!(policy.accepts_fast(0.75));
        assert!(!policy.accepts_fast(0.4999));
    }
}
