//! Heterogeneous walk portfolios: walk index → (strategy, schedule).
//!
//! The paper launches `p` *identical* walks; a portfolio generalizes this to
//! `p` walks each owning a [`SearchConfig`] and a [`Schedule`].  Seed
//! derivation reuses [`WalkSeeds`], so walk `i` of a portfolio draws exactly
//! the stream walk `i` of a flat multi-walk run with the same master seed
//! would draw — strategies change how the stream is *used*, never which
//! stream is used.

use std::time::Duration;

use cbls_core::SearchConfig;
use cbls_parallel::WalkSeeds;
use serde::{Deserialize, Serialize};

use crate::schedule::{RestartSchedule, Schedule};

/// One walk's strategy: an engine configuration plus a restart schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortfolioMember {
    /// Short name used in reports and by the adaptive scheduler to identify
    /// the strategy across solve requests.
    pub label: String,
    /// Engine parameters of the walk (its `max_iterations_per_restart` /
    /// `max_restarts` pair is superseded by the schedule).
    pub search: SearchConfig,
    /// The restart schedule driving the walk's budget slices.
    pub schedule: Schedule,
}

impl PortfolioMember {
    /// Create a member.
    #[must_use]
    pub fn new(label: impl Into<String>, search: SearchConfig, schedule: Schedule) -> Self {
        Self {
            label: label.into(),
            search,
            schedule,
        }
    }

    /// A member running the default engine parameters under the given
    /// schedule.
    #[must_use]
    pub fn with_schedule(label: impl Into<String>, schedule: Schedule) -> Self {
        Self::new(label, SearchConfig::default(), schedule)
    }

    /// Validate the member's configuration and schedule.
    pub fn validate(&self) -> Result<(), String> {
        self.search
            .validate()
            .map_err(|e| format!("member '{}': {e}", self.label))?;
        self.schedule
            .validate()
            .map_err(|e| format!("member '{}': {e}", self.label))
    }
}

/// A heterogeneous multi-walk run description: one [`PortfolioMember`] per
/// walk, a master seed and an optional wall-clock timeout.
///
/// Walk `i` runs member `i`; use [`Portfolio::cycled`] to spread a small set
/// of strategy prototypes over a larger walk count round-robin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Portfolio {
    members: Vec<PortfolioMember>,
    master_seed: u64,
    timeout: Option<Duration>,
}

impl Portfolio {
    /// A portfolio running `members[i]` on walk `i`, with the
    /// [default master seed](WalkSeeds::DEFAULT_MASTER_SEED).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or any member fails validation.
    #[must_use]
    pub fn new(members: Vec<PortfolioMember>) -> Self {
        assert!(!members.is_empty(), "a portfolio needs at least one member");
        for member in &members {
            if let Err(e) = member.validate() {
                panic!("invalid portfolio: {e}");
            }
        }
        Self {
            members,
            master_seed: WalkSeeds::DEFAULT_MASTER_SEED,
            timeout: None,
        }
    }

    /// Spread `prototypes` over `walks` walks round-robin (walk `i` runs
    /// `prototypes[i % prototypes.len()]`).
    ///
    /// # Panics
    ///
    /// Panics if `prototypes` is empty or `walks` is zero.
    #[must_use]
    pub fn cycled(prototypes: &[PortfolioMember], walks: usize) -> Self {
        assert!(
            !prototypes.is_empty(),
            "a portfolio needs at least one member"
        );
        assert!(walks > 0, "a portfolio needs at least one walk");
        let members = (0..walks)
            .map(|w| prototypes[w % prototypes.len()].clone())
            .collect();
        Self::new(members)
    }

    /// A homogeneous portfolio: the same configuration and schedule on every
    /// walk (the paper's scheme expressed as a portfolio).
    #[must_use]
    pub fn uniform(search: SearchConfig, schedule: Schedule, walks: usize) -> Self {
        let member = PortfolioMember::new("uniform", search, schedule);
        Self::cycled(std::slice::from_ref(&member), walks)
    }

    /// Replace the master seed.
    #[must_use]
    pub fn with_master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Attach a wall-clock timeout to the portfolio's [batch](Self::batch).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Number of walks (= number of members).
    #[must_use]
    pub fn walks(&self) -> usize {
        self.members.len()
    }

    /// The member of walk `walk_id`.
    #[must_use]
    pub fn member_of(&self, walk_id: usize) -> &PortfolioMember {
        &self.members[walk_id]
    }

    /// All members, ordered by walk index.
    #[must_use]
    pub fn members(&self) -> &[PortfolioMember] {
        &self.members
    }

    /// The master seed.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The optional wall-clock timeout.
    #[must_use]
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// The per-walk seed family of this portfolio.
    #[must_use]
    pub fn seeds(&self) -> WalkSeeds {
        WalkSeeds::new(self.master_seed)
    }

    /// Total iteration budget across all walks and restarts (the work bound
    /// of a run in which no walk ever solves).
    #[must_use]
    pub fn total_iteration_budget(&self) -> u64 {
        self.members
            .iter()
            .map(|m| m.schedule.total_budget())
            .fold(0u64, u64::saturating_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycled_assigns_members_round_robin() {
        let protos = vec![
            PortfolioMember::with_schedule("a", Schedule::fixed(100, 1)),
            PortfolioMember::with_schedule("b", Schedule::luby(50, 3)),
        ];
        let p = Portfolio::cycled(&protos, 5);
        assert_eq!(p.walks(), 5);
        let labels: Vec<&str> = (0..5).map(|w| p.member_of(w).label.as_str()).collect();
        assert_eq!(labels, vec!["a", "b", "a", "b", "a"]);
    }

    #[test]
    fn default_master_seed_is_shared_with_multiwalk() {
        let p = Portfolio::uniform(SearchConfig::default(), Schedule::fixed(10, 0), 2);
        assert_eq!(p.master_seed(), WalkSeeds::DEFAULT_MASTER_SEED);
        // and the derived per-walk seeds are the multi-walk seeds
        assert_eq!(p.seeds(), WalkSeeds::new(WalkSeeds::DEFAULT_MASTER_SEED));
    }

    #[test]
    fn budget_sums_across_members() {
        let protos = vec![
            PortfolioMember::with_schedule("a", Schedule::fixed(100, 1)), // 200
            PortfolioMember::with_schedule("b", Schedule::fixed(50, 3)),  // 200
        ];
        let p = Portfolio::cycled(&protos, 3); // a, b, a
        assert_eq!(p.total_iteration_budget(), 600);
    }

    #[test]
    fn portfolio_serde_round_trip() {
        let p = Portfolio::uniform(SearchConfig::default(), Schedule::luby(10, 4), 3)
            .with_master_seed(99)
            .with_timeout(Duration::from_millis(250));
        let json = serde_json::to_string(&p).unwrap();
        let back: Portfolio = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_portfolio_is_rejected() {
        let _ = Portfolio::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "invalid portfolio")]
    fn invalid_member_is_rejected() {
        let _ = Portfolio::new(vec![PortfolioMember::with_schedule(
            "bad",
            Schedule::fixed(0, 1),
        )]);
    }
}
