//! Search parameters of the Adaptive Search engine.
//!
//! The parameter set mirrors the knobs of the original C framework that the
//! paper's experiments use (freeze duration, reset limit / percentage,
//! probability of accepting a local minimum, restart policy), plus a few
//! engine-level switches (`first_best`, plateau acceptance) that the original
//! library exposes per benchmark.

use serde::{Deserialize, Serialize};

/// Tunable parameters of a single Adaptive Search run.
///
/// Construct with [`SearchConfig::default`] or [`SearchConfig::builder`];
/// problems may refine a configuration through
/// [`Evaluator::tune`](crate::Evaluator::tune), exactly as each benchmark of
/// the original C distribution ships its own parameter block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Maximum number of iterations per restart before the engine reshuffles
    /// the permutation and starts again.
    pub max_iterations_per_restart: u64,
    /// Maximum number of restarts; the total iteration budget is therefore
    /// `(max_restarts + 1) * max_iterations_per_restart`.
    pub max_restarts: u32,
    /// Number of iterations a marked (tabu) variable stays frozen.
    pub freeze_duration: u64,
    /// Number of variables marked (i.e. local minima hit) since the last
    /// partial reset that triggers the next partial reset.  `None` selects
    /// the engine default (`max(2, n / 10)`).
    pub reset_limit: Option<usize>,
    /// Fraction of the variables that a partial reset re-places (0, 1].
    pub reset_fraction: f64,
    /// Probability of accepting the best move even when it does not improve
    /// the cost (escaping a local minimum by force instead of marking).
    pub prob_select_local_min: f64,
    /// Probability of accepting a sideways (equal-cost) best move.
    pub plateau_probability: f64,
    /// If `true`, take the first strictly improving swap instead of scanning
    /// all candidate swaps for the best one.
    pub first_best: bool,
    /// If `true`, every iteration scans *all* variable pairs for the best
    /// swap instead of only the swaps involving the worst variable (the
    /// `exhaustive` flag of the original C framework; useful for models with
    /// tightly coupled linear constraints such as the alpha cipher).
    pub exhaustive: bool,
    /// Cost at or below which the problem counts as solved (0 for pure CSPs).
    pub target_cost: i64,
    /// How many iterations pass between heartbeats and deadline checks.
    /// The stop bound and kill flag themselves are read every iteration.
    pub stop_check_interval: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            max_iterations_per_restart: 100_000,
            max_restarts: 100,
            freeze_duration: 2,
            reset_limit: None,
            reset_fraction: 0.25,
            prob_select_local_min: 0.0,
            plateau_probability: 0.5,
            first_best: false,
            exhaustive: false,
            target_cost: 0,
            stop_check_interval: 32,
        }
    }
}

impl SearchConfig {
    /// Start building a configuration from the defaults.
    #[must_use]
    pub fn builder() -> SearchConfigBuilder {
        SearchConfigBuilder {
            config: Self::default(),
        }
    }

    /// The reset limit that will actually be used for a problem of `n`
    /// variables.
    #[must_use]
    pub fn effective_reset_limit(&self, n: usize) -> usize {
        self.reset_limit.unwrap_or_else(|| (n / 10).max(2))
    }

    /// The iteration budget of the `restart`-th restart (0-based) under this
    /// configuration's own fixed schedule: `max_iterations_per_restart` for
    /// the first `max_restarts + 1` restarts, then `None` (stop).
    ///
    /// This is the default restart schedule of
    /// [`AdaptiveSearch::solve`](crate::AdaptiveSearch::solve); external
    /// schedules (Luby, geometric, [`sliced_budget`](Self::sliced_budget))
    /// replace it through [`Run::budget`](crate::Run::budget).
    #[must_use]
    pub fn restart_budget(&self, restart: u64) -> Option<u64> {
        (restart <= u64::from(self.max_restarts)).then_some(self.max_iterations_per_restart)
    }

    /// The restart schedule that spends exactly `total` iterations: restarts
    /// of `max_iterations_per_restart`, the last one cut to what remains,
    /// whatever `max_restarts` says.  A pure function of the restart index,
    /// so one schedule can drive many walks at once.
    pub fn sliced_budget(&self, total: u64) -> impl Fn(u64) -> Option<u64> + Send + Sync + 'static {
        let per_restart = self.max_iterations_per_restart.max(1);
        move |restart| {
            let used = restart.saturating_mul(per_restart);
            (used < total).then(|| per_restart.min(total - used))
        }
    }

    /// Validate parameter ranges, returning a description of the first
    /// offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_iterations_per_restart == 0 {
            return Err("max_iterations_per_restart must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.reset_fraction) || self.reset_fraction == 0.0 {
            return Err("reset_fraction must be in (0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.prob_select_local_min) {
            return Err("prob_select_local_min must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.plateau_probability) {
            return Err("plateau_probability must be in [0, 1]".into());
        }
        if self.stop_check_interval == 0 {
            return Err("stop_check_interval must be positive".into());
        }
        Ok(())
    }
}

/// Fluent builder for [`SearchConfig`].
#[derive(Debug, Clone)]
pub struct SearchConfigBuilder {
    config: SearchConfig,
}

impl SearchConfigBuilder {
    /// Set the per-restart iteration cap.
    #[must_use]
    pub fn max_iterations_per_restart(mut self, v: u64) -> Self {
        self.config.max_iterations_per_restart = v;
        self
    }

    /// Set the maximum number of restarts.
    #[must_use]
    pub fn max_restarts(mut self, v: u32) -> Self {
        self.config.max_restarts = v;
        self
    }

    /// Set the tabu freeze duration.
    #[must_use]
    pub fn freeze_duration(mut self, v: u64) -> Self {
        self.config.freeze_duration = v;
        self
    }

    /// Set the marked-variable count that triggers a partial reset.
    #[must_use]
    pub fn reset_limit(mut self, v: usize) -> Self {
        self.config.reset_limit = Some(v);
        self
    }

    /// Set the fraction of variables re-placed by a partial reset.
    #[must_use]
    pub fn reset_fraction(mut self, v: f64) -> Self {
        self.config.reset_fraction = v;
        self
    }

    /// Set the probability of forcing the best move at a local minimum.
    #[must_use]
    pub fn prob_select_local_min(mut self, v: f64) -> Self {
        self.config.prob_select_local_min = v;
        self
    }

    /// Set the probability of accepting sideways moves.
    #[must_use]
    pub fn plateau_probability(mut self, v: f64) -> Self {
        self.config.plateau_probability = v;
        self
    }

    /// Take the first improving swap instead of the best one.
    #[must_use]
    pub fn first_best(mut self, v: bool) -> Self {
        self.config.first_best = v;
        self
    }

    /// Scan all variable pairs each iteration instead of only the worst
    /// variable's swaps.
    #[must_use]
    pub fn exhaustive(mut self, v: bool) -> Self {
        self.config.exhaustive = v;
        self
    }

    /// Set the cost threshold at which the search stops.
    #[must_use]
    pub fn target_cost(mut self, v: i64) -> Self {
        self.config.target_cost = v;
        self
    }

    /// Set how often (in iterations) the engine beats its heartbeat and
    /// checks the deadline.
    #[must_use]
    pub fn stop_check_interval(mut self, v: u64) -> Self {
        self.config.stop_check_interval = v;
        self
    }

    /// Finish building, panicking on invalid parameter combinations.
    #[must_use]
    pub fn build(self) -> SearchConfig {
        if let Err(e) = self.config.validate() {
            panic!("invalid SearchConfig: {e}");
        }
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(SearchConfig::default().validate().is_ok());
    }

    #[test]
    fn builder_sets_fields() {
        let c = SearchConfig::builder()
            .max_iterations_per_restart(500)
            .max_restarts(3)
            .freeze_duration(7)
            .reset_limit(4)
            .reset_fraction(0.5)
            .prob_select_local_min(0.1)
            .plateau_probability(0.9)
            .first_best(true)
            .target_cost(1)
            .stop_check_interval(8)
            .build();
        assert_eq!(c.max_iterations_per_restart, 500);
        assert_eq!(c.max_restarts, 3);
        assert_eq!(c.freeze_duration, 7);
        assert_eq!(c.reset_limit, Some(4));
        assert!((c.reset_fraction - 0.5).abs() < 1e-12);
        assert!((c.prob_select_local_min - 0.1).abs() < 1e-12);
        assert!((c.plateau_probability - 0.9).abs() < 1e-12);
        assert!(c.first_best);
        assert_eq!(c.target_cost, 1);
        assert_eq!(c.stop_check_interval, 8);
    }

    #[test]
    fn effective_reset_limit_uses_size_default() {
        let c = SearchConfig::default();
        assert_eq!(c.effective_reset_limit(5), 2);
        assert_eq!(c.effective_reset_limit(100), 10);
        let c = SearchConfig::builder().reset_limit(3).build();
        assert_eq!(c.effective_reset_limit(100), 3);
    }

    #[test]
    fn total_budget_accounts_for_restarts() {
        let c = SearchConfig::builder()
            .max_iterations_per_restart(10)
            .max_restarts(4)
            .build();
        let total: u64 = (0..).map_while(|r| c.restart_budget(r)).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn restart_budget_matches_the_fixed_schedule() {
        let c = SearchConfig::builder()
            .max_iterations_per_restart(10)
            .max_restarts(2)
            .build();
        assert_eq!(c.restart_budget(0), Some(10));
        assert_eq!(c.restart_budget(2), Some(10));
        assert_eq!(c.restart_budget(3), None);
        // three slices of ten
        let total: u64 = (0..10).map_while(|r| c.restart_budget(r)).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn sliced_budget_spends_exactly_the_total() {
        let c = SearchConfig::builder()
            .max_iterations_per_restart(10)
            .max_restarts(0)
            .build();
        let slices = |total| {
            let budget = c.sliced_budget(total);
            (0..).map_while(&budget).collect::<Vec<u64>>()
        };
        assert_eq!(slices(25), vec![10, 10, 5]);
        assert_eq!(slices(20), vec![10, 10]);
        assert_eq!(slices(3), vec![3]);
        assert!(slices(0).is_empty());
        // stateless: asking again gives the same slice
        let budget = c.sliced_budget(25);
        assert_eq!((budget(2), budget(2), budget(3)), (Some(5), Some(5), None));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SearchConfig {
            max_iterations_per_restart: 0,
            ..SearchConfig::default()
        }
        .validate()
        .is_err());
        assert!(SearchConfig {
            reset_fraction: 0.0,
            ..SearchConfig::default()
        }
        .validate()
        .is_err());
        assert!(SearchConfig {
            reset_fraction: 1.5,
            ..SearchConfig::default()
        }
        .validate()
        .is_err());
        assert!(SearchConfig {
            prob_select_local_min: -0.1,
            ..SearchConfig::default()
        }
        .validate()
        .is_err());
        assert!(SearchConfig {
            plateau_probability: 2.0,
            ..SearchConfig::default()
        }
        .validate()
        .is_err());
        assert!(SearchConfig {
            stop_check_interval: 0,
            ..SearchConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid SearchConfig")]
    fn builder_panics_on_invalid() {
        let _ = SearchConfig::builder().reset_fraction(0.0).build();
    }

    #[test]
    fn serde_round_trip() {
        let c = SearchConfig::builder().freeze_duration(9).build();
        let json = serde_json::to_string(&c).unwrap();
        let back: SearchConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
