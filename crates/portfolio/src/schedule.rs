//! Restart schedules: how a walk's iteration budget is sliced into restarts.
//!
//! The paper's engine restarts on a *fixed* schedule (`max_restarts` slices
//! of `max_iterations_per_restart` iterations each).  Because the parallel
//! speedup of independent walks is governed by the left tail of the per-walk
//! runtime distribution, reshaping that distribution with a restart schedule
//! is the cheapest lever a portfolio has:
//!
//! * [`Fixed`] — the paper's own policy, expressed as a schedule;
//! * [`Geometric`] — slices grow by a constant factor, hedging between many
//!   short probes and a few long dives;
//! * [`Luby`] — the universal schedule of Luby, Sinclair & Zuckerman (1993),
//!   within a constant factor of the optimal restart strategy for *any*
//!   runtime distribution, driven by the [`luby`] sequence
//!   1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
//!
//! A schedule plugs into the engine through
//! [`Run::budget`](cbls_core::Run::budget):
//! the engine asks for the budget of restart 0, 1, 2, ... and stops when the
//! schedule returns `None`.  The walk's random stream is *never* re-seeded
//! between restarts, so two schedules over the same seed explore genuinely
//! different trajectories of the same stream.

use serde::{Deserialize, Serialize};

/// A source of per-restart iteration budgets.
///
/// `budget(restart)` returns the iteration budget of the 0-based `restart`,
/// or `None` once the schedule is exhausted (the walk gives up).  Schedules
/// must be deterministic: the same `restart` index always yields the same
/// budget.
pub trait RestartSchedule {
    /// Iteration budget of restart `restart` (0-based), or `None` to stop.
    fn budget(&self, restart: u64) -> Option<u64>;

    /// Short human-readable description used in reports.
    fn label(&self) -> String;

    /// Total iteration budget across every restart of the schedule.
    fn total_budget(&self) -> u64 {
        (0..).map_while(|r| self.budget(r)).sum()
    }
}

/// The `i`-th term of the Luby sequence (1-based):
/// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
///
/// Defined by `luby(2^k − 1) = 2^(k−1)` and
/// `luby(i) = luby(i − 2^(k−1) + 1)` for `2^(k−1) ≤ i < 2^k − 1`.
///
/// # Panics
///
/// Panics if `i == 0` (the sequence is 1-based).
#[must_use]
pub fn luby(mut i: u64) -> u64 {
    assert!(i >= 1, "the Luby sequence is 1-based");
    loop {
        // The smallest k with i <= 2^k - 1 is i's bit length; computing the
        // block end as a right-shift of u64::MAX keeps k = 64 overflow-free.
        let k = 64 - i.leading_zeros();
        let block_end = u64::MAX >> (64 - k); // 2^k - 1
        if i == block_end {
            return 1u64 << (k - 1);
        }
        i -= block_end >> 1; // recurse on i - (2^(k-1) - 1)
    }
}

/// The paper's fixed schedule: `max_restarts + 1` slices of `budget`
/// iterations each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fixed {
    /// Iterations per restart.
    pub budget: u64,
    /// Number of restarts after the first try (total slices = this + 1).
    pub max_restarts: u32,
}

impl RestartSchedule for Fixed {
    fn budget(&self, restart: u64) -> Option<u64> {
        (restart <= u64::from(self.max_restarts)).then_some(self.budget)
    }

    fn label(&self) -> String {
        format!(
            "fixed({}x{})",
            self.budget,
            u64::from(self.max_restarts) + 1
        )
    }
}

/// Geometrically growing slices: restart `r` gets `base * factor^r`
/// iterations (rounded, at least 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Geometric {
    /// Budget of the first restart.
    pub base: u64,
    /// Growth factor per restart (≥ 1).
    pub factor: f64,
    /// Number of restarts after the first try (total slices = this + 1).
    pub max_restarts: u32,
}

impl RestartSchedule for Geometric {
    fn budget(&self, restart: u64) -> Option<u64> {
        if restart > u64::from(self.max_restarts) {
            return None;
        }
        let raw = self.base as f64 * self.factor.powi(restart.min(1 << 16) as i32);
        Some((raw.min(u64::MAX as f64) as u64).max(1))
    }

    fn label(&self) -> String {
        format!(
            "geometric({}x{:.2}^r, {} restarts)",
            self.base, self.factor, self.max_restarts
        )
    }
}

/// The Luby universal schedule: restart `r` gets `unit * luby(r + 1)`
/// iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Luby {
    /// Scale of the sequence: restart `r` runs `unit * luby(r + 1)` iterations.
    pub unit: u64,
    /// Number of restarts after the first try (total slices = this + 1).
    pub max_restarts: u32,
}

impl RestartSchedule for Luby {
    fn budget(&self, restart: u64) -> Option<u64> {
        (restart <= u64::from(self.max_restarts))
            .then(|| self.unit.saturating_mul(luby(restart + 1)))
    }

    fn label(&self) -> String {
        format!("luby({}u, {} restarts)", self.unit, self.max_restarts)
    }
}

/// A concrete, serializable restart schedule (the closed set of schedule
/// families the portfolio machinery ships with).
///
/// `Schedule` implements [`RestartSchedule`] by delegation, so APIs that take
/// the trait accept it directly; code that needs an open set of schedules can
/// implement the trait on its own types instead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Schedule {
    /// Fixed-size slices (the paper's policy).
    Fixed(Fixed),
    /// Geometrically growing slices.
    Geometric(Geometric),
    /// The Luby universal schedule.
    Luby(Luby),
}

impl Schedule {
    /// A fixed schedule of `max_restarts + 1` slices of `budget` iterations.
    #[must_use]
    pub fn fixed(budget: u64, max_restarts: u32) -> Self {
        Schedule::Fixed(Fixed {
            budget,
            max_restarts,
        })
    }

    /// A geometric schedule starting at `base` and growing by `factor`.
    #[must_use]
    pub fn geometric(base: u64, factor: f64, max_restarts: u32) -> Self {
        Schedule::Geometric(Geometric {
            base,
            factor,
            max_restarts,
        })
    }

    /// A Luby schedule scaled by `unit`.
    #[must_use]
    pub fn luby(unit: u64, max_restarts: u32) -> Self {
        Schedule::Luby(Luby { unit, max_restarts })
    }

    /// The schedule equivalent to a [`SearchConfig`](cbls_core::SearchConfig)'s
    /// own fixed restart policy.
    #[must_use]
    pub fn of_config(config: &cbls_core::SearchConfig) -> Self {
        Schedule::fixed(config.max_iterations_per_restart, config.max_restarts)
    }

    /// Validate the schedule parameters, returning a description of the
    /// first offending field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Schedule::Fixed(f) => {
                if f.budget == 0 {
                    return Err("fixed schedule budget must be positive".into());
                }
            }
            Schedule::Geometric(g) => {
                if g.base == 0 {
                    return Err("geometric schedule base must be positive".into());
                }
                if !(g.factor.is_finite() && g.factor >= 1.0) {
                    return Err("geometric schedule factor must be >= 1".into());
                }
            }
            Schedule::Luby(l) => {
                if l.unit == 0 {
                    return Err("luby schedule unit must be positive".into());
                }
            }
        }
        Ok(())
    }
}

impl RestartSchedule for Schedule {
    fn budget(&self, restart: u64) -> Option<u64> {
        match self {
            Schedule::Fixed(s) => s.budget(restart),
            Schedule::Geometric(s) => s.budget(restart),
            Schedule::Luby(s) => s.budget(restart),
        }
    }

    fn label(&self) -> String {
        match self {
            Schedule::Fixed(s) => s.label(),
            Schedule::Geometric(s) => s.label(),
            Schedule::Luby(s) => s.label(),
        }
    }
}

impl From<Fixed> for Schedule {
    fn from(s: Fixed) -> Self {
        Schedule::Fixed(s)
    }
}

impl From<Geometric> for Schedule {
    fn from(s: Geometric) -> Self {
        Schedule::Geometric(s)
    }
}

impl From<Luby> for Schedule {
    fn from(s: Luby) -> Self {
        Schedule::Luby(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical first 63 terms of the Luby sequence (through the full
    /// block ending at `2^6 - 1 = 63`).
    const LUBY_PREFIX: [u64; 63] = [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        16, 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4,
        8, 16, 32,
    ];

    #[test]
    fn luby_matches_the_canonical_prefix() {
        for (i, &expected) in LUBY_PREFIX.iter().enumerate() {
            let term = luby(i as u64 + 1);
            assert_eq!(term, expected, "luby({}) = {term}, want {expected}", i + 1);
        }
    }

    #[test]
    fn luby_block_boundaries_are_powers_of_two() {
        for k in 1..=20u32 {
            assert_eq!(luby((1u64 << k) - 1), 1u64 << (k - 1));
        }
    }

    #[test]
    fn luby_handles_the_extremes_of_u64() {
        // u64::MAX = 2^64 - 1 ends the 64th block; one past 2^63 restarts it.
        assert_eq!(luby(u64::MAX), 1u64 << 63);
        assert_eq!(luby(1u64 << 63), 1);
        assert_eq!(luby((1u64 << 63) + 1), 1);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn luby_zero_is_rejected() {
        let _ = luby(0);
    }

    #[test]
    fn fixed_schedule_mirrors_search_config() {
        let config = cbls_core::SearchConfig::builder()
            .max_iterations_per_restart(500)
            .max_restarts(3)
            .build();
        let schedule = Schedule::of_config(&config);
        for r in 0..10 {
            assert_eq!(schedule.budget(r), config.restart_budget(r));
        }
        assert_eq!(schedule.total_budget(), config.total_iteration_budget());
    }

    #[test]
    fn geometric_schedule_grows_and_terminates() {
        let s = Schedule::geometric(100, 2.0, 4);
        let budgets: Vec<u64> = (0..).map_while(|r| s.budget(r)).collect();
        assert_eq!(budgets, vec![100, 200, 400, 800, 1600]);
        assert_eq!(s.total_budget(), 3100);
        // factor 1.0 degenerates to the fixed schedule
        let flat = Schedule::geometric(100, 1.0, 2);
        assert_eq!(
            (0..).map_while(|r| flat.budget(r)).collect::<Vec<_>>(),
            vec![100, 100, 100]
        );
    }

    #[test]
    fn luby_schedule_scales_the_sequence() {
        let s = Schedule::luby(1000, 6);
        let budgets: Vec<u64> = (0..).map_while(|r| s.budget(r)).collect();
        assert_eq!(budgets, vec![1000, 1000, 2000, 1000, 1000, 2000, 4000]);
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        assert!(Schedule::fixed(0, 1).validate().is_err());
        assert!(Schedule::geometric(0, 2.0, 1).validate().is_err());
        assert!(Schedule::geometric(10, 0.5, 1).validate().is_err());
        assert!(Schedule::geometric(10, f64::NAN, 1).validate().is_err());
        assert!(Schedule::luby(0, 1).validate().is_err());
        assert!(Schedule::fixed(1, 0).validate().is_ok());
        assert!(Schedule::geometric(1, 1.5, 0).validate().is_ok());
        assert!(Schedule::luby(1, 0).validate().is_ok());
    }

    #[test]
    fn labels_identify_the_family() {
        assert!(Schedule::fixed(10, 1).label().starts_with("fixed"));
        assert!(Schedule::geometric(10, 2.0, 1)
            .label()
            .starts_with("geometric"));
        assert!(Schedule::luby(10, 1).label().starts_with("luby"));
    }

    #[test]
    fn schedules_serde_round_trip() {
        for s in [
            Schedule::fixed(10, 2),
            Schedule::geometric(5, 1.5, 3),
            Schedule::luby(7, 8),
        ] {
            let json = serde_json::to_string(&s).unwrap();
            let back: Schedule = serde_json::from_str(&json).unwrap();
            assert_eq!(s, back);
        }
    }
}
