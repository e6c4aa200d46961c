//! The service audit: every job's winner must match a direct replay of the
//! batch `SolveService::batch_for` reports for its request, bit for bit.

use cbls_parallel::BatchExecution;

/// The parts of a batch's winner a replay must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WinnerKey {
    /// Winning walk index.
    pub walk: usize,
    /// The winning walk's derived seed.
    pub seed: u64,
    /// The winning walk's engine iterations.
    pub iterations: u64,
    /// The winning assignment.
    pub solution: Vec<usize>,
}

impl WinnerKey {
    /// The winner of `execution`, if any walk solved.
    #[must_use]
    pub fn of(execution: &BatchExecution) -> Option<Self> {
        execution.winning_record().map(|r| Self {
            walk: r.walk_id,
            seed: r.seed,
            iterations: r.outcome.stats.iterations,
            solution: r.outcome.solution.clone(),
        })
    }
}

/// Audit totals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Audit {
    /// Jobs whose winner (or absence of one) matched the replay.
    pub matched: u64,
    /// Jobs whose winner differed from the replay.
    pub mismatched: u64,
    /// Jobs whose handle returned no completion.
    pub missing: u64,
}

/// Audit every job against its own replay.
///
/// Each entry pairs a request with what its own handle returned — `None`
/// when the handle yielded no completion, `Some(winner)` otherwise — so the
/// pairing is fixed before any handle is waited on and a missing completion
/// is counted as such instead of shifting every later request onto the
/// wrong completion.
pub fn audit<R>(
    jobs: &[(R, Option<Option<WinnerKey>>)],
    mut replay: impl FnMut(&R) -> Option<WinnerKey>,
) -> Audit {
    let mut totals = Audit::default();
    for (request, completion) in jobs {
        match completion {
            None => totals.missing += 1,
            Some(winner) if *winner == replay(request) => totals.matched += 1,
            Some(_) => totals.mismatched += 1,
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(walk: usize) -> Option<WinnerKey> {
        Some(WinnerKey {
            walk,
            seed: 100 + walk as u64,
            iterations: 10 * walk as u64,
            solution: vec![walk, 0],
        })
    }

    #[test]
    fn a_missing_completion_is_counted_and_does_not_shift_later_pairs() {
        // Job 1's handle returned nothing.  Zipping the requests with only
        // the completions that exist would audit job 2 against job 3's
        // winner and job 3 against nothing.
        let jobs = vec![
            (0usize, Some(key(0))),
            (1, None),
            (2, Some(key(2))),
            (3, Some(key(3))),
        ];
        let totals = audit(&jobs, |&r| key(r));
        assert_eq!(
            totals,
            Audit {
                matched: 3,
                mismatched: 0,
                missing: 1
            }
        );
    }

    #[test]
    fn a_different_winner_or_a_lost_solution_is_a_mismatch() {
        let jobs = vec![(0usize, Some(key(1))), (1, Some(None)), (2, Some(None))];
        let totals = audit(&jobs, |&r| if r == 2 { None } else { key(r) });
        assert_eq!(totals.mismatched, 2);
        assert_eq!(totals.matched, 1, "no winner on both sides matches");
    }
}
