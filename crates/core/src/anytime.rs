//! Anytime incumbents: lock-free publication of each walk's best-so-far.
//!
//! The multi-walk executor only learns a walk's best assignment when the
//! walk *returns*.  That is too late for two situations the supervision
//! layer cares about: a walk that panics loses everything it found, and a
//! batch that blows its deadline reports `winner: None` even though every
//! walk holds a perfectly good incumbent.  [`BestSoFar`] closes the gap: a
//! per-walk slot the engine publishes into on every strict improvement (via
//! [`SearchObserver::on_new_best`](crate::SearchObserver::on_new_best)), so
//! the best assignment found so far survives the walk that found it.
//!
//! Concurrency contract: each slot has exactly **one writer** — its own
//! walk — so publication is an uncontended atomic store plus a mutex the
//! owner alone locks on the improvement cold edge.  The reader (the
//! executor, rebuilding a panicked walk's record) takes the mutex briefly to
//! copy the assignment out.  The fast path costs the hot loop nothing:
//! publication only happens when the best cost strictly improves.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// A batch's best assignment: the walk that holds it, its cost and the
/// assignment itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Incumbent {
    /// The walk that holds it.
    pub walk_id: usize,
    /// Its cost.
    pub cost: i64,
    /// The assignment realizing `cost`.
    pub assignment: Vec<usize>,
}

/// One walk's slot: the published cost plus the assignment realizing it.
struct BestSlot {
    /// `i64::MAX` until the first publication.
    cost: AtomicI64,
    assignment: Mutex<Vec<usize>>,
}

/// Per-walk best-so-far slots for one batch; see the module docs.
pub struct BestSoFar {
    slots: Vec<BestSlot>,
}

impl BestSoFar {
    /// Empty slots for `walks` walks.
    #[must_use]
    pub fn new(walks: usize) -> Self {
        Self {
            slots: (0..walks)
                .map(|_| BestSlot {
                    cost: AtomicI64::new(i64::MAX),
                    assignment: Mutex::new(Vec::new()),
                })
                .collect(),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn walks(&self) -> usize {
        self.slots.len()
    }

    /// Publish `assignment` as walk `walk_id`'s best iff `cost` strictly
    /// improves on the slot's current cost.  Called only by the owning walk
    /// (single-writer contract); out-of-range ids are ignored so a
    /// mis-sized table can never panic a search.
    pub fn publish(&self, walk_id: usize, cost: i64, assignment: &[usize]) {
        let Some(slot) = self.slots.get(walk_id) else {
            return;
        };
        // Relaxed: single-writer slot — only the owning walk stores, so this
        // read cannot race a concurrent improvement of the same slot.
        if cost >= slot.cost.load(Ordering::Relaxed) {
            return;
        }
        {
            let mut stored = slot.assignment.lock().expect("best-so-far slot poisoned");
            stored.clear();
            stored.extend_from_slice(assignment);
        }
        // Release: pairs with the Acquire load in `best_cost_of` so a
        // reader that observes the new cost also observes the assignment
        // written under the mutex above.
        slot.cost.store(cost, Ordering::Release);
    }

    /// The cost walk `walk_id` has published, if anything.
    #[must_use]
    pub fn best_cost_of(&self, walk_id: usize) -> Option<i64> {
        let slot = self.slots.get(walk_id)?;
        // Acquire: pairs with the Release store in `publish`.
        let cost = slot.cost.load(Ordering::Acquire);
        (cost != i64::MAX).then_some(cost)
    }

    /// Copy out walk `walk_id`'s published best, if anything.
    #[must_use]
    pub fn best_of(&self, walk_id: usize) -> Option<(i64, Vec<usize>)> {
        let cost = self.best_cost_of(walk_id)?;
        let slot = &self.slots[walk_id];
        let assignment = slot
            .assignment
            .lock()
            .expect("best-so-far slot poisoned")
            .to_vec();
        Some((cost, assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_has_no_incumbent() {
        let best = BestSoFar::new(3);
        assert_eq!(best.walks(), 3);
        assert_eq!(best.best_cost_of(0), None);
        assert_eq!(best.best_of(2), None);
    }

    #[test]
    fn only_strict_improvements_are_kept() {
        let best = BestSoFar::new(1);
        best.publish(0, 10, &[2, 1, 0]);
        best.publish(0, 10, &[0, 1, 2]); // equal: ignored
        best.publish(0, 12, &[1, 0, 2]); // worse: ignored
        assert_eq!(best.best_of(0), Some((10, vec![2, 1, 0])));
        best.publish(0, 3, &[0, 2, 1]);
        assert_eq!(best.best_of(0), Some((3, vec![0, 2, 1])));
    }

    #[test]
    fn out_of_range_walks_are_ignored() {
        let best = BestSoFar::new(1);
        best.publish(9, 1, &[0]);
        assert_eq!(best.best_cost_of(0), None);
        assert_eq!(best.best_cost_of(9), None);
    }
}
