//! The "alpha" cryptarithm (letters-to-numbers cipher).
//!
//! Assign a distinct value from `1..=26` to each letter of the alphabet so
//! that the letter-sum of every word in a list equals its prescribed total.
//! This is the `alpha` benchmark of the original Adaptive Search
//! distribution; it exercises linear equality constraints over a permutation,
//! a different constraint structure from the difference-based models.
//!
//! The standard word list (twenty musical words, from *ballet* to *waltz*) is
//! built in.  To keep the instance self-consistent without relying on an
//! external data file, the word totals of [`AlphaCipher::standard`] are
//! computed from a fixed reference assignment, which is therefore a known
//! solution of the generated instance; custom instances with arbitrary
//! targets can be built with [`AlphaCipher::new`].

use cbls_core::{Evaluator, IncrementalProfile, SearchConfig};
use serde::{Deserialize, Serialize};

/// Number of letters in the alphabet (and of values in the permutation).
pub const ALPHABET: usize = 26;

/// The standard word list of the `alpha` benchmark.
pub const STANDARD_WORDS: [&str; 20] = [
    "ballet",
    "cello",
    "concert",
    "flute",
    "fugue",
    "glee",
    "jazz",
    "lyre",
    "oboe",
    "opera",
    "polka",
    "quartet",
    "saxophone",
    "scale",
    "solo",
    "song",
    "soprano",
    "theme",
    "violin",
    "waltz",
];

/// The reference assignment used to derive the standard instance's totals
/// (value of 'a' first, ..., 'z' last).
const REFERENCE_ASSIGNMENT: [i64; ALPHABET] = [
    5, 13, 9, 16, 20, 4, 24, 21, 25, 17, 23, 2, 8, 12, 10, 19, 7, 11, 15, 3, 1, 26, 6, 22, 18, 14,
];

/// One word-sum equation: the letter multiset and the required total.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WordEquation {
    /// The word (lowercase ASCII letters only).
    pub word: String,
    /// Number of occurrences of each letter in the word.
    pub letter_counts: [u8; ALPHABET],
    /// Required sum of letter values.
    pub total: i64,
}

impl WordEquation {
    /// Build an equation from a word and its target total.
    ///
    /// # Panics
    ///
    /// Panics if the word contains non-ASCII-alphabetic characters.
    #[must_use]
    pub fn new(word: &str, total: i64) -> Self {
        let mut letter_counts = [0u8; ALPHABET];
        for ch in word.chars() {
            assert!(
                ch.is_ascii_alphabetic(),
                "word {word:?} contains a non-alphabetic character"
            );
            letter_counts[(ch.to_ascii_lowercase() as u8 - b'a') as usize] += 1;
        }
        Self {
            word: word.to_ascii_lowercase(),
            letter_counts,
            total,
        }
    }

    /// The word's letter-sum under an assignment (`values[letter] = value`).
    #[must_use]
    pub fn sum_under(&self, values: &[i64; ALPHABET]) -> i64 {
        self.letter_counts
            .iter()
            .zip(values.iter())
            .map(|(&c, &v)| i64::from(c) * v)
            .sum()
    }
}

/// The alpha cipher problem: find the permutation of `1..=26` satisfying all
/// word equations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlphaCipher {
    equations: Vec<WordEquation>,
    /// Current word sums (incremental state).
    sums: Vec<i64>,
    /// For each letter, the indices of the equations it appears in.
    letter_to_equations: Vec<Vec<usize>>,
}

impl AlphaCipher {
    /// Build an instance from explicit word equations.
    #[must_use]
    pub fn new(equations: Vec<WordEquation>) -> Self {
        assert!(!equations.is_empty(), "at least one equation is required");
        let mut letter_to_equations = vec![Vec::new(); ALPHABET];
        for (idx, eq) in equations.iter().enumerate() {
            for (letter, &count) in eq.letter_counts.iter().enumerate() {
                if count > 0 {
                    letter_to_equations[letter].push(idx);
                }
            }
        }
        let sums = vec![0; equations.len()];
        Self {
            equations,
            sums,
            letter_to_equations,
        }
    }

    /// The standard twenty-word instance (totals derived from the reference
    /// assignment, which is therefore one of its solutions).
    #[must_use]
    pub fn standard() -> Self {
        let equations = STANDARD_WORDS
            .iter()
            .map(|w| {
                let eq = WordEquation::new(w, 0);
                let total = eq.sum_under(&REFERENCE_ASSIGNMENT);
                WordEquation::new(w, total)
            })
            .collect();
        Self::new(equations)
    }

    /// The word equations of this instance.
    #[must_use]
    pub fn equations(&self) -> &[WordEquation] {
        &self.equations
    }

    #[inline]
    fn letter_value(perm: &[usize], letter: usize) -> i64 {
        perm[letter] as i64 + 1
    }

    fn assignment(perm: &[usize]) -> [i64; ALPHABET] {
        let mut values = [0i64; ALPHABET];
        for (letter, value) in values.iter_mut().enumerate() {
            *value = Self::letter_value(perm, letter);
        }
        values
    }

    fn recompute(&mut self, perm: &[usize]) {
        let values = Self::assignment(perm);
        for (sum, eq) in self.sums.iter_mut().zip(self.equations.iter()) {
            *sum = eq.sum_under(&values);
        }
    }

    fn cost_from_sums(&self, sums: &[i64]) -> i64 {
        sums.iter()
            .zip(self.equations.iter())
            .map(|(&s, eq)| (s - eq.total).abs())
            .sum()
    }
}

impl Evaluator for AlphaCipher {
    fn size(&self) -> usize {
        ALPHABET
    }

    fn name(&self) -> &str {
        "alpha-cipher"
    }

    fn init(&mut self, perm: &[usize]) -> i64 {
        self.recompute(perm);
        self.cost_from_sums(&self.sums)
    }

    fn cost(&self, perm: &[usize]) -> i64 {
        // From-scratch recomputation against a stack-resident assignment
        // table (no evaluator clone).
        let values = Self::assignment(perm);
        self.equations
            .iter()
            .map(|eq| (eq.sum_under(&values) - eq.total).abs())
            .sum()
    }

    fn cost_on_variable(&self, _perm: &[usize], i: usize) -> i64 {
        // Error of a letter: total deviation of the equations it appears in.
        self.letter_to_equations[i]
            .iter()
            .map(|&eq| (self.sums[eq] - self.equations[eq].total).abs())
            .sum()
    }

    fn cost_if_swap(&self, perm: &[usize], current_cost: i64, i: usize, j: usize) -> i64 {
        if i == j {
            return current_cost;
        }
        let vi = Self::letter_value(perm, i);
        let vj = Self::letter_value(perm, j);
        let delta_i = vj - vi;
        let delta_j = vi - vj;
        let mut cost = current_cost;
        // One pass over the equations, no allocation: an equation containing
        // neither letter contributes delta 0 and is skipped by the test below
        // (the per-equation delta is count_i·Δi + count_j·Δj).
        for (eq_idx, eq) in self.equations.iter().enumerate() {
            let delta =
                i64::from(eq.letter_counts[i]) * delta_i + i64::from(eq.letter_counts[j]) * delta_j;
            if delta != 0 {
                cost -= (self.sums[eq_idx] - eq.total).abs();
                cost += (self.sums[eq_idx] + delta - eq.total).abs();
            }
        }
        cost
    }

    fn executed_swap(&mut self, perm: &[usize], i: usize, j: usize) {
        if i == j {
            return;
        }
        // `perm` is after the swap: letter i now has the value letter j had.
        let now_i = Self::letter_value(perm, i);
        let now_j = Self::letter_value(perm, j);
        let delta_i = now_i - now_j;
        let delta_j = now_j - now_i;
        for (eq_idx, eq) in self.equations.iter().enumerate() {
            self.sums[eq_idx] +=
                i64::from(eq.letter_counts[i]) * delta_i + i64::from(eq.letter_counts[j]) * delta_j;
        }
    }

    fn touched_by_swap(&self, _perm: &[usize], i: usize, j: usize, out: &mut Vec<usize>) -> bool {
        if i == j {
            return true;
        }
        // A letter's error sums the deviations of the equations it appears
        // in, so the touched letters are exactly those sharing an equation
        // with `i` or `j` (a superset: shared equations whose sum happens to
        // be unchanged are harmless).
        let mut seen = [false; ALPHABET];
        for &eq_idx in self.letter_to_equations[i]
            .iter()
            .chain(self.letter_to_equations[j].iter())
        {
            for (letter, &count) in self.equations[eq_idx].letter_counts.iter().enumerate() {
                if count > 0 && !seen[letter] {
                    seen[letter] = true;
                    out.push(letter);
                }
            }
        }
        true
    }

    fn incremental_profile(&self) -> IncrementalProfile {
        IncrementalProfile {
            scratch_cost: true,
            incremental_cost_if_swap: true,
            incremental_executed_swap: true,
            tracked_dirty_sets: true,
            batched_projection: false,
            batched_probes: false,
        }
    }

    fn tune(&self, config: &mut SearchConfig) {
        // The letters are coupled through many overlapping sums, so the
        // worst-variable neighbourhood is too myopic here; the original C
        // framework's `exhaustive` mode (best swap over all pairs) with a
        // patient reset schedule solves the instance reliably (calibrated
        // with examples/tune_scratch.rs).
        config.exhaustive = true;
        config.plateau_probability = 0.5;
        config.reset_fraction = 0.25;
        config.reset_limit = Some(50);
        config.prob_select_local_min = 0.0;
        config.max_iterations_per_restart = 25_000;
        config.max_restarts = 200;
    }

    fn verify(&self, perm: &[usize]) -> bool {
        if perm.len() != ALPHABET {
            return false;
        }
        let mut seen = [false; ALPHABET];
        for &v in perm {
            if v >= ALPHABET || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        let values = Self::assignment(perm);
        self.equations
            .iter()
            .all(|eq| eq.sum_under(&values) == eq.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_rng::default_rng;
    use cbls_core::AdaptiveSearch;
    use cbls_testkit::{
        assert_no_default_hot_paths, check_error_projection, check_incremental_consistency,
        check_projection_cache,
    };

    #[test]
    fn projection_cache_stays_fresh_across_swaps() {
        check_projection_cache(AlphaCipher::standard(), 1450, 80);
        assert_no_default_hot_paths(&AlphaCipher::standard());
    }

    #[test]
    fn reference_assignment_is_a_permutation_of_1_to_26() {
        let mut seen = [false; ALPHABET];
        for &v in &REFERENCE_ASSIGNMENT {
            assert!((1..=26).contains(&v));
            assert!(!seen[(v - 1) as usize], "duplicate value {v}");
            seen[(v - 1) as usize] = true;
        }
    }

    /// The reference assignment that solves [`AlphaCipher::standard`],
    /// encoded as a permutation (`perm[letter] = value − 1`).
    fn reference_solution() -> Vec<usize> {
        REFERENCE_ASSIGNMENT
            .iter()
            .map(|&v| (v - 1) as usize)
            .collect()
    }

    #[test]
    fn reference_solution_solves_the_standard_instance() {
        let mut p = AlphaCipher::standard();
        let perm = reference_solution();
        assert_eq!(p.init(&perm), 0);
        assert!(p.verify(&perm));
    }

    #[test]
    fn standard_instance_has_twenty_equations() {
        let p = AlphaCipher::standard();
        assert_eq!(p.equations().len(), 20);
        assert_eq!(p.equations()[0].word, "ballet");
        assert_eq!(p.equations()[19].word, "waltz");
        // "ballet" under the reference assignment: b+a+l+l+e+t = 13+5+2+2+20+3
        assert_eq!(p.equations()[0].total, 45);
    }

    #[test]
    fn word_equation_counts_letters() {
        let eq = WordEquation::new("glee", 10);
        assert_eq!(eq.letter_counts[(b'g' - b'a') as usize], 1);
        assert_eq!(eq.letter_counts[(b'l' - b'a') as usize], 1);
        assert_eq!(eq.letter_counts[(b'e' - b'a') as usize], 2);
        assert_eq!(
            eq.letter_counts.iter().map(|&c| c as usize).sum::<usize>(),
            4
        );
    }

    #[test]
    #[should_panic(expected = "non-alphabetic")]
    fn invalid_words_are_rejected() {
        let _ = WordEquation::new("c3llo", 1);
    }

    #[test]
    fn incremental_consistency() {
        check_incremental_consistency(AlphaCipher::standard(), 1400, 15);
    }

    #[test]
    fn error_projection_consistency() {
        check_error_projection(AlphaCipher::standard(), 1500, 15);
    }

    #[test]
    fn adaptive_search_solves_the_standard_instance() {
        let mut p = AlphaCipher::standard();
        let engine = AdaptiveSearch::tuned_for(&p);
        let out = engine.solve(&mut p, &mut default_rng(1600));
        assert!(out.solved(), "alpha not solved: {out:?}");
        assert!(p.verify(&out.solution));
    }

    #[test]
    fn random_assignments_have_positive_cost() {
        let p = AlphaCipher::standard();
        let mut rng = default_rng(1700);
        let mut positive = 0;
        for _ in 0..20 {
            let perm = as_rng::RandomSource::permutation(&mut rng, ALPHABET);
            if p.cost(&perm) > 0 {
                positive += 1;
            }
        }
        assert!(
            positive >= 19,
            "random permutations should essentially never solve alpha"
        );
    }
}
