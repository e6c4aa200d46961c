//! Seeded violations for the `no-alloc-hot-path` rule.  Each banned
//! allocation shape appears exactly once inside a hot-path method body; the
//! fixture test pins the rule name and line of every finding.

struct Fixture {
    state: Vec<usize>,
}

impl Evaluator for Fixture {
    fn size(&self) -> usize {
        self.state.len()
    }

    fn cost_if_swap(&self, perm: &[usize], current: i64, i: usize, j: usize) -> i64 {
        let probe = perm.to_vec(); // line 15: .to_vec()
        let other = self.state.clone(); // line 16: .clone()
        let gathered: Vec<usize> = probe.iter().copied().collect(); // line 17: .collect()
        current + (other.len() + gathered.len() + i + j) as i64
    }

    fn executed_swap(&mut self, perm: &[usize], _i: usize, _j: usize) {
        let mut scratch = Vec::new(); // line 22: Vec::new()
        scratch.extend_from_slice(perm);
        self.state = scratch;
    }

    fn project_errors(&self, _perm: &[usize], indices: &[usize], out: &mut [i64]) {
        let boxed = Box::new(indices.len()); // line 28: Box::new()
        out[0] = *boxed as i64;
    }

    fn project_errors_full(&self, _perm: &[usize], out: &mut [i64]) {
        let label = String::from("full"); // line 33: String::from()
        let zeros = vec![0i64; out.len()]; // line 34: vec![]
        out.copy_from_slice(&zeros);
        let _ = label;
    }

    // Allocation outside the guarded methods is not this rule's business.
    fn tune(&self, _config: &mut SearchConfig) {
        let _fine_here = self.state.to_vec();
    }
}

// The documented escape: same-line and preceding-line comments both suppress.
impl Evaluator for Allowed {
    fn cost_if_swap(&self, perm: &[usize], current: i64, _i: usize, _j: usize) -> i64 {
        let probe = perm.to_vec(); // lint: allow(no-alloc-hot-path) — fixture: same-line escape
        // lint: allow(no-alloc-hot-path) — fixture: preceding-line escape
        let again = probe.clone();
        current + again.len() as i64
    }
}

// Trait-declaration defaults are documented fallbacks, not violations.
trait Evaluator {
    fn cost_if_swap(&self, perm: &[usize], _current: i64, i: usize, j: usize) -> i64 {
        let mut probe = perm.to_vec();
        probe.swap(i, j);
        probe.len() as i64
    }
}

// The batched probe row is a hot path too: the candidate scan calls
// `cost_if_swaps` once per worst variable, so its body is under the same ban.
impl Evaluator for BatchedFixture {
    fn cost_if_swaps(&self, perm: &[usize], current: i64, i: usize, js: &[usize], out: &mut [i64]) {
        let row = js.to_vec(); // line 68: .to_vec() in the batched row
        for (k, &j) in row.iter().enumerate() {
            out[k] = current + (perm[i] + perm[j]) as i64;
        }
    }
}

// Owned copies, formatted strings and pre-sized buffers allocate too.
impl Evaluator for OwningFixture {
    fn cost_if_swap(&self, perm: &[usize], current: i64, i: usize, j: usize) -> i64 {
        let name = self.label.to_string(); // line 78: .to_string()
        let owned = perm.to_owned(); // line 79: .to_owned()
        let text = format!("{i}-{j}"); // line 80: format!(..)
        let mut buf = Vec::with_capacity(owned.len()); // line 81: Vec::with_capacity()
        buf.push(name.len() + text.len());
        current + buf[0] as i64
    }
}
