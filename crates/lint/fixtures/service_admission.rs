//! Seeded violations for the service half of `no-alloc-hot-path`: the
//! admission decision `admit` is the per-request hot path of the solve
//! service (a rejected burst runs nothing else), so it must stay
//! alloc-free.  The fixture test pins the rule name and line of every
//! finding.

struct LeakyPolicy {
    capacity: usize,
}

impl LeakyPolicy {
    fn admit(&self, depth: usize) -> bool {
        let reasons = vec!["full"]; // line 13: vec![..]
        let echo = depth.to_string().clone(); // line 14: .to_string(), .clone()
        let _ = (reasons, echo);
        depth < self.capacity
    }

    // A differently named decision helper is not guarded (`admittance`
    // does not match the `admit` entry point).
    fn admittance(&self) -> Vec<usize> {
        Vec::new()
    }
}

// The documented escape still works for admission methods.
impl ExcusedPolicy {
    fn admit(&self, depth: usize) -> bool {
        // lint: allow(no-alloc-hot-path) — fixture: audit-logging policy by design
        let log: Vec<usize> = Vec::new();
        let _ = (log, depth);
        true
    }
}

// Free functions are not guarded: only impl-block bodies are hot paths.
fn admit(depth: usize) -> Vec<usize> {
    vec![depth]
}
