//! A library crate whose `pub` items have every kind of user.

/// Flagged: only the test module below calls it.
pub fn only_tested() -> u32 {
    1
}

/// Not flagged: perfbench calls it.
pub struct Batch;

impl Batch {
    /// Not flagged: perfbench is its one caller, as for `WalkBatch::reseeded`.
    pub fn reseeded(&self) -> Self {
        Batch
    }

    /// Flagged: it names itself, but only inside its own definition.
    pub fn countdown(n: u32) -> u32 {
        if n == 0 { 0 } else { Self::countdown(n - 1) }
    }
}

mod inner {
    /// Flagged: a `use` re-export is its only use.
    pub fn reexported() {}
}

pub use inner::reexported;

/// Flagged: only the testkit calls it, and a comment names it here:
/// `only_in_testkit()`.
pub const ONLY_IN_TESTKIT: u32 = 2;

/// Not flagged: allowed with its reason.
// lint: allow(pub-item-has-caller) — the oracle of tests/oracle.rs
pub fn oracle() -> bool {
    true
}

/// Not flagged: `pub(crate)` items are left to the compiler.
pub(crate) fn crate_only() {}

#[cfg(test)]
mod tests {
    /// Not flagged: an item of test code.
    pub fn helper() -> u32 {
        super::only_tested()
    }
}
