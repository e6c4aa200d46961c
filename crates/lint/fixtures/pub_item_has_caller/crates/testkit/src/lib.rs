//! The dev-only testkit: its uses do not count.

pub fn check() -> u32 {
    demo::ONLY_IN_TESTKIT
}
