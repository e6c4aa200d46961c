//! Retry policies: a bound on the attempts per walk.

/// How a [`Supervisor`](crate::Supervisor) reschedules faulted walks.
///
/// `max_attempts` counts *total* attempts per walk including the original
/// run, so `max_attempts == 1` disables retries.  A retry starts as soon as
/// its fault is classified: compute faults gain nothing from waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per walk, including the original run (minimum 1).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    /// Three total attempts.
    fn default() -> Self {
        Self { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// Up to `retries` retries per walk (so `retries + 1` total attempts).
    #[must_use]
    pub fn retries(retries: u32) -> Self {
        Self {
            max_attempts: retries.saturating_add(1).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_retries_twice() {
        assert_eq!(RetryPolicy::default().max_attempts, 3);
    }

    #[test]
    fn zero_retries_disable_retrying() {
        assert_eq!(RetryPolicy::retries(0).max_attempts, 1);
        assert_eq!(RetryPolicy::retries(4).max_attempts, 5);
    }
}
