//! Retry policy: [`RetryPolicy`] bounds how long an endpoint keeps
//! absorbing [`crate::RetryClass::Transient`] failures before escalating
//! to a reconnect.

use std::time::Duration;

/// Bounded exponential backoff for transient failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First backoff delay.
    pub base: Duration,
    /// Backoff ceiling.
    pub max: Duration,
    /// Consecutive transient failures tolerated before the endpoint
    /// escalates to [`crate::RpcError::Stalled`] (a reconnect-class
    /// error).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base: Duration::from_micros(50),
            max: Duration::from_millis(5),
            max_attempts: 16,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry attempt `attempt` (1-based): exponential in
    /// the attempt number, capped at [`RetryPolicy::max`].
    pub fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        let delay = self.base.saturating_mul(1u32 << shift);
        delay.min(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            base: Duration::from_micros(100),
            max: Duration::from_millis(1),
            max_attempts: 8,
        };
        assert_eq!(p.backoff(1), Duration::from_micros(100));
        assert_eq!(p.backoff(2), Duration::from_micros(200));
        assert_eq!(p.backoff(4), Duration::from_micros(800));
        assert_eq!(p.backoff(5), Duration::from_millis(1));
        assert_eq!(p.backoff(40), Duration::from_millis(1)); // no overflow
    }
}
