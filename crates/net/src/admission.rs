//! Admission control for the network front-end: token-bucket rate limiting
//! with exact integer accounting.
//!
//! A [`TokenBucket`] holds whole tokens plus a sub-token nanosecond
//! remainder, so refill never creates or loses tokens across refill
//! boundaries: over any span, `granted + still_available` equals exactly
//! `initial + floor(rate × elapsed)` (capped by capacity while idle). The
//! bucket takes its notion of "now" as a parameter ([`TokenBucket::
//! try_acquire_at`]), which is what makes that exactness *testable* — the
//! accounting property test drives a fabricated clock from many threads.
//!
//! The reactor gives every connection its own bucket (per-client fairness:
//! one greedy client exhausts its own tokens, not the listener's).

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Rate-limit configuration: `capacity` tokens of burst, refilled at
/// `per_second` tokens per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Burst size: the bucket starts full and never holds more.
    pub capacity: u64,
    /// Sustained refill rate in tokens per second.
    pub per_second: u64,
}

impl RateLimit {
    /// A limit allowing `per_second` sustained with a burst of `capacity`.
    pub fn new(capacity: u64, per_second: u64) -> Self {
        RateLimit {
            capacity,
            per_second,
        }
    }
}

struct BucketState {
    /// Whole tokens available.
    tokens: u64,
    /// Refill progress toward the next whole token, in rate-scaled
    /// nanoseconds (`carry = elapsed_ns × rate mod 1e9`).
    carry: u128,
    /// The last instant refill accounting ran at.
    last: Instant,
    /// Total whole tokens ever minted by refill (excludes the initial
    /// burst); exposed for the exact-accounting tests.
    minted: u64,
    /// Total tokens granted to acquirers.
    granted: u64,
}

const NANOS_PER_SEC: u128 = 1_000_000_000;

/// A thread-safe token bucket with exact integer accounting.
pub struct TokenBucket {
    limit: RateLimit,
    state: Mutex<BucketState>,
}

impl TokenBucket {
    /// A full bucket whose clock starts at `now`.
    pub fn new(limit: RateLimit, now: Instant) -> Self {
        TokenBucket {
            limit,
            state: Mutex::new(BucketState {
                tokens: limit.capacity,
                carry: 0,
                last: now,
                minted: 0,
                granted: 0,
            }),
        }
    }

    /// The configured limit.
    pub fn limit(&self) -> RateLimit {
        self.limit
    }

    /// Take one token as of `now`. Time may not run backwards: a `now`
    /// earlier than the last observed instant refills nothing (it does not
    /// panic, and it cannot destroy tokens).
    ///
    /// # Errors
    ///
    /// The exact wait (rounded up to the next nanosecond) until one token
    /// will have accrued — the number the reactor puts in a
    /// retry-after reply.
    pub fn try_acquire_at(&self, now: Instant) -> Result<(), Duration> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Refill: convert elapsed wall time into rate-scaled nanoseconds,
        // mint the whole tokens, carry the remainder. Integer arithmetic
        // throughout, so repeated small refills sum to exactly what one big
        // refill would have minted.
        if now > state.last {
            let elapsed = now.duration_since(state.last).as_nanos();
            state.last = now;
            let total = state.carry + elapsed * u128::from(self.limit.per_second);
            let minted = (total / NANOS_PER_SEC) as u64;
            state.carry = total % NANOS_PER_SEC;
            let headroom = self.limit.capacity - state.tokens;
            if minted >= headroom {
                // Clamped at capacity: the overflow is discarded *and* the
                // carry reset, otherwise an idle full bucket would bank
                // fractional progress toward a token beyond its burst.
                state.tokens = self.limit.capacity;
                state.minted += headroom;
                state.carry = 0;
            } else {
                state.tokens += minted;
                state.minted += minted;
            }
        }
        if state.tokens > 0 {
            state.tokens -= 1;
            state.granted += 1;
            return Ok(());
        }
        if self.limit.per_second == 0 {
            // Nothing will ever refill; report an hour as "effectively never".
            return Err(Duration::from_secs(3600));
        }
        // Nanos still needed for one token, at `per_second` per 1e9 ns.
        let deficit = NANOS_PER_SEC - state.carry;
        let wait = deficit.div_ceil(u128::from(self.limit.per_second));
        Err(Duration::from_nanos(wait as u64))
    }

    /// `(granted, minted)` counters: tokens handed out, and whole tokens
    /// refill has produced (the initial burst not included, capacity-clamp
    /// discards included as consumed headroom). The exact-accounting
    /// invariant is `granted + available == capacity + minted`.
    pub fn accounting(&self) -> (u64, u64) {
        let state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (state.granted, state.minted)
    }

    /// Whole tokens currently available.
    pub fn available(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_exact_refill() {
        let start = Instant::now();
        let bucket = TokenBucket::new(RateLimit::new(3, 10), start);
        for _ in 0..3 {
            assert!(bucket.try_acquire_at(start).is_ok());
        }
        // Empty; the wait hint is exactly one token at 10/s = 100ms.
        let wait = bucket.try_acquire_at(start).expect_err("bucket is empty");
        assert_eq!(wait, Duration::from_millis(100));
        // 250ms later exactly 2 tokens accrued, not 3.
        let later = start + Duration::from_millis(250);
        assert!(bucket.try_acquire_at(later).is_ok());
        assert!(bucket.try_acquire_at(later).is_ok());
        let wait = bucket.try_acquire_at(later).expect_err("only two accrued");
        // 250ms minted 2.5 tokens; half a token (50ms) remains to the next.
        assert_eq!(wait, Duration::from_millis(50));
    }

    #[test]
    fn refill_is_split_invariant() {
        // Minting in many small steps equals minting in one large step.
        let start = Instant::now();
        let fine = TokenBucket::new(RateLimit::new(1_000_000, 333), start);
        let coarse = TokenBucket::new(RateLimit::new(1_000_000, 333), start);
        // Drain both bursts so only refill mints from here.
        while fine.try_acquire_at(start).is_ok() {}
        while coarse.try_acquire_at(start).is_ok() {}
        let span = Duration::from_millis(7919);
        for step in 1..=100u32 {
            let at = start + span.mul_f64(f64::from(step) / 100.0);
            let _ = fine.try_acquire_at(at);
        }
        let _ = coarse.try_acquire_at(start + span);
        // Both have now observed the same total elapsed time (the last fine
        // step lands on start+span exactly).
        assert_eq!(fine.accounting().1, coarse.accounting().1);
    }

    #[test]
    fn idle_full_bucket_banks_nothing() {
        let start = Instant::now();
        let bucket = TokenBucket::new(RateLimit::new(2, 1000), start);
        // A long idle period cannot stack beyond the burst, nor bank carry.
        assert!(bucket
            .try_acquire_at(start + Duration::from_secs(60))
            .is_ok());
        assert!(bucket
            .try_acquire_at(start + Duration::from_secs(60))
            .is_ok());
        // Immediately after the idle drain only refill-from-now counts.
        let wait = bucket
            .try_acquire_at(start + Duration::from_secs(60))
            .expect_err("burst is 2");
        assert_eq!(wait, Duration::from_millis(1));
    }

    #[test]
    fn time_running_backwards_is_harmless() {
        let start = Instant::now();
        let bucket = TokenBucket::new(RateLimit::new(1, 1), start);
        assert!(bucket
            .try_acquire_at(start + Duration::from_secs(5))
            .is_ok());
        // An earlier timestamp neither panics nor mints.
        assert!(bucket.try_acquire_at(start).is_err());
        let (granted, minted) = bucket.accounting();
        assert_eq!((granted, minted), (1, 0));
    }

    #[test]
    fn zero_rate_never_refills() {
        let start = Instant::now();
        let bucket = TokenBucket::new(RateLimit::new(1, 0), start);
        assert!(bucket.try_acquire_at(start).is_ok());
        let wait = bucket
            .try_acquire_at(start + Duration::from_secs(100))
            .expect_err("rate 0 never refills");
        assert!(wait >= Duration::from_secs(3600));
    }
}
