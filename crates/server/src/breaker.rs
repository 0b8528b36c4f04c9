//! Circuit breaker guarding the disk store.
//!
//! The store is an optimization: every read can miss and every write can
//! be dropped without affecting correctness. A flaky or full volume must
//! therefore never slow the repair path down — after `threshold`
//! *consecutive* I/O failures the breaker trips and the daemon runs
//! memory-only (reads skip the store, the writer drops entries, both
//! counted) until a half-open probe proves the volume healthy again.
//!
//! States follow the classic pattern:
//!
//! * **Closed** — normal operation, counting consecutive failures;
//! * **Open** — store bypassed until a backoff deadline passes. The
//!   backoff is *full jitter* (`delay = U(0, min(max, base·2^attempt))`)
//!   so a fleet of daemons sharing one sick NFS volume does not probe it
//!   in lockstep;
//! * **HalfOpen** — one probe in flight ([`crate::server`] drives it from
//!   `/healthz`, the only periodic traffic a pull-based daemon has).
//!   Success closes the breaker; failure re-opens it with a doubled
//!   backoff ceiling.
//!
//! Every transition is visible: `store.breaker.trips`, `.probes`,
//! `.recoveries`, `.failures` counters and the `store.breaker.open` gauge.

use crate::lock;
use ftrepair_telemetry::Telemetry;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
enum State {
    Closed { failures: u32 },
    Open { until: Instant, attempt: u32 },
    HalfOpen { attempt: u32 },
}

/// See the module docs. All methods take `&self`; one mutex guards the
/// state (transitions are rare and cheap — the hot path is a single lock
/// + match in [`Breaker::allow`]).
pub struct Breaker {
    state: Mutex<State>,
    /// Consecutive failures that trip Closed → Open.
    threshold: u32,
    /// Backoff base; attempt `n` waits `U(0, min(max, base·2ⁿ))`.
    base: Duration,
    max: Duration,
    /// SplitMix64 state for the jitter.
    rng: Mutex<u64>,
    tele: Telemetry,
}

impl Breaker {
    pub fn new(
        threshold: u32,
        base: Duration,
        max: Duration,
        seed: u64,
        tele: &Telemetry,
    ) -> Breaker {
        let b = Breaker {
            state: Mutex::new(State::Closed { failures: 0 }),
            threshold: threshold.max(1),
            base,
            max: max.max(base),
            rng: Mutex::new(seed),
            tele: tele.clone(),
        };
        b.tele.set_gauge("store.breaker.open", 0);
        b
    }

    /// May the store be used right now? `false` while Open or HalfOpen —
    /// normal traffic stays off the volume until the probe clears it.
    pub fn allow(&self) -> bool {
        matches!(*lock(&self.state), State::Closed { .. })
    }

    /// Is the breaker anywhere but Closed? (`/healthz` reports the store
    /// as `"degraded"` while this holds.)
    pub fn degraded(&self) -> bool {
        !self.allow()
    }

    /// An operation against the store succeeded. Closed: clears the
    /// consecutive-failure count. HalfOpen: the probe passed — close and
    /// count a recovery. Open: stale report from a racing thread; ignored.
    pub fn record_success(&self) {
        let mut state = lock(&self.state);
        match *state {
            State::Closed { failures: 0 } => {}
            State::Closed { .. } => *state = State::Closed { failures: 0 },
            State::HalfOpen { .. } => {
                *state = State::Closed { failures: 0 };
                self.tele.add("store.breaker.recoveries", 1);
                self.tele.set_gauge("store.breaker.open", 0);
            }
            State::Open { .. } => {}
        }
    }

    /// An operation against the store failed. Counts it, and trips or
    /// re-opens per state.
    pub fn record_failure(&self) {
        self.tele.add("store.breaker.failures", 1);
        let mut state = lock(&self.state);
        match *state {
            State::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.threshold {
                    *state = State::Open { until: Instant::now() + self.backoff(1), attempt: 1 };
                    self.tele.add("store.breaker.trips", 1);
                    self.tele.set_gauge("store.breaker.open", 1);
                } else {
                    *state = State::Closed { failures };
                }
            }
            State::HalfOpen { attempt } => {
                // The probe failed: back off harder before the next one.
                let attempt = attempt + 1;
                *state = State::Open { until: Instant::now() + self.backoff(attempt), attempt };
            }
            State::Open { .. } => {}
        }
    }

    /// If the breaker is Open and its backoff deadline has passed, move to
    /// HalfOpen and return `true`: the caller owns the single probe and
    /// must report its outcome via [`Breaker::record_success`] /
    /// [`Breaker::record_failure`]. Any other state returns `false`.
    pub fn try_probe(&self) -> bool {
        let mut state = lock(&self.state);
        match *state {
            State::Open { until, attempt } if Instant::now() >= until => {
                *state = State::HalfOpen { attempt };
                self.tele.add("store.breaker.probes", 1);
                true
            }
            _ => false,
        }
    }

    /// One word for `/healthz`.
    pub fn state_str(&self) -> &'static str {
        match *lock(&self.state) {
            State::Closed { .. } => "closed",
            State::Open { .. } => "open",
            State::HalfOpen { .. } => "half-open",
        }
    }

    /// Full-jitter backoff for the given attempt number (1-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let ceiling = self
            .base
            .checked_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .map_or(self.max, |d| d.min(self.max));
        let nanos = ceiling.as_nanos().min(u128::from(u64::MAX)) as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        let mut rng = lock(&self.rng);
        *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Duration::from_nanos(z % nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, tele: &Telemetry) -> Breaker {
        // Zero backoff: Open is immediately probeable, keeping tests
        // deterministic and instant.
        Breaker::new(threshold, Duration::ZERO, Duration::ZERO, 7, tele)
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let tele = Telemetry::new();
        let b = breaker(3, &tele);
        b.record_failure();
        b.record_failure();
        b.record_success(); // breaks the streak
        b.record_failure();
        b.record_failure();
        assert!(b.allow(), "2 failures after a success: still closed");
        b.record_failure();
        assert!(!b.allow(), "3rd consecutive failure trips");
        let snap = tele.snapshot();
        assert_eq!(snap.counter("store.breaker.trips"), 1);
        assert_eq!(snap.counter("store.breaker.failures"), 5);
        assert_eq!(snap.gauges["store.breaker.open"], 1);
    }

    #[test]
    fn probe_success_closes_and_counts_a_recovery() {
        let tele = Telemetry::new();
        let b = breaker(1, &tele);
        b.record_failure();
        assert_eq!(b.state_str(), "open");
        assert!(b.try_probe(), "zero backoff: probeable immediately");
        assert_eq!(b.state_str(), "half-open");
        assert!(!b.try_probe(), "one probe at a time");
        b.record_success();
        assert!(b.allow());
        let snap = tele.snapshot();
        assert_eq!(snap.counter("store.breaker.probes"), 1);
        assert_eq!(snap.counter("store.breaker.recoveries"), 1);
        assert_eq!(snap.gauges["store.breaker.open"], 0);
    }

    #[test]
    fn probe_failure_reopens_with_a_higher_attempt() {
        let tele = Telemetry::new();
        let b = breaker(1, &tele);
        b.record_failure();
        assert!(b.try_probe());
        b.record_failure();
        assert_eq!(b.state_str(), "open", "failed probe re-opens");
        assert!(b.try_probe(), "zero backoff: next probe allowed");
        b.record_success();
        assert!(b.allow());
        let snap = tele.snapshot();
        assert_eq!(snap.counter("store.breaker.probes"), 2);
        assert_eq!(snap.counter("store.breaker.trips"), 1, "re-open is not a new trip");
    }

    #[test]
    fn nonzero_backoff_delays_the_probe() {
        let tele = Telemetry::new();
        let b = Breaker::new(1, Duration::from_secs(30), Duration::from_secs(60), 7, &tele);
        b.record_failure();
        // Full jitter can land anywhere in (0, 60s]; equality with zero is
        // astronomically unlikely with this seed, and the assert below only
        // needs "not immediately".
        assert!(!b.try_probe(), "backoff deadline not reached yet");
        assert_eq!(b.state_str(), "open");
    }
}
