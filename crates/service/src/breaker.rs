//! The client-side circuit breaker: an explicit Closed → Open → HalfOpen
//! state machine, so a faulted facade sheds load instead of queueing it.
//!
//! The breaker is tick-driven and allocation-free; the chaos storm folds
//! its transition counters into the trace hash, so breaker behaviour is
//! part of the deterministic replay contract.

/// Breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every request is admitted.
    Closed,
    /// Tripped: requests are shed locally until the cooldown elapses.
    Open,
    /// Probing: a bounded number of trial requests decide recovery.
    HalfOpen,
}

/// Consecutive failures in `Closed` that trip the breaker.
const FAILURE_THRESHOLD: u32 = 4;
/// Ticks the breaker stays `Open` before probing.
const OPEN_COOLDOWN_TICKS: u64 = 32;
/// Successful probes in `HalfOpen` required to close again, and the bound
/// on outstanding probes.
const HALF_OPEN_PROBES: u32 = 2;

/// Counts of state transitions (for reports and trace folding).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerTransitions {
    /// Trips into `Open` (from `Closed` or a failed `HalfOpen` probe).
    pub to_open: u64,
    /// Cooldown expiries into `HalfOpen`.
    pub to_half_open: u64,
    /// Recoveries into `Closed`.
    pub to_closed: u64,
    /// Requests shed locally while `Open` (or beyond the probe budget).
    pub shed: u64,
}

/// The circuit breaker.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: u64,
    probes_in_flight: u32,
    probe_successes: u32,
    transitions: BreakerTransitions,
}

impl Default for CircuitBreaker {
    /// A closed (healthy) breaker.
    fn default() -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: 0,
            probes_in_flight: 0,
            probe_successes: 0,
            transitions: BreakerTransitions::default(),
        }
    }
}

impl CircuitBreaker {
    /// Transition counters so far.
    pub fn transitions(&self) -> BreakerTransitions {
        self.transitions
    }

    /// Admission check at `now`. `false` means shed the request locally —
    /// do not touch the transport. `Open` flips to `HalfOpen` once the
    /// cooldown has elapsed; `HalfOpen` admits at most
    /// `HALF_OPEN_PROBES` outstanding probes.
    pub fn allow(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now.saturating_sub(self.opened_at) >= OPEN_COOLDOWN_TICKS {
                    self.state = BreakerState::HalfOpen;
                    self.transitions.to_half_open += 1;
                    self.probes_in_flight = 1;
                    self.probe_successes = 0;
                    true
                } else {
                    self.transitions.shed += 1;
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probes_in_flight < HALF_OPEN_PROBES {
                    self.probes_in_flight += 1;
                    true
                } else {
                    self.transitions.shed += 1;
                    false
                }
            }
        }
    }

    /// Reports a successful request.
    pub fn on_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
                self.probe_successes += 1;
                if self.probe_successes >= HALF_OPEN_PROBES {
                    self.state = BreakerState::Closed;
                    self.transitions.to_closed += 1;
                    self.consecutive_failures = 0;
                }
            }
            // A success while Open (late response) does not reopen traffic.
            BreakerState::Open => {}
        }
    }

    /// Reports a failed request at `now`.
    pub fn on_failure(&mut self, now: u64) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= FAILURE_THRESHOLD {
                    self.trip(now);
                }
            }
            // One failed probe re-trips immediately.
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: u64) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.transitions.to_open += 1;
        self.consecutive_failures = 0;
        self.probes_in_flight = 0;
        self.probe_successes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A breaker tripped by `FAILURE_THRESHOLD` failures at ticks `0..`.
    fn tripped() -> CircuitBreaker {
        let mut b = CircuitBreaker::default();
        for t in 0..u64::from(FAILURE_THRESHOLD) {
            assert!(b.allow(t));
            b.on_failure(t);
        }
        b
    }

    #[test]
    fn trips_after_threshold_and_sheds() {
        let mut b = CircuitBreaker::default();
        for t in 0..u64::from(FAILURE_THRESHOLD - 1) {
            b.allow(t);
            b.on_failure(t);
        }
        assert_eq!(b.state, BreakerState::Closed, "one failure short");
        let mut b = tripped();
        assert_eq!(b.state, BreakerState::Open);
        assert!(!b.allow(5), "open breaker sheds before cooldown");
        assert_eq!(b.transitions().to_open, 1);
        assert_eq!(b.transitions().shed, 1);
    }

    #[test]
    fn half_open_recovers_after_enough_probes() {
        let mut b = tripped();
        // The last failure opened it at tick FAILURE_THRESHOLD - 1.
        let opened = u64::from(FAILURE_THRESHOLD - 1);
        assert!(!b.allow(opened + OPEN_COOLDOWN_TICKS - 1));
        // Cooldown elapses: the first allow becomes a probe.
        let t = opened + OPEN_COOLDOWN_TICKS;
        assert!(b.allow(t));
        assert_eq!(b.state, BreakerState::HalfOpen);
        for _ in 1..HALF_OPEN_PROBES {
            assert!(b.allow(t), "further probes fit the budget");
        }
        assert!(!b.allow(t), "a probe past the budget is shed");
        for _ in 1..HALF_OPEN_PROBES {
            b.on_success();
            assert_eq!(b.state, BreakerState::HalfOpen, "too few probes");
        }
        b.on_success();
        assert_eq!(b.state, BreakerState::Closed);
        assert_eq!(b.transitions().to_closed, 1);
    }

    #[test]
    fn failed_probe_retrips() {
        let mut b = tripped();
        let probe = u64::from(FAILURE_THRESHOLD - 1) + OPEN_COOLDOWN_TICKS;
        assert!(b.allow(probe));
        b.on_failure(probe);
        assert_eq!(b.state, BreakerState::Open);
        assert_eq!(b.transitions().to_open, 2);
        // And the cooldown restarts from the re-trip instant.
        assert!(!b.allow(probe + OPEN_COOLDOWN_TICKS - 1));
        assert!(b.allow(probe + OPEN_COOLDOWN_TICKS));
    }
}
