//! Per-route health as a hysteresis state machine over SLO verdicts.
//!
//! ```text
//!            breach ≥ degrade_after        Page breach ≥ unhealthy_after
//!  Healthy ───────────────────────► Degraded ───────────────────────► Unhealthy
//!     ▲                                │  ▲                                │
//!     └── clean ≥ recover_after ◄──────┘  └──── clean ≥ recover_after ◄────┘
//! ```
//!
//! Transitions move **one level per observation** and only after a
//! *consecutive* streak of breaching (or clean) observations, so a burn
//! rate oscillating around an SLO threshold cannot flap the state: every
//! clean tick resets the breach streak and vice versa. Escalation from
//! [`HealthState::Degraded`] to [`HealthState::Unhealthy`] additionally
//! requires [`AlertSeverity::Page`] — a slow-burn warning can degrade a
//! route but never takes it out of service by itself.

use crate::slo::AlertSeverity;

/// The serving health of one route, ordered from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum HealthState {
    /// All SLOs within budget: serve and allow reloads.
    #[default]
    Healthy = 0,
    /// An SLO is burning budget: keep serving, refuse artifact promotion.
    Degraded = 1,
    /// A paging SLO has burned persistently: shed new load early.
    Unhealthy = 2,
}

impl HealthState {
    /// Stable lowercase name, used in the JSON schema.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Unhealthy => "unhealthy",
        }
    }

    /// Inverse of [`HealthState::as_str`].
    pub fn parse(text: &str) -> Option<HealthState> {
        match text {
            "healthy" => Some(HealthState::Healthy),
            "degraded" => Some(HealthState::Degraded),
            "unhealthy" => Some(HealthState::Unhealthy),
            _ => None,
        }
    }

    /// The state encoded as its `repr(u8)` discriminant (for atomics).
    pub fn as_u8(&self) -> u8 {
        *self as u8
    }

    /// Inverse of [`HealthState::as_u8`]; unknown values read as
    /// [`HealthState::Unhealthy`], the conservative direction.
    pub fn from_u8(value: u8) -> HealthState {
        match value {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::Unhealthy,
        }
    }

    /// The next state toward [`HealthState::Healthy`].
    fn promoted(&self) -> HealthState {
        match self {
            HealthState::Unhealthy => HealthState::Degraded,
            _ => HealthState::Healthy,
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Hysteresis thresholds for a [`HealthMachine`], in consecutive
/// observations (SLO engine ticks). Zero values are treated as 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive breaching ticks before Healthy drops to Degraded.
    pub degrade_after: u32,
    /// Consecutive Page-severity ticks before Degraded drops to Unhealthy.
    pub unhealthy_after: u32,
    /// Consecutive clean ticks before the state recovers one level.
    pub recover_after: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            degrade_after: 2,
            unhealthy_after: 2,
            recover_after: 3,
        }
    }
}

/// A state change returned by [`HealthMachine::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// The state before the observation.
    pub from: HealthState,
    /// The state after the observation.
    pub to: HealthState,
}

/// The hysteresis state machine for one route.
#[derive(Debug, Clone)]
pub struct HealthMachine {
    policy: HealthPolicy,
    state: HealthState,
    breach_streak: u32,
    clean_streak: u32,
}

impl HealthMachine {
    /// A machine starting [`HealthState::Healthy`].
    pub fn new(policy: HealthPolicy) -> Self {
        HealthMachine {
            policy,
            state: HealthState::Healthy,
            breach_streak: 0,
            clean_streak: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Feed one SLO engine tick: `worst` is the most severe alert firing
    /// for this route, or `None` when every SLO is within budget. Returns
    /// the transition if the state changed.
    pub fn observe(&mut self, worst: Option<AlertSeverity>) -> Option<HealthTransition> {
        let from = self.state;
        match worst {
            Some(severity) => {
                self.clean_streak = 0;
                self.breach_streak = self.breach_streak.saturating_add(1);
                match self.state {
                    HealthState::Healthy
                        if self.breach_streak >= self.policy.degrade_after.max(1) =>
                    {
                        self.state = HealthState::Degraded;
                        self.breach_streak = 0;
                    }
                    HealthState::Degraded
                        if severity == AlertSeverity::Page
                            && self.breach_streak >= self.policy.unhealthy_after.max(1) =>
                    {
                        self.state = HealthState::Unhealthy;
                        self.breach_streak = 0;
                    }
                    _ => {}
                }
            }
            None => {
                self.breach_streak = 0;
                self.clean_streak = self.clean_streak.saturating_add(1);
                if self.state != HealthState::Healthy
                    && self.clean_streak >= self.policy.recover_after.max(1)
                {
                    self.state = self.state.promoted();
                    self.clean_streak = 0;
                }
            }
        }
        (from != self.state).then_some(HealthTransition {
            from,
            to: self.state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(degrade: u32, unhealthy: u32, recover: u32) -> HealthPolicy {
        HealthPolicy {
            degrade_after: degrade,
            unhealthy_after: unhealthy,
            recover_after: recover,
        }
    }

    #[test]
    fn state_codec_roundtrips() {
        for state in [
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Unhealthy,
        ] {
            assert_eq!(HealthState::parse(state.as_str()), Some(state));
            assert_eq!(HealthState::from_u8(state.as_u8()), state);
        }
        assert_eq!(HealthState::parse("odd"), None);
        assert_eq!(HealthState::from_u8(77), HealthState::Unhealthy);
    }

    #[test]
    fn sustained_page_breaches_walk_down_one_level_at_a_time() {
        let mut machine = HealthMachine::new(policy(2, 2, 3));
        assert_eq!(machine.observe(Some(AlertSeverity::Page)), None);
        assert_eq!(
            machine.observe(Some(AlertSeverity::Page)),
            Some(HealthTransition {
                from: HealthState::Healthy,
                to: HealthState::Degraded
            })
        );
        assert_eq!(machine.observe(Some(AlertSeverity::Page)), None);
        assert_eq!(
            machine.observe(Some(AlertSeverity::Page)),
            Some(HealthTransition {
                from: HealthState::Degraded,
                to: HealthState::Unhealthy
            })
        );
        // Already at the bottom: further breaches change nothing.
        assert_eq!(machine.observe(Some(AlertSeverity::Page)), None);
        assert_eq!(machine.state(), HealthState::Unhealthy);
    }

    #[test]
    fn warn_severity_degrades_but_never_sheds() {
        let mut machine = HealthMachine::new(policy(1, 1, 1));
        assert!(machine.observe(Some(AlertSeverity::Warn)).is_some());
        assert_eq!(machine.state(), HealthState::Degraded);
        for _ in 0..10 {
            assert_eq!(machine.observe(Some(AlertSeverity::Warn)), None);
        }
        assert_eq!(
            machine.state(),
            HealthState::Degraded,
            "a slow-burn warning must never take a route out of service"
        );
    }

    #[test]
    fn recovery_requires_a_clean_streak_and_walks_back_up() {
        let mut machine = HealthMachine::new(policy(1, 1, 2));
        machine.observe(Some(AlertSeverity::Page));
        machine.observe(Some(AlertSeverity::Page));
        assert_eq!(machine.state(), HealthState::Unhealthy);
        assert_eq!(machine.observe(None), None);
        assert_eq!(
            machine.observe(None),
            Some(HealthTransition {
                from: HealthState::Unhealthy,
                to: HealthState::Degraded
            })
        );
        assert_eq!(machine.observe(None), None);
        assert_eq!(
            machine.observe(None),
            Some(HealthTransition {
                from: HealthState::Degraded,
                to: HealthState::Healthy
            })
        );
    }

    #[test]
    fn boundary_flapping_never_changes_state() {
        // An SLO oscillating around its threshold alternates breach/clean
        // every tick. With any streak requirement above 1, the machine must
        // hold its state through arbitrarily long oscillation.
        let mut machine = HealthMachine::new(policy(2, 2, 2));
        for _ in 0..100 {
            assert_eq!(machine.observe(Some(AlertSeverity::Page)), None);
            assert_eq!(machine.observe(None), None);
        }
        assert_eq!(machine.state(), HealthState::Healthy);

        // Same at the Degraded boundary: push the machine to Degraded, then
        // oscillate — it must neither escalate nor recover.
        let mut machine = HealthMachine::new(policy(1, 2, 2));
        machine.observe(Some(AlertSeverity::Page));
        assert_eq!(machine.state(), HealthState::Degraded);
        for _ in 0..100 {
            assert_eq!(machine.observe(Some(AlertSeverity::Page)), None);
            assert_eq!(machine.observe(None), None);
        }
        assert_eq!(machine.state(), HealthState::Degraded);
    }

    #[test]
    fn a_breach_mid_recovery_resets_the_clean_streak() {
        let mut machine = HealthMachine::new(policy(1, 1, 3));
        machine.observe(Some(AlertSeverity::Page));
        machine.observe(Some(AlertSeverity::Page));
        assert_eq!(machine.state(), HealthState::Unhealthy);
        machine.observe(None);
        machine.observe(None);
        machine.observe(Some(AlertSeverity::Warn)); // relapse
        machine.observe(None);
        machine.observe(None);
        assert_eq!(
            machine.state(),
            HealthState::Unhealthy,
            "two clean ticks after a relapse must not count the pre-relapse ones"
        );
        machine.observe(None);
        assert_eq!(machine.state(), HealthState::Degraded);
    }
}
