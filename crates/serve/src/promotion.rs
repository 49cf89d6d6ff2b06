//! **The promotion policy**: which stored artifact a route serves.
//!
//! [`PromotionPolicy`] is a pure state machine. Each poll its owner observes
//! the route — the newest stored artifact, the route's health, whether the
//! post-promotion probation window has elapsed, and whether the action it
//! executed last succeeded — and [`PromotionPolicy::step`] answers with one
//! [`Action`]. The step does no I/O, reads no clock and counts nothing; the
//! owner executes the action and records its outcome. The in-process
//! [`ReloadWatcher`](crate::ReloadWatcher) and the cluster supervisor
//! (`sesr-cluster`) are two such owners running this one policy.
//!
//! The rules:
//!
//! - **Gate.** A stored artifact newer than any the route has served is
//!   promoted only while the route is [`HealthState::Healthy`]; otherwise
//!   the step answers [`Action::Refuse`], and the promotion is offered again
//!   on every poll until the route recovers. A promotion that fails is
//!   retried the same way.
//! - **Probation.** After a promotion the route is on probation until the
//!   window elapses. If it turns Unhealthy before then, the step rolls back
//!   to the artifact served just before the promotion. A rollback, whether
//!   it succeeds or fails, ends probation: a failed rollback is not retried.
//! - **No return.** A rolled-back artifact is never promoted again; only a
//!   newer one is. Store versions only grow, so "newer" is the
//!   `(version, digest)` order.

use sesr_telemetry::HealthState;

/// `(version, digest)` of one stored artifact.
pub type ArtifactId = (u32, u64);

/// What the owner of a [`PromotionPolicy`] does after one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Nothing to do.
    Hold,
    /// A newer artifact waits, but the route is not Healthy: count the
    /// refusal and keep serving.
    Refuse,
    /// Rebuild the route from exactly this artifact.
    Promote(ArtifactId),
    /// Rebuild the route from exactly this artifact, the one it served
    /// before the promotion now on probation.
    Rollback(ArtifactId),
}

/// One poll's view of a route: everything [`PromotionPolicy::step`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// The newest stored artifact for the route's model, if any.
    pub newest: Option<ArtifactId>,
    /// The route's serving health.
    pub health: HealthState,
    /// Whether the probation window since the last successful promotion
    /// has elapsed; ignored while the route is not on probation.
    pub probation_elapsed: bool,
    /// Whether the action the previous step returned succeeded; ignored
    /// after [`Action::Hold`] and [`Action::Refuse`].
    pub previous_ok: bool,
}

/// The state of one route's promotion policy; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PromotionPolicy {
    /// The artifact the route serves (`None`: built from its seed).
    serving: Option<ArtifactId>,
    /// The newest artifact the route has served: nothing at or below it is
    /// promoted again.
    known: Option<ArtifactId>,
    /// While on probation: the artifact to roll back to.
    rollback_to: Option<ArtifactId>,
    /// The action the previous step returned, awaiting its outcome.
    pending: Action,
}

impl PromotionPolicy {
    /// A policy for a route that serves `serving` now.
    pub fn new(serving: Option<ArtifactId>) -> PromotionPolicy {
        PromotionPolicy {
            serving,
            known: serving,
            rollback_to: None,
            pending: Action::Hold,
        }
    }

    /// Record that the route was rebuilt from `artifact` outside the
    /// policy (an explicit reload). It serves that artifact from now on,
    /// with no probation.
    pub fn served(&mut self, artifact: ArtifactId) {
        self.serving = Some(artifact);
        self.known = self.known.max(Some(artifact));
        self.rollback_to = None;
    }

    /// Fold in the outcome of the previous action, then decide the next.
    pub fn step(&mut self, observation: Observation) -> Action {
        match std::mem::replace(&mut self.pending, Action::Hold) {
            Action::Promote(artifact) if observation.previous_ok => {
                self.rollback_to = self.serving;
                self.serving = Some(artifact);
                self.known = Some(artifact);
            }
            Action::Rollback(artifact) => {
                if observation.previous_ok {
                    self.serving = Some(artifact);
                }
                self.rollback_to = None;
            }
            // A failed promotion changes nothing: it is offered again below.
            _ => {}
        }

        // Probation first: a just-promoted artifact that tanked the route
        // is rolled back before anything else is promoted.
        if let Some(prior) = self.rollback_to {
            if observation.probation_elapsed {
                self.rollback_to = None;
            } else if observation.health == HealthState::Unhealthy {
                self.pending = Action::Rollback(prior);
                return self.pending;
            }
        }

        let Some(newest) = observation
            .newest
            .filter(|&newest| Some(newest) > self.known)
        else {
            return Action::Hold;
        };
        // Never swap weights under a route already missing its SLOs: a
        // reload there destroys the evidence and risks stacking regressions.
        if observation.health != HealthState::Healthy {
            return Action::Refuse;
        }
        self.pending = Action::Promote(newest);
        self.pending
    }
}
