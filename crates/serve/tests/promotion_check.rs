//! Exhaustive, thread-free check of [`PromotionPolicy`], the one policy the
//! in-process reload watcher and the cluster supervisor both run.
//!
//! The check feeds the policy every observation sequence of length 1 to
//! [`DEPTH`] over the whole domain — newest stored artifact (one of three,
//! or none stored) × route health (three states) × probation elapsed or not
//! × previous action succeeded or failed: 48 observations per step — from
//! two starting points (a seed-built route, and one serving the oldest
//! artifact). Beside the policy it keeps a ghost record of what actually
//! happened to the route, built only from the actions returned and the
//! outcomes reported, and checks every step against five invariants:
//!
//! 1. no `Promote` while the route is not Healthy;
//! 2. a rolled-back artifact is never promoted again;
//! 3. the rollback target is the artifact served just before the promotion;
//! 4. a failed promotion is retried while its artifact is still the newest
//!    and the route is Healthy;
//! 5. each new artifact yields exactly one successful `Promote`: an artifact
//!    already served is never promoted again, and a newer one is promoted
//!    as soon as the route is Healthy.
//!
//! The policy is pure, so what follows a step depends only on the policy's
//! state and the ghost's. Sequences that reach the same pair share every
//! continuation, and each pair is expanded once per remaining length; the
//! count printed is still every sequence covered. Each invariant has a
//! mutant that wraps `step` on this side, and the check must reject each.
//!
//! `cargo test --release -p sesr-serve --test promotion_check -- --nocapture`
//! prints the counts.

use sesr_serve::{Action, ArtifactId, Observation, PromotionPolicy};
use sesr_telemetry::HealthState;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

/// Longest observation sequence explored.
const DEPTH: usize = 8;

/// The three stored artifacts, oldest first.
const ARTIFACTS: [ArtifactId; 3] = [(1, 0xa1), (2, 0xb2), (3, 0xc3)];

const HEALTHS: [HealthState; 3] = [
    HealthState::Healthy,
    HealthState::Degraded,
    HealthState::Unhealthy,
];

/// Every observation in the domain.
fn domain() -> Vec<Observation> {
    let newest = [
        None,
        Some(ARTIFACTS[0]),
        Some(ARTIFACTS[1]),
        Some(ARTIFACTS[2]),
    ];
    let mut all = Vec::new();
    for newest in newest {
        for health in HEALTHS {
            for probation_elapsed in [false, true] {
                for previous_ok in [false, true] {
                    all.push(Observation {
                        newest,
                        health,
                        probation_elapsed,
                        previous_ok,
                    });
                }
            }
        }
    }
    all
}

/// Anything that steps like the policy: the policy itself, or a mutant.
trait Step: Clone + Eq + Hash {
    fn step(&mut self, observation: Observation) -> Action;
}

impl Step for PromotionPolicy {
    fn step(&mut self, observation: Observation) -> Action {
        PromotionPolicy::step(self, observation)
    }
}

/// What actually happened to the route.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Ghost {
    serving: Option<ArtifactId>,
    /// Every artifact the route has served: from the start or through a
    /// successful promotion.
    served: BTreeSet<ArtifactId>,
    /// Every artifact a successful rollback moved the route away from.
    rolled_back: BTreeSet<ArtifactId>,
    /// What served just before the latest successful promotion, until a
    /// rollback succeeds.
    before_promotion: Option<Option<ArtifactId>>,
    previous: Action,
}

impl Ghost {
    fn new(serving: Option<ArtifactId>) -> Ghost {
        Ghost {
            serving,
            served: serving.into_iter().collect(),
            rolled_back: BTreeSet::new(),
            before_promotion: None,
            previous: Action::Hold,
        }
    }

    /// Fold in the previous action's outcome, then check `action` against
    /// every invariant; the first one broken is returned.
    fn check(&mut self, observation: Observation, action: Action) -> Result<(), &'static str> {
        match self.previous {
            Action::Promote(artifact) if observation.previous_ok => {
                self.before_promotion = Some(self.serving);
                self.serving = Some(artifact);
                self.served.insert(artifact);
            }
            Action::Rollback(artifact) if observation.previous_ok => {
                self.rolled_back.extend(self.serving);
                self.serving = Some(artifact);
                self.before_promotion = None;
            }
            _ => {}
        }
        let healthy = observation.health == HealthState::Healthy;
        if matches!(action, Action::Promote(_)) && !healthy {
            return Err(NOT_HEALTHY);
        }
        if let Action::Promote(artifact) = action {
            if self.rolled_back.contains(&artifact) {
                return Err(ROLLED_BACK);
            }
        }
        if let Action::Rollback(target) = action {
            if self.before_promotion != Some(Some(target)) {
                return Err(ROLLBACK_TARGET);
            }
        }
        if let Action::Promote(failed) = self.previous {
            if !observation.previous_ok
                && observation.newest == Some(failed)
                && healthy
                && action != Action::Promote(failed)
            {
                return Err(NOT_RETRIED);
            }
        }
        if let Action::Promote(artifact) = action {
            if self.served.contains(&artifact) {
                return Err(NOT_ONCE);
            }
        }
        if let Some(newest) = observation.newest {
            let new = self.served.last().is_none_or(|&latest| newest > latest);
            if new && healthy && action != Action::Promote(newest) {
                return Err(NOT_ONCE);
            }
        }
        self.previous = action;
        Ok(())
    }
}

const NOT_HEALTHY: &str = "promoted while the route was not Healthy";
const ROLLED_BACK: &str = "promoted a rolled-back artifact again";
const ROLLBACK_TARGET: &str =
    "rolled back to something other than the artifact served before the promotion";
const NOT_RETRIED: &str = "a failed promotion was not retried";
const NOT_ONCE: &str = "a new artifact did not yield exactly one successful promotion";

/// A broken invariant and the observation sequence that broke it.
#[derive(Debug)]
struct Violation {
    invariant: &'static str,
    trace: Vec<(Observation, Action)>,
}

/// What one exhaustive run covered.
struct Explored {
    sequences: u64,
    states: usize,
}

/// Check every observation sequence of length 1..=[`DEPTH`] from each
/// starting route; `wrap` turns the policy into the stepper under test.
fn explore<P: Step>(wrap: impl Fn(PromotionPolicy) -> P) -> Result<Explored, Violation> {
    let domain = domain();
    let mut memo = HashMap::new();
    let mut trace = Vec::new();
    let mut sequences = 0;
    for start in [None, Some(ARTIFACTS[0])] {
        let stepper = wrap(PromotionPolicy::new(start));
        sequences += expand(
            &stepper,
            &Ghost::new(start),
            DEPTH,
            &domain,
            &mut memo,
            &mut trace,
        )?;
    }
    Ok(Explored {
        sequences,
        states: memo.len(),
    })
}

/// The number of sequences of length 1..=`depth` from this state, each
/// checked; the first violation ends the search with its trace.
fn expand<P: Step>(
    stepper: &P,
    ghost: &Ghost,
    depth: usize,
    domain: &[Observation],
    memo: &mut HashMap<(P, Ghost, usize), u64>,
    trace: &mut Vec<(Observation, Action)>,
) -> Result<u64, Violation> {
    if depth == 0 {
        return Ok(0);
    }
    let key = (stepper.clone(), ghost.clone(), depth);
    if let Some(&count) = memo.get(&key) {
        return Ok(count);
    }
    let mut count = 0;
    for &observation in domain {
        let mut next = stepper.clone();
        let action = next.step(observation);
        trace.push((observation, action));
        let mut next_ghost = ghost.clone();
        if let Err(invariant) = next_ghost.check(observation, action) {
            return Err(Violation {
                invariant,
                trace: std::mem::take(trace),
            });
        }
        count += 1 + expand(&next, &next_ghost, depth - 1, domain, memo, trace)?;
        trace.pop();
    }
    memo.insert(key, count);
    Ok(count)
}

#[test]
fn every_observation_sequence_keeps_the_invariants() {
    let explored = explore(|policy| policy)
        .unwrap_or_else(|violation| panic!("{}\n{:#?}", violation.invariant, violation.trace));
    println!(
        "promotion/exhaustive: {} observation sequences of length 1..={DEPTH} \
         ({} observations per step, 2 starting routes), {} distinct states, pass",
        explored.sequences,
        domain().len(),
        explored.states
    );
    let per_start: u64 = (1..=DEPTH as u32).map(|len| 48u64.pow(len)).sum();
    assert_eq!(
        explored.sequences,
        2 * per_start,
        "every sequence is covered"
    );
}

/// Run `mutant` and require the check to reject it on `invariant`.
fn rejects<P: Step + std::fmt::Debug>(
    name: &str,
    invariant: &str,
    wrap: impl Fn(PromotionPolicy) -> P,
) {
    match explore(wrap) {
        Ok(explored) => panic!("mutant {name} survived {} sequences", explored.sequences),
        Err(violation) => {
            println!(
                "promotion/{name}: rejected after {} steps: {}",
                violation.trace.len(),
                violation.invariant
            );
            assert_eq!(
                violation.invariant, invariant,
                "{name}: {:#?}",
                violation.trace
            );
        }
    }
}

/// Promotes instead of refusing: no health gate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct NoGate(PromotionPolicy);

impl Step for NoGate {
    fn step(&mut self, observation: Observation) -> Action {
        match self.0.step(observation) {
            Action::Refuse => Action::Promote(observation.newest.expect("a refusal has a newest")),
            action => action,
        }
    }
}

#[test]
fn mutant_promoting_an_unhealthy_route_is_rejected() {
    rejects("no-gate", NOT_HEALTHY, NoGate);
}

/// Forgets a rollback: offers the rolled-back artifact again once the
/// route is Healthy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Forgets {
    policy: PromotionPolicy,
    previous: Action,
    serving: Option<ArtifactId>,
    rolled_back: Option<ArtifactId>,
}

impl Step for Forgets {
    fn step(&mut self, observation: Observation) -> Action {
        match self.previous {
            Action::Promote(artifact) if observation.previous_ok => self.serving = Some(artifact),
            Action::Rollback(artifact) if observation.previous_ok => {
                self.rolled_back = self.serving;
                self.serving = Some(artifact);
            }
            _ => {}
        }
        let mut action = self.policy.step(observation);
        if let (Action::Hold, HealthState::Healthy, Some(artifact)) =
            (action, observation.health, self.rolled_back)
        {
            if observation.newest == Some(artifact) {
                action = Action::Promote(artifact);
            }
        }
        self.previous = action;
        action
    }
}

#[test]
fn mutant_re_promoting_a_rolled_back_artifact_is_rejected() {
    rejects("forgets-rollback", ROLLED_BACK, |policy| Forgets {
        policy,
        previous: Action::Hold,
        serving: None,
        rolled_back: None,
    });
}

/// Rolls back to the oldest artifact instead of the one served before the
/// promotion.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RollsBackToOldest(PromotionPolicy);

impl Step for RollsBackToOldest {
    fn step(&mut self, observation: Observation) -> Action {
        match self.0.step(observation) {
            Action::Rollback(_) => Action::Rollback(ARTIFACTS[0]),
            action => action,
        }
    }
}

#[test]
fn mutant_rolling_back_to_the_wrong_artifact_is_rejected() {
    rejects("wrong-target", ROLLBACK_TARGET, RollsBackToOldest);
}

/// Gives up on an artifact after its promotion fails once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GivesUp {
    policy: PromotionPolicy,
    previous: Action,
}

impl Step for GivesUp {
    fn step(&mut self, observation: Observation) -> Action {
        let mut action = self.policy.step(observation);
        if !observation.previous_ok && action == self.previous {
            action = Action::Hold;
        }
        self.previous = action;
        action
    }
}

#[test]
fn mutant_not_retrying_a_failed_promotion_is_rejected() {
    rejects("gives-up", NOT_RETRIED, |policy| GivesUp {
        policy,
        previous: Action::Hold,
    });
}

/// Promotes each artifact a second time right after it succeeded, while
/// the route is still Healthy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PromotesTwice {
    policy: PromotionPolicy,
    previous: Action,
}

impl Step for PromotesTwice {
    fn step(&mut self, observation: Observation) -> Action {
        let mut action = self.policy.step(observation);
        if let (Action::Promote(artifact), Action::Hold, true, HealthState::Healthy) = (
            self.previous,
            action,
            observation.previous_ok,
            observation.health,
        ) {
            action = Action::Promote(artifact);
        }
        self.previous = action;
        action
    }
}

#[test]
fn mutant_promoting_an_artifact_twice_is_rejected() {
    rejects("promotes-twice", NOT_ONCE, |policy| PromotesTwice {
        policy,
        previous: Action::Hold,
    });
}
