//! The four serving-stack protocol models, each checked exhaustively at
//! small bounds, plus their deliberately broken mutants — which the
//! checker must reject with a reproducible trace (teeth test).
//!
//! Run with `--nocapture` to see explored-schedule counts; CI does, so a
//! coverage regression (fewer schedules explored) is visible in the log.

use sesr_verify::models::arena::{arena_model, ArenaVariant};
use sesr_verify::models::queue::{queue_model, QueueVariant};
use sesr_verify::models::seqlock::{slot_model, SeqlockVariant};
use sesr_verify::models::swap::{swap_model, SwapVariant};
use sesr_verify::{check, fuzz, replay, Config, Report, Violation};

fn assert_exhaustive_pass(name: &str, report: Report) {
    println!(
        "model-check {name}: {} schedules explored, pass (complete: {})",
        report.schedules, report.complete
    );
    assert!(report.complete, "{name}: exploration truncated");
    if let Some(violation) = &report.violation {
        panic!("{name}: unexpected violation\n{violation}");
    }
    assert!(
        report.schedules > 10,
        "{name}: suspiciously few schedules ({}) — model lost its concurrency",
        report.schedules
    );
}

fn assert_mutant_caught(name: &str, report: Report, expect_in_message: &str) -> Violation {
    let violation = report.violation.unwrap_or_else(|| {
        panic!(
            "{name}: mutant survived {} schedules — the checker has no teeth",
            report.schedules
        )
    });
    println!(
        "model-check {name}: mutant rejected after {} schedules: {}",
        report.schedules, violation.message
    );
    assert!(
        violation.message.contains(expect_in_message),
        "{name}: unexpected violation message\n{violation}"
    );
    assert!(
        !violation.trace.is_empty() && !violation.schedule.is_empty(),
        "{name}: violation must carry a replayable trace"
    );
    violation
}

// --- seqlock slot protocol -------------------------------------------------

#[test]
fn seqlock_cas_claim_passes_exhaustive() {
    let report = check(Config::with_preemptions(2), || {
        slot_model(SeqlockVariant::CasClaim)
    });
    assert_exhaustive_pass("seqlock/cas-claim", report);
}

#[test]
fn seqlock_relaxed_stamp_mutant_is_caught() {
    // The store-buffer reordering that breaks a Relaxed stamp needs a
    // commit transition in exactly the wrong place; the seeded fuzzer
    // finds it within a few hundred schedules, where the DFS order only
    // reaches it ~180k schedules in. Seed and schedule make it exactly
    // reproducible either way.
    let seed = sesr_verify::env_seed(0x0005_e512);
    let report = fuzz(Config::with_preemptions(8), 2_000, seed, || {
        slot_model(SeqlockVariant::RelaxedStamp)
    });
    let violation = assert_mutant_caught("seqlock/relaxed-stamp", report, "torn read");
    assert_eq!(violation.seed, Some(seed));
    // The recorded schedule must replay to the same torn read.
    let replayed = replay(Config::with_preemptions(8), &violation.schedule, || {
        slot_model(SeqlockVariant::RelaxedStamp)
    });
    assert_eq!(
        replayed.violation.expect("replay reproduces").message,
        violation.message
    );
}

#[test]
fn seqlock_plain_store_claim_lap_race_is_caught() {
    // The protocol the ring originally shipped: no claim CAS, so two
    // writers lapped by a full ring revolution interleave into a torn
    // event the reader accepts. This is the bug that motivated the
    // CAS-claim rewrite in crates/telemetry/src/journal.rs.
    let report = check(Config::with_preemptions(2), || {
        slot_model(SeqlockVariant::PlainStoreClaim)
    });
    assert_mutant_caught("seqlock/plain-store-claim", report, "torn read");
}

// --- bounded queue ---------------------------------------------------------

#[test]
fn queue_push_pop_close_passes_exhaustive() {
    // Bound 2 is 26 548 schedules, about half a minute in a debug build, so
    // only release builds (the CI job `cargo test --release -p sesr-verify`)
    // run it. A debug build checks bound 1; the mutant below keeps bound 2.
    let bound = if cfg!(debug_assertions) { 1 } else { 2 };
    let report = check(Config::with_preemptions(bound), || {
        queue_model(QueueVariant::Correct)
    });
    assert_exhaustive_pass("queue/correct", report);
}

#[test]
fn queue_capacity_toctou_mutant_is_caught() {
    let report = check(Config::with_preemptions(2), || {
        queue_model(QueueVariant::CapacityToctou)
    });
    assert_mutant_caught("queue/capacity-toctou", report, "exceeded capacity");
}

// --- hot-reload swap/drain -------------------------------------------------

#[test]
fn swap_drain_retire_passes_exhaustive() {
    let report = check(Config::with_preemptions(2), || {
        swap_model(SwapVariant::Correct)
    });
    assert_exhaustive_pass("swap/correct", report);
}

#[test]
fn swap_drop_on_close_mutant_is_caught() {
    let report = check(Config::with_preemptions(2), || {
        swap_model(SwapVariant::DropOnClose)
    });
    assert_mutant_caught("swap/drop-on-close", report, "never processed");
}

// --- arena accounting ------------------------------------------------------

#[test]
fn arena_accounting_passes_exhaustive() {
    let report = check(Config::with_preemptions(2), || {
        arena_model(ArenaVariant::Correct)
    });
    assert_exhaustive_pass("arena/correct", report);
}

#[test]
fn arena_non_atomic_rmw_mutant_is_caught() {
    let report = check(Config::with_preemptions(2), || {
        arena_model(ArenaVariant::NonAtomicRmw)
    });
    assert_mutant_caught("arena/non-atomic-rmw", report, "arena in-use counter");
}

// --- schedule fuzzing at larger bounds -------------------------------------

#[test]
fn fuzzing_at_high_preemption_bound_stays_clean() {
    // Larger bounds than the exhaustive runs can afford; random schedules,
    // reproducible from the printed seed (SESR_VERIFY_SEED overrides).
    let seed = sesr_verify::env_seed(0x0005_e512);
    let config = || Config::with_preemptions(8);
    let cases: [(&str, fn()); 4] = [
        ("seqlock/cas-claim", || slot_model(SeqlockVariant::CasClaim)),
        ("queue/correct", || queue_model(QueueVariant::Correct)),
        ("swap/correct", || swap_model(SwapVariant::Correct)),
        ("arena/correct", || arena_model(ArenaVariant::Correct)),
    ];
    for (name, model) in cases {
        let report = fuzz(config(), 300, seed, model);
        println!(
            "model-fuzz {name}: {} random schedules (seed {seed}), pass",
            report.schedules
        );
        if let Some(violation) = &report.violation {
            panic!("{name}: fuzzing found a violation\n{violation}");
        }
    }
}
