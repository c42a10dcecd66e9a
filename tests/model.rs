//! Lockstep differential checking of the enclave lifecycle against the
//! reference model (`hypertee-model`), plus oracle-sensitivity tests that
//! plant known bugs and require the harness to catch and shrink them.
//!
//! Repro: any failure prints the campaign seed; rerun with
//! `cargo test --test model -- --nocapture` and the printed seed.

use hypertee_repro::faults::FaultConfig;
use hypertee_repro::model::{generate, run_campaign, shrink, Campaign, LifecycleOp, Mutation};

/// Prints the seed and a one-line repro command when the enclosing test
/// panics, so failures are reproducible from the log alone.
struct SeedReporter {
    seed: u64,
    test: &'static str,
}

impl Drop for SeedReporter {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "campaign seed {:#x} failed; repro: cargo test --test model {} -- --nocapture",
                self.seed, self.test
            );
        }
    }
}

/// The headline acceptance campaign: 500+ commands interleaved across all
/// four harts, no faults — the machine and the model must agree at every
/// completion and every quiescent checkpoint. A shorter 200-command trace
/// on a second seed rides along.
#[test]
fn lockstep_500_commands_multihart_no_divergence() {
    for (seed, len) in [(0x5eed_0001, 520), (0x600d_5eed, 200)] {
        let _guard = SeedReporter {
            seed,
            test: "lockstep_500_commands_multihart_no_divergence",
        };
        let commands = generate(seed, len, 4);
        let campaign = Campaign::new(seed);
        let outcome = run_campaign(&campaign, &commands);
        assert!(
            outcome.divergence.is_none(),
            "divergence: {}",
            outcome.divergence.unwrap()
        );
        assert_eq!(outcome.executed, len);
        assert_eq!(outcome.timeouts, 0, "timeouts impossible without faults");
        // The generator is state-aware: the bulk of commands must round-trip
        // Ok, and the chaos tail must exercise rejection paths too.
        assert!(
            outcome.ok_responses >= 150,
            "only {} Ok responses",
            outcome.ok_responses
        );
        assert!(
            outcome.rejections >= 20,
            "only {} rejections",
            outcome.rejections
        );
        assert!(
            outcome.checkpoints >= 10,
            "only {} checkpoints",
            outcome.checkpoints
        );
    }
}

/// The same lockstep discipline holds under an aggressive fault campaign:
/// drops, duplicates, aborts, stalls and injected exhaustion may slow the
/// pipeline or taint slots, but must never produce a state the model (with
/// its fault-aware acceptance rules) cannot explain.
#[test]
fn lockstep_under_faults_no_divergence() {
    for (seed, len) in [(0x5eed_0002, 520), (0x600d_5eed, 200)] {
        let _guard = SeedReporter {
            seed,
            test: "lockstep_under_faults_no_divergence",
        };
        let commands = generate(seed, len, 4);
        let campaign = Campaign {
            faults: Some(FaultConfig::model_campaign()),
            ..Campaign::new(seed)
        };
        let outcome = run_campaign(&campaign, &commands);
        assert!(
            outcome.divergence.is_none(),
            "divergence under faults: {}",
            outcome.divergence.unwrap()
        );
        assert_eq!(outcome.executed, len);
        assert!(
            outcome.faults_injected > 50,
            "campaign too tame: only {} faults injected",
            outcome.faults_injected
        );
        assert!(
            outcome.ok_responses >= 100,
            "only {} Ok responses",
            outcome.ok_responses
        );
    }
}

/// Two runs of the identical campaign must produce the identical outcome —
/// the determinism the shrinker relies on.
#[test]
fn campaigns_are_deterministic() {
    let seed = 0x5eed_0003;
    let _guard = SeedReporter {
        seed,
        test: "campaigns_are_deterministic",
    };
    let commands = generate(seed, 200, 3);
    let campaign = Campaign {
        harts: 3,
        faults: Some(FaultConfig::model_campaign()),
        ..Campaign::new(seed)
    };
    let a = run_campaign(&campaign, &commands);
    let b = run_campaign(&campaign, &commands);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// Oracle sensitivity: an EMS that "forgets" to clear the security bitmap
/// bit of a written-back frame must be caught by the consistency audit at a
/// quiescent checkpoint, and the shrinker must reduce the trace to a small
/// reproducer that still contains an EWB.
#[test]
fn planted_bitmap_leak_is_caught_and_shrunk() {
    let seed = 0x5eed_0004;
    let _guard = SeedReporter {
        seed,
        test: "planted_bitmap_leak_is_caught_and_shrunk",
    };
    let commands = generate(seed, 260, 4);
    let campaign = Campaign {
        mutation: Mutation::RemarkWritebackFrame,
        ..Campaign::new(seed)
    };
    let outcome = run_campaign(&campaign, &commands);
    let divergence = outcome
        .divergence
        .expect("planted bitmap leak must be detected");
    // The cross-structure consistency audit catches it: an enclave-marked
    // frame that neither the pool nor the ownership table tracks.
    assert!(
        divergence.detail.contains("bitmap") || divergence.detail.contains("UntrackedEnclaveFrame"),
        "unexpected divergence detail: {divergence}"
    );

    let reduced = shrink(&campaign, &commands);
    assert!(
        run_campaign(&campaign, &reduced).divergence.is_some(),
        "shrunk trace must still diverge"
    );
    assert!(
        reduced.len() < commands.len() / 2,
        "shrinker barely reduced the trace: {} of {}",
        reduced.len(),
        commands.len()
    );
    assert!(
        reduced
            .iter()
            .any(|c| matches!(c.op, LifecycleOp::Writeback { .. })),
        "reduced trace lost the triggering EWB"
    );
}

/// Oracle sensitivity: skipping the post-EFREE TLB shootdown must be caught
/// by the per-completion stale-TLB predicate on the issuing hart.
#[test]
fn planted_tlb_flush_skip_is_caught() {
    let seed = 0x5eed_0005;
    let _guard = SeedReporter {
        seed,
        test: "planted_tlb_flush_skip_is_caught",
    };
    let commands = generate(seed, 260, 4);
    let campaign = Campaign {
        mutation: Mutation::SkipFreeTlbFlush,
        ..Campaign::new(seed)
    };
    let outcome = run_campaign(&campaign, &commands);
    let divergence = outcome
        .divergence
        .expect("planted missing TLB shootdown must be detected");
    assert!(
        divergence.detail.contains("stale TLB"),
        "unexpected divergence detail: {divergence}"
    );
    let reduced = shrink(&campaign, &commands);
    assert!(reduced.len() < commands.len());
    assert!(
        reduced
            .iter()
            .any(|c| matches!(c.op, LifecycleOp::Free { .. })),
        "reduced trace lost the triggering EFREE"
    );
}
