//! Greedy delta-debugging over command traces.
//!
//! Commands address enclaves by *slot*, not by EMS-assigned id, so removing
//! a command never renumbers the targets of the survivors — any subsequence
//! of a valid trace is itself a valid trace, which is exactly what makes
//! naive ddmin sound here.

use crate::harness::{run_campaign, Campaign};
use crate::ops::Command;

/// Upper bound on full campaign replays one shrink may spend. Each replay
/// boots a fresh machine, so this caps shrink time at a few seconds even
/// for long traces.
const MAX_RUNS: usize = 300;

/// Reduces a diverging `commands` trace to a (locally) minimal one that
/// still diverges under the same `campaign`, using the workspace's greedy
/// delta debugging ([`hypertee_cpu::difftest::shrink`]): repeatedly try to
/// delete chunks of halving size, keeping any deletion that preserves the
/// divergence.
///
/// If the input trace does not diverge in the first place it is returned
/// unchanged.
pub fn shrink(campaign: &Campaign, commands: &[Command]) -> Vec<Command> {
    hypertee_cpu::difftest::shrink(commands, MAX_RUNS, |c| {
        run_campaign(campaign, c).divergence.is_some()
    })
}
