//! `hypertee-faults`: a deterministic, seed-driven fault-injection layer.
//!
//! HyperTEE's management plane must stay consistent when the fabric loses a
//! mailbox packet or a primitive dies mid-flight. This crate provides the
//! *decision* half of that story: a [`FaultPlan`] seeded from a single
//! `u64` hands out per-site [`FaultInjector`]s whose rolls are fully
//! deterministic, so any failing run is replayable from its seed alone.
//!
//! The injection *points* live in `hypertee-fabric` (mailbox, ring, DMA
//! whitelist) and `hypertee-ems` (primitive abort at step *k*, transient
//! exhaustion, EMS core stall); each owns an injector derived from the
//! plan. An injector built with [`FaultInjector::disarmed`] never fires,
//! which is the default everywhere — production paths pay one branch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::fnv;

/// Every fault the harness can inject, across fabric and EMS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A submitted request vanishes before reaching the mailbox queue.
    MailboxDropRequest,
    /// A response is discarded instead of being queued for the caller.
    MailboxDropResponse,
    /// A response is duplicated in flight (counted; the copy never reaches
    /// a ticket, since a poll consumes the one deliverable response).
    MailboxDuplicateResponse,
    /// A response is held back for a number of polls before delivery.
    MailboxDelayResponse,
    /// A response is bit-flipped in flight (caught by its checksum).
    MailboxCorruptResponse,
    /// The EMS Rx ring refuses to pop for one service round.
    RingStall,
    /// The DMA whitelist spuriously denies one legitimate access.
    DmaFlap,
    /// A primitive aborts after *k* mutation steps (tests rollback).
    PrimitiveAbort,
    /// The pool reports transient exhaustion before dispatch.
    TransientExhausted,
    /// The EMS core skips an entire service round.
    EmsStall,
    /// The EMS firmware crashes and warm-restarts: volatile state (the Rx
    /// ring) is lost, persistent state is reconstructed on the way back up.
    EmsCrash,
    /// A service RPC frame is dropped on the wire (client sees a timeout).
    RpcDropFrame,
    /// A service RPC frame is delivered twice (the facade must reject the
    /// duplicate via its per-session sequence counter).
    RpcDuplicateFrame,
    /// A service RPC frame is held back for extra ticks before delivery.
    RpcDelayFrame,
    /// An old, already-consumed RPC frame is re-injected (replay attack).
    RpcReplayFrame,
    /// A previously captured attestation quote (`SigmaMsg2`) is substituted
    /// for the fresh reply (stale-quote replay attack).
    StaleQuoteReplay,
    /// A forged or bit-flipped session token / request MAC is presented.
    TokenForge,
}

impl FaultKind {
    /// All fault kinds, in stable order (indexes [`FaultStats`] counters).
    pub const ALL: [FaultKind; 17] = [
        FaultKind::MailboxDropRequest,
        FaultKind::MailboxDropResponse,
        FaultKind::MailboxDuplicateResponse,
        FaultKind::MailboxDelayResponse,
        FaultKind::MailboxCorruptResponse,
        FaultKind::RingStall,
        FaultKind::DmaFlap,
        FaultKind::PrimitiveAbort,
        FaultKind::TransientExhausted,
        FaultKind::EmsStall,
        FaultKind::EmsCrash,
        FaultKind::RpcDropFrame,
        FaultKind::RpcDuplicateFrame,
        FaultKind::RpcDelayFrame,
        FaultKind::RpcReplayFrame,
        FaultKind::StaleQuoteReplay,
        FaultKind::TokenForge,
    ];

    /// Stable index of this kind into [`FaultStats`] counters.
    pub fn index(self) -> usize {
        FaultKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind in ALL")
    }

    /// Human-readable name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::MailboxDropRequest => "mailbox-drop-request",
            FaultKind::MailboxDropResponse => "mailbox-drop-response",
            FaultKind::MailboxDuplicateResponse => "mailbox-duplicate-response",
            FaultKind::MailboxDelayResponse => "mailbox-delay-response",
            FaultKind::MailboxCorruptResponse => "mailbox-corrupt-response",
            FaultKind::RingStall => "ring-stall",
            FaultKind::DmaFlap => "dma-flap",
            FaultKind::PrimitiveAbort => "primitive-abort",
            FaultKind::TransientExhausted => "transient-exhausted",
            FaultKind::EmsStall => "ems-stall",
            FaultKind::EmsCrash => "ems-crash",
            FaultKind::RpcDropFrame => "rpc-drop-frame",
            FaultKind::RpcDuplicateFrame => "rpc-duplicate-frame",
            FaultKind::RpcDelayFrame => "rpc-delay-frame",
            FaultKind::RpcReplayFrame => "rpc-replay-frame",
            FaultKind::StaleQuoteReplay => "stale-quote-replay",
            FaultKind::TokenForge => "token-forge",
        }
    }
}

/// Per-mille injection rates and shape parameters for a fault campaign.
///
/// A rate of `25` fires on roughly 2.5% of opportunities at that site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Rate for [`FaultKind::MailboxDropRequest`].
    pub drop_request_pm: u32,
    /// Rate for [`FaultKind::MailboxDropResponse`].
    pub drop_response_pm: u32,
    /// Rate for [`FaultKind::MailboxDuplicateResponse`].
    pub duplicate_response_pm: u32,
    /// Rate for [`FaultKind::MailboxDelayResponse`].
    pub delay_response_pm: u32,
    /// Rate for [`FaultKind::MailboxCorruptResponse`].
    pub corrupt_response_pm: u32,
    /// Rate for [`FaultKind::RingStall`].
    pub ring_stall_pm: u32,
    /// Rate for [`FaultKind::DmaFlap`].
    pub dma_flap_pm: u32,
    /// Rate for [`FaultKind::PrimitiveAbort`].
    pub abort_pm: u32,
    /// Upper bound (inclusive) on the abort step *k*; the abort fires after
    /// `1..=abort_step_max` mutation steps of the primitive.
    pub abort_step_max: u32,
    /// Rate for [`FaultKind::TransientExhausted`].
    pub exhausted_pm: u32,
    /// Rate for [`FaultKind::EmsStall`].
    pub ems_stall_pm: u32,
    /// Rate for [`FaultKind::EmsCrash`].
    pub crash_pm: u32,
    /// Upper bound (inclusive) on how many polls a delayed response is held.
    pub delay_polls_max: u32,
    /// Rate for [`FaultKind::RpcDropFrame`] (service-transport site).
    pub rpc_drop_pm: u32,
    /// Rate for [`FaultKind::RpcDuplicateFrame`].
    pub rpc_duplicate_pm: u32,
    /// Rate for [`FaultKind::RpcDelayFrame`].
    pub rpc_delay_pm: u32,
    /// Rate for [`FaultKind::RpcReplayFrame`].
    pub rpc_replay_pm: u32,
    /// Rate for [`FaultKind::StaleQuoteReplay`].
    pub stale_quote_pm: u32,
    /// Rate for [`FaultKind::TokenForge`].
    pub token_forge_pm: u32,
}

impl FaultConfig {
    /// All rates zero: an armed injector with this config never fires.
    pub fn disabled() -> FaultConfig {
        FaultConfig {
            drop_request_pm: 0,
            drop_response_pm: 0,
            duplicate_response_pm: 0,
            delay_response_pm: 0,
            corrupt_response_pm: 0,
            ring_stall_pm: 0,
            dma_flap_pm: 0,
            abort_pm: 0,
            abort_step_max: 8,
            exhausted_pm: 0,
            ems_stall_pm: 0,
            crash_pm: 0,
            delay_polls_max: 8,
            rpc_drop_pm: 0,
            rpc_duplicate_pm: 0,
            rpc_delay_pm: 0,
            rpc_replay_pm: 0,
            stale_quote_pm: 0,
            token_forge_pm: 0,
        }
    }

    /// A light campaign: each site fires on ~2–5% of opportunities. Low
    /// enough that bounded retry recovers essentially every request.
    pub fn light() -> FaultConfig {
        FaultConfig {
            drop_request_pm: 30,
            drop_response_pm: 30,
            duplicate_response_pm: 30,
            delay_response_pm: 50,
            corrupt_response_pm: 30,
            ring_stall_pm: 40,
            dma_flap_pm: 40,
            abort_pm: 50,
            abort_step_max: 8,
            exhausted_pm: 30,
            ems_stall_pm: 40,
            crash_pm: 10,
            delay_polls_max: 8,
            ..FaultConfig::disabled()
        }
    }

    /// Service-transport faults only: every RPC-layer attack and loss mode
    /// armed at storm rates, the fabric/EMS sites quiet. Compose with
    /// another preset by overwriting the six `rpc_*`/`stale_quote_pm`/
    /// `token_forge_pm` fields.
    pub fn service_storm() -> FaultConfig {
        FaultConfig {
            rpc_drop_pm: 60,
            rpc_duplicate_pm: 40,
            rpc_delay_pm: 60,
            rpc_replay_pm: 40,
            stale_quote_pm: 40,
            token_forge_pm: 40,
            ..FaultConfig::disabled()
        }
    }

    /// A campaign tuned for lockstep model checking: loss/duplication/
    /// corruption rates are kept low enough that the bounded retry machinery
    /// recovers essentially every request (surfaced `Timeout`s would force
    /// the reference model to mark state unknown), while rollback-exercising
    /// aborts and clean transient errors stay frequent enough to matter.
    pub fn model_campaign() -> FaultConfig {
        FaultConfig {
            drop_request_pm: 15,
            drop_response_pm: 15,
            duplicate_response_pm: 20,
            delay_response_pm: 30,
            corrupt_response_pm: 15,
            ring_stall_pm: 30,
            dma_flap_pm: 0,
            abort_pm: 40,
            abort_step_max: 6,
            exhausted_pm: 25,
            ems_stall_pm: 30,
            crash_pm: 0,
            delay_polls_max: 6,
            ..FaultConfig::disabled()
        }
    }

    /// A heavy campaign: ~10–20% rates; expect visible retries and some
    /// clean `Status` errors surfacing to callers.
    pub fn heavy() -> FaultConfig {
        FaultConfig {
            drop_request_pm: 120,
            drop_response_pm: 120,
            duplicate_response_pm: 100,
            delay_response_pm: 150,
            corrupt_response_pm: 100,
            ring_stall_pm: 150,
            dma_flap_pm: 150,
            abort_pm: 200,
            abort_step_max: 12,
            exhausted_pm: 100,
            ems_stall_pm: 150,
            crash_pm: 30,
            delay_polls_max: 12,
            ..FaultConfig::disabled()
        }
    }

    fn rate(&self, kind: FaultKind) -> u32 {
        match kind {
            FaultKind::MailboxDropRequest => self.drop_request_pm,
            FaultKind::MailboxDropResponse => self.drop_response_pm,
            FaultKind::MailboxDuplicateResponse => self.duplicate_response_pm,
            FaultKind::MailboxDelayResponse => self.delay_response_pm,
            FaultKind::MailboxCorruptResponse => self.corrupt_response_pm,
            FaultKind::RingStall => self.ring_stall_pm,
            FaultKind::DmaFlap => self.dma_flap_pm,
            FaultKind::PrimitiveAbort => self.abort_pm,
            FaultKind::TransientExhausted => self.exhausted_pm,
            FaultKind::EmsStall => self.ems_stall_pm,
            FaultKind::EmsCrash => self.crash_pm,
            FaultKind::RpcDropFrame => self.rpc_drop_pm,
            FaultKind::RpcDuplicateFrame => self.rpc_duplicate_pm,
            FaultKind::RpcDelayFrame => self.rpc_delay_pm,
            FaultKind::RpcReplayFrame => self.rpc_replay_pm,
            FaultKind::StaleQuoteReplay => self.stale_quote_pm,
            FaultKind::TokenForge => self.token_forge_pm,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// Counters of injected faults, indexed by [`FaultKind`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    counts: [u64; FaultKind::ALL.len()],
}

impl FaultStats {
    /// Times `kind` actually fired.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total injected faults across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// How many distinct kinds fired at least once.
    pub fn distinct_kinds(&self) -> usize {
        self.counts.iter().filter(|c| **c > 0).count()
    }

    /// Folds another stats block into this one (for cross-site aggregation).
    pub fn merge(&mut self, other: &FaultStats) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    fn record(&mut self, kind: FaultKind) {
        self.counts[kind.index()] += 1;
    }
}

/// A replayable fault campaign: a seed plus a [`FaultConfig`].
///
/// Each injection site derives its own [`FaultInjector`] via
/// [`FaultPlan::injector`], keyed by a site label, so the decision streams
/// of different sites are independent and insensitive to each other's call
/// ordering — the same seed always yields the same faults at each site.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
}

impl FaultPlan {
    /// Builds a plan from a seed and campaign config.
    pub fn new(seed: u64, config: FaultConfig) -> FaultPlan {
        FaultPlan { seed, config }
    }

    /// The campaign seed (print it when a run fails — it replays the run).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The campaign configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Derives the armed injector for one site. `site` is a stable label
    /// such as `"mailbox"`, `"ems"`, or `"dma"`.
    pub fn injector(&self, site: &str) -> FaultInjector {
        // FNV-1a over the site label decorrelates per-site streams.
        FaultInjector {
            armed: true,
            rng: ChaChaRng::from_u64(self.seed ^ fnv::hash_bytes(site.as_bytes())),
            config: self.config.clone(),
            stats: FaultStats::default(),
        }
    }
}

/// One site's deterministic fault source.
///
/// Call [`FaultInjector::roll`] at each injection opportunity; it returns
/// `true` when the fault should fire and records it in [`FaultStats`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    armed: bool,
    rng: ChaChaRng,
    config: FaultConfig,
    stats: FaultStats,
}

impl FaultInjector {
    /// An injector that never fires — the default at every site.
    pub fn disarmed() -> FaultInjector {
        FaultInjector {
            armed: false,
            rng: ChaChaRng::from_u64(0),
            config: FaultConfig::disabled(),
            stats: FaultStats::default(),
        }
    }

    /// Rolls for `kind`: `true` means inject. Disarmed injectors draw no
    /// randomness, so arming a site never perturbs another site's stream.
    pub fn roll(&mut self, kind: FaultKind) -> bool {
        if !self.armed {
            return false;
        }
        let rate = self.config.rate(kind);
        if rate == 0 {
            return false;
        }
        let hit = self.rng.gen_range(1000) < u64::from(rate.min(1000));
        if hit {
            self.stats.record(kind);
        }
        hit
    }

    /// Rolls for a primitive abort; on a hit, returns the step *k* (1-based)
    /// after which the primitive must abort.
    pub fn abort_step(&mut self) -> Option<u32> {
        if self.roll(FaultKind::PrimitiveAbort) {
            Some(
                1 + self
                    .rng
                    .gen_range(u64::from(self.config.abort_step_max.max(1)))
                    as u32,
            )
        } else {
            None
        }
    }

    /// How many polls to hold a delayed response (for
    /// [`FaultKind::MailboxDelayResponse`] hits).
    pub fn delay_polls(&mut self) -> u32 {
        1 + self
            .rng
            .gen_range(u64::from(self.config.delay_polls_max.max(1))) as u32
    }

    /// Faults injected so far at this site.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::disarmed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_never_fires() {
        let mut inj = FaultInjector::disarmed();
        for _ in 0..1000 {
            assert!(!inj.roll(FaultKind::MailboxDropRequest));
        }
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::new(42, FaultConfig::heavy());
        let mut a = plan.injector("mailbox");
        let mut b = plan.injector("mailbox");
        let rolls_a: Vec<bool> = (0..500)
            .map(|_| a.roll(FaultKind::MailboxDropResponse))
            .collect();
        let rolls_b: Vec<bool> = (0..500)
            .map(|_| b.roll(FaultKind::MailboxDropResponse))
            .collect();
        assert_eq!(rolls_a, rolls_b);
        assert!(a.stats().count(FaultKind::MailboxDropResponse) > 10);
    }

    #[test]
    fn sites_are_decorrelated() {
        let plan = FaultPlan::new(7, FaultConfig::heavy());
        let mut a = plan.injector("mailbox");
        let mut b = plan.injector("ems");
        let rolls_a: Vec<bool> = (0..500).map(|_| a.roll(FaultKind::EmsStall)).collect();
        let rolls_b: Vec<bool> = (0..500).map(|_| b.roll(FaultKind::EmsStall)).collect();
        assert_ne!(rolls_a, rolls_b);
    }

    #[test]
    fn abort_step_within_bounds() {
        let plan = FaultPlan::new(3, FaultConfig::heavy());
        let mut inj = plan.injector("ems");
        let max = plan.config().abort_step_max;
        let mut hits = 0;
        for _ in 0..2000 {
            if let Some(k) = inj.abort_step() {
                assert!(k >= 1 && k <= max, "step {k} out of 1..={max}");
                hits += 1;
            }
        }
        assert!(hits > 100, "heavy config should abort often, got {hits}");
    }

    #[test]
    fn stats_merge_and_distinct() {
        let plan = FaultPlan::new(9, FaultConfig::heavy());
        let mut a = plan.injector("x");
        let mut b = plan.injector("y");
        for _ in 0..300 {
            a.roll(FaultKind::DmaFlap);
            b.roll(FaultKind::RingStall);
        }
        let mut sum = a.stats().clone();
        sum.merge(b.stats());
        assert_eq!(sum.total(), a.stats().total() + b.stats().total());
        assert!(sum.distinct_kinds() >= 2);
    }
}
