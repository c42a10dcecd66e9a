//! The attestation storm: a fleet of clients hammering the service facade
//! with challenge-response handshakes and authenticated calls while the
//! chaos campaign crashes, migrates, and faults the machine underneath.
//!
//! Every client is a tick-driven state machine with its own
//! [`CircuitBreaker`] and [`backoff_delay`] schedule; the storm injects
//! service-transport faults (dropped / duplicated / delayed / replayed
//! frames, stale-quote substitution, token forgery) *between* the two
//! halves of each exchange, from the campaign's own seeded
//! [`hypertee_faults::FaultPlan`] site stream. The facade must reject every attack — the storm counts
//! attempts and acceptances separately, and the `BENCH_serving.json`
//! validator pins all `*_accepted` counters to zero.
//!
//! Determinism: the storm draws from one `ChaChaRng` and one
//! [`hypertee_faults::FaultInjector`], and clients step in ascending index
//! order, so the whole storm folds into the campaign trace hash.

use crate::campaign::{floor_percentile, slo_fraction};
use hypertee::machine::Machine;
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::sig::PublicKey;
use hypertee_ems::attest::{SigmaInitiator, SigmaMsg1, SigmaMsg2};
use hypertee_faults::{FaultInjector, FaultKind};
use hypertee_service::{
    backoff_delay, request_mac, CircuitBreaker, ServiceConfig, ServiceError, ServiceFacade,
    ServiceOp, SessionToken,
};

/// Facade challenge freshness window for the storm (small, so organic client
/// latency under delay faults exercises the stale path).
const FRESHNESS_WINDOW_TICKS: u64 = 12;

/// Storm shape, all deterministic in the campaign seed.
#[derive(Debug, Clone)]
pub(crate) struct StormConfig {
    /// Concurrent storm clients.
    pub(crate) clients: usize,
    /// Completed handshake cycles each client must finish.
    pub(crate) handshakes_per_client: u32,
    /// Authenticated calls per completed handshake.
    pub(crate) calls_per_handshake: u32,
    /// Tick gap between consecutive client activations at storm start.
    pub(crate) spawn_every_ticks: u64,
    /// Idle ticks between a client's handshake cycles (paces the storm
    /// across the campaign so it overlaps crashes and migrations).
    pub(crate) idle_between_ticks: u64,
    /// Unauthenticated probe calls fired before the facade's startup
    /// probes pass — every one must be refused.
    pub(crate) pre_ready_attempts: u32,
    /// Facade token TTL (small enough that long-lived clients re-attest).
    pub(crate) token_ttl_ticks: u64,
}

impl StormConfig {
    /// The acceptance storm: thousands of handshakes across the campaign.
    pub(crate) fn fleet() -> StormConfig {
        StormConfig {
            clients: 64,
            handshakes_per_client: 24,
            calls_per_handshake: 6,
            spawn_every_ticks: 3,
            idle_between_ticks: 120,
            pre_ready_attempts: 64,
            token_ttl_ticks: 900,
        }
    }

    /// A seconds-scale storm for CI smoke.
    pub(crate) fn smoke() -> StormConfig {
        StormConfig {
            clients: 8,
            handshakes_per_client: 4,
            calls_per_handshake: 2,
            spawn_every_ticks: 2,
            idle_between_ticks: 40,
            pre_ready_attempts: 8,
            token_ttl_ticks: 400,
        }
    }
}

/// What the storm measured. Attempt/accept pairs separate "the attack was
/// launched" from "the facade fell for it" — the latter must stay zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StormOutcome {
    /// Clients the storm ran.
    pub clients: usize,
    /// Handshake cycles started (challenges successfully issued).
    pub handshakes_attempted: u64,
    /// Handshake cycles that ended with a verified session key.
    pub handshakes_completed: u64,
    /// Handshake cycles restarted after a rejection or lost frame.
    pub(crate) handshake_retries: u64,
    /// Authenticated calls sent.
    pub(crate) calls_attempted: u64,
    /// Authenticated calls served with a verifying reply MAC.
    pub calls_ok: u64,
    /// Fresh handshakes forced by session revocation (epoch bump, TTL).
    pub reattestations: u64,
    /// Unauthenticated requests fired before the facade was ready.
    pub pre_ready_attempts: u64,
    /// Pre-readiness requests that were *served* (must be 0).
    pub(crate) pre_ready_accepted: u64,
    /// Stale-quote substitutions delivered to clients.
    pub(crate) stale_quote_attempts: u64,
    /// Substituted quotes a client accepted (must be 0).
    pub(crate) stale_quote_accepted: u64,
    /// Replayed frames (captured msg1 / captured call) re-delivered.
    pub(crate) replay_attempts: u64,
    /// Replays the facade served (must be 0).
    pub(crate) replay_accepted: u64,
    /// Same-frame duplicate deliveries after a served call.
    pub(crate) duplicate_attempts: u64,
    /// Duplicates the facade served twice (must be 0).
    pub(crate) duplicate_accepted: u64,
    /// Bit-flipped session tokens presented.
    pub(crate) forged_token_attempts: u64,
    /// Forged tokens the facade honoured (must be 0).
    pub(crate) forged_token_accepted: u64,
    /// Breaker trips across all clients.
    pub breaker_to_open: u64,
    /// Breaker cooldown expiries into half-open.
    pub breaker_to_half_open: u64,
    /// Breaker recoveries into closed.
    pub breaker_to_closed: u64,
    /// Requests shed locally by open breakers.
    pub(crate) breaker_shed: u64,
    /// Facade re-probes forced by crash-restarts.
    pub(crate) reprobes: u64,
    /// Sessions revoked by epoch bumps.
    pub(crate) sessions_revoked: u64,
    /// Facade-side not-ready rejections.
    pub(crate) not_ready_rejects: u64,
    /// Facade-side stale-challenge rejections.
    pub(crate) stale_challenge_rejects: u64,
    /// Facade-side revoked-epoch rejections.
    pub(crate) epoch_rejects: u64,
    /// Facade-side expired-token rejections.
    pub(crate) expired_token_rejects: u64,
    /// Service-transport faults the injector actually fired.
    pub service_faults_injected: u64,
    /// Median completed-handshake latency in ticks (challenge to key).
    pub handshake_p50_ticks: u64,
    /// 99th-percentile handshake latency in ticks.
    pub handshake_p99_ticks: u64,
    /// Handshake SLO CDF: `(tick bound, fraction of completed handshakes
    /// at or under it)`.
    pub(crate) slo_cdf: Vec<(u32, f64)>,
}

impl StormOutcome {
    /// Sum of every accepted-attack counter: the fail-closed verdict in
    /// one number. Anything above zero is a security failure.
    pub fn accepted_attacks(&self) -> u64 {
        self.pre_ready_accepted
            + self.stale_quote_accepted
            + self.replay_accepted
            + self.duplicate_accepted
            + self.forged_token_accepted
    }
}

/// Handshake SLO CDF abscissae, in ticks.
const SLO_TICK_BOUNDS: [u32; 8] = [1, 4, 16, 64, 256, 1024, 4096, 16384];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Not yet activated (staggered spawn).
    Spawning,
    /// Next action: request a challenge.
    Challenge,
    /// Next action: answer the held challenge with `SigmaMsg1`.
    Attest,
    /// Next action: an authenticated call.
    Call,
    /// Target met and the campaign is winding down.
    Done,
}

struct Client {
    tenant: u64,
    phase: Phase,
    wait_until: u64,
    breaker: CircuitBreaker,
    backoff_attempt: u32,
    handshakes_done: u32,
    calls_left: u32,
    /// Tick the current handshake cycle started at (challenge request).
    started_at: u64,
    challenge: Option<(u64, [u8; 32])>,
    token: Option<SessionToken>,
    key: Option<[u8; 32]>,
    seq: u64,
}

/// The storm driver. Owns the facade; the campaign steps it once per tick.
pub(crate) struct StormDriver {
    cfg: StormConfig,
    facade: ServiceFacade,
    injector: FaultInjector,
    rng: ChaChaRng,
    clients: Vec<Client>,
    /// Pinned verifier inputs, learned at boot/probe time.
    trusted_ek: Option<PublicKey>,
    expected_measurement: [u8; 32],
    /// Captured frames for replay / stale-quote substitution attacks.
    captured_msg1: Option<(u64, SigmaMsg1)>,
    captured_msg2: Option<SigmaMsg2>,
    captured_call: Option<(SessionToken, u64, ServiceOp, [u8; 32])>,
    latencies: Vec<u64>,
    out: StormOutcome,
    booted: bool,
    winding_down: bool,
}

impl StormDriver {
    /// A storm over a fresh (unprobed) facade. Call [`StormDriver::boot`]
    /// before the first tick.
    pub(crate) fn new(cfg: StormConfig, seed: u64, injector: FaultInjector) -> StormDriver {
        let facade_config = ServiceConfig {
            freshness_window_ticks: FRESHNESS_WINDOW_TICKS,
            token_ttl_ticks: cfg.token_ttl_ticks,
            ..ServiceConfig::production(seed ^ 0x7374_6f72_6d00_0001)
        };
        let facade = ServiceFacade::new(facade_config).expect("facade constructs");
        let clients = (0..cfg.clients)
            .map(|i| Client {
                tenant: 0x5000 + i as u64,
                phase: Phase::Spawning,
                wait_until: i as u64 * cfg.spawn_every_ticks,
                breaker: CircuitBreaker::default(),
                backoff_attempt: 0,
                handshakes_done: 0,
                calls_left: 0,
                started_at: 0,
                challenge: None,
                token: None,
                key: None,
                seq: 0,
            })
            .collect();
        let out = StormOutcome {
            clients: cfg.clients,
            ..StormOutcome::default()
        };
        StormDriver {
            rng: ChaChaRng::from_u64(seed ^ 0x7374_6f72_6d5f_7267),
            cfg,
            facade,
            injector,
            clients,
            trusted_ek: None,
            expected_measurement: [0; 32],
            captured_msg1: None,
            captured_msg2: None,
            captured_call: None,
            latencies: Vec::new(),
            out,
            booted: false,
            winding_down: false,
        }
    }

    /// Fail-closed startup: hammers the unprobed facade (every request
    /// must be refused), then runs the startup probes and pins the
    /// verifier inputs the clients will use.
    pub(crate) fn boot(&mut self, m: &mut Machine) {
        let dead_token = SessionToken {
            id: 0,
            tenant: 0,
            epoch: 0,
            expires_at: u64::MAX,
            mac: [0; 32],
        };
        for i in 0..self.cfg.pre_ready_attempts {
            self.out.pre_ready_attempts += 1;
            let served = if i % 2 == 0 {
                self.facade.issue_challenge(u64::from(i), 0).is_ok()
            } else {
                let op = ServiceOp::Ping(vec![i as u8]);
                self.facade
                    .call(m, &dead_token, 0, &op, &[0; 32], 0)
                    .is_ok()
            };
            if served {
                self.out.pre_ready_accepted += 1;
            }
        }
        self.facade
            .probe(m, 0)
            .expect("startup probes pass on the campaign machine");
        self.trusted_ek = Some(m.ek_public());
        self.expected_measurement = self.facade.service_measurement().expect("probed");
        self.booted = true;
    }

    /// Supervised recovery after an EMS crash-restart: the facade revokes
    /// every session and re-probes before serving again.
    pub(crate) fn on_crash(&mut self, m: &mut Machine, tick: u64) {
        self.facade
            .supervise(m, tick)
            .expect("facade re-probes after crash-restart");
    }

    /// Whether every client has met its target (and the campaign told the
    /// storm to wind down).
    pub(crate) fn done(&self) -> bool {
        self.booted && self.clients.iter().all(|c| c.phase == Phase::Done)
    }

    /// One storm tick: each client advances by at most one exchange, in
    /// ascending index order. `winding_down` is the campaign's signal that
    /// the background traffic has drained — clients at target stop instead
    /// of idling for more.
    pub(crate) fn step(&mut self, m: &mut Machine, tick: u64, winding_down: bool) {
        self.winding_down |= winding_down;
        for i in 0..self.clients.len() {
            if self.clients[i].wait_until > tick || self.clients[i].phase == Phase::Done {
                continue;
            }
            match self.clients[i].phase {
                Phase::Spawning => {
                    self.clients[i].phase = Phase::Challenge;
                    self.clients[i].started_at = tick;
                    self.step_challenge(i, tick);
                }
                Phase::Challenge => self.step_challenge(i, tick),
                Phase::Attest => self.step_attest(m, i, tick),
                Phase::Call => self.step_call(m, i, tick),
                Phase::Done => {}
            }
        }
    }

    /// Exponential backoff with seeded jitter for client `i`.
    fn back_off(&mut self, i: usize, tick: u64) {
        self.clients[i].backoff_attempt += 1;
        let attempt = self.clients[i].backoff_attempt;
        let delay = backoff_delay(attempt, &mut self.rng);
        self.clients[i].wait_until = tick + delay;
    }

    /// Starts (or retries) a handshake cycle after a failure.
    fn restart_handshake(&mut self, i: usize) {
        self.out.handshake_retries += 1;
        self.clients[i].challenge = None;
        self.clients[i].phase = Phase::Challenge;
    }

    /// Client `i` met its per-cycle goal; park it, queue the next cycle,
    /// or finish.
    fn cycle_done(&mut self, i: usize, tick: u64) {
        let c = &mut self.clients[i];
        c.handshakes_done += 1;
        c.backoff_attempt = 0;
        if c.handshakes_done >= self.cfg.handshakes_per_client && self.winding_down {
            c.phase = Phase::Done;
            return;
        }
        c.phase = Phase::Challenge;
        c.challenge = None;
        let jitter = self.rng.gen_range(self.cfg.idle_between_ticks / 2 + 1);
        c.wait_until = tick + 1 + self.cfg.idle_between_ticks + jitter;
        c.started_at = c.wait_until;
    }

    fn step_challenge(&mut self, i: usize, tick: u64) {
        if !self.clients[i].breaker.allow(tick) {
            self.clients[i].wait_until = tick + 2;
            return;
        }
        // Frame lost in transit: the facade never sees the request.
        if self.injector.roll(FaultKind::RpcDropFrame) {
            self.clients[i].breaker.on_failure(tick);
            self.back_off(i, tick);
            return;
        }
        let delay = if self.injector.roll(FaultKind::RpcDelayFrame) {
            u64::from(self.injector.delay_polls())
        } else {
            0
        };
        let tenant = self.clients[i].tenant;
        match self.facade.issue_challenge(tenant, tick) {
            Ok((cid, nonce)) => {
                self.out.handshakes_attempted += 1;
                self.clients[i].challenge = Some((cid, nonce));
                self.clients[i].phase = Phase::Attest;
                // A delayed response frame postpones the client's answer —
                // under a tight freshness window this is how organic
                // stale-challenge rejections happen.
                self.clients[i].wait_until = tick + 1 + delay;
            }
            Err(_) => {
                self.clients[i].breaker.on_failure(tick);
                self.back_off(i, tick);
            }
        }
    }

    fn step_attest(&mut self, m: &mut Machine, i: usize, tick: u64) {
        if !self.clients[i].breaker.allow(tick) {
            self.clients[i].wait_until = tick + 2;
            return;
        }
        // Replay attack: re-deliver a captured (already consumed) msg1
        // before the genuine frame. The facade must refuse it.
        if self.injector.roll(FaultKind::RpcReplayFrame) {
            if let Some((cap_cid, cap_msg1)) = self.captured_msg1.clone() {
                self.out.replay_attempts += 1;
                if self.facade.attest(m, cap_cid, &cap_msg1, tick).is_ok() {
                    self.out.replay_accepted += 1;
                }
            }
        }
        // Frame lost in transit: the challenge stays pending client-side.
        if self.injector.roll(FaultKind::RpcDropFrame) {
            self.clients[i].breaker.on_failure(tick);
            self.back_off(i, tick);
            return;
        }
        let (cid, nonce) = self.clients[i].challenge.expect("attest holds a challenge");
        let (init, msg1) = SigmaInitiator::start_with_nonce(&mut self.rng, nonce);
        self.captured_msg1 = Some((cid, msg1.clone()));
        match self.facade.attest(m, cid, &msg1, tick) {
            Ok((msg2, token)) => {
                // Stale-quote substitution: deliver a captured msg2 from an
                // earlier handshake instead. The transcript hash cannot
                // match, so the client must refuse the session.
                let (deliver, substituted) = match self.captured_msg2.clone() {
                    Some(old) if self.injector.roll(FaultKind::StaleQuoteReplay) => {
                        self.out.stale_quote_attempts += 1;
                        (old, true)
                    }
                    _ => {
                        self.captured_msg2 = Some(msg2.clone());
                        (msg2, false)
                    }
                };
                let ek = self.trusted_ek.as_ref().expect("booted");
                match init.finish(&deliver, ek, &self.expected_measurement) {
                    Ok(key) => {
                        if substituted {
                            // Security failure: a stale quote verified.
                            self.out.stale_quote_accepted += 1;
                        }
                        self.out.handshakes_completed += 1;
                        self.latencies
                            .push(tick.saturating_sub(self.clients[i].started_at));
                        let c = &mut self.clients[i];
                        c.token = Some(token);
                        c.key = Some(key);
                        c.seq = 0;
                        c.calls_left = self.cfg.calls_per_handshake;
                        c.phase = Phase::Call;
                        c.wait_until = tick + 1;
                        c.backoff_attempt = 0;
                        c.breaker.on_success();
                    }
                    Err(_) => {
                        // Unverifiable platform reply: drop the session
                        // material and start the cycle over.
                        self.clients[i].breaker.on_failure(tick);
                        self.restart_handshake(i);
                        self.back_off(i, tick);
                    }
                }
            }
            Err(_) => {
                // Stale, consumed, or refused: re-challenge.
                self.clients[i].breaker.on_failure(tick);
                self.restart_handshake(i);
                self.back_off(i, tick);
            }
        }
    }

    fn step_call(&mut self, m: &mut Machine, i: usize, tick: u64) {
        if !self.clients[i].breaker.allow(tick) {
            self.clients[i].wait_until = tick + 2;
            return;
        }
        let token = self.clients[i].token.clone().expect("call holds a token");
        let key = self.clients[i].key.expect("call holds a key");
        let seq = self.clients[i].seq;
        // Token forgery: a bit-flipped MAC presented alongside a valid
        // request. The facade must refuse it without touching the session.
        if self.injector.roll(FaultKind::TokenForge) {
            self.out.forged_token_attempts += 1;
            let mut forged = token.clone();
            forged.mac[(tick % 32) as usize] ^= 0x40;
            let op = ServiceOp::Ping(vec![0x51]);
            let mac = request_mac(&key, seq, &op);
            if self.facade.call(m, &forged, seq, &op, &mac, tick).is_ok() {
                self.out.forged_token_accepted += 1;
            }
        }
        // Cross-session replay: re-deliver a captured old call frame.
        if self.injector.roll(FaultKind::RpcReplayFrame) {
            if let Some((ct, cs, cop, cmac)) = self.captured_call.clone() {
                self.out.replay_attempts += 1;
                if self.facade.call(m, &ct, cs, &cop, &cmac, tick).is_ok() {
                    self.out.replay_accepted += 1;
                }
            }
        }
        // Request frame lost: the sequence number was not consumed
        // server-side, so the client retries the same frame later.
        if self.injector.roll(FaultKind::RpcDropFrame) {
            self.clients[i].breaker.on_failure(tick);
            self.back_off(i, tick);
            return;
        }
        let delay = if self.injector.roll(FaultKind::RpcDelayFrame) {
            u64::from(self.injector.delay_polls())
        } else {
            0
        };
        self.out.calls_attempted += 1;
        let op = if seq.is_multiple_of(2) {
            ServiceOp::Ping(vec![i as u8, seq as u8])
        } else {
            ServiceOp::Seal(vec![i as u8, seq as u8, 0x77])
        };
        let mac = request_mac(&key, seq, &op);
        match self.facade.call(m, &token, seq, &op, &mac, tick) {
            Ok(reply) => {
                if !reply.verify(&key) {
                    // A reply that fails its MAC is treated as a dead
                    // session — never trusted.
                    self.clients[i].breaker.on_failure(tick);
                    self.drop_session_and_rehandshake(i, tick);
                    return;
                }
                self.out.calls_ok += 1;
                // Duplicate delivery: the exact same frame arrives twice.
                // The per-session sequence must reject the second copy.
                if self.injector.roll(FaultKind::RpcDuplicateFrame) {
                    self.out.duplicate_attempts += 1;
                    if self.facade.call(m, &token, seq, &op, &mac, tick).is_ok() {
                        self.out.duplicate_accepted += 1;
                    }
                }
                self.captured_call = Some((token, seq, op, mac));
                let c = &mut self.clients[i];
                c.breaker.on_success();
                c.backoff_attempt = 0;
                c.seq += 1;
                c.calls_left -= 1;
                c.wait_until = tick + 1 + delay;
                if c.calls_left == 0 {
                    self.cycle_done(i, tick);
                }
            }
            Err(
                ServiceError::EpochRevoked
                | ServiceError::UnknownSession
                | ServiceError::TokenExpired
                | ServiceError::BadSequence,
            ) => {
                // The session is dead (crash-restart epoch bump or TTL):
                // re-attest from scratch.
                self.out.reattestations += 1;
                self.clients[i].breaker.on_failure(tick);
                self.drop_session_and_rehandshake(i, tick);
            }
            Err(_) => {
                self.clients[i].breaker.on_failure(tick);
                self.back_off(i, tick);
            }
        }
    }

    fn drop_session_and_rehandshake(&mut self, i: usize, tick: u64) {
        self.clients[i].token = None;
        self.clients[i].key = None;
        self.restart_handshake(i);
        self.clients[i].started_at = tick + 1;
        self.clients[i].wait_until = tick + 1;
    }

    /// Consumes the storm and returns what it measured.
    pub(crate) fn finish(mut self) -> StormOutcome {
        for c in &self.clients {
            let t = c.breaker.transitions();
            self.out.breaker_to_open += t.to_open;
            self.out.breaker_to_half_open += t.to_half_open;
            self.out.breaker_to_closed += t.to_closed;
            self.out.breaker_shed += t.shed;
        }
        let fs = &self.facade.stats;
        self.out.reprobes = fs.reprobes;
        self.out.sessions_revoked = fs.sessions_revoked;
        self.out.not_ready_rejects = fs.not_ready_rejects;
        self.out.stale_challenge_rejects = fs.stale_challenges;
        self.out.epoch_rejects = fs.epoch_rejects;
        self.out.expired_token_rejects = fs.expired_tokens;
        self.out.service_faults_injected = self.injector.stats().total();
        self.latencies.sort_unstable();
        self.out.handshake_p50_ticks = floor_percentile(&self.latencies, 50);
        self.out.handshake_p99_ticks = floor_percentile(&self.latencies, 99);
        self.out.slo_cdf = SLO_TICK_BOUNDS
            .iter()
            .map(|&bound| (bound, slo_fraction(&self.latencies, f64::from(bound))))
            .collect();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertee_faults::{FaultConfig, FaultPlan};

    fn storm_on_machine(faults: FaultConfig) -> (Machine, StormDriver) {
        let m = Machine::boot_default();
        let plan = FaultPlan::new(7, faults);
        let driver = StormDriver::new(StormConfig::smoke(), 7, plan.injector("service"));
        (m, driver)
    }

    #[test]
    fn clean_storm_completes_every_handshake() {
        let (mut m, mut s) = storm_on_machine(FaultConfig::disabled());
        s.boot(&mut m);
        assert_eq!(s.out.pre_ready_accepted, 0, "fail-closed before probe");
        assert!(s.out.pre_ready_attempts > 0);
        let mut tick = 0;
        while !s.done() {
            s.step(&mut m, tick, true);
            tick += 1;
            assert!(tick < 50_000, "clean storm must terminate");
        }
        let out = s.finish();
        let want = u64::from(StormConfig::smoke().handshakes_per_client) * out.clients as u64;
        assert_eq!(out.handshakes_completed, want);
        assert_eq!(
            out.calls_ok,
            want * u64::from(StormConfig::smoke().calls_per_handshake)
        );
        assert_eq!(out.accepted_attacks(), 0);
        assert_eq!(out.handshake_retries, 0);
        assert!(out.handshake_p99_ticks >= out.handshake_p50_ticks);
    }

    #[test]
    fn faulted_storm_rejects_every_attack() {
        let (mut m, mut s) = storm_on_machine(FaultConfig::service_storm());
        s.boot(&mut m);
        let mut tick = 0;
        while !s.done() {
            s.step(&mut m, tick, true);
            tick += 1;
            assert!(tick < 200_000, "faulted storm must terminate");
        }
        let out = s.finish();
        assert!(out.service_faults_injected > 0, "storm must inject faults");
        assert!(
            out.replay_attempts + out.duplicate_attempts + out.forged_token_attempts > 0,
            "attack paths must fire: {out:?}"
        );
        assert_eq!(out.accepted_attacks(), 0, "fail-closed: {out:?}");
        assert!(out.handshakes_completed >= out.clients as u64);
    }

    #[test]
    fn crash_restart_forces_reattestation_under_storm() {
        // Long call streams keep clients mid-session when the crash hits.
        let cfg = StormConfig {
            clients: 4,
            handshakes_per_client: 2,
            calls_per_handshake: 60,
            idle_between_ticks: 4,
            ..StormConfig::smoke()
        };
        let mut m = Machine::boot_default();
        let plan = FaultPlan::new(7, FaultConfig::disabled());
        let mut s = StormDriver::new(cfg, 7, plan.injector("service"));
        s.boot(&mut m);
        for tick in 0..40 {
            s.step(&mut m, tick, false);
        }
        m.crash_restart_ems();
        s.on_crash(&mut m, 40);
        let mut tick = 41;
        while !s.done() {
            s.step(&mut m, tick, true);
            tick += 1;
            assert!(tick < 50_000, "storm must recover after crash");
        }
        let out = s.finish();
        assert_eq!(out.reprobes, 1);
        assert!(out.sessions_revoked > 0, "live sessions were revoked");
        assert!(out.reattestations > 0, "clients re-attested: {out:?}");
        assert_eq!(out.accepted_attacks(), 0);
    }
}
