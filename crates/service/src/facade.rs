//! The fail-closed service facade: readiness gating, challenge-response
//! attestation, and MAC-authenticated calls over the machine.
//!
//! The facade is a thin trusted layer *inside* the platform boundary: it
//! borrows the [`Machine`] per call (it never owns it) and it is
//! clock-agnostic — every entry point takes the caller's `now` tick, so the
//! chaos harness can drive it from simulated time and replay it
//! bit-identically from a seed.
//!
//! The lifecycle is fail-closed end to end:
//!
//! 1. **Booting** — liveness only. Every RPC is refused with
//!    [`ServiceError::NotReady`] until [`ServiceFacade::probe`] has verified
//!    the boot measurement chain *and* a fresh EMS self-attestation.
//! 2. **Ready** — traffic is admitted, but only through nonce-bound
//!    challenges (freshness window, single use) and MAC-bound session
//!    tokens (expiry, per-session sequence numbers, epoch pinning).
//! 3. **Failed** — any probe failure latches the facade shut; it never
//!    silently degrades into serving unattested traffic.
//!
//! An EMS crash-restart bumps the platform epoch: [`ServiceFacade::supervise`]
//! revokes every outstanding session and re-runs the probe, forcing every
//! client back through attestation.

use std::collections::{BTreeMap, VecDeque};

use hypertee::machine::{firmware, Machine};
use hypertee::manifest::EnclaveManifest;
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::hmac::hmac_sha256;
use hypertee_crypto::sha256::sha256;
use hypertee_crypto::util::ct_eq;
use hypertee_ems::attest::{SigmaMsg1, SigmaMsg2};
use hypertee_ems::boot::BootStage;

/// The canonical service-enclave image measured at probe time. Clients pin
/// the resulting enclave measurement (exposed by
/// [`ServiceFacade::service_measurement`]) for their SIGMA verification.
pub(crate) const SERVICE_IMAGE: &[u8] = b"hypertee-service enclave v1: seal/unseal/quote worker";

/// Bound on outstanding challenges; issuing past it evicts the oldest.
const MAX_PENDING_CHALLENGES: usize = 1024;

/// Facade configuration. All windows are in caller ticks (the facade has no
/// clock of its own).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The pinned platform measurement the boot report must match.
    pub expected_platform_measurement: [u8; 32],
    /// How many ticks a challenge stays answerable after issue.
    pub freshness_window_ticks: u64,
    /// Session-token lifetime in ticks.
    pub token_ttl_ticks: u64,
    /// Seed for the facade's nonce generator.
    pub seed: u64,
}

impl ServiceConfig {
    /// A production config pinning the canonical firmware of this
    /// reproduction (see [`pinned_platform_measurement`]).
    pub fn production(seed: u64) -> ServiceConfig {
        ServiceConfig {
            expected_platform_measurement: pinned_platform_measurement(),
            freshness_window_ticks: 64,
            token_ttl_ticks: 4096,
            seed,
        }
    }
}

/// The platform measurement a verifier expects from the canonical firmware:
/// `H(H(runtime) ‖ H(emcall))`, exactly as `secure_boot` computes it. This
/// is the "manufacturer-published" reference value services pin.
pub fn pinned_platform_measurement() -> [u8; 32] {
    let runtime_hash = sha256(firmware::EMS_RUNTIME);
    let emcall_hash = sha256(firmware::EMCALL);
    let mut m = Vec::with_capacity(64);
    m.extend_from_slice(&runtime_hash);
    m.extend_from_slice(&emcall_hash);
    sha256(&m)
}

/// Lifecycle state of the facade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceState {
    /// Probes have not passed yet; all RPCs are refused.
    Booting,
    /// Probes verified; attested traffic is admitted.
    Ready,
    /// A probe failed; the facade is latched shut.
    Failed,
}

/// Why the facade refused (or could not serve) a request. Every variant is
/// a *closed* outcome — there is no partial service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The facade is not in [`ServiceState::Ready`].
    NotReady,
    /// A startup probe failed the stated check; the facade is latched.
    ProbeFailed(&'static str),
    /// The challenge id was never issued (or already evicted).
    UnknownChallenge,
    /// The challenge was answered once already (replay).
    ChallengeConsumed,
    /// `SigmaMsg1` carried a nonce that does not match the challenge.
    NonceMismatch,
    /// The challenge outlived the freshness window.
    StaleChallenge,
    /// The EMS rejected the handshake (bad key, replayed nonce, …).
    AttestFailed,
    /// No session under that token id.
    UnknownSession,
    /// The token MAC did not verify (forged or bit-flipped token).
    BadToken,
    /// The token was minted in an earlier platform epoch (pre-crash).
    EpochRevoked,
    /// The token outlived its TTL.
    TokenExpired,
    /// The request sequence number was not the next expected one
    /// (duplicate or replayed frame).
    BadSequence,
    /// The request MAC did not verify under the session key.
    BadRequestMac,
    /// The EMS backend refused the operation itself.
    Backend,
}

impl core::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServiceError::NotReady => write!(f, "service not ready: traffic refused"),
            ServiceError::ProbeFailed(why) => write!(f, "startup probe failed: {why}"),
            ServiceError::UnknownChallenge => write!(f, "unknown challenge id"),
            ServiceError::ChallengeConsumed => write!(f, "challenge already consumed"),
            ServiceError::NonceMismatch => write!(f, "challenge nonce mismatch"),
            ServiceError::StaleChallenge => write!(f, "challenge outside freshness window"),
            ServiceError::AttestFailed => write!(f, "attestation handshake rejected"),
            ServiceError::UnknownSession => write!(f, "unknown session token"),
            ServiceError::BadToken => write!(f, "session token MAC invalid"),
            ServiceError::EpochRevoked => write!(f, "token epoch revoked by crash-restart"),
            ServiceError::TokenExpired => write!(f, "session token expired"),
            ServiceError::BadSequence => write!(f, "bad request sequence (replay/duplicate)"),
            ServiceError::BadRequestMac => write!(f, "request MAC invalid"),
            ServiceError::Backend => write!(f, "backend operation failed"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Shorthand result.
pub(crate) type ServiceResult<T> = Result<T, ServiceError>;

/// An authenticated operation a session may request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceOp {
    /// Echo (connectivity check inside an authenticated session).
    Ping(Vec<u8>),
    /// Seal data under the service enclave's identity.
    Seal(Vec<u8>),
    /// Unseal a previously sealed blob.
    Unseal(Vec<u8>),
    /// Produce a quote over caller report data.
    Quote([u8; 32]),
}

impl ServiceOp {
    /// Canonical wire encoding the request MAC covers.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let (tag, body): (u8, &[u8]) = match self {
            ServiceOp::Ping(d) => (1, d),
            ServiceOp::Seal(d) => (2, d),
            ServiceOp::Unseal(d) => (3, d),
            ServiceOp::Quote(d) => (4, d),
        };
        let mut out = Vec::with_capacity(1 + 8 + body.len());
        out.push(tag);
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(body);
        out
    }
}

/// A MAC-bound session token. The MAC covers every field under the session
/// key, which never leaves the platform — a forged or bit-flipped token
/// cannot verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionToken {
    /// Session id (facade-assigned).
    pub id: u64,
    /// Tenant the session was attested for.
    pub tenant: u64,
    /// Platform epoch (EMS crash-restart count) at mint time.
    pub epoch: u64,
    /// Tick after which the token is dead.
    pub expires_at: u64,
    /// `HMAC(session_key, fields)`.
    pub mac: [u8; 32],
}

fn token_mac(key: &[u8; 32], id: u64, tenant: u64, epoch: u64, expires_at: u64) -> [u8; 32] {
    let mut m = Vec::with_capacity(16 + 32);
    m.extend_from_slice(b"hypertee-service token v1");
    m.extend_from_slice(&id.to_le_bytes());
    m.extend_from_slice(&tenant.to_le_bytes());
    m.extend_from_slice(&epoch.to_le_bytes());
    m.extend_from_slice(&expires_at.to_le_bytes());
    hmac_sha256(key, &m)
}

/// Computes the MAC a client must attach to a request.
pub fn request_mac(session_key: &[u8; 32], seq: u64, op: &ServiceOp) -> [u8; 32] {
    let mut m = Vec::with_capacity(16);
    m.extend_from_slice(b"req");
    m.extend_from_slice(&seq.to_le_bytes());
    m.extend_from_slice(&op.encode());
    hmac_sha256(session_key, &m)
}

fn reply_mac(session_key: &[u8; 32], seq: u64, payload: &[u8]) -> [u8; 32] {
    let mut m = Vec::with_capacity(16 + payload.len());
    m.extend_from_slice(b"rep");
    m.extend_from_slice(&seq.to_le_bytes());
    m.extend_from_slice(payload);
    hmac_sha256(session_key, &m)
}

/// An authenticated reply: the payload MAC'd under the session key, bound
/// to the request's sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceReply {
    /// Sequence number of the request this answers.
    pub seq: u64,
    /// Operation result bytes.
    pub payload: Vec<u8>,
    /// `HMAC(session_key, "rep" ‖ seq ‖ payload)`.
    pub mac: [u8; 32],
}

impl ServiceReply {
    /// Client-side check that the reply is genuine and bound to `seq`.
    pub fn verify(&self, session_key: &[u8; 32]) -> bool {
        ct_eq(&reply_mac(session_key, self.seq, &self.payload), &self.mac)
    }
}

#[derive(Debug, Clone)]
struct Challenge {
    id: u64,
    tenant: u64,
    nonce: [u8; 32],
    issued_at: u64,
    consumed: bool,
}

#[derive(Debug, Clone)]
struct Session {
    key: [u8; 32],
    tenant: u64,
    epoch: u64,
    expires_at: u64,
    next_seq: u64,
}

/// Named counters for every admission and rejection path. The chaos storm
/// folds these into its trace hash; the `BENCH_serving.json` validator
/// pins the accepted-attack counters to zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FacadeStats {
    /// Probes that passed.
    pub(crate) probes_ok: u64,
    /// Probes that failed (facade latched).
    pub(crate) probes_failed: u64,
    /// RPCs refused because the facade was not ready.
    pub not_ready_rejects: u64,
    /// Challenges issued.
    pub(crate) challenges_issued: u64,
    /// Handshakes completed (tokens minted).
    pub handshakes_ok: u64,
    /// Handshakes the EMS rejected.
    pub attest_failures: u64,
    /// Challenge replays rejected (already consumed).
    pub replayed_challenges: u64,
    /// Challenges rejected for missing the freshness window.
    pub stale_challenges: u64,
    /// `SigmaMsg1` nonces that did not match their challenge.
    pub nonce_mismatches: u64,
    /// Unknown challenge ids presented.
    pub unknown_challenges: u64,
    /// Authenticated calls served.
    pub calls_ok: u64,
    /// Calls under unknown session ids.
    pub unknown_sessions: u64,
    /// Forged / bit-flipped tokens rejected.
    pub forged_tokens_rejected: u64,
    /// Tokens from a revoked (pre-crash) epoch rejected.
    pub epoch_rejects: u64,
    /// Expired tokens rejected.
    pub expired_tokens: u64,
    /// Out-of-sequence (duplicate / replayed) requests rejected.
    pub bad_sequence_rejects: u64,
    /// Requests with an invalid MAC rejected.
    pub bad_request_macs: u64,
    /// Backend (EMS) operation failures surfaced to callers.
    pub backend_errors: u64,
    /// Re-probes forced by supervision after a crash-restart.
    pub reprobes: u64,
    /// Sessions revoked by epoch bumps.
    pub sessions_revoked: u64,
}

/// The facade itself. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct ServiceFacade {
    config: ServiceConfig,
    state: ServiceState,
    rng: ChaChaRng,
    service_eid: Option<u64>,
    service_measurement: Option<[u8; 32]>,
    epoch: u64,
    next_challenge_id: u64,
    next_session_id: u64,
    challenges: VecDeque<Challenge>,
    sessions: BTreeMap<u64, Session>,
    /// Admission/rejection counters.
    pub stats: FacadeStats,
}

impl ServiceFacade {
    /// Builds a facade in [`ServiceState::Booting`] — it serves nothing
    /// until [`ServiceFacade::probe`] passes. There is no mode that skips
    /// attestation, so every facade starts fail-closed.
    ///
    /// # Errors
    ///
    /// None: construction always succeeds. The `Result` is kept for
    /// existing callers.
    pub fn new(config: ServiceConfig) -> ServiceResult<ServiceFacade> {
        let seed = config.seed;
        Ok(ServiceFacade {
            config,
            state: ServiceState::Booting,
            rng: ChaChaRng::from_u64(seed ^ 0x5e72_76c3_0000_0001),
            service_eid: None,
            service_measurement: None,
            epoch: 0,
            next_challenge_id: 1,
            next_session_id: 1,
            challenges: VecDeque::new(),
            sessions: BTreeMap::new(),
            stats: FacadeStats::default(),
        })
    }

    /// Liveness: the facade object exists and can answer. Deliberately
    /// trivial — liveness says "don't restart me", nothing more.
    pub fn healthz(&self) -> bool {
        true
    }

    /// Readiness: probes verified and traffic admitted. Load balancers key
    /// on this, never on [`ServiceFacade::healthz`].
    pub fn readyz(&self) -> bool {
        self.state == ServiceState::Ready
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ServiceState {
        self.state
    }

    /// The service enclave's measurement, once probed. Clients pin this for
    /// the SIGMA `expected_enclave_measurement` check.
    pub fn service_measurement(&self) -> Option<[u8; 32]> {
        self.service_measurement
    }

    fn fail_probe(&mut self, why: &'static str) -> ServiceError {
        self.state = ServiceState::Failed;
        self.stats.probes_failed += 1;
        ServiceError::ProbeFailed(why)
    }

    /// The startup (and post-crash) readiness probe. Verifies, in order:
    /// the boot chain completed every stage, the boot report's platform
    /// measurement matches the pinned value, the service enclave exists
    /// (created on first probe), and a *fresh* EMS self-attestation bound
    /// to `now` verifies against the machine's EK. Only then does the
    /// facade admit traffic.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ProbeFailed`] naming the first failed check; the
    /// facade latches [`ServiceState::Failed`].
    pub fn probe(&mut self, m: &mut Machine, now: u64) -> ServiceResult<()> {
        use BootStage::{ChipInit, CsFirmware, CsOs, EmsRuntime};
        if m.boot_report.stages != [ChipInit, EmsRuntime, CsFirmware, CsOs] {
            return Err(self.fail_probe("boot chain incomplete"));
        }
        if !ct_eq(
            &m.boot_report.platform_measurement,
            &self.config.expected_platform_measurement,
        ) {
            return Err(self.fail_probe("platform measurement mismatch"));
        }
        let eid = match self.service_eid {
            Some(eid) => eid,
            None => {
                let manifest = EnclaveManifest::parse("heap = 4M\nstack = 64K\nhost_shared = 64K")
                    .expect("static manifest parses");
                let handle = m
                    .create_enclave(0, &manifest, SERVICE_IMAGE)
                    .map_err(|_| self.fail_probe("service enclave creation failed"))?;
                self.service_eid = Some(handle.0);
                handle.0
            }
        };
        // Fresh self-attestation bound to the probe instant: a cached or
        // replayed quote cannot answer this.
        let mut challenge = Vec::with_capacity(40);
        challenge.extend_from_slice(b"hypertee-service probe v1");
        challenge.extend_from_slice(&now.to_le_bytes());
        challenge.extend_from_slice(&m.crash_restarts().to_le_bytes());
        let quote = match m.ems.eattest(eid, &challenge) {
            Ok(q) => q,
            Err(_) => return Err(self.fail_probe("self-attestation quote unavailable")),
        };
        if !quote.verify(&m.ek_public()) {
            return Err(self.fail_probe("self-attestation quote invalid"));
        }
        if !ct_eq(
            &quote.platform_measurement,
            &self.config.expected_platform_measurement,
        ) {
            return Err(self.fail_probe("quoted platform measurement mismatch"));
        }
        if !ct_eq(&quote.report_data, &sha256(&challenge)) {
            return Err(self.fail_probe("self-attestation not bound to probe"));
        }
        self.service_measurement = Some(quote.enclave_measurement);
        self.epoch = m.crash_restarts();
        self.state = ServiceState::Ready;
        self.stats.probes_ok += 1;
        Ok(())
    }

    fn gate(&mut self) -> ServiceResult<()> {
        if self.state != ServiceState::Ready {
            self.stats.not_ready_rejects += 1;
            return Err(ServiceError::NotReady);
        }
        Ok(())
    }

    /// Issues a single-use challenge nonce for `tenant`. The client must
    /// open SIGMA with exactly this nonce within the freshness window.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotReady`] outside [`ServiceState::Ready`].
    pub fn issue_challenge(&mut self, tenant: u64, now: u64) -> ServiceResult<(u64, [u8; 32])> {
        self.gate()?;
        let id = self.next_challenge_id;
        self.next_challenge_id += 1;
        let nonce = self.rng.gen_bytes32();
        if self.challenges.len() >= MAX_PENDING_CHALLENGES {
            self.challenges.pop_front();
        }
        self.challenges.push_back(Challenge {
            id,
            tenant,
            nonce,
            issued_at: now,
            consumed: false,
        });
        self.stats.challenges_issued += 1;
        Ok((id, nonce))
    }

    /// Answers a SIGMA opening bound to a previously issued challenge and,
    /// on success, mints a session token for the challenge's tenant.
    ///
    /// Fail-closed checks, in order: readiness, challenge known, not yet
    /// consumed, nonce matches, freshness window. A stale or replayed
    /// challenge is consumed *and* rejected — it can never succeed later.
    ///
    /// # Errors
    ///
    /// The first failed check as a [`ServiceError`].
    pub fn attest(
        &mut self,
        m: &mut Machine,
        challenge_id: u64,
        msg1: &SigmaMsg1,
        now: u64,
    ) -> ServiceResult<(SigmaMsg2, SessionToken)> {
        self.gate()?;
        let window = self.config.freshness_window_ticks;
        let Some(ch) = self.challenges.iter_mut().find(|c| c.id == challenge_id) else {
            self.stats.unknown_challenges += 1;
            return Err(ServiceError::UnknownChallenge);
        };
        if ch.consumed {
            self.stats.replayed_challenges += 1;
            return Err(ServiceError::ChallengeConsumed);
        }
        ch.consumed = true;
        if !ct_eq(&msg1.nonce, &ch.nonce) {
            self.stats.nonce_mismatches += 1;
            return Err(ServiceError::NonceMismatch);
        }
        if now.saturating_sub(ch.issued_at) > window {
            self.stats.stale_challenges += 1;
            return Err(ServiceError::StaleChallenge);
        }
        let tenant = ch.tenant;
        let eid = self.service_eid.expect("ready implies service enclave");
        let (msg2, key) = match m.ems.sigma_respond_keyed(eid, msg1) {
            Ok(ok) => ok,
            Err(_) => {
                self.stats.attest_failures += 1;
                return Err(ServiceError::AttestFailed);
            }
        };
        let id = self.next_session_id;
        self.next_session_id += 1;
        let expires_at = now + self.config.token_ttl_ticks;
        let token = SessionToken {
            id,
            tenant,
            epoch: self.epoch,
            expires_at,
            mac: token_mac(&key, id, tenant, self.epoch, expires_at),
        };
        self.sessions.insert(
            id,
            Session {
                key,
                tenant,
                epoch: self.epoch,
                expires_at,
                next_seq: 0,
            },
        );
        self.stats.handshakes_ok += 1;
        Ok((msg2, token))
    }

    /// Serves one authenticated call. Fail-closed checks, in order:
    /// readiness, session known, token MAC, epoch, expiry, sequence number
    /// (strictly `next_seq` — duplicates and replays miss), request MAC.
    /// Only then does the operation execute against the EMS.
    ///
    /// # Errors
    ///
    /// The first failed check as a [`ServiceError`].
    pub fn call(
        &mut self,
        m: &mut Machine,
        token: &SessionToken,
        seq: u64,
        op: &ServiceOp,
        mac: &[u8; 32],
        now: u64,
    ) -> ServiceResult<ServiceReply> {
        self.gate()?;
        let epoch = self.epoch;
        let Some(sess) = self.sessions.get_mut(&token.id) else {
            self.stats.unknown_sessions += 1;
            return Err(ServiceError::UnknownSession);
        };
        let expect = token_mac(
            &sess.key,
            token.id,
            token.tenant,
            token.epoch,
            token.expires_at,
        );
        if !ct_eq(&expect, &token.mac) || token.tenant != sess.tenant {
            self.stats.forged_tokens_rejected += 1;
            return Err(ServiceError::BadToken);
        }
        if token.epoch != epoch || sess.epoch != epoch {
            self.stats.epoch_rejects += 1;
            return Err(ServiceError::EpochRevoked);
        }
        if now > sess.expires_at {
            self.sessions.remove(&token.id);
            self.stats.expired_tokens += 1;
            return Err(ServiceError::TokenExpired);
        }
        if seq != sess.next_seq {
            self.stats.bad_sequence_rejects += 1;
            return Err(ServiceError::BadSequence);
        }
        if !ct_eq(&request_mac(&sess.key, seq, op), mac) {
            self.stats.bad_request_macs += 1;
            return Err(ServiceError::BadRequestMac);
        }
        sess.next_seq += 1;
        let key = sess.key;
        let eid = self.service_eid.expect("ready implies service enclave");
        let payload = match op {
            ServiceOp::Ping(data) => Ok(data.clone()),
            ServiceOp::Seal(data) => m.ems.seal(eid, data),
            ServiceOp::Unseal(blob) => m.ems.unseal(eid, blob),
            ServiceOp::Quote(report) => m.ems.eattest(eid, report).map(|q| q.to_bytes()),
        };
        let payload = match payload {
            Ok(p) => p,
            Err(_) => {
                self.stats.backend_errors += 1;
                return Err(ServiceError::Backend);
            }
        };
        self.stats.calls_ok += 1;
        Ok(ServiceReply {
            seq,
            mac: reply_mac(&key, seq, &payload),
            payload,
        })
    }

    /// Supervision hook: call after (or periodically around) EMS
    /// crash-restarts. When the platform epoch moved, every outstanding
    /// session and challenge is revoked and the probe re-runs — clients
    /// must re-attest before the facade serves them again. Returns `true`
    /// when a re-probe happened.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ProbeFailed`] when the re-probe fails (the facade
    /// stays latched shut).
    pub fn supervise(&mut self, m: &mut Machine, now: u64) -> ServiceResult<bool> {
        let current = m.crash_restarts();
        if current == self.epoch && self.state == ServiceState::Ready {
            return Ok(false);
        }
        if self.state == ServiceState::Failed {
            // A latched facade stays latched: supervision never un-fails
            // a probe the operator has not looked at.
            return Err(ServiceError::NotReady);
        }
        self.stats.sessions_revoked += self.sessions.len() as u64;
        self.sessions.clear();
        self.challenges.clear();
        self.state = ServiceState::Booting;
        self.stats.reprobes += 1;
        self.probe(m, now)?;
        Ok(true)
    }

    /// Number of live (unexpired, unrevoked) session records.
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertee_ems::attest::SigmaInitiator;

    fn ready_facade() -> (Machine, ServiceFacade) {
        let mut m = Machine::boot_default();
        let mut f = ServiceFacade::new(ServiceConfig::production(7)).unwrap();
        f.probe(&mut m, 0).unwrap();
        (m, f)
    }

    fn handshake(
        m: &mut Machine,
        f: &mut ServiceFacade,
        tenant: u64,
        now: u64,
        rng: &mut ChaChaRng,
    ) -> (SessionToken, [u8; 32]) {
        let (cid, nonce) = f.issue_challenge(tenant, now).unwrap();
        let (init, msg1) = SigmaInitiator::start_with_nonce(rng, nonce);
        let (msg2, token) = f.attest(m, cid, &msg1, now).unwrap();
        let key = init
            .finish(
                &msg2,
                &m.ek_public(),
                &f.service_measurement().expect("probed"),
            )
            .expect("facade quote verifies");
        (token, key)
    }

    #[test]
    fn traffic_is_refused_before_probe() {
        let mut f = ServiceFacade::new(ServiceConfig::production(2)).unwrap();
        assert!(f.healthz(), "liveness holds even while booting");
        assert!(!f.readyz());
        assert_eq!(f.issue_challenge(1, 0).unwrap_err(), ServiceError::NotReady);
        assert_eq!(f.stats.not_ready_rejects, 1);
    }

    #[test]
    fn probe_latches_on_wrong_pin() {
        let mut m = Machine::boot_default();
        let mut cfg = ServiceConfig::production(3);
        cfg.expected_platform_measurement = [0xab; 32];
        let mut f = ServiceFacade::new(cfg).unwrap();
        assert!(matches!(
            f.probe(&mut m, 0),
            Err(ServiceError::ProbeFailed("platform measurement mismatch"))
        ));
        assert_eq!(f.state(), ServiceState::Failed);
        // Latched: supervision refuses to resurrect it.
        assert!(f.supervise(&mut m, 1).is_err());
        assert!(!f.readyz());
    }

    #[test]
    fn full_handshake_and_authenticated_call() {
        let (mut m, mut f) = ready_facade();
        let mut rng = ChaChaRng::from_u64(99);
        let (token, key) = handshake(&mut m, &mut f, 5, 10, &mut rng);
        let op = ServiceOp::Seal(b"precious".to_vec());
        let mac = request_mac(&key, 0, &op);
        let reply = f.call(&mut m, &token, 0, &op, &mac, 11).unwrap();
        assert!(reply.verify(&key));
        let op = ServiceOp::Unseal(reply.payload.clone());
        let mac = request_mac(&key, 1, &op);
        let reply = f.call(&mut m, &token, 1, &op, &mac, 12).unwrap();
        assert!(reply.verify(&key));
        assert_eq!(reply.payload, b"precious");
        assert_eq!(f.stats.calls_ok, 2);
    }

    #[test]
    fn challenge_single_use_and_freshness() {
        let (mut m, mut f) = ready_facade();
        let mut rng = ChaChaRng::from_u64(4);
        // Stale: answered one tick past the window.
        let (cid, nonce) = f.issue_challenge(1, 100).unwrap();
        let (_init, msg1) = SigmaInitiator::start_with_nonce(&mut rng, nonce);
        let late = 100 + f.config.freshness_window_ticks + 1;
        assert_eq!(
            f.attest(&mut m, cid, &msg1, late).unwrap_err(),
            ServiceError::StaleChallenge
        );
        // And consumed by the stale attempt: a retry inside the window is
        // still refused.
        assert_eq!(
            f.attest(&mut m, cid, &msg1, 101).unwrap_err(),
            ServiceError::ChallengeConsumed
        );
        // Wrong nonce on a fresh challenge.
        let (cid2, _nonce2) = f.issue_challenge(1, 200).unwrap();
        let (_i, bad_msg1) = SigmaInitiator::start(&mut rng);
        assert_eq!(
            f.attest(&mut m, cid2, &bad_msg1, 200).unwrap_err(),
            ServiceError::NonceMismatch
        );
        assert_eq!(f.stats.handshakes_ok, 0);
    }

    #[test]
    fn oldest_challenge_is_evicted_past_the_pending_bound() {
        let (mut m, mut f) = ready_facade();
        let mut rng = ChaChaRng::from_u64(6);
        let issued: Vec<(u64, [u8; 32])> = (0..=MAX_PENDING_CHALLENGES)
            .map(|_| f.issue_challenge(1, 10).unwrap())
            .collect();
        let (evicted, nonce) = issued[0];
        let (_i, msg1) = SigmaInitiator::start_with_nonce(&mut rng, nonce);
        assert_eq!(
            f.attest(&mut m, evicted, &msg1, 10).unwrap_err(),
            ServiceError::UnknownChallenge
        );
        let (kept, nonce) = issued[1];
        let (_i, msg1) = SigmaInitiator::start_with_nonce(&mut rng, nonce);
        assert!(f.attest(&mut m, kept, &msg1, 10).is_ok());
        assert_eq!(f.stats.handshakes_ok, 1);
    }

    #[test]
    fn forged_and_replayed_requests_are_rejected() {
        let (mut m, mut f) = ready_facade();
        let mut rng = ChaChaRng::from_u64(5);
        let (token, key) = handshake(&mut m, &mut f, 2, 0, &mut rng);
        let op = ServiceOp::Ping(b"x".to_vec());
        let mac = request_mac(&key, 0, &op);
        // Forged token MAC.
        let mut forged = token.clone();
        forged.mac[0] ^= 1;
        assert_eq!(
            f.call(&mut m, &forged, 0, &op, &mac, 1).unwrap_err(),
            ServiceError::BadToken
        );
        // Tampered token fields fail the MAC too.
        let mut uplifted = token.clone();
        uplifted.expires_at += 1_000_000;
        assert_eq!(
            f.call(&mut m, &uplifted, 0, &op, &mac, 1).unwrap_err(),
            ServiceError::BadToken
        );
        // Genuine call succeeds once…
        f.call(&mut m, &token, 0, &op, &mac, 1).unwrap();
        // …and its exact replay (same seq) is refused.
        assert_eq!(
            f.call(&mut m, &token, 0, &op, &mac, 1).unwrap_err(),
            ServiceError::BadSequence
        );
        // A request MAC for the wrong sequence number is refused.
        assert_eq!(
            f.call(&mut m, &token, 1, &op, &mac, 1).unwrap_err(),
            ServiceError::BadRequestMac
        );
        assert_eq!(f.stats.forged_tokens_rejected, 2);
        assert_eq!(f.stats.bad_sequence_rejects, 1);
        assert_eq!(f.stats.bad_request_macs, 1);
    }

    #[test]
    fn token_expiry_is_enforced() {
        let (mut m, mut f) = ready_facade();
        let mut rng = ChaChaRng::from_u64(6);
        let (token, key) = handshake(&mut m, &mut f, 3, 0, &mut rng);
        let op = ServiceOp::Ping(vec![]);
        let mac = request_mac(&key, 0, &op);
        let after = token.expires_at + 1;
        assert_eq!(
            f.call(&mut m, &token, 0, &op, &mac, after).unwrap_err(),
            ServiceError::TokenExpired
        );
        assert_eq!(f.live_sessions(), 0, "expired session is reaped");
    }

    #[test]
    fn crash_restart_revokes_and_forces_reattestation() {
        let (mut m, mut f) = ready_facade();
        let mut rng = ChaChaRng::from_u64(8);
        let (token, key) = handshake(&mut m, &mut f, 4, 0, &mut rng);
        m.crash_restart_ems();
        assert!(f.supervise(&mut m, 50).unwrap(), "epoch bump re-probes");
        assert!(f.readyz(), "facade recovered through a fresh probe");
        let op = ServiceOp::Ping(vec![]);
        let mac = request_mac(&key, 0, &op);
        assert_eq!(
            f.call(&mut m, &token, 0, &op, &mac, 51).unwrap_err(),
            ServiceError::UnknownSession,
            "pre-crash sessions are revoked outright"
        );
        assert_eq!(f.stats.sessions_revoked, 1);
        assert_eq!(f.stats.reprobes, 1);
        // Re-attestation works and the new token serves.
        let (token2, key2) = handshake(&mut m, &mut f, 4, 60, &mut rng);
        let mac2 = request_mac(&key2, 0, &op);
        assert!(f.call(&mut m, &token2, 0, &op, &mac2, 61).is_ok());
    }

    #[test]
    fn epoch_pinning_rejects_cross_epoch_tokens() {
        let (mut m, mut f) = ready_facade();
        let mut rng = ChaChaRng::from_u64(9);
        let (token, key) = handshake(&mut m, &mut f, 1, 0, &mut rng);
        // Simulate a stale token surviving revocation by re-inserting its
        // session record with the old epoch after the bump.
        m.crash_restart_ems();
        f.supervise(&mut m, 10).unwrap();
        f.sessions.insert(
            token.id,
            Session {
                key,
                tenant: token.tenant,
                epoch: token.epoch,
                expires_at: token.expires_at,
                next_seq: 0,
            },
        );
        let op = ServiceOp::Ping(vec![]);
        let mac = request_mac(&key, 0, &op);
        assert_eq!(
            f.call(&mut m, &token, 0, &op, &mac, 11).unwrap_err(),
            ServiceError::EpochRevoked
        );
        assert_eq!(f.stats.epoch_rejects, 1);
    }

    #[test]
    fn pinned_measurement_matches_boot() {
        let m = Machine::boot_default();
        assert_eq!(
            m.boot_report.platform_measurement,
            pinned_platform_measurement()
        );
    }
}
