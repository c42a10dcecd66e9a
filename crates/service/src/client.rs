//! A reference client for the facade: challenge → SIGMA handshake →
//! authenticated calls, with one re-attestation retry and the circuit
//! breaker wired in, plus the exponential backoff schedule the chaos storm
//! waits out between retries.
//!
//! The client pins two values out of band, like a real tenant would: the
//! platform EK (manufacturer-published) and the service enclave measurement
//! (from the service operator). Everything else — session keys, tokens,
//! sequence numbers — is established through the attested handshake.
//!
//! [`ServiceClient`] is the synchronous convenience wrapper used by the
//! examples and integration tests; the chaos storm drives the same
//! [`CircuitBreaker`] / [`backoff_delay`] pieces from its own tick loop so
//! transport faults can be injected between the two halves of each
//! exchange.

use crate::breaker::CircuitBreaker;
use crate::facade::{
    request_mac, ServiceError, ServiceFacade, ServiceOp, ServiceReply, SessionToken,
};
use hypertee::machine::Machine;
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::sig::PublicKey;
use hypertee_ems::attest::SigmaInitiator;

/// First-retry delay of [`backoff_delay`], in ticks.
const BACKOFF_BASE_TICKS: u64 = 2;
/// Cap on [`backoff_delay`] before jitter, in ticks.
const BACKOFF_MAX_TICKS: u64 = 64;

/// Delay in ticks before retry number `attempt` (1-based):
/// `BACKOFF_BASE_TICKS * 2^(attempt-1)` capped at `BACKOFF_MAX_TICKS`, plus
/// up to 50% seeded jitter so a fleet of clients does not retry in lockstep.
pub fn backoff_delay(attempt: u32, rng: &mut ChaChaRng) -> u64 {
    let exp = attempt.saturating_sub(1).min(32);
    let raw = BACKOFF_BASE_TICKS
        .saturating_mul(1u64 << exp)
        .min(BACKOFF_MAX_TICKS);
    raw + rng.gen_range(raw / 2 + 1)
}

/// What one client operation amounted to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOutcome {
    /// The call was served and its reply MAC verified.
    Ok(ServiceReply),
    /// The breaker was open: shed locally, transport untouched.
    Shed,
    /// The facade (or verification) rejected the operation.
    Rejected(ServiceError),
}

/// Client-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful handshakes.
    pub handshakes: u64,
    /// Handshakes re-run because a session was revoked or expired.
    pub reattestations: u64,
    /// Calls served and verified.
    pub(crate) calls_ok: u64,
    /// Calls that ended in rejection.
    pub(crate) failures: u64,
    /// Calls shed by the breaker.
    pub(crate) shed: u64,
}

/// The synchronous reference client.
#[derive(Debug)]
pub struct ServiceClient {
    /// Tenant identity presented at challenge time.
    pub(crate) tenant: u64,
    trusted_ek: PublicKey,
    expected_measurement: [u8; 32],
    rng: ChaChaRng,
    /// The client's breaker (public so harnesses can inspect transitions).
    pub(crate) breaker: CircuitBreaker,
    token: Option<SessionToken>,
    key: Option<[u8; 32]>,
    seq: u64,
    /// Operation counters.
    pub stats: ClientStats,
}

impl ServiceClient {
    /// A client for `tenant` pinning the platform EK and the service
    /// enclave measurement.
    pub fn new(
        tenant: u64,
        seed: u64,
        trusted_ek: PublicKey,
        expected_measurement: [u8; 32],
    ) -> ServiceClient {
        ServiceClient {
            tenant,
            trusted_ek,
            expected_measurement,
            rng: ChaChaRng::from_u64(seed ^ 0xc11e_0000_0000_0001 ^ tenant.rotate_left(17)),
            breaker: CircuitBreaker::default(),
            token: None,
            key: None,
            seq: 0,
            stats: ClientStats::default(),
        }
    }

    /// Runs the full challenge-response handshake and stores the session.
    ///
    /// # Errors
    ///
    /// Any facade rejection, or [`ServiceError::AttestFailed`] when the
    /// returned quote does not verify against the pinned EK/measurement.
    pub fn handshake(
        &mut self,
        f: &mut ServiceFacade,
        m: &mut Machine,
        now: u64,
    ) -> Result<(), ServiceError> {
        self.token = None;
        self.key = None;
        let (cid, nonce) = f.issue_challenge(self.tenant, now)?;
        let (init, msg1) = SigmaInitiator::start_with_nonce(&mut self.rng, nonce);
        let (msg2, token) = f.attest(m, cid, &msg1, now)?;
        let key = init
            .finish(&msg2, &self.trusted_ek, &self.expected_measurement)
            .map_err(|_| ServiceError::AttestFailed)?;
        self.token = Some(token);
        self.key = Some(key);
        self.seq = 0;
        self.stats.handshakes += 1;
        Ok(())
    }

    /// Issues one authenticated call, handshaking first when no session is
    /// held and re-attesting once when the session turns out revoked or
    /// expired (epoch bump, TTL). Breaker accounting wraps the whole
    /// operation: a shed call never touches the facade.
    pub fn call(
        &mut self,
        f: &mut ServiceFacade,
        m: &mut Machine,
        op: &ServiceOp,
        now: u64,
    ) -> ClientOutcome {
        if !self.breaker.allow(now) {
            self.stats.shed += 1;
            return ClientOutcome::Shed;
        }
        match self.try_call(f, m, op, now) {
            Ok(reply) => {
                self.breaker.on_success();
                self.stats.calls_ok += 1;
                ClientOutcome::Ok(reply)
            }
            Err(e) if session_is_dead(e) => {
                // One re-attestation attempt, then the call again.
                self.stats.reattestations += 1;
                let retried = self
                    .handshake(f, m, now)
                    .and_then(|()| self.try_call(f, m, op, now));
                match retried {
                    Ok(reply) => {
                        self.breaker.on_success();
                        self.stats.calls_ok += 1;
                        ClientOutcome::Ok(reply)
                    }
                    Err(e) => {
                        self.breaker.on_failure(now);
                        self.stats.failures += 1;
                        ClientOutcome::Rejected(e)
                    }
                }
            }
            Err(e) => {
                self.breaker.on_failure(now);
                self.stats.failures += 1;
                ClientOutcome::Rejected(e)
            }
        }
    }

    fn try_call(
        &mut self,
        f: &mut ServiceFacade,
        m: &mut Machine,
        op: &ServiceOp,
        now: u64,
    ) -> Result<ServiceReply, ServiceError> {
        if self.token.is_none() {
            self.handshake(f, m, now)?;
        }
        let token = self.token.clone().expect("handshake stored a session");
        let key = self.key.expect("handshake stored a key");
        let seq = self.seq;
        let mac = request_mac(&key, seq, op);
        let reply = f.call(m, &token, seq, op, &mac, now)?;
        if !reply.verify(&key) {
            return Err(ServiceError::BadRequestMac);
        }
        self.seq += 1;
        Ok(reply)
    }
}

/// Rejections that mean "this session will never work again — re-attest".
fn session_is_dead(e: ServiceError) -> bool {
    matches!(
        e,
        ServiceError::EpochRevoked
            | ServiceError::UnknownSession
            | ServiceError::TokenExpired
            | ServiceError::BadSequence
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::ServiceConfig;

    fn setup() -> (Machine, ServiceFacade, ServiceClient) {
        let mut m = Machine::boot_default();
        let mut f = ServiceFacade::new(ServiceConfig::production(11)).unwrap();
        f.probe(&mut m, 0).unwrap();
        let c = ServiceClient::new(
            1,
            42,
            m.ek_public(),
            f.service_measurement().expect("probed"),
        );
        (m, f, c)
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut rng = ChaChaRng::from_u64(1);
        let d1 = backoff_delay(1, &mut rng);
        assert!((2..=3).contains(&d1));
        let d3 = backoff_delay(3, &mut rng);
        assert!((8..=12).contains(&d3), "doubles per attempt: {d3}");
        for attempt in [6, 7, 40] {
            let d = backoff_delay(attempt, &mut rng);
            assert!((64..=96).contains(&d), "capped at max plus jitter: {d}");
        }
        // Deterministic under the same rng stream.
        let mut a = ChaChaRng::from_u64(9);
        let mut b = ChaChaRng::from_u64(9);
        assert_eq!(backoff_delay(3, &mut a), backoff_delay(3, &mut b));
    }

    #[test]
    fn client_round_trip_verifies_replies() {
        let (mut m, mut f, mut c) = setup();
        let out = c.call(&mut f, &mut m, &ServiceOp::Ping(b"hi".to_vec()), 1);
        let ClientOutcome::Ok(reply) = out else {
            panic!("expected success, got {out:?}");
        };
        assert_eq!(reply.payload, b"hi");
        assert_eq!(c.stats.handshakes, 1);
        assert_eq!(c.stats.calls_ok, 1);
    }

    #[test]
    fn client_reattests_after_crash_restart() {
        let (mut m, mut f, mut c) = setup();
        assert!(matches!(
            c.call(&mut f, &mut m, &ServiceOp::Ping(vec![]), 1),
            ClientOutcome::Ok(_)
        ));
        m.crash_restart_ems();
        f.supervise(&mut m, 10).unwrap();
        // The stored session is gone server-side; the client transparently
        // re-attests and the call still lands.
        assert!(matches!(
            c.call(&mut f, &mut m, &ServiceOp::Ping(vec![]), 11),
            ClientOutcome::Ok(_)
        ));
        assert_eq!(c.stats.reattestations, 1);
        assert_eq!(c.stats.handshakes, 2);
    }

    #[test]
    fn breaker_sheds_against_an_unready_facade() {
        let mut m = Machine::boot_default();
        // Facade never probed: everything is refused, breaker must trip.
        let mut f = ServiceFacade::new(ServiceConfig::production(12)).unwrap();
        let mut c = ServiceClient::new(1, 7, m.ek_public(), [0u8; 32]);
        let op = ServiceOp::Ping(vec![]);
        let mut shed = 0;
        for t in 0..12 {
            match c.call(&mut f, &mut m, &op, t) {
                ClientOutcome::Shed => shed += 1,
                ClientOutcome::Rejected(ServiceError::NotReady) => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(shed > 0, "breaker must shed once open");
        assert!(c.breaker.transitions().to_open >= 1);
        assert_eq!(
            f.stats.not_ready_rejects + c.stats.shed,
            12,
            "every attempt either hit the closed gate or was shed locally"
        );
    }
}
