//! `attest_storm`: clients attesting to the service facade and making
//! authenticated calls, with a scripted EMS crash-restart mid-round that
//! revokes every session. Host time goes to SIGMA handshakes (ECDH, quote
//! signatures) and facade MACs; the request pipeline is barely touched.

use super::{boot, Round, Snapshot, Workload};
use crate::trace::Tracer;
use hypertee::machine::Machine;
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::sha256::sha256;
use hypertee_crypto::sig::PublicKey;
use hypertee_ems::attest::{Quote, SigmaInitiator};
use hypertee_service::{
    request_mac, FacadeStats, ServiceConfig, ServiceFacade, ServiceOp, SessionToken,
};
use hypertee_sim::config::SocConfig;

/// Clients round-robin over the facade, one RPC each per tick.
#[derive(Debug, Clone)]
pub struct AttestStorm {
    /// Concurrent clients.
    pub clients: usize,
    /// Handshakes started per round; the crash-restart fires halfway.
    pub handshakes: u32,
    /// Authenticated calls after each handshake, cycling Ping, Seal,
    /// Unseal, Quote, Seal, Unseal (so at least 3).
    pub calls: u64,
    /// See [`Workload::min_rounds`].
    pub rounds: u32,
}

impl Default for AttestStorm {
    /// 64 clients, 1,024 handshakes of 6 calls each per round, 5 rounds:
    /// 5,120 handshakes with a crash every 1,024.
    fn default() -> Self {
        AttestStorm {
            clients: 64,
            handshakes: 1024,
            calls: 6,
            rounds: 5,
        }
    }
}

/// A booted machine behind a probed, ready facade.
#[derive(Debug)]
pub struct Storm {
    m: Machine,
    facade: ServiceFacade,
    rng: ChaChaRng,
    ek: PublicKey,
    measurement: [u8; 32],
    now: u64,
}

#[derive(Debug)]
enum Phase {
    Idle,
    Challenged {
        id: u64,
        nonce: [u8; 32],
    },
    Session {
        token: SessionToken,
        key: [u8; 32],
        seq: u64,
        plain: Vec<u8>,
        sealed: Vec<u8>,
    },
}

#[derive(Debug)]
struct Client {
    tenant: u64,
    phase: Phase,
    attested_after_crash: bool,
}

impl Workload for AttestStorm {
    type State = Storm;

    fn min_rounds(&self) -> u32 {
        self.rounds
    }

    fn max_refused(&self) -> f64 {
        0.0
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Storm {
        let mut m = boot(SocConfig::default(), seed, tr);
        let mut facade = ServiceFacade::new(ServiceConfig::production(seed))
            .expect("production config constructs");
        tr.span("service.probe", || facade.probe(&mut m, 0))
            .expect("startup probe passes");
        Storm {
            ek: m.ek_public(),
            measurement: facade.service_measurement().expect("probed facade"),
            m,
            facade,
            rng: ChaChaRng::from_u64(seed ^ 0x5354_4f52_4d00_0001),
            now: 0,
        }
    }

    fn round(&self, s: &mut Storm, _seed: u64, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        let before = Snapshot::take(&s.m);
        let stats_before = s.facade.stats.clone();
        let mut clients: Vec<Client> = (0..self.clients as u64)
            .map(|tenant| Client {
                tenant,
                phase: Phase::Idle,
                attested_after_crash: false,
            })
            .collect();
        let mut started = 0u32;
        let mut crashed = false;
        loop {
            s.now += 1;
            if !crashed && started >= self.handshakes / 2 {
                crashed = true;
                tr.span("core.crash_restart", || s.m.crash_restart_ems());
                let supervised =
                    tr.span("service.supervise", || s.facade.supervise(&mut s.m, s.now));
                if supervised != Ok(true) {
                    round.fail(0, format!("supervise after a crash: {supervised:?}"));
                }
                // The crash revoked every session and challenge: clients
                // go back through attestation before their next call.
                for c in &mut clients {
                    c.phase = Phase::Idle;
                }
            }
            let mut busy = false;
            for c in &mut clients {
                if matches!(c.phase, Phase::Idle) {
                    if started == self.handshakes {
                        continue;
                    }
                    started += 1;
                }
                c.phase = self.step(s, c, crashed, &mut round, tr);
                busy = true;
            }
            if !busy {
                break;
            }
        }
        for c in &clients {
            if crashed && !c.attested_after_crash {
                round.fail(0, format!("client {} never re-attested", c.tenant));
            }
        }
        if !crashed && self.handshakes > 0 {
            round.fail(0, "the scripted crash never fired".into());
        }
        if !s.facade.readyz() {
            round.fail(0, "facade not ready at the end of the round".into());
        }
        before.record_since(&s.m, &mut round.counters);
        let (a, b) = (&s.facade.stats, &stats_before);
        let c = &mut round.counters;
        c.add(
            "service.handshakes_ok",
            (a.handshakes_ok - b.handshakes_ok) as f64,
        );
        c.add("service.calls_ok", (a.calls_ok - b.calls_ok) as f64);
        c.add("service.reprobes", (a.reprobes - b.reprobes) as f64);
        c.add(
            "service.sessions_revoked",
            (a.sessions_revoked - b.sessions_revoked) as f64,
        );
        c.add("service.rejects", (rejects(a) - rejects(b)) as f64);
        round
    }
}

impl AttestStorm {
    /// One RPC for client `c`; returns its next phase.
    fn step(
        &self,
        s: &mut Storm,
        c: &mut Client,
        crashed: bool,
        round: &mut Round,
        tr: &mut Tracer,
    ) -> Phase {
        round.ops += 1;
        match std::mem::replace(&mut c.phase, Phase::Idle) {
            Phase::Idle => {
                match tr.span("service.challenge", || {
                    s.facade.issue_challenge(c.tenant, s.now)
                }) {
                    Ok((id, nonce)) => Phase::Challenged { id, nonce },
                    Err(_) => {
                        round.refused += 1;
                        Phase::Idle
                    }
                }
            }
            Phase::Challenged { id, nonce } => {
                let (init, msg1) = tr.span("ems.sigma_start", || {
                    SigmaInitiator::start_with_nonce(&mut s.rng, nonce)
                });
                let Ok((msg2, token)) = tr.span("service.attest", || {
                    s.facade.attest(&mut s.m, id, &msg1, s.now)
                }) else {
                    round.refused += 1;
                    return Phase::Idle;
                };
                match tr.span("ems.sigma_finish", || {
                    init.finish(&msg2, &s.ek, &s.measurement)
                }) {
                    Ok(key) => {
                        c.attested_after_crash |= crashed;
                        Phase::Session {
                            token,
                            key,
                            seq: 0,
                            plain: Vec::new(),
                            sealed: Vec::new(),
                        }
                    }
                    Err(e) => {
                        round.fail(
                            1,
                            format!("platform reply failed SIGMA verification: {e:?}"),
                        );
                        Phase::Idle
                    }
                }
            }
            Phase::Session {
                token,
                key,
                seq,
                mut plain,
                mut sealed,
            } => {
                let fresh = s.rng.gen_bytes32();
                let op = match seq % 6 {
                    0 => ServiceOp::Ping(fresh.to_vec()),
                    1 | 4 => {
                        plain = fresh.to_vec();
                        ServiceOp::Seal(plain.clone())
                    }
                    2 | 5 => ServiceOp::Unseal(sealed.clone()),
                    _ => ServiceOp::Quote(fresh),
                };
                let mac = tr.span("service.client_mac", || request_mac(&key, seq, &op));
                match tr.span("service.call", || {
                    s.facade.call(&mut s.m, &token, seq, &op, &mac, s.now)
                }) {
                    Ok(reply) => {
                        let genuine = tr.span("service.client_mac", || {
                            reply.seq == seq && reply.verify(&key)
                        });
                        let answered = match &op {
                            ServiceOp::Ping(data) => reply.payload == *data,
                            ServiceOp::Seal(_) => {
                                sealed = reply.payload.clone();
                                !sealed.is_empty()
                            }
                            ServiceOp::Unseal(_) => reply.payload == plain,
                            ServiceOp::Quote(report) => Quote::from_bytes(&reply.payload)
                                .is_ok_and(|q| q.report_data == sha256(report)),
                        };
                        if !(genuine && answered) {
                            round.fail(
                                1,
                                format!(
                                    "tenant {} call {seq}: reply genuine={genuine} answered={answered}",
                                    c.tenant
                                ),
                            );
                        }
                    }
                    Err(_) => round.refused += 1,
                }
                if seq + 1 < self.calls {
                    Phase::Session {
                        token,
                        key,
                        seq: seq + 1,
                        plain,
                        sealed,
                    }
                } else {
                    Phase::Idle
                }
            }
        }
    }
}

/// Every request the facade refused, whatever the reason.
fn rejects(f: &FacadeStats) -> u64 {
    f.not_ready_rejects
        + f.attest_failures
        + f.replayed_challenges
        + f.stale_challenges
        + f.nonce_mismatches
        + f.unknown_challenges
        + f.unknown_sessions
        + f.forged_tokens_rejected
        + f.epoch_rejects
        + f.expired_tokens
        + f.bad_sequence_rejects
        + f.bad_request_macs
        + f.backend_errors
}
