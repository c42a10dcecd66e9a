//! `hypertee-service`: the production service contract over the simulated
//! machine — an in-process RPC facade with a **fail-closed** lifecycle.
//!
//! Real enclave-backed services do not hand out responses because a server
//! process happens to be running; they hand them out because the platform
//! *proved* itself first. This crate reproduces that contract on top of the
//! HyperTEE machine:
//!
//! * `facade` — [`facade::ServiceFacade`]: startup probes that refuse all
//!   traffic until the boot measurement chain and an EMS self-attestation
//!   verify (readiness is distinct from liveness), nonce-bound
//!   challenge-response attestation with freshness windows and replay
//!   rejection, per-tenant session tokens with expiry, and forced
//!   re-attestation after an EMS crash-restart (epoch revocation).
//! * `breaker` — [`breaker::CircuitBreaker`]: the explicit
//!   Closed → Open → HalfOpen client-side state machine, so a faulted
//!   facade sheds load instead of queueing it.
//! * `client` — [`client::ServiceClient`]: a reference client that drives
//!   the full protocol (challenge → SIGMA handshake → authenticated calls)
//!   with one re-attestation retry and the breaker wired in, and
//!   [`client::backoff_delay`], the storm clients' retry schedule.
//!
//! Every rejection path increments a named counter in
//! [`facade::FacadeStats`]; the chaos attestation-storm harness folds those
//! counters into its trace hash and the `BENCH_serving.json` validator
//! asserts the *accepted*-attack counters are zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod breaker;
pub(crate) mod client;
pub(crate) mod facade;

pub use breaker::{BreakerState, CircuitBreaker};
pub use client::{backoff_delay, ClientOutcome, ServiceClient};
pub use facade::{
    pinned_platform_measurement, request_mac, FacadeStats, ServiceConfig, ServiceError,
    ServiceFacade, ServiceOp, ServiceReply, ServiceState, SessionToken,
};
