//! Lockstep reference model + differential-checking harness for the
//! HyperTEE enclave lifecycle.
//!
//! This crate holds a compact, obviously-correct *reference model* of the
//! enclave-management state machine — no timing, no encryption, just sets
//! and maps — and a harness that drives the real [`hypertee::machine::Machine`]
//! in lockstep with it:
//!
//! * [`ops`] — the abstract command language ([`ops::LifecycleOp`]) and the
//!   seeded multi-hart command generator ([`ops::generate`]).
//! * `model` — the reference model (`model::RefModel`): abstract
//!   lifecycle states, an SHA-256 measurement mirror, heap-cursor and
//!   frame-count bookkeeping per enclave slot.
//! * [`harness`] — the lockstep driver ([`harness::run_campaign`]): commands
//!   are interleaved across harts through the asynchronous
//!   `submit`/`pump`/`take_completion` pipeline, optionally under a
//!   [`hypertee_faults`] campaign; after every completion batch the real
//!   machine state (enclave views, ownership, bitmap, page tables, TLBs,
//!   response codes) is diffed against the model.
//! * [`shrink()`] — a greedy delta-debugging shrinker that reduces a
//!   diverging command trace to a minimal reproducer.
//!
//! The model deliberately does **not** mirror timing, encryption, shared
//! memory, or the exact physical frames the EMS picks — those are either
//! checked by dedicated tests or observationally nondeterministic. What it
//! *does* pin down is everything a verifier can predict: status codes,
//! lifecycle states, measurement digests, heap cursors, per-enclave frame
//! counts, ownership accounting, and TLB coherence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub(crate) mod model;
pub mod ops;
pub mod shrink;

pub use harness::{run_campaign, Campaign, CampaignOutcome, Divergence, Mutation};
pub use ops::{generate, Command, LifecycleOp};
pub use shrink::shrink;
