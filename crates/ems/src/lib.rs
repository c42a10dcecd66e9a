//! The Enclave Management Subsystem (EMS) runtime.
//!
//! This crate is the reproduction of the paper's central artifact: the
//! software that runs on the HyperTEE IP's private cores and implements all
//! sixteen enclave primitives of Table II (the paper's original is "3843
//! lines of memory-safe Rust", §VIII-A). It is organised as:
//!
//! * [`boot`] — the secure-boot chain (§VI): eFuse root keys, BootROM
//!   verification of the encrypted EMS runtime image, verification of the CS
//!   firmware/EMCall before the CS OS starts.
//! * [`keys`] — the key vault: EK/SK roots, derivation of memory, sealing,
//!   attestation, report, and shared-memory keys; erasure with random values.
//! * [`control`] — enclave control structures and life-cycle states.
//! * [`mempool`] — the enclave memory pool with randomized-threshold growth
//!   that hides allocation events from the CS OS (§IV-A).
//! * `lifecycle` — ECREATE / EADD / EENTER / ERESUME / EEXIT / EDESTROY.
//! * `memmgmt` — EALLOC / EFREE / EWB with randomized swap selection.
//! * `shm` — shared-memory management: ShmIDs, legal connection lists,
//!   permission and active-connection checks, device grants (§V).
//! * [`attest`] — measurement, remote attestation (SIGMA), local
//!   attestation (ECDH + report key), and data sealing (§VI).
//! * [`runtime`] — the [`runtime::Ems`] dispatcher: fetches primitive
//!   requests from the iHub mailbox, sanity-checks arguments, executes, and
//!   responds.
//! * `txn` — primitive-scoped transactions: a step counter (the abort
//!   injection point) plus an undo log, so mid-primitive faults roll back
//!   instead of leaving the pool/ownership/bitmap/page-table disagreeing.
//!
//! All state the paper keeps in EMS private memory (ownership table, control
//! structures, pool bookkeeping, keys) is private to [`runtime::Ems`];
//! CS-side code interacts exclusively through mailbox packets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod boot;
pub mod control;
pub mod cvm;
pub mod error;
pub mod keys;
pub(crate) mod lifecycle;
pub(crate) mod memmgmt;
pub mod mempool;
pub mod runtime;
pub mod scheduler;
pub(crate) mod shm;
pub(crate) mod txn;
