//! HyperTEE — a decoupled TEE architecture with secure enclave management.
//!
//! This is the core crate of the MICRO 2024 reproduction: it assembles the
//! substrate crates into a whole simulated SoC and exposes the programming
//! model of §III-B.
//!
//! * [`machine`] — [`machine::Machine`]: CS harts + EMCall + iHub + EMS +
//!   memory system, booted through the secure-boot chain.
//! * [`manifest`] — the enclave configuration file ("declares the resource
//!   requirements of the enclave, including heap and stack memory sizes").
//! * [`sdk`] — the HostApp/enclave API: create, load, measure, enter, run,
//!   allocate, share memory, attest, seal.
//! * [`baselines`] — policy models of SGX, SEV, TDX, CCA, TrustZone,
//!   Keystone, Penglai, and CURE for the Table VI defence matrix.
//! * [`attacks`] — the controlled-channel and management-side-channel
//!   attack harnesses, run for real against the machine.
//!
//! # Quickstart
//!
//! ```
//! use hypertee::machine::Machine;
//! use hypertee::manifest::EnclaveManifest;
//!
//! let mut machine = Machine::boot_default();
//! let manifest = EnclaveManifest::parse("heap = 4M\nstack = 64K\nhost_shared = 64K").unwrap();
//! let enclave = machine.create_enclave(0, &manifest, b"my enclave image").unwrap();
//! machine.enter(0, enclave).unwrap();
//! let quote = machine.attest(0, enclave, b"nonce").unwrap();
//! assert!(quote.verify(&machine.ek_public()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod baselines;
pub mod exec;
pub mod machine;
pub mod manifest;
pub mod pipeline;
pub mod sdk;
pub mod shard;

pub use machine::Machine;
pub use manifest::EnclaveManifest;
