//! Timing models for the HyperTEE SoC.
//!
//! The paper evaluates HyperTEE on a Synopsys HAPS-80 FPGA carrying BOOM
//! (out-of-order) computing-subsystem cores and Rocket/BOOM enclave-management
//! cores (Table III). No FPGA is available to this reproduction, so this crate
//! provides the timing substrate instead:
//!
//! * [`clock`] — cycle bookkeeping in the CS clock domain.
//! * [`config`] — the Table III core configurations (CS 8-wide OoO; EMS
//!   *weak* / *medium* / *strong*) and SoC-level configuration.
//! * [`latency`] — the calibration: every cycle cost the models charge and
//!   the CS/EMS clock frequencies (2.5 GHz CS, 750 MHz EMS per §VII-E), each
//!   a constant annotated with the paper number it was anchored to.
//! * [`perf`] — the analytic core-performance model that turns workload
//!   profiles plus an execution environment into cycle counts (Figs. 7–11).
//! * [`area`] — the ASIC area model behind Table V.
//! * [`stats`] — summary statistics and percentile helpers.
//!
//! Functional behaviour (real page tables, real encryption) lives in the
//! sibling crates; this crate only ever deals in *cycles*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
#[cfg(test)]
mod cache;
pub mod clock;
pub mod config;
pub mod latency;
pub mod perf;
pub mod rng;
pub mod stats;
