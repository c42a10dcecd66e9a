//! Fleet chaos engine: seeded fault campaigns under live open-loop traffic.
//!
//! This crate drives the real [`hypertee::Machine`] — the full
//! submit/pump/collect pipeline, EMCall gate, iHub mailbox, and multi-core
//! EMS — with an *open-loop* arrival process of enclave sessions while a
//! seeded [`hypertee_faults::FaultPlan`] injects mailbox, ring, DMA, and
//! EMS faults live, including full EMS firmware crash-restarts. It measures
//! what the paper's availability story actually requires:
//!
//! * **graceful degradation** — backpressure shedding and deadline expiry
//!   under overload, surfaced as terminal statuses instead of hangs;
//! * **recovery** — requests that needed retries but still completed `Ok`,
//!   and requests that survived an EMS crash-restart via the pipeline's
//!   loss-detection resubmit;
//! * **consistency** — the cross-structure [`ConsistencyAudit`] stays green
//!   at every checkpoint of every campaign, and lockstep rounds against the
//!   PR 3 reference model report zero divergence;
//! * **mobility under fire** — CVM migrations executed mid-campaign with
//!   measured blackout windows (p50/p99).
//!
//! Everything is deterministic: the same seed yields the same trace hash,
//! so any failing campaign is replayable from one `u64`.
//!
//! [`ConsistencyAudit`]: hypertee_mem::audit::ConsistencyAudit

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod migration;
pub mod report;
pub mod runner;
pub mod sharded;
pub mod storm;
pub mod traffic;

pub use campaign::{run, ChaosConfig, ChaosOutcome};
pub use report::{
    render_report, render_serving_report, render_sharded_report, validate, validate_serving,
};
pub use sharded::{run_sharded, ShardedChaosConfig, ShardedChaosOutcome};
pub use storm::{StormConfig, StormDriver, StormOutcome};
pub use traffic::{schedule, Arrival, TenantProfile, TrafficConfig};
