//! # workload — mobility models, traffic generators, SLO-gated soaks
//!
//! Every claim in the paper — at most one lost/triangle packet per stale
//! cache hop (§5), rate-limited updates (§4.3), no flooding or global
//! database (§7) — is about behavior *under sustained traffic while
//! hosts move*. This crate turns the simulator into a load-testing
//! harness with three layers:
//!
//! 1. **Mobility** ([`mobility`]) — a seeded, deterministic
//!    [`MobilityModel`] trait ([`RandomWaypoint`], [`Commuter`],
//!    [`FlashCrowd`]) compiling to a [`MovePlan`] of timed
//!    attach/detach operations, lowered to the same `netsim::Op`s a
//!    `netsim::faults::FaultPlan` holds and installed onto the world's
//!    event queue the same way.
//! 2. **Traffic** ([`traffic`]) — open-loop Poisson/on-off/CBR senders
//!    and closed-loop request/response clients with per-request
//!    deadlines, bounded retries and in-flight windows; every probe
//!    carries `(flow, seq)` in its payload so arrivals match sends
//!    exactly.
//! 3. **Soak + SLO** ([`soak`], [`slo`]) — a tick-quantized driver over
//!    the narrow [`SoakIo`] world interface, evaluated against explicit
//!    [`SloThresholds`] into a machine-readable [`SloReport`]
//!    (deterministic JSON, round-trips byte-for-byte).
//!
//! The crate depends only on `netsim`, `telemetry` and the local `rand`
//! stand-in; binding to concrete node types (which node is the client,
//! which segment is which cell) lives in `scenarios`.

#![deny(missing_docs)]

pub mod json;
pub mod mobility;
pub mod slo;
pub mod soak;
pub mod traffic;

pub use mobility::{Commuter, FlashCrowd, Layout, MobilityModel, MoveOp, MovePlan, RandomWaypoint};
pub use slo::{evaluate, SloCheck, SloMeasurements, SloReport, SloThresholds};
pub use soak::{run_soak, SoakIo, SoakParams, Transmit};
pub use traffic::{decode_probe, encode_probe, Flow, FlowCfg, FlowStats, Pattern, ProbeSend};
