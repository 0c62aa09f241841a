//! # sia-sim — trace-driven simulation of the SIP at supercomputer scale
//!
//! The paper evaluates ACES III on 256 – 108,000 cores of Sun, Cray XT4/XT5,
//! SGI Altix, and BlueGene/P systems. Those machines are gone and one host
//! cannot impersonate them, so the reproduction splits the problem:
//!
//! * `sia-runtime` *executes* SIAL programs for real (threads as ranks) and
//!   validates numerics, protocols, and policies at small scale;
//! * this crate *simulates* those same policies — guided chunk scheduling,
//!   prefetch-overlapped block traffic, LRU caching, barrier synchronization,
//!   master service contention — against calibrated [`MachineModel`]s, driven
//!   by the [`sia_runtime::trace`] extracted from the very same bytecode.
//!
//! The simulator is a discrete-event engine at *chunk* granularity: every
//! chunk request/assignment and barrier is an explicit event (capturing
//! master contention, guided-schedule imbalance, and straggler effects),
//! while the homogeneous iterations inside one chunk use a closed-form
//! pipeline model of the SIP's communication/computation overlap.
//!
//! Absolute times are only as good as the era-hardware calibration; the
//! *shape* of the scaling curves (who wins, where efficiency collapses,
//! where extra processors hurt) is the reproduction target.

pub mod ga_model;
pub mod machine;
pub mod sip_model;

pub use ga_model::{simulate_ga, GaConfig, GaOutcome};
pub use machine::MachineModel;
pub use sip_model::{simulate, PhaseReport, SimConfig, SimReport};
