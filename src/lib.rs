//! # upp — Upward Packet Popup for Deadlock Freedom in Modular Chiplet-Based Systems
//!
//! Facade crate re-exporting the whole reproduction:
//!
//! * [`noc`] — the cycle-accurate chiplet/interposer NoC substrate;
//! * [`core`] — UPP itself (detection + popup recovery);
//! * [`baselines`] — composable routing, remote control, unprotected;
//! * [`workloads`] — synthetic traffic, the MESI-style coherence engine,
//!   sweep runner, energy and area models.
//!
//! See the `examples/` directory for runnable entry points and
//! `EXPERIMENTS.md` for the paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use upp_baselines as baselines;
pub use upp_core as core;
pub use upp_noc as noc;
pub use upp_workloads as workloads;
