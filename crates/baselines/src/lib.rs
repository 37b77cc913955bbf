//! # upp-baselines — modular deadlock-freedom baselines
//!
//! The two state-of-the-art modular schemes the UPP paper compares against,
//! plus the unprotected reference:
//!
//! * [`composable`] — composable routing (Yin et al., ISCA'18): boundary
//!   turn restrictions found by an extended-CDG search; deadlock *avoidance*
//!   at the cost of path diversity and load balance.
//! * [`remote`] — remote control (Majumder et al., TC'21): injection control
//!   over a permission subnetwork plus packet-sized isolation buffers at
//!   boundary routers; full path diversity but a per-packet reservation
//!   latency.
//! * The unprotected reference is [`upp_noc::scheme::NoScheme`].
//!
//! # Example
//!
//! ```
//! use upp_baselines::composable::Composable;
//! use upp_noc::topology::ChipletSystemSpec;
//!
//! let topo = ChipletSystemSpec::baseline().build(0).expect("valid spec");
//! let (scheme, _routing) = Composable::build(&topo).expect("search succeeds");
//! assert!(!scheme.config().restrictions().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod composable;
pub mod remote;

pub use composable::{Composable, ComposableConfig, ComposableError};
pub use remote::{RemoteControl, RemoteControlConfig, RemoteControlStats};
