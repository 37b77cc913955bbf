//! # upp-check — exhaustive model checking of the popup protocol
//!
//! The simulator crates *test* UPP on sampled traffic; this crate
//! *verifies* it on an abstraction small enough to exhaust. The popup
//! protocol — watchdog detection, `UPP_req`/`ack`/`stop` handshake,
//! ejection-entry reservation, bypass-circuit transmission — is modelled
//! as an explicit-state transition system over a ring of boundary routers
//! ([`model`]), explored exhaustively with canonical hashing and rotation
//! symmetry reduction ([`explore`]), and checked against two properties
//! ([`props`]):
//!
//! 1. **Bounded recovery** — every reachable state (deadlocks included)
//!    can reach a fully drained state, with a proven worst-case bound;
//! 2. **No popup livelock** — the protocol machinery cannot cycle forever
//!    without packet progress.
//!
//! The model is wired to the same [`upp_core::protocol`] definitions the
//! concrete scheme consumes (stages, legal stage transitions, circuit
//! capacity), and every verdict is concretized ([`artifact`]) into a
//! scenario artifact that `upp-verify`'s bridge replays through the full
//! simulator — abstract claims are cross-validated, not taken on faith.
//! Deliberate protocol mutations (`--mutation`) prove the checker can
//! convict each obligation the paper's argument rests on.
//!
//! See `MODEL.md` in this crate for the abstraction map and its
//! soundness arguments, and the `upp-check` binary for the CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod artifact;
pub mod explore;
pub mod model;
pub mod props;

pub use artifact::{clean_artifact, livelock_artifact, recovery_artifact};
pub use explore::{explore, Exploration, ExploreStats};
pub use model::{ModelCfg, Mutation, State, Transition};
pub use props::{check_bounded_recovery, check_no_livelock};
