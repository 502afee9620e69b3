//! # dfly-engine
//!
//! Deterministic discrete-event simulation engine underpinning the dragonfly
//! network model. This crate replaces the role that ROSS/CODES plays in the
//! original paper: it provides
//!
//! * an integer-nanosecond simulated clock ([`Ns`]) with exact
//!   bandwidth/serialization arithmetic ([`Bandwidth`]),
//! * a total-ordered event queue ([`EventQueue`]) whose tie-breaking is a
//!   monotone sequence number, so simulations are bit-for-bit reproducible;
//!   it is a timing wheel (nothing is scheduled before the clock, so an
//!   event less than 4,096 ns ahead is filed once, in O(1), into the slot
//!   of its nanosecond, and later ones wait in a heap until the clock
//!   brings them inside the wheel), and bounded loops pop with
//!   [`EventQueue::pop_until`] (see [`queue`]),
//! * a small, self-contained xoshiro256** random number generator
//!   ([`rng::Xoshiro256`]) so random placement/routing decisions are stable
//!   across dependency upgrades,
//! * an in-tree property-testing harness ([`proptest`]) and key/value
//!   config echo ([`kv`]) so tests and reporting need no external crates
//!   either — the workspace builds fully offline.
//!
//! The event loop itself stays sequential per shard. The paper used
//! parallel discrete-event simulation (ROSS) for speed on large clusters;
//! this reproduction mirrors that with a *conservative time-window* PDES
//! mode: a run may be partitioned into shards (one per dragonfly group)
//! that each own a sequential [`EventQueue`] and exchange cross-shard
//! traffic only at window boundaries bounded by the global-link lookahead
//! (see [`shard`]). Sharding is partition-deterministic — results are
//! byte-identical at any worker count — and parallelism *across*
//! simulation runs remains available too (see `dfly-core::sweep`).

#![warn(missing_docs)]

pub mod kv;
pub mod proptest;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod time;

pub use kv::ToKv;
pub use queue::{EventQueue, ScheduledEvent};
pub use rng::Xoshiro256;
pub use shard::{Mailbox, ShardClock, Windows};
pub use time::{Bandwidth, Bytes, Ns};
