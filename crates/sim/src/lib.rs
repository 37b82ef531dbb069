//! Packet-level discrete-event network simulator — the workspace's stand-in
//! for the htsim simulator the paper uses (§5.3: "htsim-based packet level
//! simulator ... configured with TCP and 10Gbps links").
//!
//! The model, matching htsim's abstraction level:
//!
//! * every cable is a pair of directed links, each with a fixed rate,
//!   propagation delay and a drop-tail output queue;
//! * servers hang off their ToR through dedicated server links (same rate),
//!   so rack over-subscription and incast are modelled physically;
//! * switches forward hop-by-hop over a
//!   [`ForwardingState`](spineless_routing::ForwardingState) — per-flow
//!   ECMP hashing over the (possibly VRF-expanded) next-hop sets, so ECMP
//!   and Shortest-Union(K) run through identical machinery;
//! * transport is TCP NewReno (slow start, AIMD congestion avoidance, fast
//!   retransmit/recovery on three duplicate ACKs, RTO with exponential
//!   backoff and RTT estimation per RFC 6298);
//! * everything is deterministic given the seed: the event queue
//!   ([`equeue::HeapQueue`], a binary heap of `(time, insertion seq, slot)`
//!   keys over a slab of event payloads) orders events by the total key
//!   `(time, insertion seq)`, so time ties break by insertion order, and
//!   ECMP hashes derive from the seed.
//!
//! The top-level type is [`engine::Simulation`]; see the crate examples and
//! `spineless-core` for how the paper's experiments drive it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cong;
pub mod engine;
pub mod equeue;
pub mod failure;
pub mod hybrid;
pub mod link;
pub mod packet;
pub mod tcp;
pub mod types;

pub use cong::{CongAlg, ConstCwnd, Dctcp, NewReno};
pub use engine::Simulation;
pub use equeue::{HeapQueue, TimerWheel};
pub use failure::{FailureEvent, FailureSchedule};
pub use hybrid::{HybridConfig, HybridMode, HybridReport, HybridSimulation};
pub use types::{Datapath, FlowId, FlowRecord, PfcConfig, SimConfig, SimReport};
