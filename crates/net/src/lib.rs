//! Network substrate for NEOFog.
//!
//! The network the simulator routes over and the RTC slot scheduling
//! the paper models at network level (§2.3, §4):
//!
//! * [`plan`] — pluggable topologies (the paper's chain / Erdős-Rényi
//!   mesh / tiered sensors → gateways → cloud) compiled once into
//!   immutable [`RoutePlan`]s (next hops, hop counts, sweep order, CSR
//!   children) so the simulator's slot loop never searches the graph.
//!   The plan is the only network model: the MAC layer relays
//!   transparently, so a route never changes when a relay dies. The
//!   kernel charges relay duty only to awake nodes and compounds the
//!   per-hop loss over the plan's hop count. This is the paper's
//!   orphan-scan behaviour: when relay B is dead, A reaches C directly,
//!   and A→B→C re-forms when B recovers.
//! * [`slots`] — RTC-synchronized wake-up slots: every node with
//!   sufficient energy wakes at the common slot; energy-poor nodes wake
//!   at a multiple of it; fully depleted nodes desynchronize.

pub mod plan;
pub mod slots;

pub use plan::{erdos_renyi_edges, NodeTier, RoutePlan, TopologySpec, NO_HOP};
pub use slots::{SlotSchedule, WakeDecision};
