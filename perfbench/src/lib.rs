//! The NEOFog benchmark: three workloads timed end to end from outside
//! the simulator, plus a traced run that times each layer's public API.
//! See `README.md` in this directory for the metrics and how to run it.

pub mod digest;
pub mod host;
pub mod layers;
pub mod phase;
pub mod report;
pub mod sink;
pub mod stats;
pub mod workloads;
