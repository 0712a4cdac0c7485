//! # NEOFog — Nonvolatility-Exploiting Optimizations for Fog Computing
//!
//! A full reproduction of the NEOFog system architecture (Ma et al.,
//! ASPLOS 2018) for energy-harvesting wireless sensor networks built
//! from nonvolatile processors (NVPs) and nonvolatile RF controllers
//! (NVRFs).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `neofog-types` | units, ids, errors, deterministic RNG |
//! | [`energy`] | `neofog-energy` | harvesters, power traces, supercaps, front-ends, RTC |
//! | [`nvp`] | `neofog-nvp` | VP/NVP models, intermittent execution, Spendthrift, NV buffer |
//! | [`rf`] | `neofog-rf` | software RF vs NVRF, packets, loss process |
//! | [`sensors`] | `neofog-sensors` | sensor specs, ADC, signal synthesis |
//! | [`workloads`] | `neofog-workloads` | Table-2 app models + real kernels (FFT, NCC, compression, strength models) |
//! | [`net`] | `neofog-net` | topologies compiled to route plans (chain / mesh / tiers), RTC slots |
//! | [`core`] | `neofog-core` | NOS/FIOS nodes, load balancers (Algorithm 1), NVD4Q (Algorithm 2), system simulator, experiments |
//!
//! # Quickstart
//!
//! ```
//! use neofog::core::sim::{SimConfig, Simulator};
//! use neofog::core::SystemKind;
//! use neofog::energy::Scenario;
//!
//! // A 10-node NEOFog chain in the forest scenario, 30 minutes.
//! let mut cfg = SimConfig::paper_default(
//!     SystemKind::FiosNeoFog,
//!     Scenario::ForestIndependent,
//!     42,
//! );
//! cfg.slots = 150;
//! let result = Simulator::new(cfg).expect("valid config").run();
//! assert!(result.metrics.fog_processed() > 0);
//! ```

pub use neofog_core as core;
pub use neofog_energy as energy;
pub use neofog_net as net;
pub use neofog_nvp as nvp;
pub use neofog_rf as rf;
pub use neofog_sensors as sensors;
pub use neofog_types as types;
pub use neofog_workloads as workloads;

/// Commonly used items in one import.
pub mod prelude {
    pub use neofog_core::sim::{
        BalancerKind, SimConfig, SimEvent, SimObserver, SimResult, Simulator,
    };
    pub use neofog_core::{
        run_batch, CollectAll, NoProgress, NodeConfig, PackageSpec, PoolConfig, Progress, Reduce,
        StderrTicker, SystemKind,
    };
    pub use neofog_energy::{PowerTrace, Scenario, SuperCap, TraceGenerator};
    pub use neofog_nvp::{NvBuffer, Processor, ProcessorKind};
    pub use neofog_rf::{NvRf, RadioModel, RfConfig, SoftwareRf};
    pub use neofog_types::{Duration, Energy, NodeId, Power, SimRng, SimTime};
    pub use neofog_workloads::{App, Strategy, TaskPipeline};
}
