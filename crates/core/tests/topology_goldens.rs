//! Determinism goldens for the non-chain topologies.
//!
//! The chain goldens live in `columns_goldens.rs` and pin the exact
//! pre-topology-layer event logs; this file covers the new shapes. No
//! external pin exists for a mesh or a tier graph, so the contract is
//! run-twice reproducibility: the same `(topology, seed, balancer)`
//! must write a byte-identical event log every time, and the offload
//! balancer must actually resolve decisions on mains-tiered graphs.
//! One multiplexed tier graph is pinned outright: its state digest and
//! totals hold the values the kernel gave when the pin was taken.

use neofog_core::sim::{BalancerKind, SimConfig, Simulator};
use neofog_core::SystemKind;
use neofog_energy::Scenario;
use neofog_net::TopologySpec;

fn routed(topology: TopologySpec, tag: &str, run: usize) -> (String, u64) {
    routed_threaded(topology, tag, run, 1)
}

fn routed_threaded(topology: TopologySpec, tag: &str, run: usize, threads: usize) -> (String, u64) {
    let path = std::env::temp_dir().join(format!(
        "neofog-topology-golden-{}-{tag}-{run}-t{threads}.jsonl",
        std::process::id()
    ));
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 9);
    cfg.positions = 12;
    cfg.slots = 80;
    cfg.topology = topology;
    cfg.balancer = BalancerKind::Offload;
    cfg.threads = threads;
    cfg.events_path = Some(path.display().to_string());
    let result = Simulator::new(cfg).expect("valid config").run();
    let text = std::fs::read_to_string(&path).expect("event log written");
    std::fs::remove_file(&path).ok();
    (text, result.metrics.offload_decisions)
}

#[test]
fn mesh_event_log_is_run_twice_identical() {
    let topo = TopologySpec::ErdosRenyi {
        edge_prob: 0.3,
        seed: 7,
    };
    let (a, decisions) = routed(topo, "mesh", 0);
    let (b, _) = routed(topo, "mesh", 1);
    assert_eq!(a, b, "mesh event logs diverged between identical runs");
    assert!(!a.is_empty());
    assert!(
        decisions > 0,
        "offload balancer resolved no decisions on the mesh"
    );
    assert!(
        a.contains("\"kind\":\"offload_decided\""),
        "no offload_decided events in the mesh log"
    );
}

#[test]
fn tiered_event_log_is_run_twice_identical() {
    let topo = TopologySpec::Tiered { gateways: 2 };
    let (a, decisions) = routed(topo, "tiered", 0);
    let (b, _) = routed(topo, "tiered", 1);
    assert_eq!(a, b, "tiered event logs diverged between identical runs");
    assert!(
        decisions > 0,
        "offload balancer resolved no decisions on the tier graph"
    );
    assert!(a.contains("\"kind\":\"offload_decided\""));
}

/// The non-chain topologies exercise the sharded kernel's serial
/// route fold (chains take the segmented suffix-sum instead): the
/// threaded log must still be byte-identical to the serial one.
#[test]
fn threaded_mesh_and_tiered_logs_match_serial() {
    for (topo, tag) in [
        (
            TopologySpec::ErdosRenyi {
                edge_prob: 0.3,
                seed: 7,
            },
            "mesh-par",
        ),
        (TopologySpec::Tiered { gateways: 2 }, "tiered-par"),
    ] {
        let (serial, _) = routed_threaded(topo, tag, 0, 1);
        for threads in [3, 8] {
            let (threaded, _) = routed_threaded(topo, tag, 1, threads);
            assert_eq!(
                serial, threaded,
                "{tag}: threaded (t={threads}) log diverged from serial"
            );
        }
    }
}

#[test]
fn distinct_seeds_give_distinct_meshes() {
    // Sanity that the mesh golden is not vacuous: a different graph
    // seed actually changes the log.
    let (a, _) = routed(
        TopologySpec::ErdosRenyi {
            edge_prob: 0.3,
            seed: 7,
        },
        "seed7",
        0,
    );
    let (b, _) = routed(
        TopologySpec::ErdosRenyi {
            edge_prob: 0.3,
            seed: 8,
        },
        "seed8",
        0,
    );
    assert_ne!(a, b, "graph seed had no effect on the event log");
}

/// A multiplexed tier graph, pinned at every shard count: with
/// multiplex 3 a node's index is not its position, and the sensor,
/// gateway and cloud tiers differ in compute rate and hops to the
/// sink, so a per-position table read by node index (or a per-node
/// copy gone stale) moves these values. No observer is attached: in
/// release builds this runs the kernel's no-record path.
#[test]
fn multiplexed_tiered_offload_matches_its_pin() {
    for threads in [1, 2, 3] {
        let mut cfg =
            SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 9);
        cfg.positions = 12;
        cfg.multiplex = 3;
        cfg.slots = 200;
        cfg.topology = TopologySpec::Tiered { gateways: 2 };
        cfg.balancer = BalancerKind::Offload;
        cfg.threads = threads;
        let mut sim = Simulator::new(cfg).expect("valid config");
        sim.advance(200);
        let digest = sim.state_digest();
        let m = sim.run().metrics;
        let executed: u64 = m.nodes.iter().map(|n| n.tasks_executed).sum();
        assert_eq!(
            (digest, m.total_processed(), executed, m.offload_decisions),
            (0xc819_8bb9_bf10_d0d1, 2326, 2379, 66),
            "threads={threads}: tiered multiplex-3 Offload run drifted from its pin"
        );
    }
}
