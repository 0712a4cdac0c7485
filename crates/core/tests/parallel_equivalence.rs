//! The sharded slot kernel's contract: for ANY thread count, a
//! threaded `advance()` produces a byte-identical event log and
//! identical durable column state to the serial path.
//!
//! The shard layer (see `sim/shard.rs`) argues this analytically —
//! position-aligned shards share no mutable state, per-shard event
//! buffers replay stage by stage in node order, and the chain relay
//! fold is an exact `u64` suffix-sum decomposition. This file checks
//! the claim empirically: a fixed matrix of topology × multiplex ×
//! thread-count cases, plus a proptest sweeping random fleets,
//! topologies and shard counts 1..=16. The counters are compared on
//! the default path too — no event log, no observer — where the
//! shards record no events and the kernel's sinks are the only
//! writers of `SimResult::metrics`.
//!
//! Recording is checked as well: the kernel fuses each barrier's
//! phases into one pass per shard whether or not an observer listens,
//! and an attached observer only makes the shard sinks record (and the
//! coordinator replay) events. A run with an observer and one without
//! must leave the same node state and counters. Debug builds always
//! attach the conservation `LedgerObserver`, so only release builds
//! exercise the unrecorded side.

use neofog_core::sim::{BalancerKind, SimConfig, SimEvent, SimObserver, Simulator};
use neofog_core::{NetworkMetrics, SystemKind};
use neofog_energy::Scenario;
use neofog_net::TopologySpec;
use proptest::prelude::*;

/// Runs `cfg` for `slots` slots at `threads` workers, returning the
/// state digest and the full event-log bytes.
fn run_threaded(mut cfg: SimConfig, slots: u64, threads: usize, tag: &str) -> (u64, String) {
    let path = std::env::temp_dir().join(format!(
        "neofog-par-equiv-{}-{tag}-t{threads}.jsonl",
        std::process::id()
    ));
    cfg.threads = threads;
    cfg.events_path = Some(path.display().to_string());
    let mut sim = Simulator::new(cfg).expect("valid config");
    sim.advance(slots);
    let digest = sim.state_digest();
    // The JSONL observer buffers; dropping the simulator flushes it.
    drop(sim);
    let text = std::fs::read_to_string(&path).expect("event log written");
    std::fs::remove_file(&path).ok();
    (digest, text)
}

fn base_cfg(system: SystemKind, positions: usize, multiplex: u32, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(system, Scenario::ForestIndependent, seed);
    cfg.positions = positions;
    cfg.multiplex = multiplex;
    cfg.slots = 40;
    cfg
}

/// Asserts serial ≡ threaded for one configuration across a spread of
/// thread counts (including more threads than positions).
fn assert_equivalent(cfg: &SimConfig, slots: u64, tag: &str, threads: &[usize]) {
    let (serial_digest, serial_log) = run_threaded(cfg.clone(), slots, 1, tag);
    for &t in threads {
        let (digest, log) = run_threaded(cfg.clone(), slots, t, tag);
        assert_eq!(
            serial_log,
            log,
            "{tag}: event log diverged at threads={t} (serial={} vs {} bytes)",
            serial_log.len(),
            log.len()
        );
        assert_eq!(
            serial_digest, digest,
            "{tag}: column state diverged at threads={t}"
        );
    }
}

#[test]
fn chain_threaded_matches_serial_across_systems() {
    for system in SystemKind::ALL {
        let cfg = base_cfg(system, 10, 1, 1);
        assert_equivalent(&cfg, 40, &format!("chain-{system:?}"), &[2, 3, 8, 16]);
    }
}

#[test]
fn multiplexed_chain_threaded_matches_serial() {
    // Position-aligned shard boundaries with 3 clones per position.
    let cfg = base_cfg(SystemKind::FiosNeoFog, 12, 3, 5);
    assert_equivalent(&cfg, 40, "chain-multiplex", &[2, 5, 12, 16]);
}

#[test]
fn mesh_threaded_matches_serial() {
    let mut cfg = base_cfg(SystemKind::FiosNeoFog, 12, 1, 7);
    cfg.topology = TopologySpec::ErdosRenyi {
        edge_prob: 0.3,
        seed: 7,
    };
    cfg.balancer = BalancerKind::Offload;
    assert_equivalent(&cfg, 40, "mesh", &[2, 4, 16]);
}

#[test]
fn tiered_threaded_matches_serial() {
    let mut cfg = base_cfg(SystemKind::FiosNeoFog, 12, 1, 9);
    cfg.topology = TopologySpec::Tiered { gateways: 2 };
    cfg.balancer = BalancerKind::Offload;
    assert_equivalent(&cfg, 40, "tiered", &[2, 4, 16]);
}

/// Runs `cfg` over its whole window at `threads` workers with no event
/// log and no observer attached, returning the kernel's counters.
fn unobserved_metrics(mut cfg: SimConfig, threads: usize) -> NetworkMetrics {
    cfg.threads = threads;
    cfg.events_path = None;
    Simulator::new(cfg).expect("valid config").run().metrics
}

#[test]
fn unobserved_metrics_match_serial_at_every_thread_count() {
    let mut mesh = base_cfg(SystemKind::FiosNeoFog, 12, 1, 7);
    mesh.topology = TopologySpec::ErdosRenyi {
        edge_prob: 0.3,
        seed: 7,
    };
    mesh.balancer = BalancerKind::Offload;
    let mut tiered = base_cfg(SystemKind::FiosNeoFog, 12, 1, 9);
    tiered.topology = TopologySpec::Tiered { gateways: 2 };
    tiered.balancer = BalancerKind::Offload;
    let cases = [
        ("chain", base_cfg(SystemKind::FiosNeoFog, 10, 1, 1)),
        (
            "chain-multiplex3",
            base_cfg(SystemKind::FiosNeoFog, 12, 3, 5),
        ),
        ("mesh-offload", mesh),
        ("tiered-offload", tiered),
    ];
    for (tag, cfg) in cases {
        let serial = unobserved_metrics(cfg.clone(), 1);
        assert!(serial.total_wakeups() > 0, "{tag}: nothing happened");
        for threads in [2, 3, 8, 16] {
            assert_eq!(
                serial,
                unobserved_metrics(cfg.clone(), threads),
                "{tag}: metrics diverged at threads={threads}"
            );
        }
    }
}

/// Miri-sized shard check: a fleet small enough for the interpreter,
/// driven through the real fork/splice machinery at three threads.
/// No event-log file — miri's isolation has no temp dir — so the
/// assertion rides on the durable-column digest alone; the byte-exact
/// event-stream half of the contract is pinned by the tests above.
/// CI's nightly miri job runs exactly this test by name.
#[test]
fn sharded_drive_small_fleet_threads3_matches_serial() {
    let mut cfg = base_cfg(SystemKind::FiosNeoFog, 6, 1, 11);
    cfg.slots = 8;
    let mut serial = Simulator::new(cfg.clone()).expect("valid config");
    serial.advance(8);
    let mut threaded_cfg = cfg;
    threaded_cfg.threads = 3;
    let mut threaded = Simulator::new(threaded_cfg).expect("valid config");
    threaded.advance(8);
    assert_eq!(
        serial.state_digest(),
        threaded.state_digest(),
        "column state diverged between serial and threads=3"
    );
}

#[test]
fn threads_zero_resolves_and_matches_serial() {
    let cfg = base_cfg(SystemKind::FiosNeoFog, 10, 1, 3);
    assert_equivalent(&cfg, 40, "threads-zero", &[0]);
}

#[test]
fn set_threads_mid_run_keeps_the_stream() {
    // Flip thread counts between advances: the log must match an
    // all-serial run slot for slot.
    let tag = "midrun";
    let cfg = base_cfg(SystemKind::FiosNeoFog, 10, 1, 4);
    let (_, serial_log) = run_threaded(cfg.clone(), 30, 1, tag);
    let path = std::env::temp_dir().join(format!(
        "neofog-par-equiv-{}-{tag}-mixed.jsonl",
        std::process::id()
    ));
    let mut mixed = cfg;
    mixed.events_path = Some(path.display().to_string());
    let mut sim = Simulator::new(mixed).expect("valid config");
    sim.advance(10);
    sim.set_threads(4);
    sim.advance(10);
    sim.set_threads(2);
    sim.advance(10);
    drop(sim);
    let mixed_log = std::fs::read_to_string(&path).expect("event log written");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        serial_log, mixed_log,
        "thread-count flips changed the stream"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random fleets, topologies and shard counts: threaded advance()
    /// is indistinguishable from serial.
    #[test]
    fn random_fleet_threaded_matches_serial(
        positions in 2usize..14,
        multiplex in 1u32..4,
        threads in 1usize..17,
        topo_pick in 0u8..3,
        seed in 0u64..1000,
    ) {
        let mut cfg = base_cfg(SystemKind::FiosNeoFog, positions, multiplex, seed);
        cfg.slots = 24;
        match topo_pick {
            0 => {}
            1 => {
                cfg.topology = TopologySpec::ErdosRenyi { edge_prob: 0.4, seed };
                cfg.balancer = BalancerKind::Offload;
            }
            _ => {
                if positions >= 4 {
                    cfg.topology = TopologySpec::Tiered { gateways: 2 };
                    cfg.balancer = BalancerKind::Offload;
                }
            }
        }
        let tag = format!("prop-{positions}-{multiplex}-{threads}-{topo_pick}-{seed}");
        let (serial_digest, serial_log) = run_threaded(cfg.clone(), 24, 1, &tag);
        let (digest, log) = run_threaded(cfg, 24, threads, &tag);
        prop_assert_eq!(serial_log, log, "event log diverged");
        prop_assert_eq!(serial_digest, digest, "column state diverged");
    }
}

/// An observer that ignores every event: attaching it only makes the
/// shard sinks record events for replay.
struct Silent;

impl SimObserver for Silent {
    fn on_event(&mut self, _event: &SimEvent) {}
}

/// Runs `cfg` over its whole window — with [`Silent`] attached when
/// `observed` — and returns the durable-state digest and the counters.
fn digest_and_metrics(cfg: SimConfig, observed: bool) -> (u64, NetworkMetrics) {
    let slots = cfg.slots;
    let mut sim = Simulator::new(cfg).expect("valid config");
    if observed {
        sim.attach_observer(Box::new(Silent));
    }
    sim.advance(slots);
    let digest = sim.state_digest();
    (digest, sim.run().metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Runs without an observer and runs that record events for one
    /// agree on every topology, balancer, system, multiplex factor and
    /// thread count, stored-energy series included.
    #[test]
    fn recording_events_changes_no_state(
        positions in 4usize..14,
        multiplex_pick in 0u8..2,
        threads in 1usize..9,
        topo_pick in 0u8..3,
        balancer_pick in 0u8..4,
        system_pick in 0usize..3,
        seed in 0u64..1000,
    ) {
        let system = SystemKind::ALL[system_pick];
        let multiplex = if multiplex_pick == 0 { 1 } else { 3 };
        let mut cfg = base_cfg(system, positions, multiplex, seed);
        cfg.slots = 24;
        cfg.threads = threads;
        cfg.trace_stored = true;
        cfg.topology = match topo_pick {
            0 => TopologySpec::default(),
            1 => TopologySpec::ErdosRenyi { edge_prob: 0.4, seed },
            _ => TopologySpec::Tiered { gateways: 2 },
        };
        cfg.balancer = [
            BalancerKind::None,
            BalancerKind::Tree,
            BalancerKind::Distributed,
            BalancerKind::Offload,
        ][usize::from(balancer_pick)];
        let (plain_digest, plain) = digest_and_metrics(cfg.clone(), false);
        let (observed_digest, observed) = digest_and_metrics(cfg, true);
        prop_assert!(observed.total_wakeups() > 0, "nothing happened");
        prop_assert_eq!(plain_digest, observed_digest, "node state diverged");
        prop_assert_eq!(plain, observed, "counters diverged");
    }
}
