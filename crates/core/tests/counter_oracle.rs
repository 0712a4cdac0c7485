//! One meaning per counter: the slot kernel writes `NetworkMetrics`
//! and the Figure-9 stored-energy series itself, and the event stream
//! is an optional tap. This file checks that the two never disagree —
//! folding the events into the [`MetricsObserver`] and
//! [`StoredTraceObserver`] oracles gives exactly the kernel's result,
//! and the kernel's result does not depend on whether anyone listens.

use neofog_core::sim::{
    BalancerKind, MetricsObserver, SimConfig, SimEvent, SimObserver, Simulator, StoredTraceObserver,
};
use neofog_core::{NetworkMetrics, SystemKind};
use neofog_energy::Scenario;
use neofog_net::TopologySpec;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// An observer the test keeps a handle to after the simulator owns it.
struct Shared<O>(Rc<RefCell<O>>);

impl<O: SimObserver> SimObserver for Shared<O> {
    fn on_event(&mut self, event: &SimEvent) {
        self.0.borrow_mut().on_event(event);
    }

    fn on_finish(&mut self) {
        self.0.borrow_mut().on_finish();
    }
}

/// Runs `cfg` with both oracles attached, returning the kernel's
/// metrics and the oracles' fold (stored series merged in).
fn observed(cfg: SimConfig) -> (NetworkMetrics, NetworkMetrics) {
    let physical = cfg.positions * cfg.multiplex as usize;
    let metrics = Rc::new(RefCell::new(MetricsObserver::new(physical)));
    let trace = Rc::new(RefCell::new(StoredTraceObserver::new(physical)));
    let mut sim = Simulator::new(cfg).expect("valid config");
    sim.attach_observer(Box::new(Shared(Rc::clone(&metrics))));
    sim.attach_observer(Box::new(Shared(Rc::clone(&trace))));
    let kernel = sim.run().metrics;
    let mut oracle = metrics.borrow().metrics().clone();
    trace.borrow().clone().merge_into(&mut oracle);
    (kernel, oracle)
}

fn cfg(positions: usize, multiplex: u32, threads: usize, topo: u8, seed: u64) -> SimConfig {
    let mut cfg =
        SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, seed);
    cfg.positions = positions;
    cfg.multiplex = multiplex;
    cfg.slots = 24;
    cfg.threads = threads;
    cfg.trace_stored = true;
    match topo {
        0 => {}
        1 => {
            cfg.topology = TopologySpec::ErdosRenyi {
                edge_prob: 0.4,
                seed,
            };
            cfg.balancer = BalancerKind::Offload;
        }
        _ => {
            cfg.topology = TopologySpec::Tiered { gateways: 2 };
            cfg.balancer = BalancerKind::Offload;
        }
    }
    cfg
}

#[test]
fn oracle_fold_matches_the_kernel_on_every_system() {
    for system in SystemKind::ALL {
        let mut c = cfg(10, 1, 1, 0, 1);
        c.system = system;
        c.balancer = BalancerKind::default_for(system);
        c.slots = 150;
        let (kernel, oracle) = observed(c);
        assert_eq!(kernel.nodes[0].stored_series.len(), 150);
        assert_eq!(
            kernel, oracle,
            "{system:?}: event fold disagrees with the kernel"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random topology × multiplex × threads: the oracle fold of the
    /// event stream equals the kernel's counters and stored series, and
    /// attaching the oracles leaves the kernel's result unchanged.
    #[test]
    fn event_fold_equals_kernel_counters(
        positions in 4usize..14,
        multiplex in 1u32..4,
        threads in 1usize..9,
        topo in 0u8..3,
        seed in 0u64..1000,
    ) {
        let c = cfg(positions, multiplex, threads, topo, seed);
        let unobserved = Simulator::new(c.clone()).expect("valid config").run().metrics;
        let (kernel, oracle) = observed(c);
        prop_assert_eq!(&kernel, &oracle, "event fold disagrees with the kernel");
        prop_assert_eq!(&unobserved, &kernel, "listening changed the kernel's counters");
    }
}
