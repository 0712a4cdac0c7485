//! Steady-state allocation discipline for the slot loop.
//!
//! The scratch [`SlotCtx`] retains its vectors across slots, so after
//! a short warm-up (first slots grow the scratch and the per-node
//! queues to their working capacity) the phase pipeline must perform
//! **zero heap allocations per slot**. A counting global allocator
//! snapshots the allocation counter at slot boundaries through an
//! attached observer and asserts the steady-state window allocates
//! nothing.
//!
//! Scope: the balance phase is excluded (`BalancerKind::None`) — the
//! tree and distributed balancers still build their per-slot task
//! views on the heap, which DESIGN.md §11 records as a known,
//! fog-only caveat.
//!
//! The process-wide allocation counter sees every thread, so every
//! case takes the file's [`serial`] lock first: the harness runs tests
//! on parallel threads, and an unlocked case would count its
//! neighbours' allocations. The lock cannot silence the harness itself
//! (starting the next test, reporting the last), so single-threaded
//! cases count only their own thread's allocations, and threaded cases
//! — whose workers allocate on other threads — take the minimum over
//! repeated windows: the kernel is deterministic, so its allocations
//! recur in every window, while outside noise only ever adds.

use neofog_alloc_probe::{allocation_count, thread_allocation_count, CountingAlloc};
use neofog_core::sim::{BalancerKind, SimConfig, SimEvent, SimObserver, Simulator};
use neofog_core::SystemKind;
use neofog_energy::Scenario;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard};

// The counting allocator lives in `neofog-alloc-probe` — the one crate
// allowed to hold unsafe code (the workspace forbids it everywhere
// else). It counts every allocation and reallocation; frees don't
// matter for the discipline, growth is what it forbids.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serialises the cases of this file around the global counter.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// Takes the counter lock (a failed case poisons it; the next case
/// still measures correctly, so the poison is ignored).
fn serial() -> MutexGuard<'static, ()> {
    COUNTER_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Records `counter` at the start of `from_slot` and at every later
/// slot boundary, without allocating itself.
struct SlotAllocProbe {
    from_slot: u64,
    counter: fn() -> u64,
    at_warmup: Rc<Cell<u64>>,
    at_last: Rc<Cell<u64>>,
}

impl SimObserver for SlotAllocProbe {
    fn on_event(&mut self, event: &SimEvent) {
        if let SimEvent::SlotBegan { slot } = event {
            let count = (self.counter)();
            if *slot == self.from_slot {
                self.at_warmup.set(count);
            } else if *slot > self.from_slot {
                self.at_last.set(count);
            }
        }
    }
}

/// Steady-state allocations of a serial (`threads = 1`) run, counted
/// on the calling thread — the only thread the serial kernel uses.
fn steady_state_allocs(cfg: SimConfig, warmup_slots: u64) -> u64 {
    assert_eq!(
        cfg.threads, 1,
        "threaded runs need `threaded_steady_state_allocs`"
    );
    probed_allocs(cfg, warmup_slots, thread_allocation_count)
}

/// Steady-state allocations of a threaded run on the process-wide
/// counter, as the minimum over three identical runs (see the module
/// docs).
fn threaded_steady_state_allocs(cfg: &SimConfig, warmup_slots: u64) -> u64 {
    (0..3)
        .map(|_| probed_allocs(cfg.clone(), warmup_slots, allocation_count))
        .min()
        .unwrap_or(0)
}

fn probed_allocs(mut cfg: SimConfig, warmup_slots: u64, counter: fn() -> u64) -> u64 {
    let at_warmup = Rc::new(Cell::new(0));
    let at_last = Rc::new(Cell::new(0));
    cfg.balancer = BalancerKind::None;
    let mut sim = Simulator::new(cfg).expect("valid config");
    sim.attach_observer(Box::new(SlotAllocProbe {
        from_slot: warmup_slots,
        counter,
        at_warmup: at_warmup.clone(),
        at_last: at_last.clone(),
    }));
    let _ = sim.run();
    // Window: everything between the start of slot `warmup_slots` and
    // the start of the final slot (the probe never sees the last
    // slot's own work, which is fine — it is identical to its
    // predecessors).
    at_last.get().saturating_sub(at_warmup.get())
}

/// Allocations of `slots` steady-state slots driven by `advance` with
/// no observer attached — the counters-only path, where the shards
/// record no events at all (release builds; debug builds always
/// attach the conservation ledger). Counted like the probed helpers:
/// per thread when serial, minimum of three process-wide windows when
/// threaded.
fn unobserved_steady_state_allocs(mut cfg: SimConfig, warmup_slots: u64, slots: u64) -> u64 {
    cfg.balancer = BalancerKind::None;
    let counter: fn() -> u64 = if cfg.threads == 1 {
        thread_allocation_count
    } else {
        allocation_count
    };
    let mut sim = Simulator::new(cfg).expect("valid config");
    sim.advance(warmup_slots);
    (0..3)
        .map(|_| {
            let before = counter();
            sim.advance(slots);
            counter() - before
        })
        .min()
        .unwrap_or(0)
}

#[test]
fn slot_loop_is_allocation_free_after_warmup() {
    let _serial = serial();
    // Both front-end families, both trace recipes: the volatile NOS
    // baseline and the full FIOS fog system (balance excluded — see
    // the module docs), in an ample and a scarce energy regime.
    let cases = [
        (SystemKind::NosVp, Scenario::ForestIndependent),
        (SystemKind::FiosNeoFog, Scenario::ForestIndependent),
        (SystemKind::FiosNeoFog, Scenario::MountainRainy),
    ];
    for (system, scenario) in cases {
        let mut cfg = SimConfig::paper_default(system, scenario, 1);
        cfg.slots = 300;
        // The first slots grow the scratch vectors and per-node queues
        // to working capacity; 16 slots is comfortably past that.
        let allocs = steady_state_allocs(cfg, 16);
        assert_eq!(
            allocs, 0,
            "{system:?}/{scenario:?}: steady-state slots allocated {allocs} times"
        );
    }
}

#[test]
fn multiplexed_slot_loop_is_allocation_free_after_warmup() {
    let _serial = serial();
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::BridgeDependent, 1);
    cfg.slots = 300;
    cfg.multiplex = 3;
    let allocs = steady_state_allocs(cfg, 16);
    assert_eq!(allocs, 0, "multiplex-3 steady state allocated {allocs}");
}

#[test]
fn wide_chain_columnar_sweeps_are_allocation_free_after_warmup() {
    let _serial = serial();
    // A 1000-position chain: the columnar sweeps (harvest, wake,
    // compute skip, transmit relay fold, slot end) each walk
    // thousand-element columns, and `begin_slot`'s in-place fills plus
    // the transmit suffix-sum must not regrow anything. The trace
    // resolution is coarsened to the slot length so the per-node
    // curves stay small at this width.
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 1);
    cfg.positions = 1_000;
    cfg.slots = 60;
    cfg.trace_dt = cfg.slot_len;
    let allocs = steady_state_allocs(cfg, 16);
    assert_eq!(allocs, 0, "wide-chain steady state allocated {allocs}");
}

#[test]
fn mesh_slot_loop_is_allocation_free_after_warmup() {
    let _serial = serial();
    // A routed mesh: the transmit relay fold walks the topological
    // sweep order instead of the chain's reverse suffix-sum, and the
    // route accumulator (`SlotCtx::route_acc`) is resized once during
    // warm-up. Steady state must stay allocation-free on the general
    // path too (balance excluded, as everywhere in this file).
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 1);
    cfg.positions = 200;
    cfg.slots = 120;
    cfg.topology = neofog_net::TopologySpec::ErdosRenyi {
        edge_prob: 0.05,
        seed: 7,
    };
    let allocs = steady_state_allocs(cfg, 16);
    assert_eq!(allocs, 0, "mesh steady state allocated {allocs}");
}

#[test]
fn tiered_slot_loop_is_allocation_free_after_warmup() {
    let _serial = serial();
    let mut cfg = SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 1);
    cfg.positions = 120;
    cfg.slots = 120;
    cfg.topology = neofog_net::TopologySpec::Tiered { gateways: 4 };
    let allocs = steady_state_allocs(cfg, 16);
    assert_eq!(allocs, 0, "tiered steady state allocated {allocs}");
}

#[test]
fn threaded_slot_loop_allocations_are_constant_in_fleet_size() {
    let _serial = serial();
    // The sharded kernel spawns scoped threads per parallel round, and
    // `std::thread::scope` allocates per spawn — a fixed per-slot cost
    // the global counter sees regardless of which worker allocated.
    // The discipline for the threaded path is therefore: once shard
    // scratch is warm, steady-state allocations are a constant of the
    // thread count alone — growing the fleet 8× must not add a single
    // allocation (no per-node or per-event heap traffic on any worker).
    let allocs_at = |positions: usize| {
        let mut cfg =
            SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 1);
        cfg.positions = positions;
        cfg.slots = 60;
        cfg.trace_dt = cfg.slot_len;
        cfg.threads = 4;
        threaded_steady_state_allocs(&cfg, 16)
    };
    let small = allocs_at(250);
    let large = allocs_at(2_000);
    assert_eq!(
        small, large,
        "threaded steady-state allocations scale with fleet size \
         (250 positions: {small}, 2000 positions: {large})"
    );
}

#[test]
fn unobserved_slot_loop_is_allocation_free_after_warmup() {
    // No observer attached: the kernel folds its counters through the
    // shard sinks and builds no events. At threads 1 the single shard
    // runs inline, so steady state allocates nothing at all. At
    // threads 2 the only heap traffic left is `std::thread::scope`'s
    // per-spawn bookkeeping — one spawn per forked phase — so it must
    // not grow with the fleet: no per-node, per-event or spill
    // allocation on either worker.
    let _serial = serial();
    let cfg_at = |positions: usize, threads: usize| {
        let mut cfg =
            SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, 1);
        cfg.positions = positions;
        cfg.slots = 60;
        cfg.trace_dt = cfg.slot_len;
        cfg.threads = threads;
        cfg
    };
    for positions in [250, 2_000] {
        let allocs = unobserved_steady_state_allocs(cfg_at(positions, 1), 16, 32);
        assert_eq!(
            allocs, 0,
            "threads=1, {positions} positions: unobserved steady state allocated {allocs}"
        );
    }
    let small = unobserved_steady_state_allocs(cfg_at(250, 2), 16, 32);
    let large = unobserved_steady_state_allocs(cfg_at(2_000, 2), 16, 32);
    assert_eq!(
        small, large,
        "threads=2: unobserved steady-state allocations scale with fleet size \
         (250 positions: {small}, 2000 positions: {large})"
    );
}
