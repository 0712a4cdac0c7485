//! The slot-driven WSN system simulator (paper §4), structured as a
//! phase pipeline of per-node stages.
//!
//! One simulator instance models one chain of logical positions (10 in
//! every figure), optionally NVD4Q-multiplexed so each position is
//! implemented by `M` physical clones. Time advances in RTC slots
//! (default 12 s × 1500 slots = the paper's 5-hour window, in which 10
//! always-on nodes would ideally deliver 15 000 data packages).
//!
//! # The phase pipeline
//!
//! Every slot resets the simulator-owned scratch
//! [`SlotCtx`](ctx::SlotCtx) (budgets, wake flags, conservation
//! ledgers — cleared and refilled in place so the steady-state loop
//! never allocates) and runs six phases over it, in order — one module
//! per phase:
//!
//! 1. [`harvest`] — each physical node reads its prefix-summed income
//!    curve over the slot (O(1) per node),
//!    feeds the RTC capacitor first (charging priority), then builds
//!    its slot energy budget through its front-end: FIOS nodes get a
//!    90 %-efficient direct pool plus the capacitor; NOS nodes only
//!    the capacitor round-trip.
//! 2. [`wake`] — nodes scheduled this slot (their clone phase) wake if
//!    they can afford the activation threshold; a scheduled node that
//!    cannot is a *failure* (energy depletion). Awake nodes capture one
//!    data package; fog-capable nodes also enqueue its processing task.
//! 3. [`balance`] — the configured intra-chain balancer redistributes
//!    fog tasks among the awake representatives using their Spendthrift
//!    state; transfer traffic is charged.
//! 4. [`compute`] — fog tasks execute within each node's time and
//!    energy budget (forward progress persists across slots on NVPs);
//!    stale pending packages are shed or shipped raw.
//! 5. [`transmit`] — nodes with ready packages open a radio session
//!    (531 ms software init / 33 ms NVM restore / 1.9 ms NVRF start
//!    depending on the system) and ship packages into the chain mesh;
//!    the MAC layer relays transparently (§2.3), so delivery succeeds
//!    with the measured per-hop probability compounded over the hop
//!    count, and awake intermediate nodes are charged forwarding
//!    airtime. Packages whose relay duty cannot be paid are lost.
//! 6. [`slot_end`] — volatile nodes lose their queues; capacitors
//!    leak; conservation ledgers settle.
//!
//! # Passes per barrier
//!
//! Each element-wise phase body is a per-node *stage* (harvest, wake,
//! the balance-credit spend, compute exec, stale shed, transmit send,
//! relay duty, slot end), and each body exists once. A slot has only
//! two cross-node barriers: the serial balancer call, present only
//! when a balancer is configured on a fog-capable system, and the
//! transmit relay fold, which needs every shard's sends. Everything
//! between two barriers runs as **one pass** over each shard, calling
//! a node's stages back to back in phase order, so a node's cold row
//! and queues are fetched from memory once per pass rather than once
//! per phase:
//!
//! * no balancer: harvest → wake → exec → shed → send, the fold, then
//!   relay duty → slot end — two fork rounds per slot;
//! * with a balancer: harvest → wake, the serial balancer, credit →
//!   exec → shed → send, the fold, then relay duty → slot end — three.
//!
//! For any one node the fused order *is* the phase order, so its `f64`
//! counter order is unchanged; cross-node counters (deliveries by
//! origin, network totals) are `u64`, and per-node RNG streams are
//! node-local, so the fused schedule is exact. It is the only
//! schedule: observed runs take it too. Each recorded event carries
//! the index of the stage that emitted it, and the coordinator replays
//! a pass's events stage-major, so event logs keep their phase-major
//! order (see `sim/shard.rs`).
//!
//! Each fact a stage reads is stored once: per-run values (`cfg.node`,
//! derived costs such as the transmit reserve) are captured by the
//! stage when it is built, and per-position tables (tier capabilities,
//! hop counts) are read through the node's `position`.
//!
//! # Counters and events
//!
//! The kernel owns its counters. Every observable state change is
//! described by a [`SimEvent`], and each phase sweep hands it to its
//! shard's sink, which applies the event's counter arithmetic straight
//! to the simulator-owned [`NetworkMetrics`] row it names — the paper's
//! counters never take a detour through an observer. The slot-end sweep
//! samples the Figure-9 stored-energy series the same way when
//! [`SimConfig::trace_stored`] is set.
//!
//! Events are opt-in taps. Only when an observer listens — the JSONL
//! [`EventLogObserver`] (`events_path`), the debug-build
//! [`LedgerObserver`], or anything attached via
//! [`Simulator::attach_observer`] — do the shards record their events,
//! which the coordinator replays in serial order. Observers are
//! write-only: attaching one can never change a [`SimResult`].
//! [`MetricsObserver`] and [`StoredTraceObserver`] remain as oracles:
//! folding the event stream into them reproduces the kernel's counters
//! and series exactly.

mod balance;
mod columns;
mod compute;
mod ctx;
mod event;
mod harvest;
mod ledger;
mod observe;
mod shard;
mod slot_end;
mod transmit;
mod wake;

pub use event::{RadioPurpose, ShedReason, SimEvent};
pub use ledger::LedgerObserver;
pub use observe::{
    render_jsonl, EventLogObserver, MetricsObserver, Observers, SimObserver, StoredTraceObserver,
};

use crate::balance::{
    DistributedBalancer, LoadBalancer, NoBalancer, OffloadBalancer, TreeBalancer,
};
use crate::metrics::NetworkMetrics;
use crate::node::{NodeCapabilities, NodeConfig, SystemKind, TierCapabilities};
use columns::{NodeCold, NodeColumns};
use ctx::SlotCtx;
use neofog_energy::{Rtc, Scenario, SuperCap, TraceGenerator};
use neofog_net::slots::SlotSchedule;
use neofog_net::{RoutePlan, TopologySpec};
use neofog_nvp::SpendthriftPolicy;
use neofog_rf::{LossModel, RfTimings};
use neofog_types::{Duration, Energy, NeoFogError, Power, Result, SimRng};
use serde::{Deserialize, Serialize};
use shard::run_stages;

/// Which balancer a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BalancerKind {
    /// No balancing at all.
    None,
    /// The baseline up-down tree balancer.
    Tree,
    /// The paper's distributed Algorithm-1 balancer.
    Distributed,
    /// The topology-aware offload balancer: compute-here vs
    /// ship-to-neighbour vs ship-to-cloud, priced by the radio
    /// front-end energy model.
    Offload,
}

impl BalancerKind {
    /// Instantiates the balancer (the distributed one uses the slot
    /// length, rounded up to whole seconds, as its `MAXTIME` call
    /// interval).
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::InvalidConfig`] for
    /// [`BalancerKind::Distributed`] with a sub-second slot length: the
    /// `MAXTIME` interval is counted in whole seconds, so rounding a
    /// sub-second slot up to 1 s would silently stretch the call
    /// interval past the slot.
    pub fn build(self, slot_len: Duration) -> Result<Box<dyn LoadBalancer>> {
        match self {
            BalancerKind::None => Ok(Box::new(NoBalancer)),
            BalancerKind::Tree => Ok(Box::new(TreeBalancer::new())),
            BalancerKind::Offload => Ok(Box::new(OffloadBalancer::new())),
            BalancerKind::Distributed => {
                let micros = slot_len.as_micros();
                if micros < 1_000_000 {
                    return Err(NeoFogError::invalid_config(format!(
                        "distributed balancer needs a slot length of at least 1 s \
                         (got {micros} µs)"
                    )));
                }
                let maxtime_secs = micros.div_ceil(1_000_000);
                Ok(Box::new(DistributedBalancer::new(maxtime_secs)))
            }
        }
    }

    /// The default balancer of each evaluated system.
    #[must_use]
    pub fn default_for(system: SystemKind) -> Self {
        match system {
            SystemKind::NosVp => BalancerKind::None,
            SystemKind::NosNvp => BalancerKind::Tree,
            SystemKind::FiosNeoFog => BalancerKind::Distributed,
        }
    }
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Node design under test.
    pub system: SystemKind,
    /// Intra-chain balancer.
    pub balancer: BalancerKind,
    /// Network topology the positions are wired into (chain, seeded
    /// mesh or sensor/gateway/cloud tiers); compiled once into an
    /// immutable [`RoutePlan`] at construction.
    pub topology: TopologySpec,
    /// Per-tier node capabilities (compute rate, radio envelope, link
    /// rates) applied by the node's route-plan tier.
    pub capabilities: TierCapabilities,
    /// Power-trace scenario.
    pub scenario: Scenario,
    /// Logical chain positions (the paper presents 10).
    pub positions: usize,
    /// NVD4Q multiplexing factor (1 = no virtualization).
    pub multiplex: u32,
    /// Number of RTC slots to simulate.
    pub slots: u64,
    /// Slot length.
    pub slot_len: Duration,
    /// Sampling interval of the synthesized power traces. The paper
    /// evaluation uses 1 s (several samples per 12 s slot); fleet-scale
    /// benchmarks coarsen it to `slot_len` so a 10⁶-node chain's curves
    /// fit in memory (per-node curve storage is proportional to
    /// `slots × slot_len / trace_dt`).
    pub trace_dt: Duration,
    /// Trace/loss random seed (the paper's "power profile" index).
    pub seed: u64,
    /// Per-node configuration.
    pub node: NodeConfig,
    /// Record per-slot stored energy (Figure 9) — memory-heavy.
    pub trace_stored: bool,
    /// Extra channel loss from weather (rainy scenarios).
    pub weather_loss: f64,
    /// Probability that a wake actually yields a usable sample; heavy
    /// rain degrades the sensing itself ("total successful sampling
    /// under the reduced power conditions reduces to 8000", §5.3).
    pub sampling_success: f64,
    /// Multiplier on every node's power trace (1.0 = the scenario's
    /// nominal level; Figure 9 uses a bright daytime window).
    pub income_scale: f64,
    /// Write a deterministic JSONL event log to this path (see
    /// [`EventLogObserver`]); `None` disables logging.
    pub events_path: Option<String>,
    /// Worker threads for the sharded slot kernel: `1` (the default)
    /// runs today's serial path, `0` resolves to the machine's
    /// available parallelism, and any other value forks that many
    /// position-aligned shards per pass. Every value
    /// produces a byte-identical event log (see `sim/shard.rs`).
    pub threads: usize,
}

impl SimConfig {
    /// The evaluation defaults: 10 positions, 1500 × 12 s slots
    /// (5 hours, 15 000 ideal packages), system-default balancer.
    #[must_use]
    pub fn paper_default(system: SystemKind, scenario: Scenario, seed: u64) -> Self {
        let mut node = NodeConfig::paper_default(system);
        // The forest and bridge deployments run the heavier offloaded
        // kernels (volumetric reconstruction / structural models); the
        // mountain nodes run a lighter slide detector.
        if matches!(
            scenario,
            Scenario::ForestIndependent | Scenario::BridgeDependent
        ) {
            node.package = crate::node::PackageSpec::heavy();
        }
        SimConfig {
            system,
            balancer: BalancerKind::default_for(system),
            topology: TopologySpec::default(),
            capabilities: TierCapabilities::paper_default(),
            scenario,
            positions: 10,
            multiplex: 1,
            slots: 1500,
            slot_len: Duration::from_secs(12),
            trace_dt: Duration::from_secs(1),
            seed,
            node,
            trace_stored: false,
            weather_loss: if scenario == Scenario::MountainRainy {
                0.03
            } else {
                0.0
            },
            sampling_success: if scenario == Scenario::MountainRainy {
                0.55
            } else {
                1.0
            },
            income_scale: 1.0,
            events_path: None,
            threads: 1,
        }
    }

    /// Ideal package count: one per position per slot.
    #[must_use]
    pub fn ideal_packages(&self) -> u64 {
        self.positions as u64 * self.slots
    }
}

/// Result of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// The configuration that produced it.
    pub config: SimConfig,
    /// All counters.
    pub metrics: NetworkMetrics,
}

impl SimResult {
    /// Convenience: total delivered / ideal.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        self.metrics.total_processed() as f64 / self.config.ideal_packages() as f64
    }
}

/// The simulator: durable node state plus the observer stack.
pub struct Simulator {
    cfg: SimConfig,
    /// Per-node state, columnar for the hot fields (see [`columns`]);
    /// position `p` owns nodes `p·M .. (p+1)·M`.
    nodes: NodeColumns,
    /// Compiled topology: next-hop table, hop counts, sweep order and
    /// CSR adjacency — the slot loop never does graph search.
    route: RoutePlan,
    /// Per-position capability rows, derived from each position's
    /// tier: the only copy, read by position.
    caps: Vec<NodeCapabilities>,
    balancer: Box<dyn LoadBalancer>,
    loss: LossModel,
    rf: RfTimings,
    spendthrift: SpendthriftPolicy,
    rng: SimRng,
    /// The result counters, written by the slot kernel itself.
    metrics: NetworkMetrics,
    /// Event taps: debug ledger checks, the JSONL event log and
    /// anything attached via [`Simulator::attach_observer`]. Empty
    /// means no events are built at all.
    observers: Observers,
    /// Reusable per-slot scratch: cleared and refilled every slot so
    /// the steady-state loop allocates nothing after warm-up.
    scratch: SlotCtx,
    /// Slots advanced so far (see [`Simulator::advance`]).
    next_slot: u64,
}

/// Resolves a [`SimConfig::threads`] knob to a concrete worker count:
/// `0` means the machine's available parallelism (the same recipe the
/// work-stealing pool uses), anything else is taken as-is, floored at 1.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZero::get)
    } else {
        threads
    }
}

/// The simulation state a phase may read and mutate: node state, the
/// result counters and the event taps, as disjoint borrows.
pub(crate) struct SimParts<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) nodes: &'a mut NodeColumns,
    pub(crate) route: &'a RoutePlan,
    pub(crate) caps: &'a [NodeCapabilities],
    pub(crate) balancer: &'a mut Box<dyn LoadBalancer>,
    pub(crate) loss: &'a LossModel,
    pub(crate) rf: &'a RfTimings,
    pub(crate) spendthrift: &'a SpendthriftPolicy,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) metrics: &'a mut NetworkMetrics,
    pub(crate) observers: &'a mut Observers,
}

impl SimParts<'_> {
    /// Books a network-level event from the serial coordinator (the
    /// balance and offload counters) and hands it to the taps.
    pub(crate) fn emit_network(&mut self, event: SimEvent) {
        observe::fold_network(self.metrics, &event);
        self.observers.on_event(&event);
    }
}

impl Simulator {
    /// Builds a simulator (generating per-node power traces).
    ///
    /// # Errors
    ///
    /// Returns [`NeoFogError::InvalidConfig`] when the balancer rejects
    /// the slot length (see [`BalancerKind::build`]) or when
    /// `events_path` cannot be created.
    pub fn new(cfg: SimConfig) -> Result<Self> {
        let physical = cfg.positions * cfg.multiplex as usize;
        let gen = TraceGenerator::new(cfg.scenario, cfg.seed);
        let total_time = Duration::from_micros(cfg.slot_len.as_micros() * cfg.slots);
        let trace_dt = cfg.trace_dt;
        // One plan for the whole chain: dependent scenarios synthesize
        // their shared base curve exactly once here, instead of once
        // per physical node.
        let plan = gen.chain_plan(physical, total_time, trace_dt);
        // Compile the topology once: the slot loop only reads the
        // resulting next-hop/hops/order tables.
        let route = cfg.topology.build(cfg.positions)?;
        let caps: Vec<NodeCapabilities> = (0..cfg.positions)
            .map(|p| cfg.capabilities.for_tier(route.tier(p)))
            .collect();
        let mut rng = SimRng::seed_from(cfg.seed ^ 0x5EED);
        let mut nodes = NodeColumns::with_capacity(physical, cfg.node.front_end);
        for p in 0..cfg.positions {
            for k in 0..cfg.multiplex {
                let idx = nodes.len();
                let schedule = if cfg.multiplex == 1 {
                    SlotSchedule::every_slot()
                } else {
                    SlotSchedule::new(cfg.multiplex, k)
                };
                let curve = plan.node_curve(idx, cfg.income_scale);
                let cap = SuperCap::new(cfg.node.cap_capacity)
                    .with_charge_efficiency(0.65)
                    .with_leak(cfg.node.cap_leak)
                    .with_initial(cfg.node.cap_capacity * cfg.node.initial_charge);
                let rtc = Rtc::new(Energy::from_millijoules(5.0), Power::from_microwatts(2.0));
                let cold = NodeCold {
                    curve,
                    pending: Vec::with_capacity(ctx::QUEUE_RESERVE),
                    outbox: Vec::with_capacity(ctx::QUEUE_RESERVE),
                    rng: rng.fork(idx as u64),
                };
                nodes.push_node(cap, rtc, schedule, p, cold);
            }
        }
        let loss = LossModel::paper_default().with_weather_loss(cfg.weather_loss);
        let balancer = cfg.balancer.build(cfg.slot_len)?;
        let mut metrics = NetworkMetrics::new(physical);
        if cfg.trace_stored {
            let slots = usize::try_from(cfg.slots).unwrap_or(0);
            for row in &mut metrics.nodes {
                row.stored_series.reserve(slots);
            }
        }
        let mut observers = Observers::default();
        #[cfg(debug_assertions)]
        observers.push(Box::new(LedgerObserver));
        if let Some(path) = &cfg.events_path {
            observers.push(Box::new(EventLogObserver::create(path)?));
        }
        let threads = resolve_threads(cfg.threads);
        Ok(Simulator {
            nodes,
            route,
            caps,
            balancer,
            loss,
            rf: RfTimings::paper_default(),
            spendthrift: SpendthriftPolicy::paper_default(),
            rng: SimRng::seed_from(cfg.seed ^ 0xBA1A),
            metrics,
            observers,
            scratch: SlotCtx::warmed(physical, cfg.positions, threads),
            next_slot: 0,
            cfg,
        })
    }

    /// Changes the shard-kernel worker count mid-life (`0` = available
    /// parallelism), re-warming the per-shard scratch. Determinism is
    /// unaffected — every thread count produces the same event stream —
    /// so benchmarks reuse one built simulator across thread variants.
    pub fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads;
        let physical = self.nodes.len();
        self.scratch
            .warm_shards(physical, self.cfg.positions, resolve_threads(threads));
    }

    /// Attaches an event tap behind the built-in ones (delivery order:
    /// the debug ledger, the `events_path` log, then attach order).
    /// From the next slot on, the shards record their events for it.
    pub fn attach_observer(&mut self, observer: Box<dyn SimObserver>) {
        self.observers.push(observer);
    }

    /// FNV-1a digest over the complete durable per-node state:
    /// capacitor charge, RTC sync, slot flags, queues and RNG streams.
    /// Two simulators with equal digests hold bit-identical node state
    /// — the parallel-equivalence tests compare threaded runs against
    /// the serial path this way.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0100_0000_01b3;
        let mut hash = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
            }
        };
        let n = &self.nodes;
        let rows = n
            .cap
            .iter()
            .zip(&n.rtc)
            .zip(&n.fifo_depth)
            .zip(&n.direct_left)
            .zip(&n.awake)
            .zip(&n.income_power)
            .zip(&n.balance_credit)
            .zip(&n.position)
            .zip(&n.cold);
        for row in rows {
            #[rustfmt::skip]
            let ((((((((cap, rtc), &fifo), direct_left), &awake), income_power), balance_credit),
                &position), cold) = row;
            mix(cap.stored().as_nanojoules().to_bits());
            mix(u64::from(rtc.is_synchronized()));
            mix(u64::from(fifo));
            mix(direct_left.as_nanojoules().to_bits());
            mix(u64::from(awake));
            mix(income_power.as_microwatts().to_bits());
            mix(balance_credit.as_nanojoules().to_bits());
            mix(position as u64);
            for queue in [&cold.pending, &cold.outbox] {
                mix(queue.len() as u64);
                for pkg in queue {
                    mix(pkg.origin as u64);
                    mix(pkg.created);
                    mix(pkg.fog_remaining);
                    mix(u64::from(pkg.fog_done));
                }
            }
            mix(cold.rng.clone().next_u64());
        }
        hash
    }

    /// Advances the simulation by `slots` more slots without finishing
    /// it, cycling the slot index through the configured window
    /// (`slot % cfg.slots`).
    ///
    /// This is the steady-state driver for benchmarks and soak tests:
    /// build once, warm up, then time `advance(1)` per iteration
    /// without paying trace synthesis again. Durable node state
    /// (capacitor charge, queues, RNG streams) carries across the
    /// wrap, so the workload stays representative; a run that should
    /// produce the paper's metrics uses [`Simulator::run`], which
    /// performs exactly one pass over the window.
    pub fn advance(&mut self, slots: u64) {
        let window = self.cfg.slots.max(1);
        for _ in 0..slots {
            self.step(self.next_slot % window);
            self.next_slot += 1;
        }
    }

    /// Runs the remainder of the simulation window and returns the
    /// metrics (one pass over `cfg.slots` when no [`advance`] calls
    /// preceded it).
    ///
    /// [`advance`]: Simulator::advance
    #[must_use]
    pub fn run(mut self) -> SimResult {
        for slot in self.next_slot..self.cfg.slots {
            self.step(slot);
        }
        let Simulator {
            cfg,
            metrics,
            mut observers,
            ..
        } = self;
        observers.on_finish();
        SimResult {
            config: cfg,
            metrics,
        }
    }

    /// Advances one slot through the six-phase pipeline, one pass per
    /// barrier (see the module docs).
    fn step(&mut self, slot: u64) {
        // Take the scratch context out so the phases can borrow the
        // simulator mutably alongside it; its vectors are cleared and
        // refilled in place, so capacity survives across all slots.
        let mut ctx = std::mem::take(&mut self.scratch);
        self.nodes.begin_slot();
        ctx.reset(&self.cfg, &self.nodes, slot);
        let mut parts = self.parts();
        parts.observers.on_event(&SimEvent::SlotBegan { slot });
        let early = (
            harvest::HarvestStage::new(parts.cfg, &ctx),
            wake::WakeStage::new(parts.cfg, &ctx),
        );
        let late = (
            compute::ExecStage::new(&parts),
            (
                compute::ShedStage::new(parts.cfg, &ctx),
                transmit::SendStage::new(&parts),
            ),
        );
        if balance::active(parts.cfg) {
            run_stages(&mut parts, &mut ctx, &early);
            balance::run(&mut parts, &mut ctx);
            run_stages(&mut parts, &mut ctx, &(balance::CreditStage, late));
        } else {
            run_stages(&mut parts, &mut ctx, &(early, late));
        }
        transmit::fold(&parts, &mut ctx);
        let last = (
            transmit::DutyStage::new(&parts),
            slot_end::SlotEndStage::new(parts.cfg),
        );
        run_stages(&mut parts, &mut ctx, &last);
        parts.observers.on_event(&SimEvent::SlotEnded { slot });
        self.scratch = ctx;
    }

    /// Splits the simulator into the disjoint borrows the phases use.
    fn parts(&mut self) -> SimParts<'_> {
        SimParts {
            cfg: &self.cfg,
            nodes: &mut self.nodes,
            route: &self.route,
            caps: &self.caps,
            balancer: &mut self.balancer,
            loss: &self.loss,
            rf: &self.rf,
            spendthrift: &self.spendthrift,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            observers: &mut self.observers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(system: SystemKind) -> SimConfig {
        let mut cfg = SimConfig::paper_default(system, Scenario::ForestIndependent, 1);
        cfg.slots = 150;
        cfg
    }

    fn build(cfg: SimConfig) -> Simulator {
        Simulator::new(cfg).expect("config is valid")
    }

    #[test]
    fn runs_and_counts_are_bounded() {
        for system in SystemKind::ALL {
            let result = build(quick_cfg(system)).run();
            let m = &result.metrics;
            let ideal = result.config.ideal_packages();
            assert!(m.total_wakeups() + m.total_failures() <= ideal);
            assert!(m.total_captured() <= m.total_wakeups());
            assert!(
                m.total_processed() <= m.total_captured(),
                "{system:?}: processed {} > captured {}",
                m.total_processed(),
                m.total_captured()
            );
        }
    }

    #[test]
    fn vp_never_fog_processes() {
        let result = build(quick_cfg(SystemKind::NosVp)).run();
        assert_eq!(result.metrics.fog_processed(), 0);
    }

    #[test]
    fn neofog_mostly_fog_processes() {
        let result = build(quick_cfg(SystemKind::FiosNeoFog)).run();
        let m = &result.metrics;
        assert!(m.total_processed() > 0, "nothing delivered");
        assert!(m.fog_share() > 0.5, "fog share {}", m.fog_share());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = build(quick_cfg(SystemKind::FiosNeoFog)).run();
        let b = build(quick_cfg(SystemKind::FiosNeoFog)).run();
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg2 = quick_cfg(SystemKind::FiosNeoFog);
        cfg2.seed = 99;
        let a = build(quick_cfg(SystemKind::FiosNeoFog)).run();
        let b = build(cfg2).run();
        assert_ne!(a.metrics, b.metrics);
    }

    #[test]
    fn stored_trace_recorded_when_enabled() {
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.trace_stored = true;
        let result = build(cfg).run();
        assert_eq!(result.metrics.nodes[0].stored_series.len(), 150);
    }

    #[test]
    fn multiplexing_reduces_per_node_wakeups() {
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.multiplex = 3;
        let result = build(cfg).run();
        // 30 physical nodes, each scheduled 1/3 of slots.
        assert_eq!(result.metrics.nodes.len(), 30);
        for n in &result.metrics.nodes {
            assert!(n.wakeups + n.failures <= 50);
        }
    }

    #[test]
    fn distributed_balancer_rejects_subsecond_slots() {
        let mut cfg = quick_cfg(SystemKind::FiosNeoFog);
        cfg.slot_len = Duration::from_micros(500_000);
        assert!(matches!(
            Simulator::new(cfg),
            Err(NeoFogError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn whole_second_slot_lengths_still_build() {
        for system in SystemKind::ALL {
            let cfg = quick_cfg(system);
            assert!(cfg.balancer.build(cfg.slot_len).is_ok());
        }
    }

    #[test]
    fn attached_observer_sees_every_slot_boundary() {
        struct SlotCounter(std::rc::Rc<std::cell::RefCell<(u64, u64)>>);
        impl SimObserver for SlotCounter {
            fn on_event(&mut self, event: &SimEvent) {
                match event {
                    SimEvent::SlotBegan { .. } => self.0.borrow_mut().0 += 1,
                    SimEvent::SlotEnded { .. } => self.0.borrow_mut().1 += 1,
                    _ => {}
                }
            }
        }
        let counts = std::rc::Rc::new(std::cell::RefCell::new((0, 0)));
        let mut sim = build(quick_cfg(SystemKind::FiosNeoFog));
        sim.attach_observer(Box::new(SlotCounter(counts.clone())));
        let _ = sim.run();
        assert_eq!(*counts.borrow(), (150, 150));
    }

    #[test]
    fn attaching_an_observer_never_changes_the_result() {
        struct Sink;
        impl SimObserver for Sink {
            fn on_event(&mut self, _event: &SimEvent) {}
        }
        let plain = build(quick_cfg(SystemKind::FiosNeoFog)).run();
        let mut sim = build(quick_cfg(SystemKind::FiosNeoFog));
        sim.attach_observer(Box::new(Sink));
        let observed = sim.run();
        assert_eq!(plain.metrics, observed.metrics);
    }
}
