//! Outside-in probes: each one times calls into one layer's public API
//! from the benchmark, never from inside the crates.

use crate::stats::median;
use neofog_core::balance::{
    ChainBalanceInput, FogTask, LoadBalancer, NodeBalanceState, OffloadDecision, RouteContext,
};
use neofog_core::runner::{fork_join, Progress};
use neofog_core::sim::{SimConfig, Simulator};
use neofog_core::TierCapabilities;
use neofog_energy::TraceGenerator;
use neofog_net::{NodeTier, RoutePlan};
use neofog_nvp::SpendthriftPolicy;
use neofog_types::{Duration as SimDuration, Energy, NodeId, Power, Result, SimRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Milliseconds of a host duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `Simulator::new` with its wall time.
///
/// # Errors
///
/// Whatever `Simulator::new` rejects.
pub fn timed_build(cfg: &SimConfig) -> Result<(Simulator, Duration)> {
    let start = Instant::now();
    let sim = Simulator::new(cfg.clone())?;
    Ok((sim, start.elapsed()))
}

/// Host ms of each of `slots` single-slot `advance` calls.
pub fn slot_times(sim: &mut Simulator, slots: u64) -> Vec<f64> {
    (0..slots)
        .map(|_| {
            let start = Instant::now();
            sim.advance(1);
            ms(start.elapsed())
        })
        .collect()
}

/// The parts of `Simulator::new` that live in other layers, timed by
/// repeating the same calls on the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct BuildParts {
    /// `TraceGenerator::chain_plan`.
    pub plan: Duration,
    /// Σ `ChainPlan::node_curve` over every physical node.
    pub curves: Duration,
    /// `node_curve` calls made.
    pub curve_calls: usize,
    /// Samples in one curve.
    pub curve_samples: usize,
    /// `TopologySpec::build`.
    pub route: Duration,
}

/// Times the energy and net layers' share of building `cfg`.
///
/// # Errors
///
/// Whatever `TopologySpec::build` rejects.
pub fn build_parts(cfg: &SimConfig) -> Result<BuildParts> {
    let physical = cfg.positions * cfg.multiplex as usize;
    let total = SimDuration::from_micros(cfg.slot_len.as_micros() * cfg.slots);
    let gen = TraceGenerator::new(cfg.scenario, cfg.seed);
    let start = Instant::now();
    let plan = gen.chain_plan(physical, total, cfg.trace_dt);
    let plan_time = start.elapsed();
    let mut curves = Duration::ZERO;
    let mut curve_samples = 0;
    for i in 0..physical {
        let start = Instant::now();
        let curve = plan.node_curve(i, cfg.income_scale);
        curves += start.elapsed();
        curve_samples = curve.trace().len();
        drop(black_box(curve));
    }
    let start = Instant::now();
    let route = black_box(cfg.topology.build(cfg.positions)?);
    let route_time = start.elapsed();
    drop(route);
    Ok(BuildParts {
        plan: plan_time,
        curves,
        curve_calls: physical,
        curve_samples,
        route: route_time,
    })
}

/// Median µs of a `fork_join` of `tasks` no-op tasks — the fixed cost
/// the sharded kernel pays once per phase.
#[must_use]
pub fn fork_join_us(tasks: usize, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            fork_join((0..tasks).map(|i| {
                move || {
                    black_box(i);
                }
            }));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// What direct balancer calls cost and did.
#[derive(Debug, Clone, Copy)]
pub struct BalanceProbe {
    /// Mean host µs per `balance_routed` call.
    pub call_us: f64,
    /// Mean tasks moved per call.
    pub tasks_moved: f64,
    /// Mean transfer hops per call.
    pub transfer_hops: f64,
}

/// A seeded balancer input shaped like a simulated round: each position
/// has a random spare-energy budget, a Spendthrift operating point and
/// 0–3 partly processed fog tasks; one in ten is asleep.
#[must_use]
pub fn balance_input(positions: usize, fog_instructions: u64, seed: u64) -> ChainBalanceInput {
    let mut rng = SimRng::seed_from(seed ^ 0xBA1A_5EED);
    let policy = SpendthriftPolicy::paper_default();
    let nodes = (0..positions)
        .map(|i| {
            let alive = !rng.chance(0.1);
            let income = Power::from_milliwatts(rng.uniform(0.0, 2.0));
            let tasks = if alive {
                (0..rng.range_u64(4))
                    .map(|k| {
                        let left = (fog_instructions as f64 * rng.uniform(0.2, 1.0)) as u64;
                        FogTask::new(left, (i as u64) << 32 | k)
                    })
                    .collect()
            } else {
                Vec::new()
            };
            NodeBalanceState {
                node: NodeId::new(i as u32),
                spare_energy: if alive {
                    Energy::from_millijoules(rng.uniform(0.0, 40.0))
                } else {
                    Energy::ZERO
                },
                efficiency: if alive {
                    policy.efficiency(income)
                } else {
                    0.0
                },
                throughput: if alive {
                    policy.throughput(income)
                } else {
                    0.0
                },
                tasks,
                alive,
            }
        })
        .collect();
    ChainBalanceInput { nodes }
}

/// Times `calls` direct `balance_routed` calls of `kind`, each on a
/// fresh copy of `input` routed by `plan` (the copy is not timed).
///
/// # Errors
///
/// Whatever `BalancerKind::build` rejects.
pub fn balance_probe(
    cfg: &SimConfig,
    input: &ChainBalanceInput,
    plan: &RoutePlan,
    calls: usize,
) -> Result<BalanceProbe> {
    let balancer: Box<dyn LoadBalancer> = cfg.balancer.build(cfg.slot_len)?;
    let caps = TierCapabilities::paper_default();
    let caps: Vec<_> = plan
        .tier_slice()
        .iter()
        .map(|&tier: &NodeTier| caps.for_tier(tier))
        .collect();
    let route = RouteContext {
        hops_to_sink: plan.hops_slice(),
        next_hop: plan.next_hop_slice(),
        tier: plan.tier_slice(),
        caps: &caps,
        raw_bytes: cfg.node.package.raw_bytes,
    };
    let mut rng = SimRng::seed_from(cfg.seed);
    let mut decisions: Vec<OffloadDecision> = Vec::new();
    let (mut busy, mut moved, mut hops) = (Duration::ZERO, 0u64, 0u64);
    for _ in 0..calls {
        let mut chain = input.clone();
        decisions.clear();
        let start = Instant::now();
        let report = balancer.balance_routed(&mut chain, &route, &mut rng, &mut decisions);
        busy += start.elapsed();
        black_box(&chain);
        moved += report.tasks_moved;
        hops += report.transfer_hops;
    }
    let n = calls.max(1) as f64;
    Ok(BalanceProbe {
        call_us: busy.as_secs_f64() * 1e6 / n,
        tasks_moved: moved as f64 / n,
        transfer_hops: hops as f64 / n,
    })
}

/// A [`Progress`] hook that times each job from its claim to its finish.
#[derive(Debug, Default)]
pub struct ChainClock {
    started: Vec<Option<Instant>>,
    /// Host ms of each finished chain, in finishing order.
    pub chain_ms: Vec<f64>,
}

impl Progress for ChainClock {
    fn on_started(&mut self, index: usize, total: usize) {
        if self.started.len() < total {
            self.started.resize(total, None);
        }
        self.started[index] = Some(Instant::now());
    }

    fn on_finished(&mut self, index: usize, _finished: usize, _total: usize) {
        if let Some(start) = self.started.get_mut(index).and_then(Option::take) {
            self.chain_ms.push(ms(start.elapsed()));
        }
    }
}
