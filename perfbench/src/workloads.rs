//! The three workloads: their configurations, the timed end-to-end
//! runs, the correctness gate and the traced per-layer runs.

use crate::digest;
use crate::host::{self, nproc};
use crate::layers::{self, ms, timed_build, ChainClock};
use crate::phase::{Phase, PhaseClock};
use crate::report::Metric;
use crate::sink::{HashingSink, SinkState};
use crate::stats::{median, percentile, Tally};
use neofog_core::fleet::run_fleet_with;
use neofog_core::runner::PoolConfig;
use neofog_core::sim::{BalancerKind, EventLogObserver, SimConfig, Simulator};
use neofog_core::SystemKind;
use neofog_energy::Scenario;
use neofog_net::TopologySpec;
use neofog_types::Result;
use std::time::{Duration, Instant};

/// The seed the pinned digests were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// Slot window the steady-state workloads cycle through.
const WINDOW_SLOTS: u64 = 32;
/// Slots advanced before timing (queue growth, first curve touch).
const WARM_SLOTS: u64 = 4;
/// Timed slots after which the state digest is checked. Warm plus
/// check slots is the checkpoint every copy of a simulator is
/// compared at, whatever its thread count.
const CHECK_SLOTS: u64 = 16;
/// Timed slots or chains a run measures at least, so a p90 has ten
/// samples beyond it.
const MIN_SAMPLES: usize = 100;
/// `Simulator::new` calls `wide_chain`'s set-up time is the median of.
const WIDE_BUILDS: usize = 5;
/// `Simulator::new` calls the set-up time of the two smaller workloads
/// is the median of.
const SMALL_BUILDS: usize = 15;
/// Timed slots per `tiered_offload` episode. Its offload backlog
/// grows without bound (slot time roughly triples over 400 slots), so
/// each episode restarts from a fresh build: the measured slot mix is
/// then the same however fast the program runs. Both steady workloads
/// read their peak RSS after this many timed slots.
const EPISODE_SLOTS: u64 = 48;
/// Chains per `run_fleet_with` call.
const FLEET_BATCH: usize = 40;
/// Positions of `wide_chain`.
const WIDE_POSITIONS: usize = 100_000;
/// Positions of `tiered_offload`.
const TIERED_POSITIONS: usize = 10_000;

/// Digests of the simulated results at [`DEFAULT_SEED`], pinned so a
/// speed-only change that alters any simulated statistic is caught.
struct Pins {
    /// State digest at the checkpoint (`paper_fleet`: after one whole
    /// 1500-slot chain).
    state: u64,
    /// Event-log bytes and hash at the checkpoint.
    log: Option<(u64, u64)>,
    /// Digest of one `FLEET_BATCH`-chain `FleetResult`.
    fleet: Option<u64>,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many 10-position paper-default chains on the work-stealing pool.
    PaperFleet,
    /// One 10⁵-position chain on the sharded kernel.
    WideChain,
    /// A 10⁴-position tiered topology with the offload balancer and a
    /// full event log.
    TieredOffload,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFleet,
        Workload::WideChain,
        Workload::TieredOffload,
    ];

    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFleet => "paper_fleet",
            Workload::WideChain => "wide_chain",
            Workload::TieredOffload => "tiered_offload",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulator configuration at `seed`.
    #[must_use]
    pub fn config(self, seed: u64) -> SimConfig {
        match self {
            Workload::PaperFleet => paper_config(seed),
            Workload::WideChain => {
                let mut cfg = steady_config(seed, WIDE_POSITIONS);
                cfg.threads = parallelism();
                cfg
            }
            Workload::TieredOffload => {
                let mut cfg = steady_config(seed, TIERED_POSITIONS);
                cfg.topology = TopologySpec::Tiered {
                    gateways: TIERED_POSITIONS / 100,
                };
                cfg.balancer = BalancerKind::Offload;
                cfg.threads = parallelism();
                cfg
            }
        }
    }

    fn logged(self) -> bool {
        self == Workload::TieredOffload
    }

    fn pins(self) -> Pins {
        match self {
            Workload::PaperFleet => Pins {
                state: 0x3879_fabd_5ef4_aede,
                log: None,
                fleet: Some(0x624c_a633_0254_faa6),
            },
            Workload::WideChain => Pins {
                state: 0x97d8_b699_b5f7_1d4d,
                log: None,
                fleet: None,
            },
            Workload::TieredOffload => Pins {
                state: 0x3d2f_bc11_c5f9_da6c,
                log: Some((0x076c_d093, 0x6e7f_0b8c_57f6_5638)),
                fleet: None,
            },
        }
    }
}

/// Threads and pool workers: two, or fewer on a smaller host.
#[must_use]
pub fn parallelism() -> usize {
    nproc().min(2)
}

/// FIOS-NEOFog forest chain at the paper defaults: 10 positions,
/// 1500 × 12 s slots, 1 s traces, distributed balancer, one thread.
#[must_use]
pub fn paper_config(seed: u64) -> SimConfig {
    SimConfig::paper_default(SystemKind::FiosNeoFog, Scenario::ForestIndependent, seed)
}

/// A wide chain driven in steady state: traces at slot resolution over
/// a short cycled window, no balancer.
fn steady_config(seed: u64, positions: usize) -> SimConfig {
    let mut cfg = paper_config(seed);
    cfg.positions = positions;
    cfg.slots = WINDOW_SLOTS;
    cfg.trace_dt = cfg.slot_len;
    cfg.balancer = BalancerKind::None;
    cfg
}

/// A small chain shaped like `wide_chain`, for tests.
#[must_use]
pub fn small_chain_config(seed: u64) -> SimConfig {
    steady_config(seed, 200)
}

/// A small tiered topology shaped like `tiered_offload`, for tests.
#[must_use]
pub fn small_tiered_config(seed: u64) -> SimConfig {
    let mut cfg = steady_config(seed, 400);
    cfg.topology = TopologySpec::Tiered { gateways: 4 };
    cfg.balancer = BalancerKind::Offload;
    cfg
}

/// A short paper-default chain, for tests.
#[must_use]
pub fn small_paper_config(seed: u64) -> SimConfig {
    let mut cfg = paper_config(seed);
    cfg.slots = 64;
    cfg
}

/// One run's outcome.
#[derive(Debug)]
pub struct Run {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted and failed (already settled).
    pub tally: Tally,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed for people but not part of the result line.
    pub extra: Vec<Metric>,
    /// Why a check failed, if one did.
    pub notes: Vec<String>,
}

/// Correctness checks of one run.
#[derive(Debug, Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn expect_eq(&mut self, what: &str, got: u64, want: u64) {
        let failure = format!("{what}: got {got:#018x}, want {want:#018x}");
        if got != want && !self.failures.contains(&failure) {
            self.failures.push(failure);
        }
    }

    fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn pct(samples: &[f64], q: f64, what: &str) -> Result<f64> {
    percentile(samples, q).ok_or_else(|| {
        neofog_types::NeoFogError::internal(format!(
            "{what}: {} samples are too few for p{}",
            samples.len(),
            (q * 100.0) as u32
        ))
    })
}

fn peak_rss() -> f64 {
    host::peak_rss_mb().unwrap_or(0.0)
}

/// The timed end-to-end run of `workload`.
///
/// # Errors
///
/// A configuration the simulator rejects, or too few samples for a
/// reported percentile.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Run> {
    match workload {
        Workload::PaperFleet => paper_fleet(seed, seconds),
        Workload::WideChain | Workload::TieredOffload => steady(workload, seed, seconds),
    }
}

fn paper_fleet(seed: u64, seconds: f64) -> Result<Run> {
    let base = paper_config(seed);
    let pins = Workload::PaperFleet.pins();
    let mut checks = Checks::default();
    // Set-up: build the chain several times. The first two builds run
    // the whole chain at one and two threads; their states must agree.
    let mut setup = Vec::with_capacity(SMALL_BUILDS);
    let mut digests = Vec::with_capacity(2);
    for threads in [1, 2] {
        let mut cfg = base.clone();
        cfg.threads = threads;
        let (mut sim, took) = timed_build(&cfg)?;
        setup.push(secs(took));
        sim.advance(cfg.slots);
        digests.push(sim.state_digest());
    }
    for _ in 2..SMALL_BUILDS {
        let (sim, took) = timed_build(&base)?;
        setup.push(secs(took));
        drop(sim);
    }
    checks.expect_eq("threads=2 chain vs threads=1", digests[1], digests[0]);
    if seed == DEFAULT_SEED {
        checks.expect_eq("chain digest vs pin", digests[0], pins.state);
    }

    let pool = PoolConfig::with_workers(parallelism());
    let mut clock = ChainClock::default();
    let mut reference = (seed == DEFAULT_SEED).then_some(pins.fleet).flatten();
    let mut tally = Tally::default();
    let mut busy = Duration::ZERO;
    let started = Instant::now();
    while secs(started.elapsed()) < seconds || clock.chain_ms.len() < MIN_SAMPLES {
        let batch = Instant::now();
        let fleet = run_fleet_with(&base, FLEET_BATCH, &pool, &mut clock);
        busy += batch.elapsed();
        match fleet {
            Ok(fleet) => {
                tally.ok(FLEET_BATCH as u64);
                let got = digest::fleet(&fleet);
                let want = *reference.get_or_insert(got);
                checks.expect_eq("fleet digest", got, want);
            }
            Err(error) => {
                tally.err(FLEET_BATCH as u64);
                checks.failures.push(format!("fleet batch failed: {error}"));
                break;
            }
        }
    }
    let chain_ms = &clock.chain_ms;
    let slots = base.slots as f64;
    let slot_ms: Vec<f64> = chain_ms.iter().map(|c| c / slots).collect();
    let node_slots = tally.attempted() as f64 * base.positions as f64 * slots;
    let correct = checks.passed();
    let tally = tally.settle(correct);
    Ok(Run {
        correct,
        tally,
        metrics: vec![
            Metric::new("node_slots_per_s", node_slots / secs(busy), "1/s"),
            Metric::new("slot_ms_p50", pct(&slot_ms, 0.5, "slot_ms")?, "ms"),
            Metric::new("slot_ms_p90", pct(&slot_ms, 0.9, "slot_ms")?, "ms"),
            Metric::new("setup_s", median(&setup).unwrap_or(0.0), "s"),
            Metric::new("peak_rss_mb", peak_rss(), "MB"),
        ],
        extra: vec![
            Metric::new("chain_ms_p50", pct(chain_ms, 0.5, "chain_ms")?, "ms"),
            Metric::new("chain_ms_p90", pct(chain_ms, 0.9, "chain_ms")?, "ms"),
            Metric::new("failed_frac", tally.failed_frac(), "fraction"),
        ],
        notes: checks.failures,
    })
}

/// State digest plus event-log position: what two copies of one
/// simulator must agree on at the checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Checkpoint {
    state: u64,
    log: Option<SinkState>,
}

impl Checkpoint {
    fn take(sim: &Simulator, sink: Option<&HashingSink>) -> Checkpoint {
        Checkpoint {
            state: sim.state_digest(),
            log: sink.map(HashingSink::state),
        }
    }

    fn compare(&self, checks: &mut Checks, what: &str, want: &Checkpoint) {
        checks.expect_eq(&format!("{what} state"), self.state, want.state);
        if let (Some(got), Some(want)) = (self.log, want.log) {
            checks.expect_eq(&format!("{what} log bytes"), got.bytes, want.bytes);
            checks.expect_eq(
                &format!("{what} log hash"),
                got.hash.finish(),
                want.hash.finish(),
            );
        }
    }

    fn compare_pins(&self, checks: &mut Checks, pins: &Pins) {
        checks.expect_eq("state vs pin", self.state, pins.state);
        if let (Some(got), Some((bytes, hash))) = (self.log, pins.log) {
            checks.expect_eq("log bytes vs pin", got.bytes, bytes);
            checks.expect_eq("log hash vs pin", got.hash.finish(), hash);
        }
    }
}

fn attach_log(sim: &mut Simulator) -> HashingSink {
    let sink = HashingSink::default();
    sim.attach_observer(Box::new(EventLogObserver::from_writer(Box::new(
        sink.clone(),
    ))));
    sink
}

fn steady(workload: Workload, seed: u64, seconds: f64) -> Result<Run> {
    let cfg = workload.config(seed);
    let nodes = cfg.positions * cfg.multiplex as usize;
    let mut checks = Checks::default();
    // Set-up: several builds, one at a time. The first is a one-thread
    // replica run to the checkpoint.
    let (builds, episode) = match workload {
        Workload::WideChain => (WIDE_BUILDS, None),
        _ => (SMALL_BUILDS, Some(EPISODE_SLOTS)),
    };
    let mut setup = Vec::with_capacity(builds);
    let replica = {
        let mut serial = cfg.clone();
        serial.threads = 1;
        let (mut sim, took) = timed_build(&serial)?;
        setup.push(secs(took));
        let sink = workload.logged().then(|| attach_log(&mut sim));
        sim.advance(WARM_SLOTS + CHECK_SLOTS);
        Checkpoint::take(&sim, sink.as_ref())
    };
    for _ in 1..builds {
        let (sim, took) = timed_build(&cfg)?;
        setup.push(secs(took));
        drop(sim);
    }
    if seed == DEFAULT_SEED {
        replica.compare_pins(&mut checks, &workload.pins());
    }

    // Timed: whole episodes, each a fresh build (not timed), warm-up
    // and then `advance(1)` per slot, until the time is up and enough
    // slots were timed. Every episode passes the checkpoint.
    let mut slot_ms = Vec::new();
    // Peak RSS after a fixed amount of work (set-up plus one episode's
    // worth of timed slots), so a faster program that fits more
    // episodes in the run is not charged for the allocator's drift.
    let mut peak_rss_mb = 0.0;
    let threads = format!("threads={} vs threads=1", cfg.threads);
    let started = Instant::now();
    while secs(started.elapsed()) < seconds || slot_ms.len() < MIN_SAMPLES {
        let mut sim = Simulator::new(cfg.clone())?;
        let sink = workload.logged().then(|| attach_log(&mut sim));
        sim.advance(WARM_SLOTS);
        let mut timed = 0;
        while episode.map_or(
            secs(started.elapsed()) < seconds || slot_ms.len() < MIN_SAMPLES,
            |len| timed < len,
        ) {
            let slot = Instant::now();
            sim.advance(1);
            slot_ms.push(ms(slot.elapsed()));
            if slot_ms.len() as u64 == EPISODE_SLOTS {
                peak_rss_mb = peak_rss();
            }
            timed += 1;
            if timed == CHECK_SLOTS {
                Checkpoint::take(&sim, sink.as_ref()).compare(&mut checks, &threads, &replica);
            }
        }
    }
    let mut tally = Tally::default();
    tally.ok(slot_ms.len() as u64);
    let correct = checks.passed();
    let tally = tally.settle(correct);
    let busy_ms: f64 = slot_ms.iter().sum();
    Ok(Run {
        correct,
        tally,
        metrics: vec![
            Metric::new(
                "node_slots_per_s",
                nodes as f64 * slot_ms.len() as f64 / (busy_ms / 1e3),
                "1/s",
            ),
            Metric::new("slot_ms_p50", pct(&slot_ms, 0.5, "slot_ms")?, "ms"),
            Metric::new("slot_ms_p90", pct(&slot_ms, 0.9, "slot_ms")?, "ms"),
            Metric::new("setup_s", median(&setup).unwrap_or(0.0), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        extra: vec![Metric::new("failed_frac", tally.failed_frac(), "fraction")],
        notes: checks.failures,
    })
}

/// Sizes of one traced run.
struct TraceShape {
    /// Repetitions of the build decomposition.
    builds: usize,
    /// Slots before the first measurement.
    warm: u64,
    /// Slots per untraced thread-count measurement.
    slots: u64,
    /// Slots under the phase clock.
    clock_slots: u64,
    /// Slots with the event log attached.
    log_slots: u64,
    /// Direct balancer calls.
    balance_calls: usize,
}

impl Workload {
    fn trace_shape(self) -> TraceShape {
        match self {
            Workload::PaperFleet => TraceShape {
                builds: 20,
                warm: 0,
                slots: paper_config(DEFAULT_SEED).slots,
                clock_slots: 1500,
                log_slots: 1500,
                balance_calls: 2000,
            },
            Workload::WideChain => TraceShape {
                builds: 1,
                warm: WARM_SLOTS,
                slots: CHECK_SLOTS,
                clock_slots: 16,
                log_slots: 3,
                balance_calls: 20,
            },
            Workload::TieredOffload => TraceShape {
                builds: 3,
                warm: WARM_SLOTS,
                slots: CHECK_SLOTS,
                clock_slots: 32,
                log_slots: 8,
                balance_calls: 20,
            },
        }
    }
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// The traced run of `workload`: every per-layer metric, measured on
/// the workload's own configuration by timing calls into each layer.
///
/// # Errors
///
/// A configuration the simulator rejects.
pub fn traced(workload: Workload, seed: u64) -> Result<Run> {
    let shape = workload.trace_shape();
    let mut cfg = workload.config(seed);
    cfg.threads = 1;
    let nodes = cfg.positions * cfg.multiplex as usize;
    let mut checks = Checks::default();
    let mut tally = Tally::default();

    // sim: construction, its memory, and the energy/net layers' share.
    let rss_before = host::rss_mb().unwrap_or(0.0);
    let (mut sim, first_build) = timed_build(&cfg)?;
    let rss_after = host::rss_mb().unwrap_or(0.0);
    let bytes_per_node = (rss_after - rss_before) * 1024.0 * 1024.0 / nodes as f64;
    let (mut new_ms, mut self_ms, mut curve_us, mut route_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut curve_samples = 0;
    for rep in 0..shape.builds {
        let parts = layers::build_parts(&cfg)?;
        let build = if rep == 0 {
            first_build
        } else {
            let (again, took) = timed_build(&cfg)?;
            drop(again);
            took
        };
        new_ms.push(ms(build));
        self_ms.push(ms(build) - ms(parts.plan) - ms(parts.curves) - ms(parts.route));
        curve_us.push(parts.curves.as_secs_f64() * 1e6 / parts.curve_calls as f64);
        route_ms.push(ms(parts.route));
        curve_samples = parts.curve_samples;
    }

    // shard: the same simulator at one and two threads, untraced.
    sim.advance(shape.warm);
    let t1 = layers::slot_times(&mut sim, shape.slots);
    let checkpoint = sim.state_digest();
    sim.set_threads(2);
    let t2 = layers::slot_times(&mut sim, shape.slots);
    sim.set_threads(1);
    if seed == DEFAULT_SEED {
        checks.expect_eq("state vs pin", checkpoint, workload.pins().state);
    }

    // sim phases and observe counts: the phase clock at one thread.
    let clock = PhaseClock::default();
    sim.attach_observer(Box::new(clock.clone()));
    let traced_ms = layers::slot_times(&mut sim, shape.clock_slots);
    let profile = clock.profile();

    // observe: the JSONL log into the counting sink, clock still on.
    let sink = attach_log(&mut sim);
    let logged_ms = layers::slot_times(&mut sim, shape.log_slots);
    let log = sink.state();
    let clock_violations = clock.profile().order_violations;
    if clock_violations > 0 {
        checks
            .failures
            .push(format!("{clock_violations} events out of phase order"));
    }
    tally.ok(shape.warm + 2 * shape.slots + shape.clock_slots + shape.log_slots);
    drop(sim);

    // balance: direct calls on a seeded input of the workload's shape.
    let plan = cfg.topology.build(cfg.positions)?;
    let input = layers::balance_input(cfg.positions, cfg.node.package.fog_instructions, seed);
    let balance = layers::balance_probe(&cfg, &input, &plan, shape.balance_calls)?;

    // runner: the pool's busy fraction over two batches of paper-default
    // chains, the shape the pool serves, whatever the workload.
    let workers = parallelism();
    let pool = PoolConfig::with_workers(workers);
    let mut clock = ChainClock::default();
    let started = Instant::now();
    for _ in 0..2 {
        run_fleet_with(&paper_config(seed), FLEET_BATCH, &pool, &mut clock)?;
    }
    let wall = ms(started.elapsed());
    tally.ok(clock.chain_ms.len() as u64);
    let busy_frac = clock.chain_ms.iter().sum::<f64>() / (workers as f64 * wall);

    let slot_t1 = med(&t1);
    let slot_t2 = med(&t2);
    let traced_slot = med(&traced_ms);
    let clock_slots = profile.slots.max(1) as f64;
    let events_per_slot = profile.total_events() as f64 / clock_slots;
    let mut metrics = vec![
        Metric::new("energy.node_curve_us", med(&curve_us), "us"),
        Metric::new("energy.curve_samples", curve_samples as f64, "count"),
        Metric::new("net.route_build_ms", med(&route_ms), "ms"),
        Metric::new("sim.new_ms", med(&new_ms), "ms"),
        Metric::new("sim.new_self_ms", med(&self_ms), "ms"),
        Metric::new("sim.bytes_per_node", bytes_per_node, "B"),
    ];
    for phase in Phase::ALL {
        metrics.push(Metric::new(
            format!("sim.phase_ms.{}", phase.label()),
            ms(profile.time[phase as usize]) / clock_slots,
            "ms",
        ));
    }
    metrics.extend([
        Metric::new("sim.ns_per_event", slot_t1 * 1e6 / events_per_slot, "ns"),
        Metric::new("sim.slot_ms_t1", slot_t1, "ms"),
        Metric::new("sim.slot_ms_t2", slot_t2, "ms"),
        Metric::new("shard.speedup", slot_t1 / slot_t2, "ratio"),
        Metric::new(
            "shard.fork_join_us",
            layers::fork_join_us(nproc(), 200),
            "us",
        ),
        Metric::new(
            "observe.events_per_node_slot",
            events_per_slot / nodes as f64,
            "count",
        ),
    ]);
    for phase in Phase::ALL {
        metrics.push(Metric::new(
            format!("observe.events.{}", phase.label()),
            profile.events[phase as usize] as f64,
            "count",
        ));
    }
    metrics.extend([
        Metric::new(
            "observe.log_bytes_per_node_slot",
            log.bytes as f64 / (nodes as f64 * shape.log_slots as f64),
            "B",
        ),
        Metric::new(
            "observe.log_ms_per_slot",
            med(&logged_ms) - traced_slot,
            "ms",
        ),
        Metric::new("balance.call_us", balance.call_us, "us"),
        Metric::new("balance.tasks_moved_per_call", balance.tasks_moved, "count"),
        Metric::new(
            "balance.transfer_hops_per_call",
            balance.transfer_hops,
            "count",
        ),
        Metric::new("runner.busy_frac", busy_frac, "fraction"),
        Metric::new(
            "trace_overhead_frac",
            (traced_slot - slot_t1) / slot_t1,
            "fraction",
        ),
    ]);
    let correct = checks.passed();
    let tally = tally.settle(correct);
    Ok(Run {
        correct,
        tally,
        metrics,
        extra: vec![Metric::new("failed_frac", tally.failed_frac(), "fraction")],
        notes: checks.failures,
    })
}
