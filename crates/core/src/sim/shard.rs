//! Shard partitioning, the per-shard sinks and the pass scheduler of
//! the slot kernel.
//!
//! Each element-wise phase body (harvest, wake, the balance-credit
//! spend, compute exec, stale shed, transmit send, relay duty, slot
//! end) is a per-node [`Stage`]: it sees one node through a
//! [`NodeView`] row lens and writes counters and events through its
//! shard's sink, with no cross-node data flow. [`sweep`] runs a group
//! of stages over one shard, calling them in phase order for each node
//! before it moves to the next. [`shards`] carves the
//! [`NodeColumns`] arrays into contiguous, **position-aligned** shards
//! (one [`ColumnsShard`] method names every column slice), and
//! [`run_stages`] sweeps each shard once through
//! `runner::fork::fork_join` — the serial path (`threads == 1`) is
//! simply one full-range shard run inline, so both paths share one
//! code path:
//!
//! * **Passes per barrier** — a slot has only two cross-node barriers:
//!   the serial balancer call (fog systems with a balancer) and the
//!   transmit relay fold, which needs every shard's sends.
//!   [`run_stages`] fuses every stage between two barriers into one
//!   pass, so each node's cold row and queues are fetched from memory
//!   once per barrier rather than once per phase. Each node still sees
//!   its stages in phase order, so its `f64` counter order is
//!   unchanged; the spill and network counters are `u64`, and per-node
//!   RNG streams are node-local.
//! * **Position alignment** — physical nodes are laid out
//!   position-major (position `p` owns indices
//!   `p·M .. (p+1)·M` for multiplex `M`), and two transmit-stage
//!   writes are per-*position* (`forward_bytes[pos]`, the relay-duty
//!   representative charge). Cutting shard boundaries on position
//!   multiples keeps every write shard-local, so shards share no
//!   mutable state at all.
//! * **Counters in the kernel** — every stage writes through a
//!   [`ShardSink`] that owns the shard's slice of the per-node
//!   [`NodeMetrics`] rows (`chunks_mut` of `NetworkMetrics::nodes`,
//!   aligned with the column shards). `sink.emit(e)` applies the
//!   event's counter arithmetic to its row in place; each node's `f64`
//!   operations keep their serial order, so the metrics are
//!   bit-identical at every thread count. Deliveries and losses are
//!   keyed by the package's `origin`, which balancing can place in
//!   another shard; those go to a small per-shard spill buffer the
//!   coordinator applies after the join (integer counters — exact in
//!   any order).
//! * **Events on demand** — a sink records events only while an
//!   observer is attached (event log, debug ledger, `attach_observer`),
//!   each tagged with the index of the stage in its group that emitted
//!   it. After the join the coordinator replays the buffers
//!   stage-major, then in ascending shard order, then in recorded
//!   order; every stage emits in ascending node index within its
//!   shard, so the replayed stream is byte-identical to a serial sweep
//!   that ran each phase over the whole fleet in turn. With no
//!   observer nothing is built, buffered or replayed.
//! * **Scratch discipline** — shard scratch (event and spill buffers,
//!   package scratch) is owned by [`SlotCtx`] and reused across slots,
//!   preserving the steady-state zero-allocation discipline per
//!   worker; only the `thread::scope` spawns of a multi-shard fork
//!   allocate, a per-slot constant independent of fleet size.

use super::columns::{NodeCold, NodeColumns, NodeView};
use super::ctx::{Package, SlotCtx, QUEUE_RESERVE};
use super::event::SimEvent;
use super::ledger::EnergyLedger;
use super::observe::{fold_node, Observers, SimObserver};
use super::SimParts;
use crate::metrics::{NetworkMetrics, NodeMetrics};
use crate::runner::fork::fork_join;
use neofog_energy::{Rtc, SuperCap};
use neofog_net::slots::SlotSchedule;
use neofog_types::{Energy, Power};

/// Reusable per-shard scratch, owned by the slot context and warmed
/// once; the steady-state loop only refills it.
#[derive(Default)]
pub(crate) struct ShardScratch {
    /// Events recorded by this shard's pass while observers listen,
    /// each with the index of the stage in its group that emitted it;
    /// replayed stage-major, then in shard order, after the join.
    pub(crate) events: Vec<(u8, SimEvent)>,
    /// Origin-keyed events (deliveries, losses) whose counter row
    /// lies in another shard, applied by the coordinator after the
    /// join.
    pub(crate) spill: Vec<SimEvent>,
    /// Per-shard package scratch (transmit ordering, stale shedding).
    pub(crate) pkg: Vec<Package>,
    /// Transmit-phase partial: total bytes sourced in this shard's
    /// position segment, turned into the shard's carry-in by the
    /// fixed-order chain reduction.
    pub(crate) fold_total: u64,
}

impl ShardScratch {
    /// A scratch pre-sized for `nodes_per_shard` nodes, so warm-up
    /// fills rather than grows the buffers. The event buffer is left
    /// empty: only an observed run records, and [`run_stages`] sizes it
    /// for a whole stage group when it does.
    pub(crate) fn warmed(nodes_per_shard: usize) -> Self {
        let mut scratch = ShardScratch::default();
        // Cross-shard deliveries are a subset of the shard's own, which
        // run at about one per node and slot in steady state.
        scratch.spill.reserve(nodes_per_shard);
        scratch.pkg.reserve(QUEUE_RESERVE);
        scratch
    }
}

/// Per-shard slot scratch a sweep may use beside its column slices,
/// kept apart from [`ColumnsShard`] so a stage can hold a [`NodeView`]
/// and the scratch at once.
pub(crate) struct ShardWork<'a> {
    /// First logical position covered by the shard (`forward[0]`).
    pub(crate) pos_base: usize,
    /// Package scratch (see [`ShardScratch::pkg`]).
    pub(crate) pkg: &'a mut Vec<Package>,
    /// This shard's segment of the per-position relay marks
    /// (`SlotCtx::forward_bytes[pos_base..]`).
    pub(crate) forward: &'a mut [u64],
    /// Transmit fold partial / carry (see [`ShardScratch::fold_total`]).
    pub(crate) fold_total: &'a mut u64,
}

/// A shard's write path for counters and events: folds every event
/// into the shard's own [`NodeMetrics`] rows, spills origin-keyed
/// events that belong to another shard, and records the event, tagged
/// with the emitting stage, only when observers listen.
pub(crate) struct ShardSink<'a> {
    /// Global index of the shard's first physical node (`rows[0]`).
    base: usize,
    /// Index, within the running group, of the stage now emitting
    /// (advanced by the `(A, B)` pair between its halves).
    stage: u8,
    rows: &'a mut [NodeMetrics],
    spill: &'a mut Vec<SimEvent>,
    events: Option<&'a mut Vec<(u8, SimEvent)>>,
}

impl ShardSink<'_> {
    /// Books one event: counter arithmetic on its row (or the spill
    /// when the row lies in another shard), plus a recorded copy when
    /// observers listen.
    #[inline]
    pub(crate) fn emit(&mut self, event: SimEvent) {
        if let Some(node) = event.counter_row() {
            match self.rows.get_mut(node.wrapping_sub(self.base)) {
                Some(row) => fold_node(row, &event),
                None => self.spill.push(event),
            }
        }
        if let Some(events) = self.events.as_deref_mut() {
            events.push((self.stage, event));
        }
    }

    /// Appends one Figure-9 stored-energy sample (millijoules) to
    /// `node`'s series.
    pub(crate) fn sample_stored(&mut self, node: usize, stored: Energy) {
        if let Some(row) = self.rows.get_mut(node.wrapping_sub(self.base)) {
            row.stored_series.push(stored.as_millijoules() as f32);
        }
    }
}

/// Disjoint `&mut` slices over one contiguous, position-aligned run of
/// the columns — the view a sharded pass works on, and also the
/// uncarved remainder [`shards`] cuts them from. `base` translates
/// shard-local indices back to global node indices (for events).
struct ColumnsShard<'a> {
    /// Global index of the shard's first physical node.
    base: usize,
    cap: &'a mut [SuperCap],
    rtc: &'a mut [Rtc],
    schedule: &'a [SlotSchedule],
    position: &'a [usize],
    fifo_depth: &'a mut [u32],
    direct_left: &'a mut [Energy],
    awake: &'a mut [bool],
    income_power: &'a mut [Power],
    balance_credit: &'a mut [Energy],
    cold: &'a mut [NodeCold],
    /// This shard's slice of the per-node conservation ledgers.
    ledgers: &'a mut [EnergyLedger],
    /// Direct-channel efficiency (per-run scalar, shared).
    direct_eff: f64,
    /// Discharge-regulator efficiency (per-run scalar, shared).
    discharge_eff: f64,
}

impl<'a> ColumnsShard<'a> {
    /// Splits the first `take` nodes (fewer if the shard is shorter)
    /// off into a shard of their own, leaving the rest in `self`.
    fn carve(&mut self, take: usize) -> ColumnsShard<'a> {
        let head = ColumnsShard {
            base: self.base,
            cap: take_mut(&mut self.cap, take),
            rtc: take_mut(&mut self.rtc, take),
            schedule: take_ref(&mut self.schedule, take),
            position: take_ref(&mut self.position, take),
            fifo_depth: take_mut(&mut self.fifo_depth, take),
            direct_left: take_mut(&mut self.direct_left, take),
            awake: take_mut(&mut self.awake, take),
            income_power: take_mut(&mut self.income_power, take),
            balance_credit: take_mut(&mut self.balance_credit, take),
            cold: take_mut(&mut self.cold, take),
            ledgers: take_mut(&mut self.ledgers, take),
            direct_eff: self.direct_eff,
            discharge_eff: self.discharge_eff,
        };
        self.base += head.cold.len();
        head
    }

    /// One [`NodeView`] row lens per node with the node's conservation
    /// ledger, in ascending node order, zipped from the column slices —
    /// no per-node indexing.
    fn rows(&mut self) -> impl Iterator<Item = (NodeView<'_>, &mut EnergyLedger)> {
        let (base, direct_eff, discharge_eff) = (self.base, self.direct_eff, self.discharge_eff);
        self.cap
            .iter_mut()
            .zip(self.rtc.iter_mut())
            .zip(self.schedule.iter())
            .zip(self.position.iter())
            .zip(self.fifo_depth.iter_mut())
            .zip(self.direct_left.iter_mut())
            .zip(self.awake.iter_mut())
            .zip(self.income_power.iter_mut())
            .zip(self.balance_credit.iter_mut())
            .zip(self.cold.iter_mut())
            .zip(self.ledgers.iter_mut())
            .enumerate()
            .map(move |(local, row)| {
                #[rustfmt::skip]
                let ((((((((((cap, rtc), schedule), position), fifo), direct_left), awake),
                    income_power), balance_credit), cold), ledger) = row;
                // The depth column mirrors the queue; every writer of
                // `pending` must leave the two equal.
                debug_assert_eq!(*fifo as usize, cold.pending.len(), "fifo_depth mirror");
                let view = NodeView {
                    node: base + local,
                    cap,
                    rtc,
                    schedule,
                    position: *position,
                    fifo_depth: fifo,
                    direct_left,
                    awake,
                    income_power,
                    balance_credit,
                    cold,
                    direct_eff,
                    discharge_eff,
                };
                (view, ledger)
            })
    }
}

/// Positions per shard for `n_pos` positions on `threads` workers
/// (ceiling division; the last shard may be short).
pub(crate) fn pos_per_shard(n_pos: usize, threads: usize) -> usize {
    n_pos.div_ceil(threads.max(1)).max(1)
}

/// One position-aligned [`ColumnsShard`] per warmed shard scratch,
/// with its [`ShardWork`] and [`ShardSink`]: each shard is carved off
/// the front of the uncarved columns, and its relay-mark segment and
/// metrics rows are the matching chunks of the per-position marks and
/// of `rows` — no allocation per shard. Sinks record events when
/// `record` is set.
fn shards<'a>(
    cols: &'a mut NodeColumns,
    ctx: &'a mut SlotCtx,
    rows: &'a mut [NodeMetrics],
    record: bool,
) -> impl Iterator<Item = (ColumnsShard<'a>, ShardWork<'a>, ShardSink<'a>)> {
    let (nodes_per_shard, pos_per_shard) = (ctx.nodes_per_shard, ctx.pos_per_shard);
    let mut rest = ColumnsShard {
        base: 0,
        cap: &mut cols.cap,
        rtc: &mut cols.rtc,
        schedule: &cols.schedule,
        position: &cols.position,
        fifo_depth: &mut cols.fifo_depth,
        direct_left: &mut cols.direct_left,
        awake: &mut cols.awake,
        income_power: &mut cols.income_power,
        balance_credit: &mut cols.balance_credit,
        cold: &mut cols.cold,
        ledgers: &mut ctx.ledgers,
        direct_eff: cols.direct_eff,
        discharge_eff: cols.discharge_eff,
    };
    ctx.shards
        .iter_mut()
        .zip(ctx.forward_bytes.chunks_mut(pos_per_shard))
        .zip(rows.chunks_mut(nodes_per_shard))
        .enumerate()
        .map(move |(k, ((scratch, forward), rows))| {
            let shard = rest.carve(nodes_per_shard);
            let work = ShardWork {
                pos_base: k * pos_per_shard,
                pkg: &mut scratch.pkg,
                forward,
                fold_total: &mut scratch.fold_total,
            };
            let sink = ShardSink {
                base: shard.base,
                stage: 0,
                rows,
                spill: &mut scratch.spill,
                events: record.then_some(&mut scratch.events),
            };
            (shard, work, sink)
        })
}

/// Splits the head `take` elements off a `&mut` slice field in place.
fn take_mut<'a, T>(slot: &mut &'a mut [T], take: usize) -> &'a mut [T] {
    let take = take.min(slot.len());
    let (head, rest) = std::mem::take(slot).split_at_mut(take);
    *slot = rest;
    head
}

/// Splits the head `take` elements off a shared slice field in place.
fn take_ref<'a, T>(slot: &mut &'a [T], take: usize) -> &'a [T] {
    let take = take.min(slot.len());
    let (head, rest) = std::mem::take(slot).split_at(take);
    *slot = rest;
    head
}

/// One element-wise phase body, applied to one node at a time. A pair
/// of stages is a stage too — the first, then the second, node by
/// node — which is how [`run_stages`] fuses the phases between two
/// barriers into one pass.
pub(crate) trait Stage: Sync {
    /// Phase bodies in the group: 1 for a single stage, the sum of
    /// both halves for a pair. Recorded events carry their stage's
    /// index in `0..STAGES`.
    const STAGES: u8 = 1;

    /// Per-shard prologue, before the shard's first node.
    fn begin_shard(&self, _work: &mut ShardWork<'_>) {}

    /// The phase body for one node, emitting through `sink`.
    ///
    /// Implementations are `#[inline(always)]`: a body the compiler
    /// leaves out of line receives the row lens through memory, one
    /// call per node and stage, which measured 20–30 % slower on
    /// single-stage passes at 10⁵ nodes (EXPERIMENTS.md "Passes per
    /// barrier").
    fn node_sweep(
        &self,
        view: &mut NodeView<'_>,
        ledger: &mut EnergyLedger,
        work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    );

    /// Per-shard epilogue, after the shard's last node.
    fn end_shard(&self, _work: &mut ShardWork<'_>) {}
}

impl<A: Stage, B: Stage> Stage for (A, B) {
    const STAGES: u8 = A::STAGES + B::STAGES;

    fn begin_shard(&self, work: &mut ShardWork<'_>) {
        self.0.begin_shard(work);
        self.1.begin_shard(work);
    }

    #[inline(always)]
    fn node_sweep(
        &self,
        view: &mut NodeView<'_>,
        ledger: &mut EnergyLedger,
        work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    ) {
        self.0.node_sweep(view, ledger, work, sink);
        sink.stage += A::STAGES;
        self.1.node_sweep(view, ledger, work, sink);
        sink.stage -= A::STAGES;
    }

    fn end_shard(&self, work: &mut ShardWork<'_>) {
        self.0.end_shard(work);
        self.1.end_shard(work);
    }
}

/// Runs the stage group `stages` over one shard as one pass: every
/// stage of the group for each node in ascending order, then the
/// per-shard epilogues, writing counters and events through the
/// shard's sink.
fn sweep<S: Stage>(
    stages: &S,
    mut shard: ColumnsShard<'_>,
    mut work: ShardWork<'_>,
    mut sink: ShardSink<'_>,
) {
    stages.begin_shard(&mut work);
    for (mut view, ledger) in shard.rows() {
        stages.node_sweep(&mut view, ledger, &mut work, &mut sink);
    }
    stages.end_shard(&mut work);
}

/// Runs the stage group `stages` over the whole fleet as one fused
/// pass — one [`sweep`] per warmed shard scratch, the first inline on
/// the calling thread (so the serial path never spawns) — then
/// [`settle`]s the shards.
pub(crate) fn run_stages<S: Stage>(parts: &mut SimParts<'_>, ctx: &mut SlotCtx, stages: &S) {
    let record = !parts.observers.is_empty();
    if record {
        // Two events per node and stage cover the release-build worst
        // case (harvest: booked + overflow); debug builds grow once
        // more for the ledger settlements. A no-op once warm.
        let group = 2 * usize::from(S::STAGES) * ctx.nodes_per_shard;
        for scratch in &mut ctx.shards {
            scratch.events.reserve(group);
        }
    }
    fork_join(
        shards(parts.nodes, ctx, &mut parts.metrics.nodes, record)
            .map(|(shard, work, sink)| move || sweep(stages, shard, work, sink)),
    );
    settle(&mut ctx.shards, S::STAGES, parts.metrics, parts.observers);
}

/// After the join: applies each shard's cross-shard spill to its
/// counter rows, then replays (and clears) the recorded events
/// stage-major, then in ascending shard order, then in recorded order
/// — the sequence a serial kernel running each of the group's
/// `stages` over the whole fleet in turn would emit.
fn settle(
    scratches: &mut [ShardScratch],
    stages: u8,
    metrics: &mut NetworkMetrics,
    observers: &mut Observers,
) {
    for scratch in scratches.iter_mut() {
        for event in scratch.spill.drain(..) {
            if let Some(row) = event.counter_row().and_then(|n| metrics.nodes.get_mut(n)) {
                fold_node(row, &event);
            }
        }
    }
    for stage in 0..stages {
        for scratch in scratches.iter() {
            for (_, event) in scratch.events.iter().filter(|(tag, _)| *tag == stage) {
                observers.on_event(event);
            }
        }
    }
    for scratch in scratches {
        scratch.events.clear();
    }
}
