//! Shard partitioning and the per-shard sinks of the slot kernel.
//!
//! The element-wise phases (harvest, wake, the balance-credit charge,
//! compute, transmit's send and relay-duty scans, slot end) are linear
//! sweeps over the [`NodeColumns`] arrays with no cross-node data flow
//! inside a slot phase. This module slices those arrays into
//! contiguous, **position-aligned** shards and runs each sweep once per
//! shard through `runner::fork::fork_join` — the serial path
//! (`threads == 1`) is simply one full-range shard run inline, so both
//! paths share one code path:
//!
//! * **Position alignment** — physical nodes are laid out
//!   position-major (position `p` owns indices
//!   `p·M .. (p+1)·M` for multiplex `M`), and two transmit-phase
//!   writes are per-*position* (`forward_bytes[pos]`, the relay-duty
//!   representative charge). Cutting shard boundaries on position
//!   multiples keeps every write shard-local, so shards share no
//!   mutable state at all.
//! * **Counters in the kernel** — every sweep writes through a
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
//!   observer is attached (event log, debug ledger, `attach_observer`).
//!   After the join the coordinator replays the buffers in ascending
//!   shard order; every sweep emits in ascending node index within its
//!   shard, so the replayed stream is byte-identical to the serial
//!   sweep's. With no observer nothing is built, buffered or replayed.
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
    /// Events recorded by this shard's sweep while observers listen,
    /// replayed in shard order after the join.
    pub(crate) events: Vec<SimEvent>,
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
    /// fills rather than grows the buffers.
    pub(crate) fn warmed(nodes_per_shard: usize) -> Self {
        let mut scratch = ShardScratch::default();
        // Two events per node covers the release-build worst case of
        // any single phase (harvest: booked + overflow); debug builds
        // grow once more for the ledger settlements.
        scratch.events.reserve(2 * nodes_per_shard);
        // Cross-shard deliveries are a subset of the shard's own, which
        // run at about one per node and slot in steady state.
        scratch.spill.reserve(nodes_per_shard);
        scratch.pkg.reserve(QUEUE_RESERVE);
        scratch
    }
}

/// Per-shard slot scratch a sweep may use beside its column slices,
/// kept apart from [`ColumnsShard`] so a sweep can hold a [`NodeView`]
/// and the scratch at once.
pub(crate) struct ShardWork<'a> {
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
/// events that belong to another shard, and records the event only
/// when observers listen.
pub(crate) struct ShardSink<'a> {
    /// Global index of the shard's first physical node (`rows[0]`).
    base: usize,
    rows: &'a mut [NodeMetrics],
    spill: &'a mut Vec<SimEvent>,
    events: Option<&'a mut Vec<SimEvent>>,
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
            events.push(event);
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
/// the columns — the view a sharded sweep works on. `base`/`pos_base`
/// translate shard-local indices back to global node indices (for
/// events) and logical positions (for per-position scratch).
pub(crate) struct ColumnsShard<'a> {
    /// Global index of the shard's first physical node.
    pub(crate) base: usize,
    /// First logical position covered by the shard.
    pub(crate) pos_base: usize,
    pub(crate) cap: &'a mut [SuperCap],
    pub(crate) rtc: &'a mut [Rtc],
    pub(crate) schedule: &'a [SlotSchedule],
    pub(crate) position: &'a [usize],
    pub(crate) hops_to_sink: &'a [u32],
    pub(crate) fifo_depth: &'a mut [u32],
    pub(crate) direct_left: &'a mut [Energy],
    pub(crate) awake: &'a mut [bool],
    pub(crate) income_power: &'a mut [Power],
    pub(crate) balance_credit: &'a mut [Energy],
    pub(crate) cold: &'a mut [NodeCold],
    /// This shard's slice of the per-node conservation ledgers.
    pub(crate) ledgers: &'a mut [EnergyLedger],
    /// Direct-channel efficiency (per-run scalar, shared).
    pub(crate) direct_eff: f64,
    /// Discharge-regulator efficiency (per-run scalar, shared).
    pub(crate) discharge_eff: f64,
}

impl ColumnsShard<'_> {
    /// Physical nodes in the shard.
    pub(crate) fn len(&self) -> usize {
        self.cold.len()
    }

    /// A row lens over shard-local node `local` — the sharded twin of
    /// [`NodeColumns::view`], with identical field wiring.
    pub(crate) fn view(&mut self, local: usize) -> NodeView<'_> {
        self.view_ledger(local).0
    }

    /// [`view`](ColumnsShard::view) plus the node's conservation
    /// ledger, split-borrowed so both stay live together.
    pub(crate) fn view_ledger(&mut self, local: usize) -> (NodeView<'_>, &mut EnergyLedger) {
        let cold = &mut self.cold[local];
        let view = NodeView {
            cfg: &cold.cfg,
            cap: &mut self.cap[local],
            pending: &mut cold.pending,
            outbox: &mut cold.outbox,
            rng: &mut cold.rng,
            fifo_depth: &mut self.fifo_depth[local],
            direct_left: &mut self.direct_left[local],
            position: self.position[local],
            hops_to_sink: self.hops_to_sink[local],
            caps: cold.caps,
            income_power: self.income_power[local],
            direct_eff: self.direct_eff,
            discharge_eff: self.discharge_eff,
        };
        (view, &mut self.ledgers[local])
    }
}

/// Positions per shard for `n_pos` positions on `threads` workers
/// (ceiling division; the last shard may be short).
pub(crate) fn pos_per_shard(n_pos: usize, threads: usize) -> usize {
    n_pos.div_ceil(threads.max(1)).max(1)
}

/// Iterator yielding one position-aligned [`ColumnsShard`] per shard
/// scratch, with its [`ShardWork`] and [`ShardSink`], carving every
/// slice with `split_at_mut` — no allocation per shard.
pub(crate) struct ShardIter<'a> {
    base: usize,
    pos_base: usize,
    nodes_per_shard: usize,
    pos_per_shard: usize,
    direct_eff: f64,
    discharge_eff: f64,
    record: bool,
    cap: &'a mut [SuperCap],
    rtc: &'a mut [Rtc],
    schedule: &'a [SlotSchedule],
    position: &'a [usize],
    hops_to_sink: &'a [u32],
    fifo_depth: &'a mut [u32],
    direct_left: &'a mut [Energy],
    awake: &'a mut [bool],
    income_power: &'a mut [Power],
    balance_credit: &'a mut [Energy],
    cold: &'a mut [NodeCold],
    ledgers: &'a mut [EnergyLedger],
    forward: &'a mut [u64],
    rows: &'a mut [NodeMetrics],
    scratches: std::slice::IterMut<'a, ShardScratch>,
}

impl<'a> ShardIter<'a> {
    /// Shards `cols`, the slot context's per-node ledgers and
    /// per-position relay marks, and the metrics `rows` into the
    /// context's warmed shard geometry; sinks record events when
    /// `record` is set.
    pub(crate) fn new(
        cols: &'a mut NodeColumns,
        ctx: &'a mut SlotCtx,
        rows: &'a mut [NodeMetrics],
        record: bool,
    ) -> ShardIter<'a> {
        ShardIter {
            base: 0,
            pos_base: 0,
            nodes_per_shard: ctx.nodes_per_shard,
            pos_per_shard: ctx.pos_per_shard,
            direct_eff: cols.direct_eff,
            discharge_eff: cols.discharge_eff,
            record,
            cap: &mut cols.cap,
            rtc: &mut cols.rtc,
            schedule: &cols.schedule,
            position: &cols.position,
            hops_to_sink: &cols.hops_to_sink,
            fifo_depth: &mut cols.fifo_depth,
            direct_left: &mut cols.direct_left,
            awake: &mut cols.awake,
            income_power: &mut cols.income_power,
            balance_credit: &mut cols.balance_credit,
            cold: &mut cols.cold,
            ledgers: &mut ctx.ledgers,
            forward: &mut ctx.forward_bytes,
            rows,
            scratches: ctx.shards.iter_mut(),
        }
    }
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

impl<'a> Iterator for ShardIter<'a> {
    type Item = (ColumnsShard<'a>, ShardWork<'a>, ShardSink<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cold.is_empty() {
            return None;
        }
        let scratch = self.scratches.next()?;
        let take = self.nodes_per_shard;
        let shard = ColumnsShard {
            base: self.base,
            pos_base: self.pos_base,
            cap: take_mut(&mut self.cap, take),
            rtc: take_mut(&mut self.rtc, take),
            schedule: take_ref(&mut self.schedule, take),
            position: take_ref(&mut self.position, take),
            hops_to_sink: take_ref(&mut self.hops_to_sink, take),
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
        let ShardScratch {
            events,
            spill,
            pkg,
            fold_total,
        } = scratch;
        let work = ShardWork {
            pkg,
            forward: take_mut(&mut self.forward, self.pos_per_shard),
            fold_total,
        };
        let sink = ShardSink {
            base: self.base,
            rows: take_mut(&mut self.rows, take),
            spill,
            events: self.record.then_some(events),
        };
        self.base += shard.len();
        self.pos_base += self.pos_per_shard;
        Some((shard, work, sink))
    }
}

/// A phase sweep runnable on one shard: the body of the serial loop,
/// writing counters and events through the shard's sink.
pub(crate) trait Sweep: Sync {
    /// Sweeps one shard, emitting in ascending node order.
    fn sweep(
        &self,
        shard: &mut ColumnsShard<'_>,
        work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    );
}

/// Runs `sweep` over the whole fleet — one shard per warmed shard
/// scratch, the first inline on the calling thread (so the serial
/// path never spawns) — then [`settle`]s the shards.
pub(crate) fn drive<S: Sweep>(parts: &mut SimParts<'_>, ctx: &mut SlotCtx, sweep: &S) {
    let record = !parts.observers.is_empty();
    fork_join(
        ShardIter::new(parts.nodes, ctx, &mut parts.metrics.nodes, record).map(
            |(mut shard, mut work, mut sink)| move || sweep.sweep(&mut shard, &mut work, &mut sink),
        ),
    );
    settle(&mut ctx.shards, parts.metrics, parts.observers);
}

/// After the join: applies each shard's cross-shard spill to its
/// counter rows, then replays (and clears) the recorded events in
/// ascending shard order — the replayed stream equals the serial
/// emission sequence.
pub(crate) fn settle(
    scratches: &mut [ShardScratch],
    metrics: &mut NetworkMetrics,
    observers: &mut Observers,
) {
    for scratch in scratches {
        for event in scratch.spill.drain(..) {
            if let Some(row) = event.counter_row().and_then(|n| metrics.nodes.get_mut(n)) {
                fold_node(row, &event);
            }
        }
        for event in scratch.events.drain(..) {
            observers.on_event(&event);
        }
    }
}
