//! Shared per-slot state the phase functions operate on.
//!
//! A [`SlotCtx`] is a reusable scratch struct owned by the simulator:
//! it is [`reset`](SlotCtx::reset) at the top of every slot and
//! threaded through the six phases in order. It owns the per-slot
//! state that is *not* per-node-columnar (conservation ledgers,
//! per-position forwarding duty, package scratch). Node state lives
//! in [`NodeColumns`](super::columns::NodeColumns), which
//! `Simulator::new` builds directly; its per-slot columns — budgets,
//! wake flags, income powers — are reset by
//! [`begin_slot`](super::columns::NodeColumns::begin_slot) alongside
//! this context. Both clear and refill in place, so after the first
//! slot the steady-state loop performs no heap allocation here.

use super::columns::NodeColumns;
use super::ledger::EnergyLedger;
use super::shard::{pos_per_shard, ShardScratch};
use crate::balance::OffloadDecision;
use crate::sim::SimConfig;
use neofog_types::Duration;
use serde::{Deserialize, Serialize};

/// Fog backlog (packages) beyond which wake admission sheds a node's
/// own new samples. Only admission checks it: the balance phase's
/// apply step, which also places the Offload balancer's tasks shipped
/// to mains-powered tiers, appends to a representative's `pending`
/// without a room check, so a queue can grow past it (ROADMAP item 5).
pub(crate) const MAX_PENDING: usize = 8;

/// Initial capacity for the per-node package queues and the package
/// scratch. Admission keeps a node's own captures within
/// [`MAX_PENDING`], and the outbox backlog tracks it closely (one
/// capture per wake plus what fog processing releases), so 2× is
/// enough that slots without balancing never regrow the queues. A
/// queue that balancing pushes past it regrows like any `Vec`.
pub(crate) const QUEUE_RESERVE: usize = 2 * MAX_PENDING;

/// One captured data package travelling through the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Package {
    /// Index of the capturing physical node.
    pub(crate) origin: usize,
    /// Slot of capture.
    pub(crate) created: u64,
    /// Remaining fog instructions (0 = processed).
    pub(crate) fog_remaining: u64,
    /// Whether the fog task completed.
    pub(crate) fog_done: bool,
}

/// The non-columnar per-slot state, with allocations that last the
/// whole run (see the module docs).
#[derive(Default)]
pub(crate) struct SlotCtx {
    /// Slot index.
    pub(crate) slot: u64,
    /// Slot start in simulated time.
    pub(crate) t0: Duration,
    /// Slot end in simulated time.
    pub(crate) t1: Duration,
    /// One conservation ledger per node, opened against the stored
    /// level entering the slot and settled at slot end.
    pub(crate) ledgers: Vec<EnergyLedger>,
    /// Transmit-phase scratch: forwarding airtime (bytes) accumulated
    /// per logical position this slot.
    pub(crate) forward_bytes: Vec<u64>,
    /// Transmit-phase scratch: bytes flowing *into* each position from
    /// its route-plan children, accumulated by the topological relay
    /// sweep.
    pub(crate) route_acc: Vec<u64>,
    /// Balance-phase scratch: offload decisions taken this slot.
    pub(crate) offload: Vec<OffloadDecision>,
    /// Per-shard scratch for the sweeps: event and spill buffers,
    /// package scratch and fold partials, one per configured worker
    /// (always at least one — the serial path is a single shard).
    pub(crate) shards: Vec<ShardScratch>,
    /// Logical positions per shard (the last shard may be short).
    pub(crate) pos_per_shard: usize,
    /// Physical nodes per shard: `pos_per_shard × multiplex`.
    pub(crate) nodes_per_shard: usize,
}

impl SlotCtx {
    /// A scratch context whose vectors are pre-sized for `n_phys`
    /// physical nodes, `n_pos` chain positions and `threads` shard
    /// workers, so even the first slots only fill — never grow — them.
    pub(crate) fn warmed(n_phys: usize, n_pos: usize, threads: usize) -> Self {
        let mut ctx = SlotCtx::default();
        ctx.ledgers.reserve(n_phys);
        ctx.forward_bytes.reserve(n_pos);
        ctx.route_acc.reserve(n_pos);
        ctx.offload.reserve(n_pos);
        ctx.warm_shards(n_phys, n_pos, threads);
        ctx
    }

    /// (Re)sizes the per-shard scratch for `threads` workers; called
    /// at construction and when the thread count changes mid-life
    /// (benchmark reuse via [`Simulator::set_threads`]).
    ///
    /// [`Simulator::set_threads`]: super::Simulator::set_threads
    pub(crate) fn warm_shards(&mut self, n_phys: usize, n_pos: usize, threads: usize) {
        let shards = threads.min(n_pos).max(1);
        let per = pos_per_shard(n_pos, shards);
        let multiplex = (n_phys / n_pos.max(1)).max(1);
        self.pos_per_shard = per;
        self.nodes_per_shard = per * multiplex;
        self.shards.clear();
        self.shards
            .extend((0..shards).map(|_| ShardScratch::warmed(per * multiplex)));
    }

    /// Resets the context for `slot`, opening one ledger per node.
    /// Clears and refills every per-slot vector in place so their
    /// capacity survives from slot to slot.
    pub(crate) fn reset(&mut self, cfg: &SimConfig, nodes: &NodeColumns, slot: u64) {
        let t0 = Duration::from_micros(slot * cfg.slot_len.as_micros());
        self.slot = slot;
        self.t0 = t0;
        self.t1 = t0 + cfg.slot_len;
        self.ledgers.clear();
        self.ledgers
            .extend(nodes.cap.iter().map(|c| EnergyLedger::open(c.stored())));
        self.forward_bytes.clear();
        self.forward_bytes.resize(cfg.positions, 0);
        self.route_acc.clear();
        self.offload.clear();
        for shard in &mut self.shards {
            shard.events.clear();
            shard.spill.clear();
            shard.pkg.clear();
            shard.fold_total = 0;
        }
    }
}
