//! Phase 5 — transmit: ship outboxes into the chain mesh.
//!
//! A node with ready packages opens a radio session (531 ms software
//! init / 33 ms NVM restore / 1.9 ms NVRF start depending on the
//! system) and ships packages processed-first; the MAC layer relays
//! transparently (§2.3), so delivery succeeds with the measured
//! per-hop probability compounded over the hop count, and awake
//! intermediate nodes are charged forwarding airtime.
//!
//! Relay duty is accumulated as a *difference array*: each packet
//! marks its byte count at its source position (one store), and a
//! single sweep over the route plan in decreasing-hop order (children
//! before parents) turns the marks into per-position duty — every
//! position relays exactly the bytes sourced at the positions that
//! route through it. On a chain the sweep order is `[n-1, …, 0]` and
//! each position has one child, so the sweep *is* the reverse
//! suffix-sum of the row pipeline: the same `u64` additions in the
//! same order, bit-identical charged duties. The row pipeline walked
//! `forward_bytes[0..pos]` per packet, which made a full-chain slot
//! O(positions²); the sweep is O(positions) on any topology.
//!
//! # Sharding
//!
//! The phase is split by its one barrier — the relay fold needs every
//! shard's sends — into two per-node stages around a coordinator fold;
//! the serial path is the same sequence over one full-range shard:
//!
//! 1. **Send** — [`SendStage`], the last stage of the slot's first
//!    pass (fused behind harvest → wake → exec → shed). The
//!    `forward_bytes[position]` marks are the only per-position
//!    writes, and shard boundaries are position-aligned,
//!    so each shard owns a disjoint `forward_bytes` segment
//!    ([`ShardWork::forward`]). Its per-shard epilogue totals the
//!    segment into the shard's `fold_total`.
//! 2. **Fold** — [`fold`], the barrier. On a chain the suffix-sum
//!    distributes: shard `k`'s duties equal its local reverse
//!    suffix-sum plus a carry (the total bytes sourced by shards
//!    `k+1..`), so the coordinator combines the per-shard totals in
//!    fixed (descending-shard) order into carries — `u64` addition is
//!    associative and exact, so the duties are bit-identical to a
//!    single serial suffix-sum — and each shard applies its own
//!    suffix-sum in the prologue of round 3. Non-chain topologies keep
//!    the serial O(positions) route-plan fold: it is not the
//!    bottleneck and its child order would need per-shard
//!    O(positions) scratch to split.
//! 3. **Relay duty** — [`DutyStage`], fused with slot end into the
//!    slot's last pass. Position `p`'s clones are `p·M..(p+1)·M` and
//!    every shard holds whole positions, so the first awake clone the
//!    stage meets in ascending node order is the position's
//!    representative: it takes the position's duty bytes and pays the
//!    charge, and the write stays shard-local.
//!
//! When observers record, each pass's events are replayed stage-major
//! after its join, which reproduces the serial sequence: all
//! session/packet events in node order, then all relay charges in
//! position order.

use super::columns::NodeView;
use super::ctx::{Package, SlotCtx};
use super::event::{RadioPurpose, SimEvent};
use super::ledger::EnergyLedger;
use super::shard::{ShardSink, ShardWork, Stage};
use super::SimParts;
use crate::node::{PackageSpec, RadioControl};
use neofog_rf::{LossModel, RfTimings};
use neofog_types::{Duration, Energy};

/// The per-run scalars and per-position tables the send stage closes
/// over.
pub(super) struct SendStage<'a> {
    radio: RadioControl,
    session: Energy,
    package: PackageSpec,
    /// Route-plan hops to the sink edge, per position.
    hops: &'a [u32],
    rf: &'a RfTimings,
    loss: &'a LossModel,
}

impl<'a> SendStage<'a> {
    pub(super) fn new(parts: &SimParts<'a>) -> Self {
        let radio = parts.cfg.node.radio;
        SendStage {
            radio,
            session: radio.session_cost(parts.rf),
            package: parts.cfg.node.package,
            hops: parts.route.hops_slice(),
            rf: parts.rf,
            loss: parts.loss,
        }
    }

    /// Bytes on air for `pkg`: processed packages are smaller.
    fn on_air_bytes(&self, pkg: &Package) -> u32 {
        if pkg.fog_done {
            self.package.processed_bytes
        } else {
            self.package.raw_bytes
        }
    }
}

impl Stage for SendStage<'_> {
    /// Ships an awake node's outbox, marking relay bytes into the
    /// shard's `forward_bytes` segment (`forward[position - pos_base]`).
    #[inline(always)]
    fn node_sweep(
        &self,
        view: &mut NodeView<'_>,
        ledger: &mut EnergyLedger,
        work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    ) {
        if !*view.awake || view.cold.outbox.is_empty() {
            return;
        }
        let node = view.node;
        let ShardWork {
            pos_base,
            pkg,
            forward,
            ..
        } = work;
        let Some(mark) = forward.get_mut(view.position - *pos_base) else {
            return;
        };
        let Some(&hops) = self.hops.get(view.position) else {
            return;
        };
        let cold = &mut *view.cold;
        // Processed packages first: smaller and more valuable. A
        // stable two-pass partition through the package scratch
        // keeps the relative order `sort_by_key` gave without its
        // potential temporary allocation.
        pkg.clear();
        pkg.extend(cold.outbox.iter().filter(|p| p.fog_done));
        pkg.extend(cold.outbox.iter().filter(|p| !p.fog_done));
        cold.outbox.clear();
        cold.outbox.extend_from_slice(pkg);
        // Open the session only when the first packet is payable
        // too — bringing the radio up and then browning out before
        // anything is sent would waste the whole session.
        let Some(first) = cold.outbox.first() else {
            return;
        };
        let first_cost = self.radio.packet_cost(self.rf, self.on_air_bytes(first));
        if view.available() < self.session + first_cost {
            return;
        }
        if !view.spend(ledger, self.session) {
            return;
        }
        sink.emit(SimEvent::RadioCharged {
            node,
            energy: self.session,
            purpose: RadioPurpose::Session,
        });
        while let Some(pkg) = view.cold.outbox.first().copied() {
            let bytes = self.on_air_bytes(&pkg);
            let cost = self.radio.packet_cost(self.rf, bytes);
            if !view.spend(ledger, cost) {
                break;
            }
            sink.emit(SimEvent::RadioCharged {
                node,
                energy: cost,
                purpose: RadioPurpose::Packet,
            });
            view.cold.outbox.remove(0);
            // End-to-end delivery through the transparent MAC:
            // per-hop loss compounded over the chain.
            let delivered = {
                let p = self.loss.chain_success(hops + 1);
                view.cold.rng.chance(p)
            };
            // Relay duty: mark the bytes at the source position; the
            // route fold credits them to every position on the path
            // to the sink.
            *mark += u64::from(bytes);
            let origin = pkg.origin;
            if delivered {
                sink.emit(SimEvent::PackageDelivered {
                    origin,
                    fog_done: pkg.fog_done,
                });
            } else {
                sink.emit(SimEvent::PackageLost { origin });
            }
        }
    }

    /// Totals the shard's relay marks for the chain fold.
    fn end_shard(&self, work: &mut ShardWork<'_>) {
        *work.fold_total = work.forward.iter().sum();
    }
}

/// The relay-duty stage: turns the shard's relay marks into duty
/// bytes (chains only — other topologies were folded by the
/// coordinator) and charges each relay position's awake
/// representative its forwarding airtime (RX + TX per byte).
pub(super) struct DutyStage {
    /// Forwarding airtime energy per relayed byte.
    per_byte: Energy,
    /// The marks still hold per-source bytes and `fold_total` the
    /// shard's carry-in: apply the chain's local suffix-sum first.
    chain_fold: bool,
}

impl DutyStage {
    pub(super) fn new(parts: &SimParts<'_>) -> Self {
        let rf = parts.rf;
        DutyStage {
            per_byte: rf.active_power * Duration::from_micros(2 * rf.on_air_per_byte_us),
            chain_fold: parts.cfg.topology.is_chain(),
        }
    }
}

impl Stage for DutyStage {
    fn begin_shard(&self, work: &mut ShardWork<'_>) {
        if self.chain_fold {
            let mut running = *work.fold_total;
            for slot in work.forward.iter_mut().rev() {
                let sourced = *slot;
                *slot = running;
                running += sourced;
            }
        }
    }

    #[inline(always)]
    fn node_sweep(
        &self,
        view: &mut NodeView<'_>,
        ledger: &mut EnergyLedger,
        work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    ) {
        if !*view.awake {
            return;
        }
        // The first awake clone of a position is its representative:
        // it takes the position's duty bytes, so later clones see 0.
        let Some(mark) = work.forward.get_mut(view.position - work.pos_base) else {
            return;
        };
        let bytes = std::mem::take(mark);
        if bytes == 0 {
            return;
        }
        let duty = self.per_byte * bytes as f64;
        if view.spend(ledger, duty) {
            sink.emit(SimEvent::RadioCharged {
                node: view.node,
                energy: duty,
                purpose: RadioPurpose::Relay,
            });
        }
    }
}

/// Round 2, the relay fold: the barrier between the send pass and the
/// duty pass.
pub(super) fn fold(parts: &SimParts<'_>, ctx: &mut SlotCtx) {
    if parts.cfg.topology.is_chain() {
        // The chain suffix-sum distributes over position segments:
        // shard k's duty is its local reverse suffix-sum plus the
        // carry — everything sourced downstream (shards k+1..). The
        // carries are combined here in fixed descending-shard order;
        // u64 addition is exact, so the duties match a single serial
        // suffix-sum bit for bit.
        let mut carry = 0u64;
        for scratch in ctx.shards.iter_mut().rev() {
            let total = scratch.fold_total;
            scratch.fold_total = carry; // becomes the shard's carry-in
            carry += total;
        }
    } else {
        // General topologies: one pass over the route plan's
        // decreasing-hop order (children before parents) — a
        // position's duty is the byte total sourced at the positions
        // routing through it.
        ctx.route_acc.resize(ctx.forward_bytes.len(), 0);
        for &v in parts.route.order() {
            let v = v as usize;
            let sourced = ctx.forward_bytes[v];
            let inherited = ctx.route_acc[v];
            ctx.forward_bytes[v] = inherited;
            if let Some(parent) = parts.route.next_hop(v) {
                ctx.route_acc[parent] += inherited + sourced;
            }
        }
    }
}
