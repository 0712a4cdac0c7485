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
//! The phase runs as two shard sweeps around a coordinator fold — the
//! serial path is the same sequence over one full-range shard:
//!
//! 1. **Send** — per-shard sweep. The `forward_bytes[position]` marks
//!    are the only per-position writes, and shard boundaries are
//!    position-aligned, so each shard owns a disjoint
//!    `forward_bytes` segment ([`ShardWork::forward`]). Each shard
//!    also totals its segment into its `fold_total`.
//! 2. **Fold** — on a chain, the suffix-sum distributes: shard `k`'s
//!    duties equal its local reverse suffix-sum plus a carry (the
//!    total bytes sourced by shards `k+1..`), so the coordinator
//!    combines the per-shard totals in fixed (descending-shard) order
//!    into carries — `u64` addition is associative and exact, so the
//!    duties are bit-identical to a single serial suffix-sum — and
//!    each shard applies its own suffix-sum at the top of round 3.
//!    Non-chain topologies keep the serial O(positions) route-plan
//!    fold: it is not the bottleneck and its child order would need
//!    per-shard O(positions) scratch to split.
//! 3. **Relay duty** — per-shard sweep over positions; each
//!    position's awake representative lives in the shard that owns
//!    the position, so the charge writes stay shard-local.
//!
//! Recorded events are replayed after round 1 and again after round 3,
//! which reproduces the serial sequence: all session/packet events in
//! node order, then all relay charges in position order.

use super::ctx::SlotCtx;
use super::event::{RadioPurpose, SimEvent};
use super::shard::{drive, ColumnsShard, ShardSink, ShardWork, Sweep};
use super::SimParts;
use crate::node::RadioControl;
use neofog_rf::{LossModel, RfTimings};
use neofog_types::{Duration, Energy};

/// The per-run scalars the send sweep closes over.
struct SendSweep<'a> {
    radio: RadioControl,
    session: Energy,
    rf: &'a RfTimings,
    loss: &'a LossModel,
}

impl Sweep for SendSweep<'_> {
    /// Ships every awake node's outbox, marking relay bytes into the
    /// shard's `forward_bytes` segment (`forward[position - pos_base]`)
    /// and totalling the segment for the chain fold.
    fn sweep(
        &self,
        shard: &mut ColumnsShard<'_>,
        work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    ) {
        let ShardWork {
            pkg,
            forward,
            fold_total,
        } = work;
        for local in 0..shard.len() {
            if !shard.awake[local] {
                continue;
            }
            let node = shard.base + local;
            let pos_base = shard.pos_base;
            let (mut view, ledger) = shard.view_ledger(local);
            if view.outbox.is_empty() {
                continue;
            }
            let local_pos = view.position - pos_base;
            // Processed packages first: smaller and more valuable. A
            // stable two-pass partition through the package scratch
            // keeps the relative order `sort_by_key` gave without its
            // potential temporary allocation.
            pkg.clear();
            pkg.extend(view.outbox.iter().filter(|p| p.fog_done));
            pkg.extend(view.outbox.iter().filter(|p| !p.fog_done));
            view.outbox.clear();
            view.outbox.extend_from_slice(pkg);
            // Open the session only when the first packet is payable
            // too — bringing the radio up and then browning out before
            // anything is sent would waste the whole session.
            let first = view.outbox[0];
            let first_bytes = if first.fog_done {
                view.cfg.package.processed_bytes
            } else {
                view.cfg.package.raw_bytes
            };
            let first_cost = self.radio.packet_cost(self.rf, first_bytes);
            if view.available() < self.session + first_cost {
                continue;
            }
            if !view.spend(ledger, self.session) {
                continue;
            }
            sink.emit(SimEvent::RadioCharged {
                node,
                energy: self.session,
                purpose: RadioPurpose::Session,
            });
            let hops = view.hops_to_sink; // route-plan hops to the sink edge
            while let Some(pkg) = view.outbox.first().copied() {
                let bytes = if pkg.fog_done {
                    view.cfg.package.processed_bytes
                } else {
                    view.cfg.package.raw_bytes
                };
                let cost = self.radio.packet_cost(self.rf, bytes);
                if !view.spend(ledger, cost) {
                    break;
                }
                sink.emit(SimEvent::RadioCharged {
                    node,
                    energy: cost,
                    purpose: RadioPurpose::Packet,
                });
                view.outbox.remove(0);
                // End-to-end delivery through the transparent MAC:
                // per-hop loss compounded over the chain.
                let delivered = {
                    let p = self.loss.chain_success(hops + 1);
                    view.rng.chance(p)
                };
                // Relay duty: mark the bytes at the source position;
                // the route fold below credits them to every position
                // on the path to the sink.
                forward[local_pos] += u64::from(bytes);
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
        **fold_total = forward.iter().sum();
    }
}

/// The relay-duty sweep: turns the shard's relay marks into duty
/// bytes (chains only — other topologies were folded by the
/// coordinator) and charges each relay position's awake
/// representative its forwarding airtime (RX + TX per byte).
struct DutySweep<'a> {
    positions: &'a [Vec<usize>],
    rf: &'a RfTimings,
    /// The marks still hold per-source bytes and `fold_total` the
    /// shard's carry-in: apply the chain's local suffix-sum first.
    chain_fold: bool,
}

impl Sweep for DutySweep<'_> {
    fn sweep(
        &self,
        shard: &mut ColumnsShard<'_>,
        work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    ) {
        if self.chain_fold {
            let mut running = *work.fold_total;
            for slot in work.forward.iter_mut().rev() {
                let sourced = *slot;
                *slot = running;
                running += sourced;
            }
        }
        let rf = self.rf;
        let per_byte = rf.active_power * Duration::from_micros(2 * rf.on_air_per_byte_us);
        for (local_pos, &bytes) in work.forward.iter().enumerate() {
            if bytes == 0 {
                continue;
            }
            let awake = &*shard.awake;
            let base = shard.base;
            let Some(rep) = self
                .positions
                .get(shard.pos_base + local_pos)
                .and_then(|phys| {
                    phys.iter()
                        .copied()
                        .find(|&i| awake.get(i - base).copied().unwrap_or(false))
                })
            else {
                continue;
            };
            let duty = per_byte * bytes as f64;
            let local = rep - shard.base;
            let (mut view, ledger) = shard.view_ledger(local);
            if view.spend(ledger, duty) {
                sink.emit(SimEvent::RadioCharged {
                    node: rep,
                    energy: duty,
                    purpose: RadioPurpose::Relay,
                });
            }
        }
    }
}

pub(super) fn run(parts: &mut SimParts<'_>, ctx: &mut SlotCtx) {
    let radio = parts.cfg.node.radio;
    let send = SendSweep {
        radio,
        session: radio.session_cost(parts.rf),
        rf: parts.rf,
        loss: parts.loss,
    };
    // Round 1: ship outboxes, marking relay bytes per source position
    // into `ctx.forward_bytes` (zeroed to one entry per position by
    // the slot reset).
    drive(parts, ctx, &send);

    // Round 2: the relay fold.
    let chain_fold = parts.cfg.topology.is_chain();
    if chain_fold {
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

    // Round 3: per-shard relay-duty charges (each position's
    // representative lives inside the shard owning the position).
    let duty = DutySweep {
        positions: parts.positions,
        rf: parts.rf,
        chain_fold,
    };
    drive(parts, ctx, &duty);
}
