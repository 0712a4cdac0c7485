//! Phase 6 — slot end: bank leftovers, leak capacitors, settle
//! ledgers.
//!
//! Unspent direct income charges the capacitor (overflow is rejected),
//! capacitors self-discharge, volatile nodes lose their queues at
//! power-down, the Figure-9 stored-energy series takes its per-slot
//! sample (when `trace_stored` is set), and each node's conservation
//! ledger settles into a [`SimEvent::LedgerSettled`] event for the
//! observers to audit.
//!
//! The sweep zips the capacitor, direct-pool and FIFO-depth columns
//! against the cold rows; the metered capacitor accessors
//! (`charge_metered`, `leak_metered`) return the deltas the ledger
//! books, so each element is a single call instead of a
//! read-mutate-read sequence. Settlement is per-node too, so the
//! whole phase shards cleanly.

use super::columns;
use super::ctx::SlotCtx;
use super::event::{ShedReason, SimEvent};
use super::shard::{drive, ColumnsShard, ShardSink, ShardWork, Sweep};
use super::SimParts;
use neofog_types::{Duration, Energy};

/// The per-slot scalars the slot-end sweep closes over.
struct SlotEndSweep {
    slot_len: Duration,
    retains_state: bool,
    /// Sample the Figure-9 stored-energy series (`cfg.trace_stored`).
    trace_stored: bool,
}

impl Sweep for SlotEndSweep {
    fn sweep(
        &self,
        shard: &mut ColumnsShard<'_>,
        _work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    ) {
        let ColumnsShard {
            base,
            cap,
            fifo_depth,
            direct_left,
            cold,
            ledgers,
            direct_eff,
            ..
        } = shard;
        for (local, ((((cap, direct_left), fifo_depth), cold), ledger)) in cap
            .iter_mut()
            .zip(direct_left.iter_mut())
            .zip(fifo_depth.iter_mut())
            .zip(cold.iter_mut())
            .zip(ledgers.iter_mut())
            .enumerate()
        {
            let node = *base + local;
            // Unspent direct income charges the capacitor.
            let leftover = columns::leftover_income(direct_left, *direct_eff);
            if leftover > Energy::ZERO {
                let receipt = cap.charge_metered(leftover);
                ledger.debit_loss(leftover.saturating_sub(receipt.banked));
                sink.emit(SimEvent::CapacitorOverflow {
                    node,
                    rejected: receipt.rejected,
                });
            }
            let leaked = cap.leak_metered(self.slot_len);
            ledger.debit_leak(leaked);
            if !self.retains_state {
                // Volatile node: queues evaporate at power-down.
                let lost = (cold.pending.len() + cold.outbox.len()) as u64;
                if lost > 0 {
                    sink.emit(SimEvent::PackageShed {
                        node,
                        count: lost,
                        reason: ShedReason::Volatile,
                    });
                }
                cold.pending.clear();
                cold.outbox.clear();
                *fifo_depth = 0;
            }
            let stored = cap.stored();
            if self.trace_stored {
                sink.sample_stored(node, stored);
            }
            sink.emit(SimEvent::CapacitorLeaked {
                node,
                leaked,
                stored,
            });
            if let Some(settled) = ledger.settlement(node, stored) {
                sink.emit(settled);
            }
        }
    }
}

pub(super) fn run(parts: &mut SimParts<'_>, ctx: &mut SlotCtx) {
    let sweep = SlotEndSweep {
        slot_len: parts.cfg.slot_len,
        retains_state: parts.cfg.system.retains_state(),
        trace_stored: parts.cfg.trace_stored,
    };
    drive(parts, ctx, &sweep);
}
