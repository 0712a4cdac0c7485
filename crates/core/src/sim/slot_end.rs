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
//! The stage works the capacitor, direct-pool and FIFO-depth columns
//! (and, on volatile systems, the queues); the metered capacitor
//! accessors (`charge_metered`, `leak_metered`) return the deltas the
//! ledger books, so each element is a single call instead of a
//! read-mutate-read sequence. Settlement is per-node too, so the stage
//! shards cleanly and rides in the slot's last pass behind relay duty.

use super::columns::{self, NodeView};
use super::event::{ShedReason, SimEvent};
use super::ledger::EnergyLedger;
use super::shard::{ShardSink, ShardWork, Stage};
use super::SimConfig;
use neofog_types::{Duration, Energy};

/// The per-run scalars the slot-end stage closes over.
pub(super) struct SlotEndStage {
    slot_len: Duration,
    retains_state: bool,
    /// Sample the Figure-9 stored-energy series (`cfg.trace_stored`).
    trace_stored: bool,
}

impl SlotEndStage {
    pub(super) fn new(cfg: &SimConfig) -> Self {
        SlotEndStage {
            slot_len: cfg.slot_len,
            retains_state: cfg.system.retains_state(),
            trace_stored: cfg.trace_stored,
        }
    }
}

impl Stage for SlotEndStage {
    #[inline(always)]
    fn node_sweep(
        &self,
        view: &mut NodeView<'_>,
        ledger: &mut EnergyLedger,
        _work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    ) {
        let NodeView {
            node,
            cap,
            fifo_depth,
            direct_left,
            cold,
            direct_eff,
            ..
        } = view;
        let node = *node;
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
            **fifo_depth = 0;
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
