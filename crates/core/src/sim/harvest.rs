//! Phase 1 — harvest: integrate each node's income curve into its slot
//! energy budget.
//!
//! Per node: the ambient income is read off the node's prefix-summed
//! [`EnergyCurve`](neofog_energy::EnergyCurve) — two O(1) lookups
//! instead of a walk over every trace sample the slot covers — scaled
//! by the harvester front-end; the RTC capacitor charges first
//! (charging priority) and, if it lost synchronization, attempts a
//! stored-energy resync; what remains fills the `direct_left` budget
//! column — FIOS nodes get a 90 %-efficient direct pool plus the
//! capacitor, NOS nodes only the capacitor round-trip.
//!
//! The stage reads the capacitor, RTC, direct-pool and income-power
//! columns and the node's curve; the harvester and budget
//! efficiencies are per-run scalars, so nothing is stored per node
//! here. There is no cross-node data flow, so the stage runs per
//! shard, fused with wake into the slot's first pass.

use super::columns::NodeView;
use super::ctx::SlotCtx;
use super::event::SimEvent;
use super::ledger::EnergyLedger;
use super::shard::{ShardSink, ShardWork, Stage};
use super::SimConfig;
use neofog_energy::FrontEnd;
use neofog_types::{Duration, Energy, Power};

/// The per-slot scalars the harvest stage closes over.
pub(super) struct HarvestStage {
    t0: Duration,
    t1: Duration,
    slot_len: Duration,
    harvester_efficiency: f64,
    fe: FrontEnd,
}

impl HarvestStage {
    pub(super) fn new(cfg: &SimConfig, ctx: &SlotCtx) -> Self {
        HarvestStage {
            t0: ctx.t0,
            t1: ctx.t1,
            slot_len: cfg.slot_len,
            harvester_efficiency: cfg.node.harvester_efficiency,
            fe: cfg.node.front_end,
        }
    }
}

impl Stage for HarvestStage {
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
            rtc,
            direct_left,
            income_power,
            cold,
            ..
        } = view;
        let node = *node;
        let ambient = cold.curve.energy_between(self.t0, self.t1);
        let mut income = ambient * self.harvester_efficiency;
        ledger.credit_harvest(income);
        **income_power =
            Power::from_milliwatts(income.as_nanojoules() / self.slot_len.as_micros() as f64);
        // RTC priority charging (takes only what it needs; the RTC
        // is a terminal load, so its intake books as consumed).
        let past_rtc = rtc.tick(income, self.slot_len);
        ledger.debit_consumed(income.saturating_sub(past_rtc));
        income = past_rtc;
        if !rtc.is_synchronized() {
            // Attempt a resynchronization with stored energy. Any
            // draw the RTC cannot bank has left the capacitor for
            // good and books as lost.
            let drawn = cap.discharge_up_to(Energy::from_millijoules(1.0));
            let spare = rtc.charge_with_priority(drawn);
            ledger.debit_consumed(drawn.saturating_sub(spare));
            ledger.debit_loss(spare);
            rtc.resynchronize(Energy::from_millijoules(0.5));
        }

        if self.fe.has_direct_channel() {
            **direct_left = income * self.fe.direct_efficiency();
        } else {
            // NOS: income goes through the capacitor first; the
            // charge path's conversion loss plus any overflow a
            // full capacitor rejects both book as lost. The direct
            // pool column stays at the zero `begin_slot` gave it.
            let receipt = cap.charge_metered(income);
            ledger.debit_loss(income.saturating_sub(receipt.banked));
            sink.emit(SimEvent::CapacitorOverflow {
                node,
                rejected: receipt.rejected,
            });
        }
        sink.emit(SimEvent::HarvestBooked { node, income });
    }
}
