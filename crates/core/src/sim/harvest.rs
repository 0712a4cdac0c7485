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
//! The sweep zips exactly the columns it writes (capacitor, RTC,
//! direct pool, income power) against the cold rows it reads (curve,
//! config); the budget efficiencies are per-run scalars set when the
//! columns were scattered, so nothing is stored per node here. There
//! is no cross-node data flow, so the sweep runs per shard through
//! [`drive`].

use super::ctx::SlotCtx;
use super::event::SimEvent;
use super::shard::{drive, ColumnsShard, ShardSink, ShardWork, Sweep};
use super::SimParts;
use neofog_energy::FrontEnd;
use neofog_types::{Duration, Energy, Power};

/// The per-slot scalars the harvest sweep closes over.
struct HarvestSweep {
    t0: Duration,
    t1: Duration,
    slot_len: Duration,
    fe: FrontEnd,
}

impl Sweep for HarvestSweep {
    fn sweep(
        &self,
        shard: &mut ColumnsShard<'_>,
        _work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    ) {
        let has_direct = self.fe.has_direct_channel();
        let ColumnsShard {
            base,
            cap,
            rtc,
            direct_left,
            income_power,
            cold,
            ledgers,
            ..
        } = shard;
        for (local, (((((cold, cap), rtc), direct_left), income_power), ledger)) in cold
            .iter_mut()
            .zip(cap.iter_mut())
            .zip(rtc.iter_mut())
            .zip(direct_left.iter_mut())
            .zip(income_power.iter_mut())
            .zip(ledgers.iter_mut())
            .enumerate()
        {
            let node = *base + local;
            let ambient = cold.curve.energy_between(self.t0, self.t1);
            let mut income = ambient * cold.cfg.harvester_efficiency;
            ledger.credit_harvest(income);
            *income_power =
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

            if has_direct {
                *direct_left = income * self.fe.direct_efficiency();
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
}

pub(super) fn run(parts: &mut SimParts<'_>, ctx: &mut SlotCtx) {
    let sweep = HarvestSweep {
        t0: ctx.t0,
        t1: ctx.t1,
        slot_len: parts.cfg.slot_len,
        fe: parts.cfg.node.front_end,
    };
    drive(parts, ctx, &sweep);
}
