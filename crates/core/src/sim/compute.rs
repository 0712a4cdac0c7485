//! Phase 4 — compute: execute fog tasks within each node's time and
//! energy budget.
//!
//! Spendthrift chooses the frequency level from the effective
//! sustainable power (income plus a damped stored-energy term); the
//! head-of-queue task runs until time, energy or the transmit reserve
//! runs out. Forward progress persists across slots on NVPs. At the
//! tail of the phase, stale pending packages are shed: a node flush
//! with energy ships them raw to the cloud, otherwise "the sampled
//! data are discarded" (§5.1).
//!
//! Both stages skip idle nodes on the FIFO-depth column alone — a
//! node with nothing pending costs one dense `u32` load, not a
//! cold-row visit; on systems that are not fog-capable nothing is ever
//! pending, so both stages skip every node. Nodes that do work are
//! handled through their [`NodeView`] row lens; the budget spends use
//! the split-borrow free functions because the head package stays
//! borrowed across them.
//!
//! Both stages are per-node independent: for each node, execution
//! completes before its stale partition, exactly as the serial order
//! has it, and the stale partition uses the *shard's* package scratch
//! so workers never share a buffer.

use super::columns::{self, NodeView};
use super::ctx::SlotCtx;
use super::event::{ShedReason, SimEvent};
use super::ledger::EnergyLedger;
use super::shard::{ShardSink, ShardWork, Stage};
use super::{SimConfig, SimParts};
use crate::node::NodeCapabilities;
use neofog_nvp::SpendthriftPolicy;
use neofog_types::{Duration, Energy, Power};

/// The fog-execution stage: runs head-of-queue tasks on a node with a
/// non-empty FIFO.
pub(super) struct ExecStage<'a> {
    slot_len: Duration,
    spendthrift: &'a SpendthriftPolicy,
    /// Per-position capability rows, read through `view.position`.
    caps: &'a [NodeCapabilities],
    /// Energy held back so computing never starves shipping: one radio
    /// session plus one processed packet.
    reserve: Energy,
}

impl<'a> ExecStage<'a> {
    pub(super) fn new(parts: &SimParts<'a>) -> Self {
        let node = &parts.cfg.node;
        ExecStage {
            slot_len: parts.cfg.slot_len,
            spendthrift: parts.spendthrift,
            caps: parts.caps,
            reserve: node.radio.session_cost(parts.rf)
                + node
                    .radio
                    .packet_cost(parts.rf, node.package.processed_bytes),
        }
    }
}

impl Stage for ExecStage<'_> {
    #[inline(always)]
    fn node_sweep(
        &self,
        view: &mut NodeView<'_>,
        ledger: &mut EnergyLedger,
        _work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    ) {
        if *view.fifo_depth == 0 {
            return;
        }
        let Some(caps) = self.caps.get(view.position) else {
            return;
        };
        let node = view.node;
        let slot_len = self.slot_len;
        // Spendthrift samples both income power and the stored-energy
        // level (§2.2/§4): the effective sustainable power this slot is
        // the income plus what the capacitor could contribute, so a
        // node that accumulated for several sleeping slots (NVD4Q
        // clones) boosts its frequency when it finally activates.
        // The capacitor term is damped: the store must last beyond this
        // one slot, so Spendthrift only banks half of it on the level
        // decision.
        let effective = *view.income_power
            + Power::from_milliwatts(
                0.5 * view.available().as_nanojoules() / slot_len.as_micros() as f64,
            );
        let lvl = self.spendthrift.choose(effective);
        let cold = &mut *view.cold;
        // The tier capability scales execution speed (gateways and
        // cloud nodes run faster silicon); sensors are 1.0, so the
        // chain goldens see an exact ×1.0 multiply.
        let (epi, throughput) = (
            lvl.energy_per_inst,
            self.spendthrift.throughput(effective) * caps.compute_rate,
        );
        let mut time_left = (throughput * slot_len.as_secs_f64()) as u64;
        while time_left > 0 {
            let Some(pkg) = cold.pending.first_mut() else {
                break;
            };
            let energy_afford =
                columns::budget_available(*view.direct_left, view.discharge_eff, view.cap)
                    .saturating_sub(self.reserve)
                    .as_nanojoules()
                    / epi.as_nanojoules();
            let run = pkg
                .fog_remaining
                .min(time_left)
                .min(energy_afford.max(0.0) as u64);
            if run == 0 {
                break;
            }
            let cost = epi * run as f64;
            if !columns::spend_budget(
                &mut *view.direct_left,
                view.direct_eff,
                view.discharge_eff,
                &mut *view.cap,
                ledger,
                cost,
            ) {
                break;
            }
            sink.emit(SimEvent::FogProgressed {
                node,
                instructions: run,
                energy: cost,
            });
            pkg.fog_remaining -= run;
            time_left -= run;
            if pkg.fog_remaining == 0 {
                pkg.fog_done = true;
                let finished = cold.pending.remove(0);
                cold.outbox.push(finished);
                *view.fifo_depth -= 1;
                sink.emit(SimEvent::FogCompleted { node });
            }
        }
    }
}

/// The stale-shed stage: drops (or ships raw) pending packages that
/// never started executing and have aged past the staleness window. A
/// node flush with energy ships them raw to the cloud; otherwise "the
/// sampled data are discarded" (§5.1). An empty FIFO has nothing to
/// shed and emits nothing — the depth column skips the whole row.
pub(super) struct ShedStage {
    slot: u64,
    /// A package's full task length: one still at it never started.
    fog_instructions: u64,
}

impl ShedStage {
    pub(super) fn new(cfg: &SimConfig, ctx: &SlotCtx) -> Self {
        ShedStage {
            slot: ctx.slot,
            fog_instructions: cfg.node.package.fog_instructions,
        }
    }
}

impl Stage for ShedStage {
    #[inline(always)]
    fn node_sweep(
        &self,
        view: &mut NodeView<'_>,
        _ledger: &mut EnergyLedger,
        work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    ) {
        let stale_after = 20;
        if *view.fifo_depth == 0 {
            return;
        }
        let cold = &mut *view.cold;
        let fog_len = self.fog_instructions;
        // Packages with execution progress are never shed — killing
        // a half-finished head would waste the energy already sunk.
        // Partition through the shard's package scratch (retain
        // keeps order, like the drain/partition it replaces,
        // without allocating).
        let stale = &mut *work.pkg;
        stale.clear();
        cold.pending.retain(|p| {
            let is_stale =
                p.fog_remaining == fog_len && self.slot.saturating_sub(p.created) > stale_after;
            if is_stale {
                stale.push(*p);
            }
            !is_stale
        });
        *view.fifo_depth = cold.pending.len() as u32;
        if view.cap.fraction() > 0.6 {
            cold.outbox.extend_from_slice(stale);
        } else if !stale.is_empty() {
            sink.emit(SimEvent::PackageShed {
                node: view.node,
                count: stale.len() as u64,
                reason: ShedReason::Stale,
            });
        }
    }
}
