//! Phase 2 — wake/capture: scheduled nodes pay the activation
//! threshold and capture one data package.
//!
//! A node scheduled this slot (its clone phase) wakes only if its
//! budget covers the system's activation threshold; a scheduled node
//! that cannot afford it is a *failure* (energy depletion). Awake
//! nodes capture one package (rain can spoil the sample); fog-capable
//! nodes enqueue its processing task behind a bounded NV admission
//! buffer, others ship it raw.
//!
//! The admission check reads the FIFO-depth column, not the queue
//! itself, so a node that stays asleep costs this stage two column
//! loads (schedule, RTC sync bit) and nothing from its cold row. The
//! sampling roll draws from the node's *own* RNG stream, so the stage
//! is still per-node independent and shards cleanly.

use super::columns::NodeView;
use super::ctx::{Package, SlotCtx, MAX_PENDING};
use super::event::{ShedReason, SimEvent};
use super::ledger::EnergyLedger;
use super::shard::{ShardSink, ShardWork, Stage};
use super::SimConfig;
use crate::node::SystemKind;

/// The per-slot scalars the wake stage closes over.
pub(super) struct WakeStage {
    slot: u64,
    system: SystemKind,
    sampling_success: f64,
    fog_capable: bool,
    fog_instructions: u64,
}

impl WakeStage {
    pub(super) fn new(cfg: &SimConfig, ctx: &SlotCtx) -> Self {
        WakeStage {
            slot: ctx.slot,
            system: cfg.system,
            sampling_success: cfg.sampling_success,
            fog_capable: cfg.system.is_fog_capable(),
            fog_instructions: cfg.node.package.fog_instructions,
        }
    }
}

impl Stage for WakeStage {
    #[inline(always)]
    fn node_sweep(
        &self,
        view: &mut NodeView<'_>,
        ledger: &mut EnergyLedger,
        _work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    ) {
        let node = view.node;
        let scheduled = view.schedule.wakes_at(self.slot) && view.rtc.is_synchronized();
        if !scheduled {
            return;
        }
        if view.available() >= self.system.wake_threshold() {
            view.spend(ledger, self.system.wake_cost());
            *view.awake = true;
            sink.emit(SimEvent::NodeWoke { node });
        } else {
            sink.emit(SimEvent::WakeFailed { node });
            return;
        }
        // Capture one package (rain can spoil the sample).
        if !view.cold.rng.chance(self.sampling_success) {
            return;
        }
        sink.emit(SimEvent::PackageCaptured { node });
        let pkg = Package {
            origin: node,
            created: self.slot,
            fog_remaining: self.fog_instructions,
            fog_done: false,
        };
        if self.fog_capable {
            // Admission control: the NV buffer holds a bounded
            // backlog; beyond it new samples are discarded ("if the
            // node lacks energy to process ... the sampled data are
            // discarded").
            if (*view.fifo_depth as usize) < MAX_PENDING {
                view.cold.pending.push(pkg);
                *view.fifo_depth += 1;
            } else {
                sink.emit(SimEvent::PackageShed {
                    node,
                    count: 1,
                    reason: ShedReason::BufferFull,
                });
            }
        } else {
            view.cold.outbox.push(pkg);
        }
    }
}
