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
//! itself, so a node that stays asleep costs this sweep two column
//! loads (schedule, RTC sync bit) and nothing from its cold row. The
//! sampling roll draws from the node's *own* RNG stream, so the sweep
//! is still per-node independent and shards cleanly.

use super::columns;
use super::ctx::{Package, SlotCtx, MAX_PENDING};
use super::event::{ShedReason, SimEvent};
use super::shard::{drive, ColumnsShard, ShardSink, ShardWork, Sweep};
use super::SimParts;
use crate::node::SystemKind;

/// The per-slot scalars the wake sweep closes over.
struct WakeSweep {
    slot: u64,
    system: SystemKind,
    sampling_success: f64,
    fog_capable: bool,
}

impl Sweep for WakeSweep {
    fn sweep(
        &self,
        shard: &mut ColumnsShard<'_>,
        _work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    ) {
        let ColumnsShard {
            base,
            cap,
            rtc,
            schedule,
            fifo_depth,
            direct_left,
            awake,
            cold,
            ledgers,
            direct_eff,
            discharge_eff,
            ..
        } = shard;
        for (
            local,
            (((((((schedule, rtc), cap), direct_left), awake), fifo_depth), cold), ledger),
        ) in schedule
            .iter()
            .zip(rtc.iter())
            .zip(cap.iter_mut())
            .zip(direct_left.iter_mut())
            .zip(awake.iter_mut())
            .zip(fifo_depth.iter_mut())
            .zip(cold.iter_mut())
            .zip(ledgers.iter_mut())
            .enumerate()
        {
            let node = *base + local;
            let scheduled = schedule.wakes_at(self.slot) && rtc.is_synchronized();
            if !scheduled {
                continue;
            }
            if columns::budget_available(*direct_left, *discharge_eff, cap)
                >= self.system.wake_threshold()
            {
                columns::spend_budget(
                    direct_left,
                    *direct_eff,
                    *discharge_eff,
                    cap,
                    ledger,
                    self.system.wake_cost(),
                );
                *awake = true;
                sink.emit(SimEvent::NodeWoke { node });
                // Capture one package (rain can spoil the sample).
                if !cold.rng.chance(self.sampling_success) {
                    continue;
                }
                sink.emit(SimEvent::PackageCaptured { node });
                let pkg = Package {
                    origin: node,
                    created: self.slot,
                    fog_remaining: cold.cfg.package.fog_instructions,
                    fog_done: false,
                };
                if self.fog_capable {
                    // Admission control: the NV buffer holds a bounded
                    // backlog; beyond it new samples are discarded ("if
                    // the node lacks energy to process ... the sampled
                    // data are discarded").
                    if (*fifo_depth as usize) < MAX_PENDING {
                        cold.pending.push(pkg);
                        *fifo_depth += 1;
                    } else {
                        sink.emit(SimEvent::PackageShed {
                            node,
                            count: 1,
                            reason: ShedReason::BufferFull,
                        });
                    }
                } else {
                    cold.outbox.push(pkg);
                }
            } else {
                sink.emit(SimEvent::WakeFailed { node });
            }
        }
    }
}

pub(super) fn run(parts: &mut SimParts<'_>, ctx: &mut SlotCtx) {
    let system = parts.cfg.system;
    let sweep = WakeSweep {
        slot: ctx.slot,
        system,
        sampling_success: parts.cfg.sampling_success,
        fog_capable: system.is_fog_capable(),
    };
    drive(parts, ctx, &sweep);
}
