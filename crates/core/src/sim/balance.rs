//! Phase 3 — balance: redistribute fog tasks among the awake
//! representatives of each chain position.
//!
//! The configured intra-chain balancer sees one representative per
//! logical position (the awake clone, if any) with its Spendthrift
//! state, reassigns the pending fog tasks, and the transfer traffic is
//! charged to the awake nodes — via the balance-credit column: the
//! per-node share is marked on every awake node, then the
//! [`CreditStage`] spends marked credits in index order (the same
//! order the old participant list walked, without allocating it).
//!
//! The balancer call itself is inherently serial (it sees the whole
//! chain at once and draws from the global RNG stream), so it is one
//! of the slot's two barriers: it books its network-level counters
//! (tasks migrated, offload decisions) directly on the coordinator,
//! and only the credit spend is element-wise — it opens the pass that
//! follows the balancer.

use super::columns::{self, position_nodes, NodeColumns, NodeView};
use super::ctx::{Package, SlotCtx};
use super::event::{RadioPurpose, SimEvent};
use super::ledger::EnergyLedger;
use super::shard::{ShardSink, ShardWork, Stage};
use super::{BalancerKind, SimConfig, SimParts};
use crate::balance::{ChainBalanceInput, FogTask, NodeBalanceState, RouteContext};
use neofog_types::{Energy, NodeId};

/// The balance-credit spend stage: pays a marked share and clears the
/// credit column behind itself.
pub(super) struct CreditStage;

impl Stage for CreditStage {
    #[inline(always)]
    fn node_sweep(
        &self,
        view: &mut NodeView<'_>,
        ledger: &mut EnergyLedger,
        _work: &mut ShardWork<'_>,
        sink: &mut ShardSink<'_>,
    ) {
        if *view.balance_credit == Energy::ZERO {
            return;
        }
        let share = std::mem::replace(view.balance_credit, Energy::ZERO);
        // The share is charged whether or not the spend lands in full
        // — the airtime happened either way.
        view.spend(ledger, share);
        sink.emit(SimEvent::RadioCharged {
            node: view.node,
            energy: share,
            purpose: RadioPurpose::Balance,
        });
    }
}

/// Whether the slot has a balancer barrier: a balancer is configured
/// on a fog-capable system.
pub(super) fn active(cfg: &SimConfig) -> bool {
    cfg.system.is_fog_capable() && !matches!(cfg.balancer, BalancerKind::None)
}

/// The serial balancer call: rebuilds the representatives' pending
/// queues and marks the transfer shares the [`CreditStage`] spends.
pub(super) fn run(parts: &mut SimParts<'_>, ctx: &mut SlotCtx) {
    let cols = &mut *parts.nodes;
    let multiplex = parts.cfg.multiplex as usize;
    // One representative per position: the awake clone (if any).
    let reps: Vec<Option<usize>> = (0..parts.cfg.positions)
        .map(|pos| position_nodes(pos, multiplex).find(|&i| cols.awake[i]))
        .collect();
    let mut chain_nodes = Vec::with_capacity(reps.len());
    let mut rep_map = Vec::with_capacity(reps.len());
    // A representative offers only what is left after one session and
    // two processed packets.
    let node_cfg = &parts.cfg.node;
    let tx_reserve = node_cfg.radio.session_cost(parts.rf)
        + node_cfg
            .radio
            .packet_cost(parts.rf, node_cfg.package.processed_bytes)
            * 2.0;
    for (pos, rep) in reps.iter().enumerate() {
        let (state, idx) = match rep {
            Some(i) => {
                let cold = &cols.cold[*i];
                let level_income = cols.income_power[*i];
                let spare = columns::budget_available(
                    cols.direct_left[*i],
                    cols.discharge_eff,
                    &cols.cap[*i],
                )
                .saturating_sub(tx_reserve);
                let tasks: Vec<FogTask> = cold
                    .pending
                    .iter()
                    .enumerate()
                    .map(|(k, p)| FogTask::new(p.fog_remaining, (*i as u64) << 32 | k as u64))
                    .collect();
                (
                    NodeBalanceState {
                        node: NodeId::new(*i as u32),
                        spare_energy: spare,
                        efficiency: parts.spendthrift.efficiency(level_income),
                        // Tier capability scales execution speed
                        // (×1.0 exact on all-sensor chains).
                        throughput: parts.spendthrift.throughput(level_income)
                            * parts.caps[pos].compute_rate,
                        tasks,
                        alive: true,
                    },
                    Some(*i),
                )
            }
            None => (
                NodeBalanceState {
                    node: NodeId::new(u32::MAX),
                    spare_energy: Energy::ZERO,
                    efficiency: 0.0,
                    throughput: 0.0,
                    tasks: Vec::new(),
                    alive: false,
                },
                None,
            ),
        };
        chain_nodes.push(state);
        rep_map.push(idx);
    }
    let mut input = ChainBalanceInput { nodes: chain_nodes };
    let route = RouteContext {
        hops_to_sink: parts.route.hops_slice(),
        next_hop: parts.route.next_hop_slice(),
        tier: parts.route.tier_slice(),
        caps: parts.caps,
        raw_bytes: parts.cfg.node.package.raw_bytes,
    };
    ctx.offload.clear();
    let report = parts
        .balancer
        .balance_routed(&mut input, &route, parts.rng, &mut ctx.offload);
    parts.emit_network(SimEvent::TasksMigrated {
        interrupted: report.interrupted_regions,
        moved: report.tasks_moved,
        hops: report.transfer_hops,
    });
    // Offload decisions are per logical position; report them against
    // the position's awake representative (the node that held — and
    // paid to ship — the tasks).
    for d in &ctx.offload {
        let Some(node) = rep_map.get(d.position).copied().flatten() else {
            continue;
        };
        parts.emit_network(SimEvent::OffloadDecided {
            node,
            target: d.target,
            tasks: d.tasks,
            ship_energy: d.ship_energy,
        });
    }

    // Apply the assignment: rebuild each representative's pending
    // queue from the post-balance task tags (a tag names the
    // original holder and its queue index).
    let cols = &mut *parts.nodes;
    let all_packages: Vec<Vec<Package>> = cols
        .cold
        .iter_mut()
        .map(|c| std::mem::take(&mut c.pending))
        .collect();
    for (pos, state) in input.nodes.iter().enumerate() {
        let Some(dest) = rep_map[pos] else { continue };
        for task in &state.tasks {
            let src = (task.tag >> 32) as usize;
            let k = (task.tag & 0xFFFF_FFFF) as usize;
            let pkg = all_packages[src][k];
            cols.cold[dest].pending.push(pkg);
        }
    }
    // Sleeping clones keep their own pending packages (they were
    // not offered to the balancer).
    for (i, packages) in all_packages.into_iter().enumerate() {
        if !cols.awake[i] {
            cols.cold[i].pending.extend(packages);
        }
    }
    // The queues were rebuilt wholesale; re-derive the depth mirror.
    cols.sync_fifo_depths();

    // Charge transfer costs: each hop moves one raw package.
    if report.transfer_hops > 0 {
        let per_hop = parts
            .cfg
            .node
            .radio
            .packet_cost(parts.rf, parts.cfg.node.package.raw_bytes)
            + parts
                .cfg
                .system
                .rx_cost(parts.rf, parts.cfg.node.package.raw_bytes);
        let NodeColumns {
            awake,
            balance_credit,
            ..
        } = cols;
        let participants = awake.iter().filter(|&&a| a).count();
        if participants > 0 {
            let share = per_hop * report.transfer_hops as f64 / participants as f64;
            // Mark the share on every awake node; the credit stage that
            // opens the next pass spends it in index order.
            for (credit, &awake) in balance_credit.iter_mut().zip(awake.iter()) {
                if awake {
                    *credit = share;
                }
            }
        }
    }
}
