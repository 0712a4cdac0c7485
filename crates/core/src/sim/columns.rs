//! Struct-of-arrays node state: the columnar substrate the slot
//! kernel sweeps over.
//!
//! The phase functions are linear passes over every physical node, and
//! at fleet scale (10⁵–10⁶ nodes per chain) an array-of-structs
//! layout, one row per node, made each pass a pointer-chase: harvesting
//! touched a capacitor, an RTC, a curve and two queues per node even
//! though it only *needed* the capacitor level and the curve. This
//! module splits that state by temperature:
//!
//! * **Hot columns** — one `Vec` per field the sweeps read every slot:
//!   capacitor, RTC, schedule, chain position, NV FIFO depth, the
//!   per-slot direct pool, wake flags, income powers and balance
//!   credits. A phase that needs three fields walks three dense
//!   arrays; everything else stays out of cache.
//! * **Cold rows** — [`NodeCold`]: the prefix-summed energy curve, the
//!   package queues and the RNG stream, the only state that is truly
//!   per node and too large or too rarely touched to be a column. They
//!   are touched only when a node actually wakes, computes or
//!   transmits, so they stay row-oriented and are reached through
//!   [`NodeView`].
//!
//! Nothing is stored per node that is not per node. The `NodeConfig` is
//! one per run, so each stage copies the scalars it needs from
//! `SimConfig::node` when it is built. Tier capabilities and hop counts
//! are per position, so stages read them from the simulator's
//! per-position tables (`SimParts::caps`, `RoutePlan::hops_slice`)
//! through the node's `position`, the one per-node key into them.
//!
//! The energy budget arithmetic is three free functions over split
//! borrows — [`budget_available`], [`spend_budget`] and
//! [`leftover_income`] — whose operation order `tests/columns_goldens.rs`
//! pins; the front-end efficiencies they take are per-run scalars on
//! [`NodeColumns`].
//!
//! Balance credits are a column so the transfer-cost charging is a
//! linear sweep: mark the share on every awake node, then spend marked
//! credits in index order, allocation-free.

use super::ctx::Package;
use super::ledger::EnergyLedger;
use neofog_energy::{EnergyCurve, FrontEnd, Rtc, SuperCap};
use neofog_net::slots::SlotSchedule;
use neofog_types::{Energy, Power, SimRng};
use std::ops::Range;

/// Rarely-touched per-node state, reached only when a node is active.
pub(crate) struct NodeCold {
    /// Prefix-summed income curve (O(1) per-slot integration).
    pub(crate) curve: EnergyCurve,
    /// Packages awaiting fog processing (fog systems only).
    pub(crate) pending: Vec<Package>,
    /// Packages ready for transmission.
    pub(crate) outbox: Vec<Package>,
    /// The node's private RNG stream.
    pub(crate) rng: SimRng,
}

/// All per-node state, columnar for the hot fields.
///
/// Indices are physical node indices in [`Simulator::new`]'s
/// construction order (position-major, clones within a position), so
/// every event keeps its node id.
///
/// [`Simulator::new`]: super::Simulator::new
pub(crate) struct NodeColumns {
    // --- durable hot columns (persist across slots) ---
    /// Main super-capacitor per node.
    pub(crate) cap: Vec<SuperCap>,
    /// RTC capacitor per node.
    pub(crate) rtc: Vec<Rtc>,
    /// Wake schedule cursor per node.
    pub(crate) schedule: Vec<SlotSchedule>,
    /// Logical chain position per node: the key into every
    /// per-position table.
    pub(crate) position: Vec<usize>,
    /// NV FIFO backlog (`cold[i].pending.len()`), mirrored here so
    /// admission checks and empty-queue skips never touch a cold row.
    pub(crate) fifo_depth: Vec<u32>,
    // --- per-slot hot columns (reset by `begin_slot`) ---
    /// Unspent direct-channel pool (the harvest phase fills it).
    pub(crate) direct_left: Vec<Energy>,
    /// Wake flags (set by the wake phase; absorbed from `SlotCtx`).
    pub(crate) awake: Vec<bool>,
    /// Mean income power over the slot, pre-RTC (harvest fills it).
    pub(crate) income_power: Vec<Power>,
    /// Balance-transfer shares marked on awake nodes, spent in index
    /// order by the balance credit stage.
    pub(crate) balance_credit: Vec<Energy>,
    // --- per-run scalars ---
    /// Direct-channel efficiency (0.0 on systems without one); shared
    /// by every node, so a scalar rather than a column.
    pub(crate) direct_eff: f64,
    /// Capacitor discharge-regulator efficiency (shared).
    pub(crate) discharge_eff: f64,
    // --- cold rows ---
    /// Row-oriented cold state, indexed like the columns.
    pub(crate) cold: Vec<NodeCold>,
}

/// A row lens over one node: disjoint borrows of every hot column at
/// the node's index and of its cold row. The shard's row iterator
/// yields one per node, beside the node's conservation ledger, by
/// zipping the column slices, so a phase stage reads and writes a node
/// like the row-oriented pipeline it replaced without indexing any
/// column.
///
/// Every piece is a separate field (not a sub-struct) on purpose: the
/// compute stage holds a borrow of the pending queue's head package
/// across budget spends, which is only legal because `cold`,
/// `direct_left` and `cap` are sibling fields the borrow checker can
/// split (`&mut *view.direct_left` while `view.cold.pending`'s head is
/// live).
pub(crate) struct NodeView<'a> {
    /// Global physical node index (the id every event carries).
    pub(crate) node: usize,
    /// Main super-capacitor.
    pub(crate) cap: &'a mut SuperCap,
    /// RTC capacitor.
    pub(crate) rtc: &'a mut Rtc,
    /// Wake schedule cursor.
    pub(crate) schedule: &'a SlotSchedule,
    /// Logical chain position.
    pub(crate) position: usize,
    /// Mirrored `cold.pending.len()`; keep in sync on push/pop.
    pub(crate) fifo_depth: &'a mut u32,
    /// Unspent direct pool.
    pub(crate) direct_left: &'a mut Energy,
    /// Wake flag.
    pub(crate) awake: &'a mut bool,
    /// Mean income power this slot.
    pub(crate) income_power: &'a mut Power,
    /// Balance-transfer share marked on this node.
    pub(crate) balance_credit: &'a mut Energy,
    /// Curve, queues and RNG stream.
    pub(crate) cold: &'a mut NodeCold,
    /// Direct-channel efficiency (per-run scalar).
    pub(crate) direct_eff: f64,
    /// Discharge-regulator efficiency (per-run scalar).
    pub(crate) discharge_eff: f64,
}

impl NodeView<'_> {
    /// Spendable energy this slot (see [`budget_available`]).
    pub(crate) fn available(&self) -> Energy {
        budget_available(*self.direct_left, self.discharge_eff, self.cap)
    }

    /// Spends `amount` at the load (see [`spend_budget`]).
    pub(crate) fn spend(&mut self, ledger: &mut EnergyLedger, amount: Energy) -> bool {
        spend_budget(
            &mut *self.direct_left,
            self.direct_eff,
            self.discharge_eff,
            &mut *self.cap,
            ledger,
            amount,
        )
    }
}

/// The physical nodes implementing logical `position` under NVD4Q
/// multiplex factor `multiplex`: nodes are laid out position-major, so
/// position `p` owns `p·M .. (p+1)·M`.
pub(crate) fn position_nodes(position: usize, multiplex: usize) -> Range<usize> {
    position * multiplex..(position + 1) * multiplex
}

/// Spendable energy: the direct pool plus the capacitor behind the
/// discharge regulator.
pub(crate) fn budget_available(direct_left: Energy, discharge_eff: f64, cap: &SuperCap) -> Energy {
    direct_left + cap.stored() * discharge_eff
}

/// Spends `amount` (at the load), direct pool first, booking the
/// delivery and both channels' conversion losses in the ledger.
/// Returns false (spending nothing) if unaffordable.
pub(crate) fn spend_budget(
    direct_left: &mut Energy,
    direct_eff: f64,
    discharge_eff: f64,
    cap: &mut SuperCap,
    ledger: &mut EnergyLedger,
    amount: Energy,
) -> bool {
    if budget_available(*direct_left, discharge_eff, cap) < amount {
        return false;
    }
    let from_direct = amount.min(*direct_left);
    *direct_left -= from_direct;
    if direct_eff > 0.0 && from_direct > Energy::ZERO {
        // The direct channel is lossy at the point of use: raw
        // income `from_direct / eff` delivered only `from_direct`.
        ledger.debit_loss(from_direct / direct_eff - from_direct);
    }
    let rest = amount - from_direct;
    if rest > Energy::ZERO {
        let gross = rest / discharge_eff;
        // Floating-point slack: available() said yes.
        let drawn = cap.discharge_up_to(gross);
        debug_assert!(drawn >= gross * 0.999);
        ledger.debit_loss(drawn.saturating_sub(rest));
    }
    ledger.debit_consumed(amount);
    true
}

/// Drains the direct pool, returning it converted back to raw income.
pub(crate) fn leftover_income(direct_left: &mut Energy, direct_eff: f64) -> Energy {
    let left = *direct_left;
    *direct_left = Energy::ZERO;
    if direct_eff > 0.0 {
        left / direct_eff
    } else {
        left
    }
}

impl NodeColumns {
    /// Empty columns with room for `n` nodes. `fe` is the fleet's
    /// shared front-end (every node has the same `NodeConfig`), which
    /// fixes the per-run budget efficiencies.
    pub(crate) fn with_capacity(n: usize, fe: FrontEnd) -> NodeColumns {
        NodeColumns {
            cap: Vec::with_capacity(n),
            rtc: Vec::with_capacity(n),
            schedule: Vec::with_capacity(n),
            position: Vec::with_capacity(n),
            fifo_depth: Vec::with_capacity(n),
            direct_left: Vec::with_capacity(n),
            awake: Vec::with_capacity(n),
            income_power: Vec::with_capacity(n),
            balance_credit: Vec::with_capacity(n),
            direct_eff: if fe.has_direct_channel() {
                fe.direct_efficiency()
            } else {
                0.0
            },
            discharge_eff: fe.discharge_efficiency(),
            cold: Vec::with_capacity(n),
        }
    }

    /// Appends one node (the next physical index) with cleared
    /// per-slot columns and its FIFO depth mirrored from `cold`.
    pub(crate) fn push_node(
        &mut self,
        cap: SuperCap,
        rtc: Rtc,
        schedule: SlotSchedule,
        position: usize,
        cold: NodeCold,
    ) {
        self.cap.push(cap);
        self.rtc.push(rtc);
        self.schedule.push(schedule);
        self.position.push(position);
        self.fifo_depth.push(cold.pending.len() as u32);
        self.direct_left.push(Energy::ZERO);
        self.awake.push(false);
        self.income_power.push(Power::ZERO);
        self.balance_credit.push(Energy::ZERO);
        self.cold.push(cold);
    }

    /// Number of physical nodes.
    pub(crate) fn len(&self) -> usize {
        self.cold.len()
    }

    /// Resets the per-slot columns in place (capacity survives; the
    /// steady-state loop allocates nothing here).
    pub(crate) fn begin_slot(&mut self) {
        self.direct_left.fill(Energy::ZERO);
        self.awake.fill(false);
        self.income_power.fill(Power::ZERO);
        self.balance_credit.fill(Energy::ZERO);
    }

    /// Re-derives every FIFO depth from its queue — one linear sweep,
    /// used after the balance phase rebuilds the pending queues
    /// wholesale.
    pub(crate) fn sync_fifo_depths(&mut self) {
        for (depth, cold) in self.fifo_depth.iter_mut().zip(self.cold.iter()) {
            *depth = cold.pending.len() as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_math_matches_the_row_pipeline() {
        // A FIOS-style budget: direct pool plus capacitor.
        let mut cap = SuperCap::new(Energy::from_millijoules(10.0))
            .with_initial(Energy::from_millijoules(4.0));
        let mut direct = Energy::from_millijoules(2.0);
        let (d_eff, c_eff) = (0.9, 0.8);
        let mut ledger = EnergyLedger::open(cap.stored());
        let avail = budget_available(direct, c_eff, &cap);
        assert!((avail.as_millijoules() - (2.0 + 4.0 * 0.8)).abs() < 1e-9);
        // Spend beyond the direct pool: remainder is drawn through the
        // discharge regulator at 1/0.8 gross.
        assert!(spend_budget(
            &mut direct,
            d_eff,
            c_eff,
            &mut cap,
            &mut ledger,
            Energy::from_millijoules(3.0),
        ));
        assert_eq!(direct, Energy::ZERO);
        assert!((cap.stored().as_millijoules() - (4.0 - 1.0 / 0.8)).abs() < 1e-9);
        // Unaffordable spends must not touch anything.
        let before = cap.stored();
        assert!(!spend_budget(
            &mut direct,
            d_eff,
            c_eff,
            &mut cap,
            &mut ledger,
            Energy::from_millijoules(100.0),
        ));
        assert_eq!(cap.stored(), before);
        // NOS leftover (no direct channel) passes through unconverted.
        let mut none = Energy::ZERO;
        assert_eq!(leftover_income(&mut none, 0.0), Energy::ZERO);
        let mut left = Energy::from_millijoules(0.9);
        let raw = leftover_income(&mut left, 0.9);
        assert!((raw.as_millijoules() - 1.0).abs() < 1e-9);
        assert_eq!(left, Energy::ZERO);
    }
}
