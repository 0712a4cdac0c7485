//! Outside-in phase profile: an observer that infers the slot
//! pipeline's phase from each event it is handed and reads the clock
//! only when the phase changes.
//!
//! A phase runs from its first event to the next phase's first event;
//! `SlotBegan` opens the harvest phase and `SlotEnded` closes the slot.
//! Known skew: work a phase does before its first emit is charged to
//! the previous phase, and a phase that emits nothing in a slot (the
//! balance phase under `BalancerKind::None`) reads zero while its cost
//! lands in the phase before it. Only meaningful at `threads = 1`: the
//! sharded kernel buffers a phase's events and replays them after the
//! join, so at higher thread counts the clock sees the splice, not the
//! work.

use neofog_core::sim::{RadioPurpose, ShedReason, SimEvent, SimObserver};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The six phases of a slot, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Harvest income booking.
    Harvest,
    /// Wake-up, capture and admission.
    Wake,
    /// Intra-chain balancing / offload.
    Balance,
    /// Fog compute and stale shedding.
    Compute,
    /// Sessions, packets and relaying.
    Transmit,
    /// Leakage, volatile loss and ledger settlement.
    SlotEnd,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 6] = [
        Phase::Harvest,
        Phase::Wake,
        Phase::Balance,
        Phase::Compute,
        Phase::Transmit,
        Phase::SlotEnd,
    ];

    /// Metric-name label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Harvest => "harvest",
            Phase::Wake => "wake",
            Phase::Balance => "balance",
            Phase::Compute => "compute",
            Phase::Transmit => "transmit",
            Phase::SlotEnd => "slot_end",
        }
    }
}

/// The phases that can emit `event`, earliest first. Only a capacitor
/// overflow is ambiguous: harvest and slot end both emit it.
#[must_use]
pub fn candidates(event: &SimEvent) -> &'static [Phase] {
    match event {
        SimEvent::SlotBegan { .. } | SimEvent::HarvestBooked { .. } => &[Phase::Harvest],
        SimEvent::CapacitorOverflow { .. } => &[Phase::Harvest, Phase::SlotEnd],
        SimEvent::NodeWoke { .. }
        | SimEvent::WakeFailed { .. }
        | SimEvent::PackageCaptured { .. } => &[Phase::Wake],
        SimEvent::PackageShed { reason, .. } => match reason {
            ShedReason::BufferFull => &[Phase::Wake],
            ShedReason::Stale => &[Phase::Compute],
            ShedReason::Volatile => &[Phase::SlotEnd],
        },
        SimEvent::TasksMigrated { .. } | SimEvent::OffloadDecided { .. } => &[Phase::Balance],
        SimEvent::RadioCharged { purpose, .. } => match purpose {
            RadioPurpose::Balance => &[Phase::Balance],
            RadioPurpose::Session | RadioPurpose::Packet | RadioPurpose::Relay => {
                &[Phase::Transmit]
            }
        },
        SimEvent::FogProgressed { .. } | SimEvent::FogCompleted { .. } => &[Phase::Compute],
        SimEvent::PackageDelivered { .. } | SimEvent::PackageLost { .. } => &[Phase::Transmit],
        SimEvent::CapacitorLeaked { .. }
        | SimEvent::LedgerSettled { .. }
        | SimEvent::SlotEnded { .. } => &[Phase::SlotEnd],
    }
}

/// What the clock has accumulated.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    /// Host time charged to each phase, indexed like [`Phase::ALL`].
    pub time: [Duration; 6],
    /// Events attributed to each phase.
    pub events: [u64; 6],
    /// Slots closed by a `SlotEnded`.
    pub slots: u64,
    /// Events that arrived in an earlier phase than one already seen
    /// in the same slot, or outside any slot.
    pub order_violations: u64,
}

impl PhaseProfile {
    /// All events seen.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Host time of all phases together.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.time.iter().sum()
    }
}

struct OpenSlot {
    phase: Phase,
    since: Instant,
}

/// The observer. Clones share one profile.
#[derive(Clone, Default)]
pub struct PhaseClock {
    profile: Rc<RefCell<PhaseProfile>>,
    open: Rc<RefCell<Option<OpenSlot>>>,
}

impl PhaseClock {
    /// A snapshot of the profile so far.
    #[must_use]
    pub fn profile(&self) -> PhaseProfile {
        self.profile.borrow().clone()
    }
}

impl SimObserver for PhaseClock {
    fn on_event(&mut self, event: &SimEvent) {
        let mut profile = self.profile.borrow_mut();
        let mut open = self.open.borrow_mut();
        let choices = candidates(event);
        match (event, open.as_mut()) {
            (SimEvent::SlotBegan { .. }, slot) => {
                if slot.is_some() {
                    profile.order_violations += 1;
                }
                *open = Some(OpenSlot {
                    phase: Phase::Harvest,
                    since: Instant::now(),
                });
            }
            (_, None) => profile.order_violations += 1,
            (_, Some(slot)) => match choices.iter().find(|&&p| p >= slot.phase) {
                Some(&phase) if phase != slot.phase => {
                    let now = Instant::now();
                    profile.time[slot.phase as usize] += now - slot.since;
                    slot.phase = phase;
                    slot.since = now;
                }
                Some(_) => {}
                None => profile.order_violations += 1,
            },
        }
        let phase = open.as_ref().map_or(choices[0], |slot| slot.phase);
        profile.events[phase as usize] += 1;
        if matches!(event, SimEvent::SlotEnded { .. }) {
            if let Some(slot) = open.take() {
                profile.time[slot.phase as usize] += slot.since.elapsed();
                profile.slots += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use neofog_core::balance::OffloadTarget;
    use neofog_core::sim::Simulator;
    use neofog_types::Energy;

    /// One value of every variant (and every purpose / shed reason):
    /// adding a variant breaks [`candidates`]' exhaustive match, and
    /// this list documents where each one lands.
    fn every_event() -> Vec<(SimEvent, Phase)> {
        let e = Energy::ZERO;
        vec![
            (SimEvent::SlotBegan { slot: 0 }, Phase::Harvest),
            (
                SimEvent::HarvestBooked { node: 0, income: e },
                Phase::Harvest,
            ),
            (
                SimEvent::CapacitorOverflow {
                    node: 0,
                    rejected: e,
                },
                Phase::Harvest,
            ),
            (SimEvent::NodeWoke { node: 0 }, Phase::Wake),
            (SimEvent::WakeFailed { node: 0 }, Phase::Wake),
            (SimEvent::PackageCaptured { node: 0 }, Phase::Wake),
            (
                SimEvent::PackageShed {
                    node: 0,
                    count: 1,
                    reason: ShedReason::BufferFull,
                },
                Phase::Wake,
            ),
            (
                SimEvent::TasksMigrated {
                    interrupted: 0,
                    moved: 0,
                    hops: 0,
                },
                Phase::Balance,
            ),
            (
                SimEvent::OffloadDecided {
                    node: 0,
                    target: OffloadTarget::Local,
                    tasks: 0,
                    ship_energy: e,
                },
                Phase::Balance,
            ),
            (
                SimEvent::RadioCharged {
                    node: 0,
                    energy: e,
                    purpose: RadioPurpose::Balance,
                },
                Phase::Balance,
            ),
            (
                SimEvent::FogProgressed {
                    node: 0,
                    instructions: 1,
                    energy: e,
                },
                Phase::Compute,
            ),
            (SimEvent::FogCompleted { node: 0 }, Phase::Compute),
            (
                SimEvent::PackageShed {
                    node: 0,
                    count: 1,
                    reason: ShedReason::Stale,
                },
                Phase::Compute,
            ),
            (
                SimEvent::RadioCharged {
                    node: 0,
                    energy: e,
                    purpose: RadioPurpose::Session,
                },
                Phase::Transmit,
            ),
            (
                SimEvent::RadioCharged {
                    node: 0,
                    energy: e,
                    purpose: RadioPurpose::Packet,
                },
                Phase::Transmit,
            ),
            (
                SimEvent::RadioCharged {
                    node: 0,
                    energy: e,
                    purpose: RadioPurpose::Relay,
                },
                Phase::Transmit,
            ),
            (
                SimEvent::PackageDelivered {
                    origin: 0,
                    fog_done: true,
                },
                Phase::Transmit,
            ),
            (SimEvent::PackageLost { origin: 0 }, Phase::Transmit),
            (
                SimEvent::PackageShed {
                    node: 0,
                    count: 1,
                    reason: ShedReason::Volatile,
                },
                Phase::SlotEnd,
            ),
            (
                SimEvent::CapacitorLeaked {
                    node: 0,
                    leaked: e,
                    stored: e,
                },
                Phase::SlotEnd,
            ),
            (
                SimEvent::LedgerSettled {
                    node: 0,
                    stored_before: e,
                    harvested: e,
                    consumed: e,
                    leaked: e,
                    lost: e,
                    stored_after: e,
                },
                Phase::SlotEnd,
            ),
            (SimEvent::SlotEnded { slot: 0 }, Phase::SlotEnd),
        ]
    }

    #[test]
    fn every_variant_maps_to_a_phase() {
        let events = every_event();
        // One entry per variant (17) plus the extra purposes/reasons.
        assert_eq!(events.len(), 22);
        for (event, phase) in &events {
            assert_eq!(candidates(event)[0], *phase, "{event:?}");
        }
    }

    #[test]
    fn the_clock_counts_a_synthetic_slot_in_order() {
        let mut clock = PhaseClock::default();
        for (event, _) in every_event() {
            clock.on_event(&event);
        }
        let profile = clock.profile();
        assert_eq!(profile.order_violations, 0);
        assert_eq!(profile.slots, 1);
        assert_eq!(profile.events, [3, 4, 3, 3, 5, 4]);
        // An event after the slot closed, then a phase going backwards.
        clock.on_event(&SimEvent::NodeWoke { node: 0 });
        clock.on_event(&SimEvent::SlotBegan { slot: 1 });
        clock.on_event(&SimEvent::FogCompleted { node: 0 });
        clock.on_event(&SimEvent::NodeWoke { node: 0 });
        assert_eq!(clock.profile().order_violations, 2);
    }

    fn traced(cfg: neofog_core::sim::SimConfig, slots: u64) -> (PhaseProfile, Duration) {
        let mut sim = Simulator::new(cfg).expect("small config is valid");
        sim.advance(2);
        let clock = PhaseClock::default();
        sim.attach_observer(Box::new(clock.clone()));
        let mut wall = Duration::ZERO;
        for _ in 0..slots {
            let start = Instant::now();
            sim.advance(1);
            wall += start.elapsed();
        }
        (clock.profile(), wall)
    }

    #[test]
    fn phases_are_monotone_within_each_slot() {
        for threads in [1, 2] {
            for mut cfg in [
                workloads::small_chain_config(3),
                workloads::small_tiered_config(3),
                workloads::small_paper_config(3),
            ] {
                cfg.threads = threads;
                let (profile, _) = traced(cfg, 12);
                assert_eq!(profile.order_violations, 0, "threads {threads}");
                assert_eq!(profile.slots, 12);
                for (phase, events) in Phase::ALL.iter().zip(profile.events) {
                    // Every phase but balance emits on every config.
                    if *phase != Phase::Balance {
                        assert!(events > 0, "{phase:?} silent");
                    }
                }
            }
        }
    }

    #[test]
    fn phase_times_sum_to_the_traced_slot_time() {
        let mut cfg = workloads::small_chain_config(5);
        cfg.positions = 4_000;
        let (profile, wall) = traced(cfg, 30);
        let share = profile.total_time().as_secs_f64() / wall.as_secs_f64();
        assert!(
            (0.9..=1.0).contains(&share),
            "phases cover {share:.3} of the slot"
        );
    }
}
