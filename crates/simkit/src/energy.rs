//! Exact energy accounting with per-app attribution.
//!
//! The paper measures app-level power with the Trepn profiler and
//! system-level power with a Monsoon monitor (§7.1). The simulation can do
//! better than sampling: power draws are piecewise-constant between
//! simulation events, so [`EnergyMeter`] integrates them *exactly* — every
//! draw change first settles the elapsed interval at the old level.
//!
//! Attribution follows the Trepn convention the paper relies on: each
//! consumer (the system baseline or a specific app) owns the *delta* power
//! its behaviour causes. A wakelock holder owns the idle-keepalive delta, a
//! working app owns the active-CPU delta, a GPS requester owns the radio
//! draw, and so on. The substrate crate decides the split; this module just
//! integrates faithfully and conserves energy.

use std::collections::BTreeMap;

use crate::power::ComponentKind;
use crate::time::{SimDuration, SimTime};

/// Who a power draw is billed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Consumer {
    /// Device baseline: deep-sleep floor, user-driven screen, OS services.
    System,
    /// A specific app, identified by its uid.
    App(u32),
}

impl std::fmt::Display for Consumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Consumer::System => write!(f, "system"),
            Consumer::App(uid) => write!(f, "app:{uid}"),
        }
    }
}

/// A single metering channel: one consumer's share of one component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Channel {
    /// Who pays.
    pub consumer: Consumer,
    /// Which component the draw belongs to.
    pub component: ComponentKind,
}

/// Integrates piecewise-constant power draws into per-consumer energy.
///
/// All energies are in millijoules; draws in milliwatts; time in simulated
/// milliseconds (so `mJ = mW × ms / 1000`).
///
/// ```
/// use leaseos_simkit::{Consumer, ComponentKind, EnergyMeter, SimTime};
///
/// let mut meter = EnergyMeter::new();
/// // App 1 holds the CPU at a 100 mW delta for 10 simulated seconds.
/// meter.set_draw(SimTime::ZERO, Consumer::App(1), ComponentKind::Cpu, 100.0);
/// meter.set_draw(SimTime::from_secs(10), Consumer::App(1), ComponentKind::Cpu, 0.0);
/// assert!((meter.energy_mj(Consumer::App(1)) - 1_000.0).abs() < 1e-9);
/// ```
// BTreeMaps keep iteration order deterministic, which keeps floating-point
// accumulation order — and therefore whole-run energy totals — bit-identical
// across processes.
#[derive(Debug, Default)]
pub struct EnergyMeter {
    last: SimTime,
    draws: BTreeMap<Channel, f64>,
    energy: BTreeMap<Consumer, f64>,
    channel_energy: BTreeMap<Channel, f64>,
    total_mj: f64,
}

impl EnergyMeter {
    /// Creates a meter with no draws, clock at zero.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Integrates all open draws up to `now`.
    ///
    /// Idempotent for a fixed `now`; out-of-order calls (`now` in the past)
    /// are ignored rather than double-counted.
    pub fn advance_to(&mut self, now: SimTime) {
        if now <= self.last {
            return;
        }
        let dt_ms = now.since(self.last).as_millis() as f64;
        for (channel, mw) in &self.draws {
            if *mw != 0.0 {
                let mj = mw * dt_ms / 1_000.0;
                *self.energy.entry(channel.consumer).or_insert(0.0) += mj;
                *self.channel_energy.entry(*channel).or_insert(0.0) += mj;
                self.total_mj += mj;
            }
        }
        self.last = now;
    }

    /// Sets the draw on `(consumer, component)` to `mw`, settling the elapsed
    /// interval at the previous level first.
    ///
    /// # Panics
    ///
    /// Panics if `mw` is negative or non-finite: a negative draw would let
    /// accounting bugs masquerade as savings.
    pub fn set_draw(
        &mut self,
        now: SimTime,
        consumer: Consumer,
        component: ComponentKind,
        mw: f64,
    ) {
        assert!(
            mw.is_finite() && mw >= 0.0,
            "draw must be a non-negative finite mW value, got {mw}"
        );
        self.advance_to(now);
        let channel = Channel {
            consumer,
            component,
        };
        if mw == 0.0 {
            self.draws.remove(&channel);
        } else {
            self.draws.insert(channel, mw);
        }
    }

    /// Energy billed to `consumer` so far, in mJ.
    pub fn energy_mj(&self, consumer: Consumer) -> f64 {
        self.energy.get(&consumer).copied().unwrap_or(0.0)
    }

    /// Energy billed to `consumer` for one component, in mJ.
    pub fn component_energy_mj(&self, consumer: Consumer, component: ComponentKind) -> f64 {
        self.channel_energy
            .get(&Channel {
                consumer,
                component,
            })
            .copied()
            .unwrap_or(0.0)
    }

    /// Total integrated energy across all consumers, in mJ.
    pub fn total_energy_mj(&self) -> f64 {
        self.total_mj
    }

    /// Average power billed to `consumer` over `[SimTime::ZERO, now]`, in mW.
    ///
    /// Returns zero for an empty window.
    pub fn avg_power_mw(&self, consumer: Consumer, over: SimDuration) -> f64 {
        if over.is_zero() {
            return 0.0;
        }
        self.energy_mj(consumer) / over.as_secs_f64()
    }

    /// Average system-wide power over `over`, in mW.
    pub fn avg_total_power_mw(&self, over: SimDuration) -> f64 {
        if over.is_zero() {
            return 0.0;
        }
        self.total_mj / over.as_secs_f64()
    }

    /// All consumers that have been billed any energy, sorted.
    pub fn consumers(&self) -> Vec<Consumer> {
        let mut v: Vec<Consumer> = self.energy.keys().copied().collect();
        v.sort();
        v
    }

    /// Sum of per-consumer energies; equals [`total_energy_mj`] by
    /// construction (exposed for conservation tests).
    ///
    /// [`total_energy_mj`]: Self::total_energy_mj
    pub fn attributed_energy_mj(&self) -> f64 {
        self.energy.values().sum()
    }

    /// Sum of per-channel energies; equals [`total_energy_mj`] by
    /// construction (the finer-grained conservation check used by the
    /// runtime invariant audits).
    ///
    /// [`total_energy_mj`]: Self::total_energy_mj
    pub fn channel_attributed_energy_mj(&self) -> f64 {
        self.channel_energy.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const APP: Consumer = Consumer::App(1);
    const OTHER: Consumer = Consumer::App(2);

    #[test]
    fn integrates_constant_draw_exactly() {
        let mut m = EnergyMeter::new();
        m.set_draw(SimTime::ZERO, APP, ComponentKind::Cpu, 250.0);
        m.advance_to(SimTime::from_secs(4));
        assert!((m.energy_mj(APP) - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn draw_change_settles_previous_level() {
        let mut m = EnergyMeter::new();
        m.set_draw(SimTime::ZERO, APP, ComponentKind::Cpu, 100.0);
        m.set_draw(SimTime::from_secs(2), APP, ComponentKind::Cpu, 300.0);
        m.advance_to(SimTime::from_secs(3));
        // 2 s at 100 mW + 1 s at 300 mW = 200 + 300 mJ.
        assert!((m.energy_mj(APP) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_consumers_are_independent() {
        let mut m = EnergyMeter::new();
        m.set_draw(SimTime::ZERO, APP, ComponentKind::Gps, 150.0);
        m.set_draw(SimTime::ZERO, OTHER, ComponentKind::Screen, 450.0);
        m.advance_to(SimTime::from_secs(10));
        assert!((m.energy_mj(APP) - 1_500.0).abs() < 1e-9);
        assert!((m.energy_mj(OTHER) - 4_500.0).abs() < 1e-9);
    }

    #[test]
    fn energy_is_conserved() {
        let mut m = EnergyMeter::new();
        m.set_draw(SimTime::ZERO, Consumer::System, ComponentKind::Cpu, 7.0);
        m.set_draw(SimTime::from_secs(1), APP, ComponentKind::Cpu, 30.0);
        m.set_draw(SimTime::from_secs(2), OTHER, ComponentKind::Wifi, 240.0);
        m.set_draw(SimTime::from_secs(3), APP, ComponentKind::Cpu, 0.0);
        m.advance_to(SimTime::from_secs(5));
        assert!((m.total_energy_mj() - m.attributed_energy_mj()).abs() < 1e-9);
        assert!((m.total_energy_mj() - m.channel_attributed_energy_mj()).abs() < 1e-9);
    }

    #[test]
    fn per_component_breakdown() {
        let mut m = EnergyMeter::new();
        m.set_draw(SimTime::ZERO, APP, ComponentKind::Cpu, 100.0);
        m.set_draw(SimTime::ZERO, APP, ComponentKind::Gps, 50.0);
        m.advance_to(SimTime::from_secs(2));
        assert!((m.component_energy_mj(APP, ComponentKind::Cpu) - 200.0).abs() < 1e-9);
        assert!((m.component_energy_mj(APP, ComponentKind::Gps) - 100.0).abs() < 1e-9);
        assert!((m.energy_mj(APP) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn advance_is_idempotent_and_ignores_past() {
        let mut m = EnergyMeter::new();
        m.set_draw(SimTime::ZERO, APP, ComponentKind::Cpu, 100.0);
        m.advance_to(SimTime::from_secs(1));
        m.advance_to(SimTime::from_secs(1));
        m.advance_to(SimTime::ZERO);
        assert!((m.energy_mj(APP) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn avg_power_matches_constant_draw() {
        let mut m = EnergyMeter::new();
        m.set_draw(SimTime::ZERO, APP, ComponentKind::Audio, 70.0);
        let run = SimDuration::from_mins(30);
        m.advance_to(SimTime::ZERO + run);
        assert!((m.avg_power_mw(APP, run) - 70.0).abs() < 1e-9);
        assert!((m.avg_total_power_mw(run) - 70.0).abs() < 1e-9);
    }

    #[test]
    fn zero_window_average_is_zero() {
        let m = EnergyMeter::new();
        assert_eq!(m.avg_power_mw(APP, SimDuration::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_draw_panics() {
        EnergyMeter::new().set_draw(SimTime::ZERO, APP, ComponentKind::Cpu, -5.0);
    }

    #[test]
    fn consumers_listing_is_sorted() {
        let mut m = EnergyMeter::new();
        m.set_draw(SimTime::ZERO, OTHER, ComponentKind::Cpu, 1.0);
        m.set_draw(SimTime::ZERO, Consumer::System, ComponentKind::Cpu, 1.0);
        m.set_draw(SimTime::ZERO, APP, ComponentKind::Cpu, 1.0);
        m.advance_to(SimTime::from_secs(1));
        assert_eq!(m.consumers(), vec![Consumer::System, APP, OTHER]);
    }
}
