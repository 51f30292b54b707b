//! # leaseos-simkit — simulation substrate for the LeaseOS reproduction
//!
//! The LeaseOS paper (Hu, Liu, Huang — ASPLOS 2019) evaluates a modified
//! Android framework on physical phones with hardware power monitors. This
//! crate provides the laptop-scale substitute: a deterministic discrete-event
//! simulation core with
//!
//! * virtual time ([`SimTime`], [`SimDuration`]) and a FIFO-stable
//!   [`EventQueue`],
//! * seeded, fork-able randomness ([`SimRng`]),
//! * a component-state power model ([`PowerTable`], [`ComponentState`]) with
//!   profiles for the paper's six phones ([`DeviceProfile`]),
//! * exact piecewise-constant energy integration with per-app attribution
//!   ([`EnergyMeter`]),
//! * a battery reservoir ([`Battery`]) for battery-life projections,
//! * scripted environments ([`Environment`]) reproducing the paper's trigger
//!   conditions (bad mail server, disconnects, GPS-denied buildings), and
//! * time-series recording ([`TimeSeries`], [`SeriesSet`]) plus summary
//!   statistics ([`stats`]), and
//! * seeded parametric device populations ([`PopulationSpec`]) for
//!   fleet-scale sweeps.
//!
//! The OS substrate (`leaseos-framework`), the lease mechanism itself
//! (`leaseos`), the baseline policies (`leaseos-baselines`), and the app
//! behaviour models (`leaseos-apps`) all build on these primitives.
//!
//! ## Example
//!
//! ```
//! use leaseos_simkit::{
//!     ComponentKind, Consumer, DeviceProfile, EnergyMeter, EventQueue, SimTime,
//! };
//!
//! // A two-event simulation: an app takes a 100 mW draw at t=0 and drops it
//! // at t=10 s. The meter integrates exactly 1 J.
//! let device = DeviceProfile::pixel_xl();
//! let mut queue = EventQueue::new();
//! let mut meter = EnergyMeter::new();
//! queue.push(SimTime::ZERO, 100.0_f64);
//! queue.push(SimTime::from_secs(10), 0.0_f64);
//! while let Some((t, mw)) = queue.pop() {
//!     meter.set_draw(t, Consumer::App(1), ComponentKind::Cpu, mw);
//! }
//! assert!((meter.energy_mj(Consumer::App(1)) - 1_000.0).abs() < 1e-9);
//! assert_eq!(device.name, "Pixel XL");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod battery;
mod device;
mod energy;
mod env;
pub mod faults;
pub mod metrics;
pub mod population;
mod power;
mod queue;
mod rng;
pub mod stats;
pub mod telemetry;
mod time;
mod trace;

pub use battery::{battery_life, Battery};
pub use device::DeviceProfile;
pub use energy::{Channel, Consumer, EnergyMeter};
pub use env::{Environment, GpsSignal, Schedule};
pub use faults::{
    AuditViolation, BatteryMeterCrossCheck, BatteryMeterSample, CorrelationRule,
    EnergyConservation, FaultKind, FaultPlan, FaultSpec, Invariant, LeaseStateAudit,
    QueueConsistency, ScheduledFault,
};
pub use metrics::MetricsRegistry;
pub use population::{DeviceParams, PopulationSpec, RadioQuality, ScreenClass};
pub use power::{ComponentKind, ComponentState, CpuState, GpsState, PowerTable, WifiState};
pub use queue::{EventHandle, EventQueue};
pub use rng::{streams, SimRng};
pub use telemetry::{
    EventKind, Histogram, JsonValue, JsonlSink, RingBufferSink, Sink, TelemetryBus, TelemetryEvent,
};
pub use time::{SimDuration, SimTime};
pub use trace::{SeriesSet, Span, SpanLedger, SpanNote, SpanScope, TimeSeries};
