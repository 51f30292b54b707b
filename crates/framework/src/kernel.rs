//! The kernel: event loop, system services, device state, and power
//! attribution.
//!
//! [`Kernel`] owns the whole simulated device: the discrete-event queue, the
//! environment, the energy meter, the accounting ledger, the installed
//! [`ResourcePolicy`], and the apps. It plays the role of Android's
//! `system_server` — the subsystems that grant wakelocks, GPS requests,
//! sensor registrations, Wi-Fi locks, and audio sessions all live here, and
//! every grant is routed through the policy hook layer exactly as LeaseOS's
//! lease proxies interpose inside the real services (paper §4.2).
//!
//! ## Device-state semantics
//!
//! * The screen is on while the user is present or an effective
//!   screen-wakelock is held.
//! * The CPU is awake while the screen is on or an effective CPU wakelock is
//!   held; otherwise it deep-sleeps.
//! * App CPU bursts only progress while the CPU is awake; they pause on
//!   sleep and resume seamlessly on wake (paper §4.6).
//! * A network operation suspended by sleep fails with a timeout on resume —
//!   the I/O exception §4.6 argues apps already must handle.
//! * Deferrable app timers do not fire during deep sleep; they flush on
//!   wake. Alarms (`schedule_alarm`) wake the device.
//! * GPS fixes and sensor readings are delivered regardless of sleep (their
//!   listener callbacks wake the app transiently, as on Android).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use leaseos_simkit::metrics::{Counter, Gauge};
use leaseos_simkit::{
    AuditViolation, Battery, BatteryMeterCrossCheck, BatteryMeterSample, ComponentKind, Consumer,
    DeviceProfile, EnergyConservation, EnergyMeter, Environment, EventHandle, EventKind,
    EventQueue, FaultKind, FaultPlan, GpsSignal, Invariant, LeaseStateAudit, MetricsRegistry,
    QueueConsistency, SimDuration, SimRng, SimTime, SpanLedger, SpanScope, TelemetryBus,
    TelemetryEvent,
};

use crate::app::{AppEvent, AppModel};
use crate::ids::{AppId, ObjId, Token};
use crate::ledger::{GpsPhase, Ledger};
use crate::policy::{
    AcquireDecision, AcquireRequest, PolicyAction, PolicyCtx, ResourcePolicy, VanillaPolicy,
};
use crate::profiler::Profiler;
use crate::resource::{AcquireParams, NetResult, ResourceKind};
use crate::store::SecondaryMap;

/// Base uid assigned to the first app (Android assigns apps uids from
/// 10000).
const FIRST_UID: u32 = 10_001;

/// Connection-failure latency when the network is down.
const CONNECT_FAIL_MS: u64 = 300;
/// Base latency before a failing server surfaces its error.
const SERVER_FAIL_MS: u64 = 2_500;
/// Base round-trip latency for a network operation.
const NET_RTT_MS: u64 = 120;
/// Modeled throughput in bytes per millisecond (≈2 MB/s).
const NET_BYTES_PER_MS: u64 = 2_000;

/// Delay before a crashed app's process is restarted by the fault injector
/// (Android restarts sticky services on a backoff of this order).
const CRASH_RESTART_MS: u64 = 30_000;
/// Shortest injected network outage (a brief cell handover gap).
const NET_DROP_MIN_MS: u64 = 30_000;
/// Longest injected network outage (an elevator-ride dead zone).
const NET_DROP_MAX_MS: u64 = 180_000;
/// Default event-count interval between invariant audits in debug builds.
const DEFAULT_AUDIT_EVERY: u64 = 256;

/// Kernel-internal events.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SysEvent {
    StartApp(AppId),
    /// Re-arms a crashed app's slot and starts it again.
    RestartApp(AppId),
    /// A scheduled fault from the installed [`FaultPlan`] fires.
    Fault {
        kind: FaultKind,
    },
    AppTimer {
        app: AppId,
        token: Token,
        wake: bool,
        /// Slot epoch at scheduling time; timers from a previous process
        /// incarnation (pre-crash) are dropped on delivery.
        epoch: u32,
    },
    WorkDone {
        app: AppId,
        token: Token,
    },
    NetDone {
        app: AppId,
        token: Token,
        result: NetResult,
    },
    GpsFix {
        obj: ObjId,
    },
    GpsLost {
        obj: ObjId,
    },
    GpsDeliver {
        obj: ObjId,
    },
    SensorDeliver {
        obj: ObjId,
    },
    PolicyTimer {
        key: u64,
    },
    EnvChange,
    ProfilerTick,
}

/// One app slot.
struct AppSlot {
    id: AppId,
    model: Option<Box<dyn AppModel>>,
    name: String,
    rng: SimRng,
    /// Deferrable timers that came due during deep sleep, flushed on wake.
    deferred_timers: Vec<Token>,
    started: bool,
    stopped: bool,
    /// Process incarnation, bumped on every stop so events scheduled by a
    /// previous incarnation cannot leak into a restarted process.
    epoch: u32,
}

/// An in-flight CPU burst.
#[derive(Debug)]
struct WorkBurst {
    /// Remaining wall-clock CPU time on this device.
    remaining: SimDuration,
    /// Scheduled completion, present while running.
    handle: Option<EventHandle>,
    /// When the current running segment started.
    running_since: Option<SimTime>,
}

/// An in-flight network operation.
#[derive(Debug)]
struct NetOp {
    handle: Option<EventHandle>,
    result: NetResult,
    /// Set when the device slept mid-operation.
    suspended: bool,
}

/// Looks up one app's in-flight entry by token (entries stay token-sorted).
fn token_entry_mut<T>(table: &mut [Vec<(Token, T)>], idx: usize, token: Token) -> Option<&mut T> {
    let entries = &mut table[idx];
    match entries.binary_search_by_key(&token, |(t, _)| *t) {
        Ok(pos) => Some(&mut entries[pos].1),
        Err(_) => None,
    }
}

/// Removes one app's in-flight entry by token, preserving the sort.
fn token_entry_remove<T>(table: &mut [Vec<(Token, T)>], idx: usize, token: Token) -> Option<T> {
    let entries = &mut table[idx];
    match entries.binary_search_by_key(&token, |(t, _)| *t) {
        Ok(pos) => Some(entries.remove(pos).1),
        Err(_) => None,
    }
}

/// GPS request phases (runtime view; the ledger keeps the accounting view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GpsRunPhase {
    Searching,
    Fixed,
    /// Revoked by policy or released by the app.
    Parked,
}

#[derive(Debug)]
struct GpsRuntime {
    interval: SimDuration,
    phase: GpsRunPhase,
    pending_fix: Option<EventHandle>,
    pending_loss: Option<EventHandle>,
    pending_deliver: Option<EventHandle>,
    last_delivery: Option<SimTime>,
}

#[derive(Debug)]
struct SensorRuntime {
    interval: SimDuration,
    pending_deliver: Option<EventHandle>,
}

/// The simulated device and OS.
pub struct Kernel {
    device: DeviceProfile,
    env: Environment,
    queue: EventQueue<SysEvent>,
    meter: EnergyMeter,
    ledger: Ledger,
    root_rng: SimRng,
    policy: Option<Box<dyn ResourcePolicy>>,
    telemetry: TelemetryBus,
    apps: Vec<AppSlot>,
    profiler: Option<Profiler>,
    /// Kernel-wide metrics registry — disabled by default, so every
    /// pre-registered handle below is one relaxed atomic load and a branch.
    metrics: MetricsRegistry,
    m_settles: Counter,
    m_events_drained: Counter,
    m_queue_tombstones: Gauge,
    m_queue_compactions: Gauge,
    /// Queue events already mirrored into `m_events_drained`.
    m_events_mirror: u64,

    awake: bool,
    screen_on: bool,

    /// In-flight CPU bursts, indexed by app slot; each app's entries are
    /// kept sorted by token so whole-table walks reproduce the former
    /// `(AppId, Token)` map order exactly.
    works: Vec<Vec<(Token, WorkBurst)>>,
    /// In-flight network operations, same layout as `works`.
    netops: Vec<Vec<(Token, NetOp)>>,
    /// GPS runtimes, keyed by the owning object's ledger slot.
    gps: SecondaryMap<GpsRuntime>,
    /// Sensor runtimes, keyed by the owning object's ledger slot.
    sensors: SecondaryMap<SensorRuntime>,

    /// Last power attribution, sorted by key for a deterministic diff walk.
    prev_draws: Vec<((Consumer, ComponentKind), f64)>,
    /// Reusable accumulation scratch for [`Kernel::sync_power`]; cleared
    /// (capacity retained) on every settle so the hot path stays
    /// allocation-free.
    scratch_desired: HashMap<(Consumer, ComponentKind), f64>,
    /// Reusable sorted-draws scratch, swapped with `prev_draws` each settle.
    scratch_draws: Vec<((Consumer, ComponentKind), f64)>,
    policy_overhead_mj: f64,
    started: bool,

    /// RNG stream for fault target selection, present once a plan is
    /// installed.
    fault_rng: Option<SimRng>,
    /// Apps whose next acquire/release IPC throws a service exception.
    pending_exceptions: BTreeSet<AppId>,
    /// Whether a crashed app restarts cold (transient model state lost —
    /// the realistic default) or warm (process image survives the crash).
    cold_restart: bool,
    /// Run invariant audits every this many processed events (`None`
    /// disables the periodic audits; debug builds default them on).
    audit_interval: Option<u64>,
    last_audit_count: u64,

    /// The battery reservoir, drained in step with the meter so the
    /// battery-vs-meter cross-check has two independent accounts to compare.
    battery: Battery,
    /// Meter total already drained from the battery, mJ.
    battery_drained_mj: f64,
    /// The causal span ledger, present while tracing is enabled.
    spans: Option<Rc<RefCell<SpanLedger>>>,
    /// Kernel-internal lease legality audit, attached alongside the
    /// periodic audits so `Kernel::audit` replays lease telemetry too.
    lease_audit: Option<Rc<RefCell<LeaseStateAudit>>>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("device", &self.device.name)
            .field("now", &self.queue.now())
            .field("apps", &self.apps.len())
            .field("awake", &self.awake)
            .field("screen_on", &self.screen_on)
            .finish_non_exhaustive()
    }
}

impl Kernel {
    /// Creates a kernel for `device` in `env`, governed by `policy`, with a
    /// deterministic `seed`.
    pub fn new(
        device: DeviceProfile,
        env: Environment,
        policy: Box<dyn ResourcePolicy>,
        seed: u64,
    ) -> Self {
        let battery = Battery::for_device(&device);
        let metrics = MetricsRegistry::new();
        let m_settles = metrics.counter("kernel_settles_total");
        let m_events_drained = metrics.counter("kernel_events_drained_total");
        let m_queue_tombstones = metrics.gauge("kernel_queue_tombstones");
        let m_queue_compactions = metrics.gauge("kernel_queue_compactions");
        Kernel {
            device,
            env,
            queue: EventQueue::new(),
            meter: EnergyMeter::new(),
            ledger: Ledger::new(),
            root_rng: SimRng::new(seed),
            policy: Some(policy),
            telemetry: TelemetryBus::new(),
            apps: Vec::new(),
            profiler: None,
            metrics,
            m_settles,
            m_events_drained,
            m_queue_tombstones,
            m_queue_compactions,
            m_events_mirror: 0,
            awake: false,
            screen_on: false,
            works: Vec::new(),
            netops: Vec::new(),
            gps: SecondaryMap::new(),
            sensors: SecondaryMap::new(),
            prev_draws: Vec::new(),
            scratch_desired: HashMap::new(),
            scratch_draws: Vec::new(),
            policy_overhead_mj: 0.0,
            started: false,
            fault_rng: None,
            pending_exceptions: BTreeSet::new(),
            cold_restart: true,
            audit_interval: cfg!(debug_assertions).then_some(DEFAULT_AUDIT_EVERY),
            last_audit_count: 0,
            battery,
            battery_drained_mj: 0.0,
            spans: None,
            lease_audit: None,
        }
    }

    /// Enables causal span tracing: a [`SpanLedger`] sink is attached to
    /// the telemetry bus, and power attribution is mirrored into per-span
    /// useful/wasted draws (see `DESIGN.md` §3.7). Tracing activates the
    /// bus, so enable it only when the diagnosis is worth the event
    /// construction cost.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has started (spans must observe every
    /// object from its acquire edge).
    pub fn enable_tracing(&mut self) {
        assert!(!self.started, "enable tracing before the first run_until");
        if self.spans.is_some() {
            return;
        }
        let ledger = Rc::new(RefCell::new(SpanLedger::new()));
        self.telemetry.attach(ledger.clone());
        self.spans = Some(ledger);
    }

    /// The span ledger, while tracing is enabled.
    pub fn tracing(&self) -> Option<std::cell::Ref<'_, SpanLedger>> {
        self.spans.as_ref().map(|s| s.borrow())
    }

    /// Enables the kernel metrics registry: hot-path counters (events
    /// drained, settles, queue health), lease-layer counters/histograms,
    /// and the profiler's time series all record through it from here on.
    /// Disabled (the default), every instrumentation site is one relaxed
    /// atomic load and a branch — see `DESIGN.md` §3.12.
    pub fn enable_metrics(&self) {
        self.metrics.enable();
    }

    /// The kernel metrics registry (always present; records only while
    /// enabled via [`Kernel::enable_metrics`] or [`Kernel::enable_profiler`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The battery reservoir (drained in step with the energy meter).
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// The kernel's telemetry bus. Attach sinks before running to observe
    /// the event stream; counters run regardless.
    pub fn telemetry(&self) -> &TelemetryBus {
        &self.telemetry
    }

    /// Convenience constructor with the vanilla policy.
    pub fn vanilla(device: DeviceProfile, env: Environment, seed: u64) -> Self {
        Kernel::new(device, env, Box::new(VanillaPolicy::new()), seed)
    }

    /// Adds an app; returns its uid-based id.
    pub fn add_app(&mut self, model: Box<dyn AppModel>) -> AppId {
        let id = AppId(FIRST_UID + self.apps.len() as u32);
        let name = model.name().to_owned();
        let rng = self.root_rng.fork(id.0 as u64);
        self.apps.push(AppSlot {
            id,
            model: Some(model),
            name,
            rng,
            deferred_timers: Vec::new(),
            started: false,
            stopped: false,
            epoch: 0,
        });
        self.works.push(Vec::new());
        self.netops.push(Vec::new());
        if self.started {
            self.queue.push(self.queue.now(), SysEvent::StartApp(id));
        }
        id
    }

    /// Enables the per-app profiler, sampling every `interval` (the paper's
    /// tool samples every 60 s, §2.1).
    pub fn enable_profiler(&mut self, interval: SimDuration) {
        assert!(!interval.is_zero(), "profiler interval must be positive");
        // Profiler samples are registry series now, so sampling requires
        // the registry to record.
        self.metrics.enable();
        self.profiler = Some(Profiler::new(interval));
    }

    /// Installs a deterministic fault schedule: each fault becomes a queued
    /// kernel event, and target selection draws from a dedicated RNG stream
    /// forked off the kernel seed — so a fault run is exactly as
    /// reproducible as a fault-free one.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        assert!(
            !self.started,
            "install the fault plan before the first run_until"
        );
        self.fault_rng = Some(self.root_rng.fork(0xFA_0175));
        for fault in plan.faults() {
            self.queue
                .push(fault.at, SysEvent::Fault { kind: fault.kind });
        }
    }

    /// Selects cold (default) or warm restarts for crashed apps.
    ///
    /// Cold restarts hand `true` to [`AppModel::on_restart`] so the new
    /// incarnation loses its transient state; warm restarts model the old
    /// process-image-survives simplification and leave models untouched.
    pub fn set_cold_restart(&mut self, cold: bool) {
        self.cold_restart = cold;
    }

    /// Sets the event-count interval between runtime invariant audits
    /// (`None` disables periodic auditing). Debug builds default to every
    /// [`DEFAULT_AUDIT_EVERY`] events; release builds default off.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval.
    pub fn set_audit_interval(&mut self, every_events: Option<u64>) {
        assert!(every_events != Some(0), "audit interval must be positive");
        self.audit_interval = every_events;
    }

    /// Runs every runtime invariant against the kernel's current state and
    /// returns the violations (empty on a healthy kernel):
    ///
    /// * energy conservation — per-consumer and per-channel sums equal the
    ///   meter total within tolerance;
    /// * event-queue bookkeeping consistency;
    /// * battery-vs-meter cross-check — the reservoir drained in step with
    ///   the meter must agree with its total within 1e-6 J;
    /// * lease state-machine legality — replayed from lease telemetry by
    ///   the kernel-internal [`LeaseStateAudit`] (attached whenever the
    ///   periodic audits are enabled);
    /// * object lifetime — no kernel object outlives its owning app.
    ///
    /// Audits are read-only: they draw no randomness and emit no telemetry,
    /// so running them never perturbs the event stream.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let now = self.queue.now();
        let mut violations = Vec::new();
        if let Err(v) = EnergyConservation::default().check(now, &self.meter) {
            violations.push(v);
        }
        if let Err(v) = QueueConsistency.check(now, &self.queue) {
            violations.push(v);
        }
        if let Err(v) = BatteryMeterCrossCheck::default().check(now, &self.battery_sample()) {
            violations.push(v);
        }
        if let Some(audit) = &self.lease_audit {
            violations.extend(audit.borrow().violations().iter().cloned());
        }
        for slot in &self.apps {
            if !slot.stopped {
                continue;
            }
            for (obj, stats) in self.ledger.objects_of(slot.id) {
                if !stats.dead {
                    violations.push(AuditViolation {
                        at: now,
                        invariant: "object_lifetime",
                        detail: format!(
                            "{obj} ({kind:?}) outlives its stopped owner {owner}",
                            kind = stats.kind,
                            owner = slot.id
                        ),
                    });
                }
            }
        }
        violations
    }

    /// Periodic audit trigger, driven by the processed-event counter.
    fn maybe_audit(&mut self) {
        let Some(every) = self.audit_interval else {
            return;
        };
        let processed = self.queue.events_processed();
        if processed.saturating_sub(self.last_audit_count) < every {
            return;
        }
        self.last_audit_count = processed;
        self.sync_battery();
        self.assert_audits_clean();
    }

    /// Drains the meter total accumulated since the last sync from the
    /// battery, keeping the two accounts comparable at audit points.
    /// Policy-overhead energy is excluded: it is tracked outside the meter.
    fn sync_battery(&mut self) {
        let total = self.meter.total_energy_mj();
        let delta = total - self.battery_drained_mj;
        if delta > 0.0 {
            self.battery.drain_mj(delta);
            self.battery_drained_mj = total;
        }
    }

    /// What the battery cross-check compares: the reservoir's observed
    /// depletion against the meter's integrated total. Audit points sync
    /// the battery first, so the two are independent accounts of the same
    /// draw history. Public so diagnosis tests and tools can take the same
    /// reading the audit does.
    pub fn battery_sample(&self) -> BatteryMeterSample {
        BatteryMeterSample {
            drained_mj: (self.battery.capacity_mwh() - self.battery.remaining_mwh()) * 3_600.0,
            meter_total_mj: self.meter.total_energy_mj(),
            battery_empty: self.battery.is_empty(),
        }
    }

    fn assert_audits_clean(&self) {
        let violations = self.audit();
        assert!(
            violations.is_empty(),
            "runtime invariant audit failed:\n{}",
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    // ---- accessors ---------------------------------------------------------

    /// Current simulation instant.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The energy meter.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// The accounting ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The environment script.
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// The device profile.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// The installed policy (for downcasting to read policy-specific stats).
    pub fn policy(&self) -> &dyn ResourcePolicy {
        self.policy
            .as_deref()
            .expect("policy busy during hook dispatch")
    }

    /// The profiler's recorded series for `app`, if profiling was enabled
    /// and the app has been sampled. Rebuilt from the metrics registry —
    /// the profiler records through registry series named
    /// `profile_app{uid}_{series}`, and this strips the prefix back off.
    pub fn profile_of(&self, app: AppId) -> Option<leaseos_simkit::SeriesSet> {
        self.profiler.as_ref()?;
        let set = self.metrics.series_set(&Profiler::prefix(app));
        (!set.is_empty()).then_some(set)
    }

    /// Downcasts the model of `app` to its concrete type, so experiment
    /// harnesses can read back app-recorded observations.
    pub fn app_model<T: AppModel>(&self, app: AppId) -> Option<&T> {
        let idx = self.slot_index(app);
        let model = self.apps[idx].model.as_deref()?;
        (model as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// The id of the app named `name`, if present.
    pub fn app_by_name(&self, name: &str) -> Option<AppId> {
        self.apps.iter().find(|s| s.name == name).map(|s| s.id)
    }

    /// Names and ids of all apps.
    pub fn apps(&self) -> impl Iterator<Item = (AppId, &str)> {
        self.apps.iter().map(|s| (s.id, s.name.as_str()))
    }

    /// Total number of kernel events processed so far (the unit of work
    /// `leaseos-perf`'s `kernel_churn` workload counts).
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    /// Whether the CPU is currently awake.
    pub fn is_awake(&self) -> bool {
        self.awake
    }

    /// Whether the screen is currently on.
    pub fn is_screen_on(&self) -> bool {
        self.screen_on
    }

    /// Average power billed to `app` over the first `over` of the run, in
    /// mW. Call after `run_until(over)`.
    pub fn avg_app_power_mw(&self, app: AppId, over: SimDuration) -> f64 {
        self.meter.avg_power_mw(app.consumer(), over)
    }

    // ---- main loop ---------------------------------------------------------

    /// Runs the simulation up to and including events at `end`, then settles
    /// accounting at `end`.
    pub fn run_until(&mut self, end: SimTime) {
        self.ensure_started();
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked event vanished");
            self.dispatch(t, ev);
            self.maybe_audit();
        }
        self.queue.advance_to(end);
        self.ledger
            .set_user_present(self.env.user_present.at(end), end);
        self.meter.advance_to(end);
        if let Some(spans) = &self.spans {
            spans.borrow_mut().settle(end);
        }
        self.sync_battery();
        self.emit_energy_snapshots(end);
        if self.metrics.is_enabled() {
            // Mirror the queue's own counters into the registry once per
            // run_until — delta for the monotone drain count, gauges for
            // the queue-health values that can move both ways.
            let drained = self.queue.events_processed();
            self.m_events_drained.add(drained - self.m_events_mirror);
            self.m_events_mirror = drained;
            self.m_queue_tombstones.set(self.queue.tombstones() as f64);
            self.m_queue_compactions
                .set(self.queue.compactions() as f64);
        }
        if self.audit_interval.is_some() {
            self.assert_audits_clean();
        }
    }

    /// Emits one [`TelemetryEvent::EnergySnapshot`] per app plus one for
    /// the system consumer — the paper's energy-attribution view at `at`.
    fn emit_energy_snapshots(&self, at: SimTime) {
        for slot in &self.apps {
            self.telemetry.emit(EventKind::EnergySnapshot, || {
                TelemetryEvent::EnergySnapshot {
                    at,
                    consumer: "app",
                    id: slot.id.0,
                    energy_mj: self.meter.energy_mj(slot.id.consumer()),
                }
            });
        }
        self.telemetry.emit(EventKind::EnergySnapshot, || {
            TelemetryEvent::EnergySnapshot {
                at,
                consumer: "system",
                id: 0,
                energy_mj: self.meter.energy_mj(Consumer::System) + self.policy_overhead_mj,
            }
        });
        self.emit_attribution(at);
    }

    /// Emits the span-derived views while tracing is enabled: one
    /// [`TelemetryEvent::Attribution`] row per (app, component) and one
    /// [`TelemetryEvent::SpanSummary`] per span. Rows are collected before
    /// emitting so no ledger borrow is held while the bus delivers back to
    /// the ledger's own sink.
    fn emit_attribution(&self, at: SimTime) {
        let Some(spans) = &self.spans else {
            return;
        };
        let mut rows: BTreeMap<(u32, ComponentKind), (f64, f64)> = BTreeMap::new();
        let mut summaries = Vec::new();
        {
            let spans = spans.borrow();
            for span in spans.spans() {
                for (component, wasted, mj) in span.energy_by_component() {
                    let cell = rows.entry((span.app(), component)).or_insert((0.0, 0.0));
                    if wasted {
                        cell.1 += mj;
                    } else {
                        cell.0 += mj;
                    }
                }
                summaries.push((
                    span.scope(),
                    span.parent(),
                    span.app(),
                    span.kind(),
                    span.is_open(),
                    span.useful_mj(),
                    span.wasted_mj(),
                ));
            }
        }
        for ((app, component), (useful_mj, wasted_mj)) in rows {
            self.telemetry
                .emit(EventKind::Attribution, || TelemetryEvent::Attribution {
                    at,
                    app,
                    component: component.name(),
                    useful_mj,
                    wasted_mj,
                });
        }
        for (scope, parent, app, kind, open, useful_mj, wasted_mj) in summaries {
            self.telemetry
                .emit(EventKind::SpanSummary, || TelemetryEvent::SpanSummary {
                    at,
                    scope: scope.name(),
                    id: scope.id(),
                    app,
                    kind,
                    state: if open { "open" } else { "closed" },
                    pscope: parent.map_or("", SpanScope::name),
                    pid: parent.map_or(0, SpanScope::id),
                    useful_mj,
                    wasted_mj,
                });
        }
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Schedule app starts (t = 0, FIFO order).
        let ids: Vec<AppId> = self.apps.iter().map(|s| s.id).collect();
        for id in ids {
            self.queue.push(SimTime::ZERO, SysEvent::StartApp(id));
        }
        // Environment change notifications.
        let mut t = SimTime::ZERO;
        while let Some(next) = self.env.next_change_after(t) {
            self.queue.push(next, SysEvent::EnvChange);
            t = next;
        }
        // Profiler ticks.
        if let Some(p) = &self.profiler {
            let interval = p.interval();
            self.queue
                .push(SimTime::ZERO + interval, SysEvent::ProfilerTick);
        }
        // Debug-default lease legality replay: when periodic audits are on,
        // mirror every lease transition through a LeaseStateAudit sink so
        // `audit()` can report illegal transitions alongside the energy and
        // battery invariants. Attached before the first event so the replay
        // sees the complete history.
        if self.audit_interval.is_some() && self.lease_audit.is_none() {
            let audit = Rc::new(RefCell::new(LeaseStateAudit::new()));
            self.telemetry.attach(audit.clone());
            self.lease_audit = Some(audit);
        }
        self.update_device_state();
        // Policies that watch device state (e.g. Doze's idle detector) get
        // an initial notification of the starting conditions.
        let actions = self.call_policy("on_device_state", 0, |p, ctx| p.on_device_state(ctx));
        self.apply_actions(actions);
    }

    fn dispatch(&mut self, now: SimTime, ev: SysEvent) {
        match ev {
            SysEvent::StartApp(app) => {
                let idx = self.slot_index(app);
                if !self.apps[idx].started {
                    self.apps[idx].started = true;
                    self.telemetry
                        .emit(EventKind::AppLifecycle, || TelemetryEvent::AppLifecycle {
                            at: now,
                            app: app.0,
                            event: "start",
                        });
                    self.with_app(app, |model, ctx| model.on_start(ctx));
                }
            }
            SysEvent::RestartApp(app) => {
                let idx = self.slot_index(app);
                if self.apps[idx].stopped {
                    // The new process image comes up before on_start runs:
                    // a cold restart loses the model's transient half, a
                    // warm one keeps the pre-crash image intact.
                    let cold = self.cold_restart;
                    if let Some(model) = self.apps[idx].model.as_mut() {
                        model.on_restart(cold);
                    }
                    self.telemetry
                        .emit(EventKind::AppLifecycle, || TelemetryEvent::AppLifecycle {
                            at: now,
                            app: app.0,
                            event: if cold { "restart_cold" } else { "restart_warm" },
                        });
                    self.apps[idx].stopped = false;
                    self.apps[idx].started = false;
                    self.queue.push(now, SysEvent::StartApp(app));
                }
            }
            SysEvent::Fault { kind } => self.inject_fault(now, kind),
            SysEvent::AppTimer {
                app,
                token,
                wake,
                epoch,
            } => {
                let idx = self.slot_index(app);
                if self.apps[idx].stopped || self.apps[idx].epoch != epoch {
                    // A dead process's pending timers vanish with it; they
                    // must not wake the device, reach the policy, or leak
                    // into a restarted incarnation.
                } else if !self.awake && !wake {
                    self.apps[idx].deferred_timers.push(token);
                } else {
                    if wake {
                        self.telemetry.emit(EventKind::AppLifecycle, || {
                            TelemetryEvent::AppLifecycle {
                                at: now,
                                app: app.0,
                                event: "alarm",
                            }
                        });
                        let actions =
                            self.call_policy("on_alarm", 0, |p, ctx| p.on_alarm(ctx, app));
                        self.apply_actions(actions);
                    }
                    self.with_app(app, |model, ctx| {
                        model.on_event(ctx, AppEvent::Timer(token))
                    });
                }
            }
            SysEvent::WorkDone { app, token } => self.finish_work(now, app, token),
            SysEvent::NetDone { app, token, result } => self.finish_net(now, app, token, result),
            SysEvent::GpsFix { obj } => self.gps_fix_acquired(now, obj),
            SysEvent::GpsLost { obj } => self.gps_fix_lost(now, obj),
            SysEvent::GpsDeliver { obj } => self.gps_deliver(now, obj),
            SysEvent::SensorDeliver { obj } => self.sensor_deliver(now, obj),
            SysEvent::PolicyTimer { key } => {
                let actions = self.call_policy("on_timer", 0, |p, ctx| p.on_timer(ctx, key));
                self.apply_actions(actions);
            }
            SysEvent::EnvChange => self.on_env_change(now),
            SysEvent::ProfilerTick => {
                if let Some(mut p) = self.profiler.take() {
                    p.sample(now, &self.ledger, &self.apps_index(), &self.metrics);
                    self.queue.push(now + p.interval(), SysEvent::ProfilerTick);
                    self.profiler = Some(p);
                }
            }
        }
    }

    fn apps_index(&self) -> Vec<(AppId, String)> {
        self.apps.iter().map(|s| (s.id, s.name.clone())).collect()
    }

    fn slot_index(&self, app: AppId) -> usize {
        // Uids are handed out sequentially from FIRST_UID and never reused,
        // so the slot index is pure arithmetic — no scan.
        let idx = app.0.wrapping_sub(FIRST_UID) as usize;
        if idx >= self.apps.len() {
            panic!("unknown app {app}");
        }
        debug_assert_eq!(self.apps[idx].id, app, "app table out of order");
        idx
    }

    fn with_app(&mut self, app: AppId, f: impl FnOnce(&mut Box<dyn AppModel>, &mut AppCtx<'_>)) {
        let idx = self.slot_index(app);
        if self.apps[idx].stopped {
            return; // events for a stopped app are dropped
        }
        let mut model = self.apps[idx]
            .model
            .take()
            .unwrap_or_else(|| panic!("reentrant dispatch to {app}"));
        let mut ctx = AppCtx {
            kernel: self,
            app,
            idx,
        };
        f(&mut model, &mut ctx);
        self.apps[idx].model = Some(model);
        self.update_device_state();
    }

    /// Kills `app`, as when an app process dies on Android: in-flight work
    /// and I/O vanish, every kernel object the app owns is deallocated (so
    /// "system services … clean up the kernel objects" and the policy's
    /// `on_object_dead` — LeaseOS's lease removal path, §4.3 — runs for
    /// each), and no further events are delivered to the app.
    ///
    /// # Panics
    ///
    /// Panics if `app` is unknown.
    pub fn stop_app(&mut self, app: AppId) {
        let now = self.queue.now();
        let idx = self.slot_index(app);
        if self.apps[idx].stopped {
            return;
        }
        self.apps[idx].stopped = true;
        self.apps[idx].epoch += 1;
        self.apps[idx].deferred_timers.clear();
        self.pending_exceptions.remove(&app);
        self.telemetry
            .emit(EventKind::AppLifecycle, || TelemetryEvent::AppLifecycle {
                at: now,
                app: app.0,
                event: "stop",
            });

        // In-flight CPU bursts: credit what ran, then drop.
        for e in 0..self.works[idx].len() {
            let token = self.works[idx][e].0;
            self.pause_burst(app, token);
        }
        self.works[idx].clear();
        // In-flight network operations: cancel silently.
        for (_, op) in std::mem::take(&mut self.netops[idx]) {
            if let Some(h) = op.handle {
                self.queue.cancel(h);
            }
        }
        // Every owned kernel object dies; the policy hears about each.
        let objs: Vec<ObjId> = self.ledger.objects_of(app).map(|(obj, _)| obj).collect();
        for obj in objs {
            self.park_runtime(obj);
            self.telemetry
                .emit(EventKind::ObjectDead, || TelemetryEvent::ObjectDead {
                    at: now,
                    app: app.0,
                    obj: obj.0,
                });
            // Death frees the ledger slot, so take it first to clear the
            // runtime component tables.
            let slot = self.ledger.slot_of(obj);
            self.ledger.note_dead(obj, now);
            if let Some(slot) = slot {
                self.gps.remove(slot);
                self.sensors.remove(slot);
            }
            let actions =
                self.call_policy("on_object_dead", obj.0, |p, ctx| p.on_object_dead(ctx, obj));
            self.apply_actions(actions);
        }
        self.ledger.set_activity_alive(app, false, now);
        self.update_device_state();
    }

    /// Whether `app` has been stopped.
    pub fn is_app_stopped(&self, app: AppId) -> bool {
        let idx = self.slot_index(app);
        self.apps[idx].stopped
    }

    // ---- fault injection ---------------------------------------------------

    /// Delivers one scheduled fault. Target selection is deterministic — a
    /// dedicated RNG stream indexing BTreeMap-ordered candidates — and a
    /// fault with no eligible target is skipped without drawing randomness.
    fn inject_fault(&mut self, now: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::AppCrash => {
                let Some(app) = self.pick_fault_app() else {
                    return;
                };
                self.emit_fault(now, kind, app, 0);
                self.stop_app(app);
                self.queue.push(
                    now + SimDuration::from_millis(CRASH_RESTART_MS),
                    SysEvent::RestartApp(app),
                );
            }
            FaultKind::ObjectLeak => {
                let Some(obj) = self.pick_fault_object(false) else {
                    return;
                };
                let owner = self.ledger.obj(obj).owner;
                self.emit_fault(now, kind, owner, obj.0);
                // The kernel object dies without the app ever releasing it —
                // the death notification is the only cleanup signal.
                self.kill_object(owner, obj);
            }
            FaultKind::ListenerFailure => {
                let Some(obj) = self.pick_fault_object(true) else {
                    return;
                };
                let owner = self.ledger.obj(obj).owner;
                self.emit_fault(now, kind, owner, obj.0);
                // The callback threw; the runtime catches it and records a
                // severe exception against the owner (§3.3's signal).
                self.ledger.add_exception(owner);
            }
            FaultKind::ServiceException => {
                let Some(app) = self.pick_fault_app() else {
                    return;
                };
                self.emit_fault(now, kind, app, 0);
                self.pending_exceptions.insert(app);
            }
            FaultKind::NetworkDrop => {
                // Device-wide: the scripted network signal itself goes down
                // for a bounded outage, so app models see real Disconnected
                // results and react (retry loops, backoff) instead of only
                // being billed an exception. A drop while the signal is
                // already down has no eligible target and is skipped without
                // drawing randomness, like every other targetless fault.
                if !self.env.network_up.at(now) {
                    return;
                }
                let outage_ms = {
                    let rng = self.fault_rng.as_mut().expect("fault plan installed");
                    rng.range_u64(NET_DROP_MIN_MS, NET_DROP_MAX_MS + 1)
                };
                let until = now + SimDuration::from_millis(outage_ms);
                self.env.network_up.force_window(now, until, false);
                self.emit_fault(now, kind, AppId(0), 0);
                // `ensure_started` pre-queued notifications for scripted
                // change points only; the injected outage edges need their
                // own, so in-flight netops fail now and recovery is observed.
                self.queue.push(now, SysEvent::EnvChange);
                self.queue.push(until, SysEvent::EnvChange);
            }
        }
    }

    fn emit_fault(&self, now: SimTime, kind: FaultKind, app: AppId, obj: u64) {
        self.telemetry
            .emit(EventKind::FaultInjected, || TelemetryEvent::FaultInjected {
                at: now,
                fault: kind.name(),
                app: app.0,
                obj,
            });
    }

    /// A running app to target, or `None` when none is eligible.
    fn pick_fault_app(&mut self) -> Option<AppId> {
        let candidates: Vec<AppId> = self
            .apps
            .iter()
            .filter(|s| s.started && !s.stopped)
            .map(|s| s.id)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let rng = self.fault_rng.as_mut().expect("fault plan installed");
        Some(candidates[rng.range_u64(0, candidates.len() as u64) as usize])
    }

    /// A live kernel object to target (`listeners_only` restricts to
    /// callback-carrying kinds), or `None` when none is eligible.
    fn pick_fault_object(&mut self, listeners_only: bool) -> Option<ObjId> {
        let candidates: Vec<ObjId> = self
            .ledger
            .live_objects()
            .filter(|(_, o)| o.held)
            .filter(|(_, o)| {
                !listeners_only || matches!(o.kind, ResourceKind::Gps | ResourceKind::Sensor)
            })
            .map(|(obj, _)| obj)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let rng = self.fault_rng.as_mut().expect("fault plan installed");
        Some(candidates[rng.range_u64(0, candidates.len() as u64) as usize])
    }

    /// §4.6 defer-transparency: the acquire/release IPC appears to succeed,
    /// but the swallowed service exception is recorded against the app (the
    /// libcore hook of §6 observes it).
    fn consume_pending_exception(&mut self, app: AppId) {
        if self.pending_exceptions.remove(&app) {
            self.ledger.add_exception(app);
        }
    }

    // ---- policy plumbing ---------------------------------------------------

    fn call_policy<R>(
        &mut self,
        hook: &'static str,
        obj: u64,
        f: impl FnOnce(&mut dyn ResourcePolicy, &PolicyCtx<'_>) -> R,
    ) -> R {
        let mut policy = self.policy.take().expect("policy re-entered");
        let now = self.queue.now();
        let ctx = PolicyCtx {
            now,
            ledger: &self.ledger,
            env: &self.env,
            screen_on: self.screen_on,
            telemetry: &self.telemetry,
            metrics: &self.metrics,
        };
        let r = f(policy.as_mut(), &ctx);
        let overhead = policy.overhead();
        self.policy = Some(policy);
        // One PolicyOp per hook invocation: the bookkeeping-op unit the
        // overhead experiments count (paper Fig. 13/14). `obj` ties the hook
        // to the kernel object it concerns (0 for object-less hooks) so the
        // span ledger can annotate the object's causal span.
        self.telemetry
            .emit(EventKind::PolicyOp, || TelemetryEvent::PolicyOp {
                at: now,
                hook,
                obj,
            });
        self.bill_policy_overhead(overhead.per_op_cpu_ms);
        r
    }

    fn emit_acquire(
        &self,
        at: SimTime,
        app: AppId,
        obj: ObjId,
        kind: ResourceKind,
        decision: AcquireDecision,
        first: bool,
    ) {
        self.telemetry.emit(EventKind::ServiceAcquire, || {
            TelemetryEvent::ServiceAcquire {
                at,
                app: app.0,
                obj: obj.0,
                kind: kind.name(),
                decision: match decision {
                    AcquireDecision::Grant => "grant",
                    AcquireDecision::PretendGrant => "pretend",
                },
                first,
            }
        });
    }

    fn bill_policy_overhead(&mut self, cpu_ms: f64) {
        if cpu_ms <= 0.0 {
            return;
        }
        // Bookkeeping runs in system_server: charge the equivalent
        // active-CPU energy as instantaneous system overhead. It is tracked
        // separately from the meter because the op itself has (near-)zero
        // duration on the simulation clock. The system span carries it too
        // (useful: bookkeeping serves everyone), so span totals conserve
        // the *reported* system energy, which includes this overhead.
        let mj = cpu_ms / 1_000.0 * self.device.power.cpu_active_mw;
        self.policy_overhead_mj += mj;
        if let Some(spans) = &self.spans {
            spans.borrow_mut().bill_system_mj(ComponentKind::Cpu, mj);
        }
    }

    /// Total modeled policy bookkeeping energy, in mJ (part of system
    /// overhead — Fig. 13).
    pub fn policy_overhead_mj(&self) -> f64 {
        self.policy_overhead_mj
    }

    fn apply_actions(&mut self, actions: Vec<PolicyAction>) {
        self.apply_actions_inner(actions);
        self.update_device_state();
    }

    // ---- resource operations (called via AppCtx) ---------------------------

    fn acquire(&mut self, app: AppId, kind: ResourceKind, params: AcquireParams) -> ObjId {
        let now = self.queue.now();
        self.consume_pending_exception(app);
        let obj = self.ledger.create_object(kind, app, now);
        self.ledger.note_acquire(obj, now);
        let req = AcquireRequest {
            app,
            kind,
            obj,
            params,
            first: true,
        };
        let outcome = self.call_policy("on_acquire", req.obj.0, |p, ctx| p.on_acquire(ctx, &req));
        self.emit_acquire(now, app, obj, kind, outcome.decision, true);
        self.install_runtime(obj, kind, params);
        if outcome.decision == AcquireDecision::PretendGrant {
            self.do_revoke_effects(obj);
        } else {
            self.start_runtime(obj);
        }
        self.apply_actions(outcome.actions);
        obj
    }

    /// An IPC on a dead kernel object. Android surfaces this to the caller
    /// as a `DeadObjectException` rather than aborting anything — the call
    /// is dropped and the severe exception is recorded against the app (the
    /// §3.3 low-utility signal). Returns true when the call must be dropped.
    fn dead_object_call(&mut self, app: AppId, obj: ObjId) -> bool {
        if self.ledger.has_obj(obj) && self.ledger.obj(obj).dead {
            self.ledger.add_exception(app);
            true
        } else {
            false
        }
    }

    fn reacquire(&mut self, app: AppId, obj: ObjId) {
        let now = self.queue.now();
        self.consume_pending_exception(app);
        if self.dead_object_call(app, obj) {
            return;
        }
        let (kind, was_held) = {
            let o = self.ledger.obj(obj);
            assert_eq!(o.owner, app, "{app} re-acquired foreign object {obj}");
            (o.kind, o.held)
        };
        self.ledger.note_acquire(obj, now);
        let params = self.params_of(obj);
        let req = AcquireRequest {
            app,
            kind,
            obj,
            params,
            first: false,
        };
        let outcome = self.call_policy("on_acquire", req.obj.0, |p, ctx| p.on_acquire(ctx, &req));
        self.emit_acquire(now, app, obj, kind, outcome.decision, false);
        if outcome.decision == AcquireDecision::PretendGrant {
            self.do_revoke_effects(obj);
        } else if !was_held || self.ledger.obj(obj).revoked {
            // Re-activating an inactive or revoked object restarts it.
            self.ledger.note_revoked(obj, false, now);
            self.start_runtime(obj);
        }
        self.apply_actions(outcome.actions);
    }

    fn params_of(&self, obj: ObjId) -> AcquireParams {
        if let Some(slot) = self.ledger.slot_of(obj) {
            if let Some(g) = self.gps.get(slot) {
                return AcquireParams::listener(g.interval);
            }
            if let Some(s) = self.sensors.get(slot) {
                return AcquireParams::listener(s.interval);
            }
        }
        AcquireParams::held()
    }

    fn release(&mut self, app: AppId, obj: ObjId) {
        let now = self.queue.now();
        self.consume_pending_exception(app);
        if self.dead_object_call(app, obj) {
            return;
        }
        assert_eq!(
            self.ledger.obj(obj).owner,
            app,
            "{app} released foreign object {obj}"
        );
        self.telemetry.emit(EventKind::ServiceRelease, || {
            TelemetryEvent::ServiceRelease {
                at: now,
                app: app.0,
                obj: obj.0,
            }
        });
        self.ledger.note_release(obj, now);
        self.park_runtime(obj);
        let actions = self.call_policy("on_release", obj.0, |p, ctx| p.on_release(ctx, obj));
        self.apply_actions(actions);
    }

    fn close(&mut self, app: AppId, obj: ObjId) {
        if self.dead_object_call(app, obj) {
            return;
        }
        assert_eq!(
            self.ledger.obj(obj).owner,
            app,
            "{app} closed foreign object {obj}"
        );
        self.kill_object(app, obj);
    }

    /// Kernel-object death: the binder-style death notification path shared
    /// by app-initiated `close` and kernel-initiated faults (the policy's
    /// `on_object_dead` — LeaseOS's lease removal, §4.3 — runs either way).
    fn kill_object(&mut self, owner: AppId, obj: ObjId) {
        let now = self.queue.now();
        self.telemetry
            .emit(EventKind::ObjectDead, || TelemetryEvent::ObjectDead {
                at: now,
                app: owner.0,
                obj: obj.0,
            });
        self.park_runtime(obj);
        // Death frees the ledger slot, so take it first to clear the
        // runtime component tables.
        let slot = self.ledger.slot_of(obj);
        self.ledger.note_dead(obj, now);
        if let Some(slot) = slot {
            self.gps.remove(slot);
            self.sensors.remove(slot);
        }
        let actions =
            self.call_policy("on_object_dead", obj.0, |p, ctx| p.on_object_dead(ctx, obj));
        self.apply_actions(actions);
    }

    fn install_runtime(&mut self, obj: ObjId, kind: ResourceKind, params: AcquireParams) {
        match kind {
            ResourceKind::Gps => {
                let slot = self.ledger.slot_of(obj).expect("live object slot");
                let interval = params.interval.unwrap_or(SimDuration::from_secs(1));
                self.gps.insert(
                    slot,
                    GpsRuntime {
                        interval,
                        phase: GpsRunPhase::Parked,
                        pending_fix: None,
                        pending_loss: None,
                        pending_deliver: None,
                        last_delivery: None,
                    },
                );
            }
            ResourceKind::Sensor => {
                let slot = self.ledger.slot_of(obj).expect("live object slot");
                let interval = params.interval.unwrap_or(SimDuration::from_secs(1));
                self.sensors.insert(
                    slot,
                    SensorRuntime {
                        interval,
                        pending_deliver: None,
                    },
                );
            }
            _ => {}
        }
    }

    /// Starts (or resumes) the resource's active behaviour.
    fn start_runtime(&mut self, obj: ObjId) {
        let now = self.queue.now();
        let kind = self.ledger.obj(obj).kind;
        match kind {
            ResourceKind::Gps => self.gps_begin_search(now, obj),
            ResourceKind::Sensor => {
                let slot = self.ledger.slot_of(obj).expect("live object slot");
                let interval = self.sensors.get(slot).expect("sensor runtime").interval;
                let h = self
                    .queue
                    .push(now + interval, SysEvent::SensorDeliver { obj });
                self.sensors
                    .get_mut(slot)
                    .expect("sensor runtime")
                    .pending_deliver = Some(h);
            }
            _ => {}
        }
    }

    /// Stops the resource's active behaviour (release, revoke, or death).
    fn park_runtime(&mut self, obj: ObjId) {
        let now = self.queue.now();
        let Some(slot) = self.ledger.slot_of(obj) else {
            return;
        };
        if let Some(g) = self.gps.get_mut(slot) {
            for h in [
                g.pending_fix.take(),
                g.pending_loss.take(),
                g.pending_deliver.take(),
            ]
            .into_iter()
            .flatten()
            {
                self.queue.cancel(h);
            }
            g.phase = GpsRunPhase::Parked;
            self.ledger.set_gps_state(obj, GpsPhase::Idle, now);
        }
        if let Some(s) = self.sensors.get_mut(slot) {
            if let Some(h) = s.pending_deliver.take() {
                self.queue.cancel(h);
            }
        }
    }

    fn revoke(&mut self, obj: ObjId) {
        if !self.ledger.has_obj(obj) || self.ledger.obj(obj).dead {
            return;
        }
        self.do_revoke_effects(obj);
    }

    fn do_revoke_effects(&mut self, obj: ObjId) {
        let now = self.queue.now();
        self.telemetry
            .emit(EventKind::PolicyAction, || TelemetryEvent::PolicyAction {
                at: now,
                action: "revoke",
                obj: obj.0,
            });
        self.ledger.note_revoked(obj, true, now);
        self.park_runtime(obj);
        self.update_device_state();
    }

    fn restore(&mut self, obj: ObjId) {
        if !self.ledger.has_obj(obj) || self.ledger.obj(obj).dead {
            return;
        }
        let now = self.queue.now();
        self.telemetry
            .emit(EventKind::PolicyAction, || TelemetryEvent::PolicyAction {
                at: now,
                action: "restore",
                obj: obj.0,
            });
        self.ledger.note_revoked(obj, false, now);
        if self.ledger.obj(obj).held {
            self.start_runtime(obj);
        }
        self.update_device_state();
    }

    // ---- CPU work ----------------------------------------------------------

    fn do_work(&mut self, app: AppId, cpu: SimDuration, token: Token) {
        assert!(!cpu.is_zero(), "zero-length work burst");
        let wall = self.device.cpu_time_for_work(cpu);
        let burst = WorkBurst {
            remaining: wall,
            handle: None,
            running_since: None,
        };
        let idx = self.slot_index(app);
        match self.works[idx].binary_search_by_key(&token, |(t, _)| *t) {
            Ok(_) => panic!("{app} reused in-flight work token {token}"),
            Err(pos) => self.works[idx].insert(pos, (token, burst)),
        }
        if self.awake {
            self.start_burst(app, token);
        }
        self.update_device_state();
    }

    fn start_burst(&mut self, app: AppId, token: Token) {
        let now = self.queue.now();
        let idx = self.slot_index(app);
        let burst = token_entry_mut(&mut self.works, idx, token).expect("burst");
        if burst.running_since.is_some() {
            return;
        }
        let h = self
            .queue
            .push(now + burst.remaining, SysEvent::WorkDone { app, token });
        burst.handle = Some(h);
        burst.running_since = Some(now);
    }

    fn pause_burst(&mut self, app: AppId, token: Token) {
        let now = self.queue.now();
        let idx = self.slot_index(app);
        let burst = token_entry_mut(&mut self.works, idx, token).expect("burst");
        if let Some(since) = burst.running_since.take() {
            let ran = now.since(since);
            burst.remaining = burst.remaining.saturating_sub(ran);
            if let Some(h) = burst.handle.take() {
                self.queue.cancel(h);
            }
            self.ledger.add_cpu_ms(app, ran.as_millis());
        }
    }

    fn finish_work(&mut self, now: SimTime, app: AppId, token: Token) {
        let idx = self.slot_index(app);
        let burst = match token_entry_remove(&mut self.works, idx, token) {
            Some(b) => b,
            None => return, // cancelled concurrently
        };
        if let Some(since) = burst.running_since {
            self.ledger.add_cpu_ms(app, now.since(since).as_millis());
        }
        self.update_device_state();
        self.with_app(app, |model, ctx| {
            model.on_event(ctx, AppEvent::WorkDone(token))
        });
    }

    // ---- network -----------------------------------------------------------

    fn network_op(&mut self, app: AppId, bytes: u64, token: Token) {
        let now = self.queue.now();
        let net_up = self.env.network_up.at(now);
        let server_ok = self.env.server_healthy.at(now);
        let (latency_ms, result) = if !net_up {
            (CONNECT_FAIL_MS, NetResult::Disconnected)
        } else {
            let jitter = {
                let idx = self.slot_index(app);
                self.apps[idx].rng.range_u64(0, 80)
            };
            if server_ok {
                let ms = NET_RTT_MS + jitter + bytes / NET_BYTES_PER_MS;
                (ms, NetResult::Ok)
            } else {
                // A failing server answers slowly: requests hang until the
                // server-side error surfaces. This is what makes K-9's
                // bad-server case *low*-utilization (Figure 2) while the
                // fast-failing disconnected case is a CPU spin (Figure 4).
                (SERVER_FAIL_MS + jitter * 10, NetResult::ServerError)
            }
        };
        self.ledger.add_net_op(app, result.is_err());
        let h = self.queue.push(
            now + SimDuration::from_millis(latency_ms),
            SysEvent::NetDone { app, token, result },
        );
        let idx = self.slot_index(app);
        let op = NetOp {
            handle: Some(h),
            result,
            suspended: false,
        };
        match self.netops[idx].binary_search_by_key(&token, |(t, _)| *t) {
            Ok(_) => panic!("{app} reused in-flight net token {token}"),
            Err(pos) => self.netops[idx].insert(pos, (token, op)),
        }
        self.update_device_state();
    }

    fn finish_net(&mut self, _now: SimTime, app: AppId, token: Token, result: NetResult) {
        let idx = self.slot_index(app);
        if token_entry_remove(&mut self.netops, idx, token).is_none() {
            return; // cancelled
        }
        self.update_device_state();
        self.with_app(app, |model, ctx| {
            model.on_event(ctx, AppEvent::NetDone { token, result })
        });
    }

    // ---- GPS ---------------------------------------------------------------

    fn gps_begin_search(&mut self, now: SimTime, obj: ObjId) {
        let signal = self.env.gps_signal.at(now);
        let delay = {
            let idx = self.slot_index(self.ledger.obj(obj).owner);
            let rng = &mut self.apps[idx].rng;
            match signal {
                GpsSignal::Good => Some(SimDuration::from_millis(rng.range_u64(2_000, 8_000))),
                GpsSignal::Weak => Some(SimDuration::from_millis(
                    (rng.exponential(75_000.0) as u64).clamp(10_000, 600_000),
                )),
                GpsSignal::None => None,
            }
        };
        let slot = self.ledger.slot_of(obj).expect("live object slot");
        let g = self.gps.get_mut(slot).expect("gps runtime");
        g.phase = GpsRunPhase::Searching;
        if let Some(d) = delay {
            g.pending_fix = Some(self.queue.push(now + d, SysEvent::GpsFix { obj }));
        }
        self.ledger.set_gps_state(obj, GpsPhase::Searching, now);
        self.update_device_state();
    }

    fn gps_fix_acquired(&mut self, now: SimTime, obj: ObjId) {
        let signal = self.env.gps_signal.at(now);
        let Some(slot) = self.ledger.slot_of(obj) else {
            return;
        };
        let interval;
        {
            let g = match self.gps.get_mut(slot) {
                Some(g) if g.phase == GpsRunPhase::Searching => g,
                _ => return,
            };
            g.pending_fix = None;
            g.phase = GpsRunPhase::Fixed;
            interval = g.interval;
        }
        self.ledger.set_gps_state(obj, GpsPhase::Fixed, now);
        let deliver = self
            .queue
            .push(now + interval, SysEvent::GpsDeliver { obj });
        // Under weak signal, fixes are eventually lost.
        let loss = if signal == GpsSignal::Weak {
            let idx = self.slot_index(self.ledger.obj(obj).owner);
            let d = SimDuration::from_millis(
                (self.apps[idx].rng.exponential(120_000.0) as u64).clamp(5_000, 900_000),
            );
            Some(self.queue.push(now + d, SysEvent::GpsLost { obj }))
        } else {
            None
        };
        let g = self.gps.get_mut(slot).expect("gps runtime");
        g.pending_deliver = Some(deliver);
        g.pending_loss = loss;
        self.update_device_state();
    }

    fn gps_fix_lost(&mut self, now: SimTime, obj: ObjId) {
        {
            let Some(slot) = self.ledger.slot_of(obj) else {
                return;
            };
            let g = match self.gps.get_mut(slot) {
                Some(g) if g.phase == GpsRunPhase::Fixed => g,
                _ => return,
            };
            g.pending_loss = None;
            if let Some(h) = g.pending_deliver.take() {
                self.queue.cancel(h);
            }
        }
        self.gps_begin_search(now, obj);
    }

    fn gps_deliver(&mut self, now: SimTime, obj: ObjId) {
        let (owner, distance) = {
            let Some(slot) = self.ledger.slot_of(obj) else {
                return;
            };
            let g = match self.gps.get_mut(slot) {
                Some(g) if g.phase == GpsRunPhase::Fixed => g,
                _ => return,
            };
            let since = g.last_delivery.unwrap_or(now);
            g.last_delivery = Some(now);
            let interval = g.interval;
            g.pending_deliver = Some(
                self.queue
                    .push(now + interval, SysEvent::GpsDeliver { obj }),
            );
            (
                self.ledger.obj(obj).owner,
                self.env.distance_moved_m(since, now),
            )
        };
        self.ledger.note_delivery(obj, now);
        self.ledger.add_distance(owner, distance);
        self.with_app(owner, |model, ctx| {
            model.on_event(
                ctx,
                AppEvent::GpsFix {
                    obj,
                    distance_m: distance,
                },
            )
        });
    }

    // ---- sensors -----------------------------------------------------------

    fn sensor_deliver(&mut self, now: SimTime, obj: ObjId) {
        let owner = {
            let Some(slot) = self.ledger.slot_of(obj) else {
                return;
            };
            let s = match self.sensors.get_mut(slot) {
                Some(s) => s,
                None => return,
            };
            let interval = s.interval;
            s.pending_deliver = Some(
                self.queue
                    .push(now + interval, SysEvent::SensorDeliver { obj }),
            );
            self.ledger.obj(obj).owner
        };
        self.ledger.note_delivery(obj, now);
        self.with_app(owner, |model, ctx| {
            model.on_event(ctx, AppEvent::SensorReading { obj })
        });
    }

    // ---- environment & device state -----------------------------------------

    fn on_env_change(&mut self, now: SimTime) {
        // Network drop fails in-flight operations immediately.
        if !self.env.network_up.at(now) {
            for idx in 0..self.apps.len() {
                let app = self.apps[idx].id;
                for e in 0..self.netops[idx].len() {
                    let (token, op) = &mut self.netops[idx][e];
                    let token = *token;
                    if op.suspended {
                        continue;
                    }
                    if let Some(h) = op.handle.take() {
                        self.queue.cancel(h);
                    }
                    op.result = NetResult::Timeout;
                    self.queue.push(
                        now,
                        SysEvent::NetDone {
                            app,
                            token,
                            result: NetResult::Timeout,
                        },
                    );
                }
            }
        }
        // GPS signal changes re-drive every live request. Parked runtimes
        // (released or revoked requests) were always no-ops here, so the
        // effective index — searching or fixed requests exactly — walks the
        // same objects the full runtime map used to, in the same id order.
        let sig = self.env.gps_signal.at(now);
        let objs: Vec<ObjId> = self.ledger.effective_objects(ResourceKind::Gps).to_vec();
        for obj in objs {
            let slot = self.ledger.slot_of(obj).expect("live object slot");
            let phase = self.gps.get(slot).expect("gps runtime").phase;
            match (phase, sig) {
                (GpsRunPhase::Fixed, GpsSignal::None) => self.gps_fix_lost_now(now, obj),
                (GpsRunPhase::Searching, _) => {
                    // Re-roll the acquisition under the new signal.
                    if let Some(h) = self
                        .gps
                        .get_mut(slot)
                        .expect("gps runtime")
                        .pending_fix
                        .take()
                    {
                        self.queue.cancel(h);
                    }
                    self.gps_begin_search(now, obj);
                }
                _ => {}
            }
        }
        let actions = self.call_policy("on_device_state", 0, |p, ctx| p.on_device_state(ctx));
        self.apply_actions(actions);
    }

    fn gps_fix_lost_now(&mut self, now: SimTime, obj: ObjId) {
        {
            let slot = self.ledger.slot_of(obj).expect("live object slot");
            let g = self.gps.get_mut(slot).expect("gps runtime");
            for h in [g.pending_loss.take(), g.pending_deliver.take()]
                .into_iter()
                .flatten()
            {
                self.queue.cancel(h);
            }
        }
        self.gps_begin_search(now, obj);
    }

    fn effective_holders(&self, kind: ResourceKind) -> Vec<AppId> {
        let mut v: Vec<AppId> = self
            .ledger
            .effective_objects(kind)
            .iter()
            .map(|&obj| self.ledger.obj(obj).owner)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Recomputes screen/awake state, handles sleep/wake transitions, and
    /// re-syncs power attribution.
    fn update_device_state(&mut self) {
        let now = self.queue.now();
        let user = self.env.user_present.at(now);
        self.ledger.set_user_present(user, now);
        let screen = user
            || !self
                .effective_holders(ResourceKind::ScreenWakelock)
                .is_empty();
        let awake = screen || !self.effective_holders(ResourceKind::Wakelock).is_empty();

        let screen_changed = screen != self.screen_on;
        self.screen_on = screen;

        if awake != self.awake {
            self.awake = awake;
            let state = if awake { "wake" } else { "deep_sleep" };
            self.telemetry
                .emit(EventKind::DeviceState, || TelemetryEvent::DeviceState {
                    at: now,
                    state,
                });
            if awake {
                self.on_wake(now);
            } else {
                self.on_sleep();
            }
        }
        if screen_changed {
            let state = if screen { "screen_on" } else { "screen_off" };
            self.telemetry
                .emit(EventKind::DeviceState, || TelemetryEvent::DeviceState {
                    at: now,
                    state,
                });
            let actions = self.call_policy("on_device_state", 0, |p, ctx| p.on_device_state(ctx));
            // Already inside update_device_state: apply without settling
            // again, which would recurse.
            self.apply_actions_inner(actions);
        }
        self.sync_power(now);
    }

    /// Applies a policy's actions without settling the device state; the
    /// one body behind [`apply_actions`], and called directly on paths
    /// already inside `update_device_state`.
    fn apply_actions_inner(&mut self, actions: Vec<PolicyAction>) {
        if actions.is_empty() {
            return;
        }
        for action in actions {
            match action {
                PolicyAction::Revoke(obj) => self.revoke(obj),
                PolicyAction::Restore(obj) => self.restore(obj),
                PolicyAction::ScheduleTimer { at, key } => {
                    let at = at.max(self.queue.now());
                    let now = self.queue.now();
                    self.telemetry
                        .emit(EventKind::PolicyAction, || TelemetryEvent::PolicyAction {
                            at: now,
                            action: "timer",
                            obj: key,
                        });
                    self.queue.push(at, SysEvent::PolicyTimer { key });
                }
            }
        }
    }

    fn on_wake(&mut self, now: SimTime) {
        // Resume paused CPU bursts.
        for idx in 0..self.apps.len() {
            let app = self.apps[idx].id;
            for e in 0..self.works[idx].len() {
                let token = self.works[idx][e].0;
                self.start_burst(app, token);
            }
        }
        // Suspended network operations fail with a timeout on resume (§4.6).
        for idx in 0..self.apps.len() {
            let app = self.apps[idx].id;
            for e in 0..self.netops[idx].len() {
                let (token, op) = &mut self.netops[idx][e];
                let token = *token;
                if op.suspended {
                    op.suspended = false;
                    self.queue.push(
                        now,
                        SysEvent::NetDone {
                            app,
                            token,
                            result: NetResult::Timeout,
                        },
                    );
                }
            }
        }
        // Flush deferrable timers that came due during sleep.
        for idx in 0..self.apps.len() {
            let app = self.apps[idx].id;
            let epoch = self.apps[idx].epoch;
            let tokens = std::mem::take(&mut self.apps[idx].deferred_timers);
            for token in tokens {
                self.queue.push(
                    now,
                    SysEvent::AppTimer {
                        app,
                        token,
                        wake: false,
                        epoch,
                    },
                );
            }
        }
    }

    fn on_sleep(&mut self) {
        for idx in 0..self.apps.len() {
            let app = self.apps[idx].id;
            for e in 0..self.works[idx].len() {
                let token = self.works[idx][e].0;
                self.pause_burst(app, token);
            }
        }
        for entries in &mut self.netops {
            for (_, op) in entries.iter_mut() {
                if let Some(h) = op.handle.take() {
                    self.queue.cancel(h);
                    op.suspended = true;
                }
            }
        }
    }

    // ---- power attribution ---------------------------------------------------

    fn sync_power(&mut self, now: SimTime) {
        self.m_settles.inc();
        let p = &self.device.power;
        // Accumulate into the reusable scratch map: `clear` keeps its
        // capacity, so a settled kernel allocates nothing here. Accumulation
        // order (and therefore float rounding) is unchanged from the old
        // per-call map; only the storage is reused.
        let mut desired = std::mem::take(&mut self.scratch_desired);
        desired.clear();
        let add = |map: &mut HashMap<(Consumer, ComponentKind), f64>,
                   c: Consumer,
                   k: ComponentKind,
                   mw: f64| {
            if mw > 0.0 {
                *map.entry((c, k)).or_insert(0.0) += mw;
            }
        };

        // CPU floor.
        add(
            &mut desired,
            Consumer::System,
            ComponentKind::Cpu,
            p.cpu_deep_sleep_mw,
        );
        if self.awake {
            let idle_delta = p.cpu_idle_mw - p.cpu_deep_sleep_mw;
            let wakers = self.effective_holders(ResourceKind::Wakelock);
            if self.screen_on || wakers.is_empty() {
                // The user keeps the device up; the baseline pays.
                add(
                    &mut desired,
                    Consumer::System,
                    ComponentKind::Cpu,
                    idle_delta,
                );
            } else {
                let share = idle_delta / wakers.len() as f64;
                for app in wakers {
                    add(&mut desired, app.consumer(), ComponentKind::Cpu, share);
                }
            }
            // Active execution: each running burst bills its app the active
            // delta (approximating per-core accounting).
            let active_delta = p.cpu_active_mw - p.cpu_idle_mw;
            for (idx, entries) in self.works.iter().enumerate() {
                if entries.iter().any(|(_, b)| b.running_since.is_some()) {
                    add(
                        &mut desired,
                        self.apps[idx].id.consumer(),
                        ComponentKind::Cpu,
                        active_delta,
                    );
                }
            }
        }

        // Screen.
        if self.screen_on {
            if self.env.user_present.at(now) {
                add(
                    &mut desired,
                    Consumer::System,
                    ComponentKind::Screen,
                    p.screen_on_mw,
                );
            } else {
                let holders = self.effective_holders(ResourceKind::ScreenWakelock);
                let share = p.screen_on_mw / holders.len().max(1) as f64;
                for app in holders {
                    add(&mut desired, app.consumer(), ComponentKind::Screen, share);
                }
            }
        }

        // GPS: each live, effective request bills its phase draw. The
        // effective index is exactly the old walk's survivors (held,
        // non-revoked, non-dead), in the same ObjId order.
        for &obj in self.ledger.effective_objects(ResourceKind::Gps) {
            let slot = self.ledger.slot_of(obj).expect("live object slot");
            let g = self.gps.get(slot).expect("gps runtime");
            if g.phase == GpsRunPhase::Parked {
                continue;
            }
            let mw = match g.phase {
                GpsRunPhase::Searching => p.gps_searching_mw,
                GpsRunPhase::Fixed => p.gps_fixed_mw,
                GpsRunPhase::Parked => 0.0,
            };
            let owner = self.ledger.obj(obj).owner;
            add(&mut desired, owner.consumer(), ComponentKind::Gps, mw);
        }

        // Wi-Fi: active transfers dominate; otherwise wifilocks keep the
        // radio idle-associated.
        let transferring: Vec<AppId> = self
            .netops
            .iter()
            .enumerate()
            .filter(|(_, entries)| entries.iter().any(|(_, op)| !op.suspended))
            .map(|(idx, _)| self.apps[idx].id)
            .collect();
        if !transferring.is_empty() {
            let share = p.wifi_active_mw / transferring.len() as f64;
            for app in transferring {
                add(&mut desired, app.consumer(), ComponentKind::Wifi, share);
            }
        } else {
            let holders = self.effective_holders(ResourceKind::WifiLock);
            if !holders.is_empty() {
                let share = p.wifi_idle_mw / holders.len() as f64;
                for app in holders {
                    add(&mut desired, app.consumer(), ComponentKind::Wifi, share);
                }
            }
        }

        // Sensors and audio: split among effective holders.
        for (kind, comp, mw) in [
            (ResourceKind::Sensor, ComponentKind::Sensor, p.sensor_on_mw),
            (ResourceKind::Audio, ComponentKind::Audio, p.audio_on_mw),
        ] {
            let holders = self.effective_holders(kind);
            if !holders.is_empty() {
                let share = mw / holders.len() as f64;
                for app in holders {
                    add(&mut desired, app.consumer(), comp, share);
                }
            }
        }

        // Diff against the previous attribution with a sorted merge walk:
        // the same set_draw calls the old hash diff issued (stale keys
        // zeroed, changed or new keys updated), but in deterministic key
        // order and without rebuilding a map. Channels are independent in
        // the meter, so reordering the calls cannot change any integral.
        let mut next = std::mem::take(&mut self.scratch_draws);
        next.clear();
        next.extend(desired.drain());
        next.sort_unstable_by_key(|a| a.0);
        let (mut i, mut j) = (0, 0);
        while i < self.prev_draws.len() || j < next.len() {
            let prev = self.prev_draws.get(i);
            let new = next.get(j);
            match (prev, new) {
                (Some(&(pk, _)), Some(&(nk, nmw))) if pk == nk => {
                    if self.prev_draws[i].1 != nmw {
                        self.meter.set_draw(now, nk.0, nk.1, nmw);
                    }
                    i += 1;
                    j += 1;
                }
                (Some(&(pk, _)), Some(&(nk, _))) if pk < nk => {
                    self.meter.set_draw(now, pk.0, pk.1, 0.0);
                    i += 1;
                }
                (Some(&(pk, _)), None) => {
                    self.meter.set_draw(now, pk.0, pk.1, 0.0);
                    i += 1;
                }
                (_, Some(&(nk, nmw))) => {
                    self.meter.set_draw(now, nk.0, nk.1, nmw);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        std::mem::swap(&mut self.prev_draws, &mut next);
        self.scratch_draws = next;
        self.scratch_desired = desired;

        // Mirror the same attribution at span granularity when tracing is
        // enabled. Computed after the meter so both integrate from `now`.
        if let Some(spans) = &self.spans {
            let sd = self.span_desired(now);
            spans.borrow_mut().set_draws(now, &sd);
        }
    }

    /// Whether `app` currently has a CPU burst executing.
    fn app_running_burst(&self, app: AppId) -> bool {
        let idx = self.slot_index(app);
        self.works[idx]
            .iter()
            .any(|(_, b)| b.running_since.is_some())
    }

    /// The effective (held, non-revoked) objects of `kind`, grouped by owner.
    fn effective_holder_objs(&self, kind: ResourceKind) -> BTreeMap<AppId, Vec<ObjId>> {
        let mut map: BTreeMap<AppId, Vec<ObjId>> = BTreeMap::new();
        for &id in self.ledger.effective_objects(kind) {
            // The effective index is ObjId-ascending, so each owner's list
            // comes out already sorted.
            map.entry(self.ledger.obj(id).owner).or_default().push(id);
        }
        map
    }

    /// Subdivides one app's component share among its responsible objects.
    /// The last object takes the remainder so the slices sum back to `share`
    /// exactly, keeping span totals aligned with the meter's consumer math.
    fn split_app_share(
        out: &mut BTreeMap<(SpanScope, ComponentKind, bool), f64>,
        objs: &[ObjId],
        comp: ComponentKind,
        wasted: bool,
        share: f64,
    ) {
        if share <= 0.0 || objs.is_empty() {
            return;
        }
        let per = share / objs.len() as f64;
        for (i, obj) in objs.iter().enumerate() {
            let mw = if i + 1 == objs.len() {
                share - per * (objs.len() - 1) as f64
            } else {
                per
            };
            *out.entry((SpanScope::Obj(obj.0), comp, wasted))
                .or_insert(0.0) += mw;
        }
    }

    /// Mirrors [`Kernel::sync_power`]'s attribution at span granularity: the
    /// same per-app shares, subdivided among each app's responsible kernel
    /// objects, with every slice classified useful or wasted (DESIGN.md
    /// §3.7). Per-app totals reproduce the consumer math expression for
    /// expression, so span energy sums match the meter to float round-off.
    fn span_desired(&self, now: SimTime) -> BTreeMap<(SpanScope, ComponentKind, bool), f64> {
        let p = &self.device.power;
        let mut out: BTreeMap<(SpanScope, ComponentKind, bool), f64> = BTreeMap::new();
        let alive = |app: AppId| {
            self.ledger
                .app_opt(app)
                .map(|a| a.activity_alive)
                .unwrap_or(false)
        };

        // CPU floor: the always-present baseline is useful system overhead.
        *out.entry((SpanScope::System, ComponentKind::Cpu, false))
            .or_insert(0.0) += p.cpu_deep_sleep_mw;

        if self.awake {
            let idle_delta = p.cpu_idle_mw - p.cpu_deep_sleep_mw;
            let wakers = self.effective_holders(ResourceKind::Wakelock);
            if self.screen_on || wakers.is_empty() {
                *out.entry((SpanScope::System, ComponentKind::Cpu, false))
                    .or_insert(0.0) += idle_delta;
            } else {
                // A held wakelock whose owner has no burst executing is the
                // Long-Holding signature: the idle draw it induces is waste.
                let share = idle_delta / wakers.len() as f64;
                let objs = self.effective_holder_objs(ResourceKind::Wakelock);
                for app in wakers {
                    let wasted = !self.app_running_burst(app);
                    if let Some(list) = objs.get(&app) {
                        Self::split_app_share(&mut out, list, ComponentKind::Cpu, wasted, share);
                    }
                }
            }
            let active_delta = p.cpu_active_mw - p.cpu_idle_mw;
            for (idx, entries) in self.works.iter().enumerate() {
                if entries.iter().any(|(_, b)| b.running_since.is_some()) {
                    let app = self.apps[idx].id;
                    *out.entry((SpanScope::App(app.0), ComponentKind::Cpu, false))
                        .or_insert(0.0) += active_delta;
                }
            }
        }

        // Screen: a lit panel with the user present is useful system draw;
        // lit by a screen wakelock with nobody watching, it is wasted unless
        // the owning activity is alive and plausibly rendering.
        if self.screen_on {
            if self.env.user_present.at(now) {
                *out.entry((SpanScope::System, ComponentKind::Screen, false))
                    .or_insert(0.0) += p.screen_on_mw;
            } else {
                let holders = self.effective_holders(ResourceKind::ScreenWakelock);
                let share = p.screen_on_mw / holders.len().max(1) as f64;
                let objs = self.effective_holder_objs(ResourceKind::ScreenWakelock);
                for app in holders {
                    let wasted = !alive(app);
                    if let Some(list) = objs.get(&app) {
                        Self::split_app_share(&mut out, list, ComponentKind::Screen, wasted, share);
                    }
                }
            }
        }

        // GPS: searching burns the Frequent-Ask way regardless of listener
        // health; a delivered fix is useful only to a live activity.
        for &obj in self.ledger.effective_objects(ResourceKind::Gps) {
            let slot = self.ledger.slot_of(obj).expect("live object slot");
            let g = self.gps.get(slot).expect("gps runtime");
            if g.phase == GpsRunPhase::Parked {
                continue;
            }
            let owner = self.ledger.obj(obj).owner;
            let (mw, wasted) = match g.phase {
                GpsRunPhase::Searching => (p.gps_searching_mw, true),
                GpsRunPhase::Fixed => (p.gps_fixed_mw, !alive(owner)),
                GpsRunPhase::Parked => (0.0, false),
            };
            if mw > 0.0 {
                *out.entry((SpanScope::Obj(obj.0), ComponentKind::Gps, wasted))
                    .or_insert(0.0) += mw;
            }
        }

        // Wi-Fi: active transfers are app work; an idle-held wifilock is
        // exactly the hold-without-use waste the lease model targets.
        let transferring: Vec<AppId> = self
            .netops
            .iter()
            .enumerate()
            .filter(|(_, entries)| entries.iter().any(|(_, op)| !op.suspended))
            .map(|(idx, _)| self.apps[idx].id)
            .collect();
        if !transferring.is_empty() {
            let share = p.wifi_active_mw / transferring.len() as f64;
            for app in transferring {
                *out.entry((SpanScope::App(app.0), ComponentKind::Wifi, false))
                    .or_insert(0.0) += share;
            }
        } else {
            let holders = self.effective_holders(ResourceKind::WifiLock);
            if !holders.is_empty() {
                let share = p.wifi_idle_mw / holders.len() as f64;
                let objs = self.effective_holder_objs(ResourceKind::WifiLock);
                for app in holders {
                    if let Some(list) = objs.get(&app) {
                        Self::split_app_share(&mut out, list, ComponentKind::Wifi, true, share);
                    }
                }
            }
        }

        // Sensors feed a live activity or nobody; audio is audible either way.
        for (kind, comp, mw) in [
            (ResourceKind::Sensor, ComponentKind::Sensor, p.sensor_on_mw),
            (ResourceKind::Audio, ComponentKind::Audio, p.audio_on_mw),
        ] {
            let holders = self.effective_holders(kind);
            if holders.is_empty() {
                continue;
            }
            let share = mw / holders.len() as f64;
            let objs = self.effective_holder_objs(kind);
            for app in holders {
                let wasted = comp == ComponentKind::Sensor && !alive(app);
                if let Some(list) = objs.get(&app) {
                    Self::split_app_share(&mut out, list, comp, wasted, share);
                }
            }
        }
        out
    }
}

/// The capability handle apps use to talk to the OS.
///
/// An `AppCtx` is passed to every [`AppModel`] callback. It exposes resource
/// acquisition (routed through the installed policy), CPU work and network
/// I/O, timers, and the utility-signal reports the lease manager scores
/// (§3.3).
pub struct AppCtx<'k> {
    kernel: &'k mut Kernel,
    app: AppId,
    idx: usize,
}

impl std::fmt::Debug for AppCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppCtx")
            .field("app", &self.app)
            .finish_non_exhaustive()
    }
}

impl AppCtx<'_> {
    /// Current simulation instant.
    pub fn now(&self) -> SimTime {
        self.kernel.queue.now()
    }

    /// This app's deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.kernel.apps[self.idx].rng
    }

    /// Whether the screen is currently on (apps can observe this, e.g. a
    /// widget that only updates while visible).
    pub fn screen_on(&self) -> bool {
        self.kernel.screen_on
    }

    // -- resources --

    /// Acquires a new CPU wakelock.
    pub fn acquire_wakelock(&mut self) -> ObjId {
        self.kernel
            .acquire(self.app, ResourceKind::Wakelock, AcquireParams::held())
    }

    /// Acquires a new screen wakelock.
    pub fn acquire_screen_wakelock(&mut self) -> ObjId {
        self.kernel.acquire(
            self.app,
            ResourceKind::ScreenWakelock,
            AcquireParams::held(),
        )
    }

    /// Acquires a new Wi-Fi lock.
    pub fn acquire_wifilock(&mut self) -> ObjId {
        self.kernel
            .acquire(self.app, ResourceKind::WifiLock, AcquireParams::held())
    }

    /// Opens an audio session.
    pub fn acquire_audio(&mut self) -> ObjId {
        self.kernel
            .acquire(self.app, ResourceKind::Audio, AcquireParams::held())
    }

    /// Registers a GPS location request delivering every `interval`.
    pub fn request_gps(&mut self, interval: SimDuration) -> ObjId {
        self.kernel.acquire(
            self.app,
            ResourceKind::Gps,
            AcquireParams::listener(interval),
        )
    }

    /// Registers a sensor listener delivering every `interval`.
    pub fn register_sensor(&mut self, interval: SimDuration) -> ObjId {
        self.kernel.acquire(
            self.app,
            ResourceKind::Sensor,
            AcquireParams::listener(interval),
        )
    }

    /// Re-acquires an existing (possibly released or expired) resource.
    pub fn reacquire(&mut self, obj: ObjId) {
        self.kernel.reacquire(self.app, obj);
    }

    /// Releases a held resource (the descriptor stays usable).
    pub fn release(&mut self, obj: ObjId) {
        self.kernel.release(self.app, obj);
    }

    /// Drops the descriptor entirely; the kernel object dies.
    pub fn close(&mut self, obj: ObjId) {
        self.kernel.close(self.app, obj);
    }

    // -- execution --

    /// Starts a CPU burst of `cpu` device-time; completion is delivered as
    /// [`AppEvent::WorkDone`] with `token`. Progress pauses while the device
    /// sleeps.
    ///
    /// # Panics
    ///
    /// Panics if `token` is already in flight for this app or `cpu` is zero.
    pub fn do_work(&mut self, cpu: SimDuration, token: Token) {
        self.kernel.do_work(self.app, cpu, token);
    }

    /// Starts a network operation transferring `bytes`; completion is
    /// delivered as [`AppEvent::NetDone`] with `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is already in flight for this app.
    pub fn network_op(&mut self, bytes: u64, token: Token) {
        self.kernel.network_op(self.app, bytes, token);
    }

    /// Schedules a deferrable timer `after` from now (does not fire during
    /// deep sleep; flushed on wake).
    pub fn schedule(&mut self, after: SimDuration, token: Token) {
        let at = self.kernel.queue.now() + after;
        let epoch = self.kernel.apps[self.idx].epoch;
        self.kernel.queue.push(
            at,
            SysEvent::AppTimer {
                app: self.app,
                token,
                wake: false,
                epoch,
            },
        );
    }

    /// Schedules an alarm `after` from now; alarms fire even during deep
    /// sleep (they wake the device transiently, like `AlarmManager`).
    pub fn schedule_alarm(&mut self, after: SimDuration, token: Token) {
        let at = self.kernel.queue.now() + after;
        let epoch = self.kernel.apps[self.idx].epoch;
        self.kernel.queue.push(
            at,
            SysEvent::AppTimer {
                app: self.app,
                token,
                wake: true,
                epoch,
            },
        );
    }

    // -- utility signals --

    /// Reports a severe exception (caught by the runtime, as LeaseOS's
    /// libcore hook observes — paper §6).
    pub fn raise_exception(&mut self) {
        self.kernel.ledger.add_exception(self.app);
    }

    /// Reports a UI update.
    pub fn note_ui_update(&mut self) {
        self.kernel.ledger.add_ui_update(self.app);
    }

    /// Reports a direct user interaction.
    pub fn note_user_interaction(&mut self) {
        self.kernel.ledger.add_interaction(self.app);
    }

    /// Reports `records` written to persistent storage.
    pub fn write_data(&mut self, records: u64) {
        self.kernel.ledger.add_data_written(self.app, records);
    }

    /// Declares whether the app currently has a live (foreground/bound)
    /// Activity — the utilization reference for listener resources.
    pub fn set_activity_alive(&mut self, alive: bool) {
        let now = self.kernel.queue.now();
        self.kernel.ledger.set_activity_alive(self.app, alive, now);
    }

    /// Terminates this app, as when its process dies: all kernel objects it
    /// owns are deallocated (with policy notification per object) and no
    /// further events are delivered.
    pub fn stop_self(&mut self) {
        self.kernel.stop_app(self.app);
    }

    /// Publishes the app's custom utility score (the paper's optional
    /// `IUtilityCounter`, §3.3). The resource manager may use it as a hint;
    /// LeaseOS only honours it when the generic score is not too low, to
    /// prevent abuse. Pass `None` to withdraw the counter.
    pub fn set_custom_utility(&mut self, score: Option<f64>) {
        self.kernel.ledger.set_custom_utility(self.app, score);
    }
}

#[cfg(test)]
mod tests;
