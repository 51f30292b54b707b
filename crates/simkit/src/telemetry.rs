//! Structured telemetry bus.
//!
//! Every measurement in the paper is an *event stream* — lease state
//! transitions (Fig. 5), classifier verdicts (Table 3), per-term renewals
//! and deferrals (§5.1), accounting overhead (Fig. 13). This module gives
//! the whole stack one structured channel for those observations instead of
//! ad-hoc string traces and bare counters:
//!
//! * [`TelemetryEvent`] — a timestamped, typed event. Substrate layers
//!   (kernel, services, policies, the lease manager) emit these at decision
//!   points.
//! * [`TelemetryBus`] — the emission point. Per-kind counters are always
//!   on (a single `Cell` bump, mirroring the paper's <1% accounting-overhead
//!   budget); full event construction happens only while at least one sink
//!   is attached, so the disabled path performs **zero allocation** — the
//!   closure handed to [`TelemetryBus::emit`] is never invoked.
//! * [`Sink`] — consumers: a bounded [`RingBufferSink`] (live trace, as
//!   `explore --trace` uses) and a [`JsonlSink`] that streams events as
//!   JSON lines for offline analysis.
//!
//! Serialization is a hand-rolled, dependency-free JSON writer/parser
//! (`serde` is unavailable in this offline build); field order is fixed, so
//! equal event streams serialize to byte-identical JSONL — the property the
//! harness determinism test relies on.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::rc::Rc;

use crate::time::SimTime;

/// The discriminant of a [`TelemetryEvent`], used for always-on counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum EventKind {
    /// An app acquired a service resource (first or repeat acquire).
    ServiceAcquire,
    /// An app released a service resource.
    ServiceRelease,
    /// A kernel object died (descriptor closed or app stopped).
    ObjectDead,
    /// A policy hook was invoked (the paper's per-op bookkeeping unit).
    PolicyOp,
    /// The kernel applied a policy action (revoke / restore / timer).
    PolicyAction,
    /// A lease moved between states of the §4 state machine.
    LeaseTransition,
    /// The classifier ruled on a term's behaviour.
    ClassifierVerdict,
    /// A lease term was renewed.
    TermRenewed,
    /// A lease entered a deferral interval.
    TermDeferred,
    /// An app lifecycle event (start, stop, alarm).
    AppLifecycle,
    /// A device state change (wake, deep sleep, screen).
    DeviceState,
    /// An energy attribution snapshot for one consumer.
    EnergySnapshot,
    /// A fault-plan fault was injected into the run.
    FaultInjected,
    /// A per-app, per-component useful/wasted attribution row.
    Attribution,
    /// A causal span summary (open or closed) with its energy integrals.
    SpanSummary,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 15] = [
        EventKind::ServiceAcquire,
        EventKind::ServiceRelease,
        EventKind::ObjectDead,
        EventKind::PolicyOp,
        EventKind::PolicyAction,
        EventKind::LeaseTransition,
        EventKind::ClassifierVerdict,
        EventKind::TermRenewed,
        EventKind::TermDeferred,
        EventKind::AppLifecycle,
        EventKind::DeviceState,
        EventKind::EnergySnapshot,
        EventKind::FaultInjected,
        EventKind::Attribution,
        EventKind::SpanSummary,
    ];

    /// Number of kinds (size of counter arrays).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable machine-readable name (the JSONL `event` field).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ServiceAcquire => "service_acquire",
            EventKind::ServiceRelease => "service_release",
            EventKind::ObjectDead => "object_dead",
            EventKind::PolicyOp => "policy_op",
            EventKind::PolicyAction => "policy_action",
            EventKind::LeaseTransition => "lease_transition",
            EventKind::ClassifierVerdict => "classifier_verdict",
            EventKind::TermRenewed => "term_renewed",
            EventKind::TermDeferred => "term_deferred",
            EventKind::AppLifecycle => "app_lifecycle",
            EventKind::DeviceState => "device_state",
            EventKind::EnergySnapshot => "energy_snapshot",
            EventKind::FaultInjected => "fault_injected",
            EventKind::Attribution => "attribution",
            EventKind::SpanSummary => "span",
        }
    }
}

/// One timestamped observation from the simulated stack.
///
/// String fields are `&'static str` drawn from small fixed vocabularies
/// (resource kind names, state names), so constructing an event never
/// allocates beyond the enum itself.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// An app acquired a resource.
    ServiceAcquire {
        /// When.
        at: SimTime,
        /// Numeric app id.
        app: u32,
        /// Numeric kernel object id.
        obj: u64,
        /// Resource kind name (`"wakelock"`, `"gps"`, …).
        kind: &'static str,
        /// Policy decision (`"grant"` or `"pretend"`).
        decision: &'static str,
        /// True on the first acquire of a fresh object.
        first: bool,
    },
    /// An app released a resource.
    ServiceRelease {
        /// When.
        at: SimTime,
        /// Numeric app id.
        app: u32,
        /// Numeric kernel object id.
        obj: u64,
    },
    /// A kernel object died.
    ObjectDead {
        /// When.
        at: SimTime,
        /// Numeric app id.
        app: u32,
        /// Numeric kernel object id.
        obj: u64,
    },
    /// A policy hook ran (one unit of modeled bookkeeping).
    PolicyOp {
        /// When.
        at: SimTime,
        /// Hook name (`"on_acquire"`, `"on_timer"`, …).
        hook: &'static str,
        /// The kernel object the hook concerns (0 for object-less hooks
        /// like `on_timer` and `on_device_state`).
        obj: u64,
    },
    /// The kernel applied a policy action.
    PolicyAction {
        /// When.
        at: SimTime,
        /// Action name (`"revoke"`, `"restore"`, `"timer"`).
        action: &'static str,
        /// The kernel object acted on (0 for timers).
        obj: u64,
    },
    /// A lease state transition.
    LeaseTransition {
        /// When.
        at: SimTime,
        /// Numeric lease id.
        lease: u64,
        /// The kernel object the lease governs.
        obj: u64,
        /// State left.
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// A classifier verdict at term end.
    ClassifierVerdict {
        /// When.
        at: SimTime,
        /// Numeric lease id.
        lease: u64,
        /// Verdict name (`"normal"`, `"lhb"`, `"fab"`, `"lub"`, `"eub"`).
        verdict: &'static str,
    },
    /// A term renewal.
    TermRenewed {
        /// When.
        at: SimTime,
        /// Numeric lease id.
        lease: u64,
        /// Length of the next term, seconds.
        term_s: f64,
    },
    /// A deferral decision.
    TermDeferred {
        /// When.
        at: SimTime,
        /// Numeric lease id.
        lease: u64,
        /// Deferral interval τ, seconds.
        defer_s: f64,
    },
    /// An app lifecycle event.
    AppLifecycle {
        /// When.
        at: SimTime,
        /// Numeric app id.
        app: u32,
        /// Event name (`"start"`, `"stop"`, `"alarm"`).
        event: &'static str,
    },
    /// A device state change.
    DeviceState {
        /// When.
        at: SimTime,
        /// State name (`"wake"`, `"deep_sleep"`, `"screen_on"`, `"screen_off"`).
        state: &'static str,
    },
    /// An energy attribution snapshot for one consumer.
    EnergySnapshot {
        /// When.
        at: SimTime,
        /// Consumer scope (`"app"` or `"system"`).
        consumer: &'static str,
        /// Consumer id (app id, or 0 for system).
        id: u32,
        /// Attributed energy so far, millijoules.
        energy_mj: f64,
    },
    /// A scheduled fault was injected.
    FaultInjected {
        /// When.
        at: SimTime,
        /// Fault class name (`"app_crash"`, `"object_leak"`, …).
        fault: &'static str,
        /// The app the fault targeted.
        app: u32,
        /// The kernel object involved, or 0 when the fault has no object.
        obj: u64,
    },
    /// A per-app, per-component useful/wasted attribution row (emitted at
    /// settle points while span tracing is enabled).
    Attribution {
        /// When.
        at: SimTime,
        /// Numeric app id (0 = the system baseline).
        app: u32,
        /// Component name (`"cpu"`, `"screen"`, `"gps"`, …).
        component: &'static str,
        /// Useful energy so far, millijoules.
        useful_mj: f64,
        /// Wasted energy so far, millijoules.
        wasted_mj: f64,
    },
    /// A causal span summary (emitted at settle points while span tracing
    /// is enabled).
    SpanSummary {
        /// When.
        at: SimTime,
        /// Span scope (`"system"`, `"app"`, `"obj"`).
        scope: &'static str,
        /// Scope id (object id, app id, or 0 for system).
        id: u64,
        /// The owning app (0 for the system span).
        app: u32,
        /// Span class (resource kind name, `"exec"`, or `"system"`).
        kind: &'static str,
        /// `"open"` or `"closed"`.
        state: &'static str,
        /// Parent scope in the span tree (`"app"`, `"system"`, or `""` for
        /// the system root).
        pscope: &'static str,
        /// Parent scope id (owning app id for objects, 0 otherwise).
        pid: u64,
        /// Useful energy the span induced, millijoules.
        useful_mj: f64,
        /// Wasted energy the span induced, millijoules.
        wasted_mj: f64,
    },
}

impl TelemetryEvent {
    /// This event's [`EventKind`].
    pub fn kind(&self) -> EventKind {
        match self {
            TelemetryEvent::ServiceAcquire { .. } => EventKind::ServiceAcquire,
            TelemetryEvent::ServiceRelease { .. } => EventKind::ServiceRelease,
            TelemetryEvent::ObjectDead { .. } => EventKind::ObjectDead,
            TelemetryEvent::PolicyOp { .. } => EventKind::PolicyOp,
            TelemetryEvent::PolicyAction { .. } => EventKind::PolicyAction,
            TelemetryEvent::LeaseTransition { .. } => EventKind::LeaseTransition,
            TelemetryEvent::ClassifierVerdict { .. } => EventKind::ClassifierVerdict,
            TelemetryEvent::TermRenewed { .. } => EventKind::TermRenewed,
            TelemetryEvent::TermDeferred { .. } => EventKind::TermDeferred,
            TelemetryEvent::AppLifecycle { .. } => EventKind::AppLifecycle,
            TelemetryEvent::DeviceState { .. } => EventKind::DeviceState,
            TelemetryEvent::EnergySnapshot { .. } => EventKind::EnergySnapshot,
            TelemetryEvent::FaultInjected { .. } => EventKind::FaultInjected,
            TelemetryEvent::Attribution { .. } => EventKind::Attribution,
            TelemetryEvent::SpanSummary { .. } => EventKind::SpanSummary,
        }
    }

    /// When the event happened.
    pub fn at(&self) -> SimTime {
        match *self {
            TelemetryEvent::ServiceAcquire { at, .. }
            | TelemetryEvent::ServiceRelease { at, .. }
            | TelemetryEvent::ObjectDead { at, .. }
            | TelemetryEvent::PolicyOp { at, .. }
            | TelemetryEvent::PolicyAction { at, .. }
            | TelemetryEvent::LeaseTransition { at, .. }
            | TelemetryEvent::ClassifierVerdict { at, .. }
            | TelemetryEvent::TermRenewed { at, .. }
            | TelemetryEvent::TermDeferred { at, .. }
            | TelemetryEvent::AppLifecycle { at, .. }
            | TelemetryEvent::DeviceState { at, .. }
            | TelemetryEvent::EnergySnapshot { at, .. }
            | TelemetryEvent::FaultInjected { at, .. }
            | TelemetryEvent::Attribution { at, .. }
            | TelemetryEvent::SpanSummary { at, .. } => at,
        }
    }

    /// Renders the event as one JSON object with a fixed field order.
    ///
    /// Equal events always produce byte-identical JSON, so two runs with
    /// the same seed produce byte-identical JSONL streams.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"event\":\"");
        s.push_str(self.kind().name());
        s.push_str("\",\"t_ms\":");
        push_num(&mut s, self.at().as_millis() as f64);
        match *self {
            TelemetryEvent::ServiceAcquire {
                app,
                obj,
                kind,
                decision,
                first,
                ..
            } => {
                push_field_num(&mut s, "app", app as f64);
                push_field_num(&mut s, "obj", obj as f64);
                push_field_str(&mut s, "kind", kind);
                push_field_str(&mut s, "decision", decision);
                s.push_str(",\"first\":");
                s.push_str(if first { "true" } else { "false" });
            }
            TelemetryEvent::ServiceRelease { app, obj, .. }
            | TelemetryEvent::ObjectDead { app, obj, .. } => {
                push_field_num(&mut s, "app", app as f64);
                push_field_num(&mut s, "obj", obj as f64);
            }
            TelemetryEvent::PolicyOp { hook, obj, .. } => {
                push_field_str(&mut s, "hook", hook);
                push_field_num(&mut s, "obj", obj as f64);
            }
            TelemetryEvent::PolicyAction { action, obj, .. } => {
                push_field_str(&mut s, "action", action);
                push_field_num(&mut s, "obj", obj as f64);
            }
            TelemetryEvent::LeaseTransition {
                lease,
                obj,
                from,
                to,
                ..
            } => {
                push_field_num(&mut s, "lease", lease as f64);
                push_field_num(&mut s, "obj", obj as f64);
                push_field_str(&mut s, "from", from);
                push_field_str(&mut s, "to", to);
            }
            TelemetryEvent::ClassifierVerdict { lease, verdict, .. } => {
                push_field_num(&mut s, "lease", lease as f64);
                push_field_str(&mut s, "verdict", verdict);
            }
            TelemetryEvent::TermRenewed { lease, term_s, .. } => {
                push_field_num(&mut s, "lease", lease as f64);
                push_field_num_key(&mut s, "term_s", term_s);
            }
            TelemetryEvent::TermDeferred { lease, defer_s, .. } => {
                push_field_num(&mut s, "lease", lease as f64);
                push_field_num_key(&mut s, "defer_s", defer_s);
            }
            TelemetryEvent::AppLifecycle { app, event, .. } => {
                push_field_num(&mut s, "app", app as f64);
                // "phase", not "event": the envelope key is already "event".
                push_field_str(&mut s, "phase", event);
            }
            TelemetryEvent::DeviceState { state, .. } => {
                push_field_str(&mut s, "state", state);
            }
            TelemetryEvent::EnergySnapshot {
                consumer,
                id,
                energy_mj,
                ..
            } => {
                push_field_str(&mut s, "consumer", consumer);
                push_field_num(&mut s, "id", id as f64);
                push_field_num_key(&mut s, "energy_mj", energy_mj);
            }
            TelemetryEvent::FaultInjected {
                fault, app, obj, ..
            } => {
                push_field_str(&mut s, "fault", fault);
                push_field_num(&mut s, "app", app as f64);
                push_field_num(&mut s, "obj", obj as f64);
            }
            TelemetryEvent::Attribution {
                app,
                component,
                useful_mj,
                wasted_mj,
                ..
            } => {
                push_field_num(&mut s, "app", app as f64);
                push_field_str(&mut s, "component", component);
                push_field_num_key(&mut s, "useful_mj", useful_mj);
                push_field_num_key(&mut s, "wasted_mj", wasted_mj);
            }
            TelemetryEvent::SpanSummary {
                scope,
                id,
                app,
                kind,
                state,
                pscope,
                pid,
                useful_mj,
                wasted_mj,
                ..
            } => {
                push_field_str(&mut s, "scope", scope);
                push_field_num(&mut s, "id", id as f64);
                push_field_num(&mut s, "app", app as f64);
                push_field_str(&mut s, "kind", kind);
                push_field_str(&mut s, "state", state);
                push_field_str(&mut s, "pscope", pscope);
                push_field_num(&mut s, "pid", pid as f64);
                push_field_num_key(&mut s, "useful_mj", useful_mj);
                push_field_num_key(&mut s, "wasted_mj", wasted_mj);
            }
        }
        s.push('}');
        s
    }
}

impl fmt::Display for TelemetryEvent {
    /// Human-readable one-liner, the format `explore --trace` prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TelemetryEvent::ServiceAcquire {
                at,
                app,
                obj,
                kind,
                decision,
                first,
            } => write!(
                f,
                "[{at}] app{app} {} {kind} as obj{obj} ({decision})",
                if first { "acquires" } else { "re-acquires" }
            ),
            TelemetryEvent::ServiceRelease { at, app, obj } => {
                write!(f, "[{at}] app{app} releases obj{obj}")
            }
            TelemetryEvent::ObjectDead { at, app, obj } => {
                write!(f, "[{at}] app{app} closes obj{obj}; the kernel object dies")
            }
            TelemetryEvent::PolicyOp { at, hook, obj } => {
                write!(f, "[{at}] policy hook {hook}")?;
                if obj != 0 {
                    write!(f, " obj{obj}")?;
                }
                Ok(())
            }
            TelemetryEvent::PolicyAction { at, action, obj } => {
                write!(f, "[{at}] policy {action}")?;
                if obj != 0 {
                    write!(f, " obj{obj}")?;
                }
                Ok(())
            }
            TelemetryEvent::LeaseTransition {
                at,
                lease,
                obj,
                from,
                to,
            } => {
                write!(f, "[{at}] lease{lease} (obj{obj}) {from} -> {to}")
            }
            TelemetryEvent::ClassifierVerdict { at, lease, verdict } => {
                write!(f, "[{at}] lease{lease} classified {verdict}")
            }
            TelemetryEvent::TermRenewed { at, lease, term_s } => {
                write!(f, "[{at}] lease{lease} renewed, next term {term_s} s")
            }
            TelemetryEvent::TermDeferred { at, lease, defer_s } => {
                write!(f, "[{at}] lease{lease} deferred for {defer_s} s")
            }
            TelemetryEvent::AppLifecycle { at, app, event } => {
                write!(f, "[{at}] app{app} {event}")
            }
            TelemetryEvent::DeviceState { at, state } => write!(f, "[{at}] device {state}"),
            TelemetryEvent::EnergySnapshot {
                at,
                consumer,
                id,
                energy_mj,
            } => {
                write!(f, "[{at}] energy {consumer}{id}: {energy_mj:.1} mJ")
            }
            TelemetryEvent::FaultInjected {
                at,
                fault,
                app,
                obj,
            } => {
                write!(f, "[{at}] fault {fault} injected into app{app} (obj{obj})")
            }
            TelemetryEvent::Attribution {
                at,
                app,
                component,
                useful_mj,
                wasted_mj,
            } => {
                write!(
                    f,
                    "[{at}] app{app} {component}: {useful_mj:.1} mJ useful, \
                     {wasted_mj:.1} mJ wasted"
                )
            }
            TelemetryEvent::SpanSummary {
                at,
                scope,
                id,
                app,
                kind,
                state,
                pscope,
                pid,
                useful_mj,
                wasted_mj,
            } => {
                write!(f, "[{at}] span {scope}{id} ({kind}, app{app}, {state}")?;
                if !pscope.is_empty() {
                    write!(f, ", under {pscope}{pid}")?;
                }
                write!(f, "): {useful_mj:.1} mJ useful, {wasted_mj:.1} mJ wasted")
            }
        }
    }
}

fn push_num(s: &mut String, v: f64) {
    use fmt::Write as _;
    let _ = write!(s, "{v}");
}

fn push_field_num(s: &mut String, key: &str, v: f64) {
    use fmt::Write as _;
    let _ = write!(s, ",\"{key}\":{v}");
}

fn push_field_num_key(s: &mut String, key: &str, v: f64) {
    push_field_num(s, key, v);
}

fn push_field_str(s: &mut String, key: &str, v: &str) {
    use fmt::Write as _;
    let _ = write!(s, ",\"{key}\":\"{v}\"");
}

/// A consumer of telemetry events.
pub trait Sink {
    /// Receives one event. Called only while the sink is attached.
    fn record(&mut self, event: &TelemetryEvent);
}

/// The shared emission point.
///
/// Owned by the kernel and borrowed (immutably) by every layer that emits,
/// so it uses interior mutability throughout. Per-kind counters are always
/// live; full events flow only while at least one sink is attached.
#[derive(Default)]
pub struct TelemetryBus {
    counts: [Cell<u64>; EventKind::COUNT],
    sinks: RefCell<Vec<Rc<RefCell<dyn Sink>>>>,
    active: Cell<bool>,
}

impl fmt::Debug for TelemetryBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryBus")
            .field("total_count", &self.total_count())
            .field("sinks", &self.sinks.borrow().len())
            .finish()
    }
}

impl TelemetryBus {
    /// A bus with no sinks attached (counting only).
    pub fn new() -> Self {
        TelemetryBus::default()
    }

    /// Attaches a sink; subsequent emissions are delivered to it.
    pub fn attach(&self, sink: Rc<RefCell<dyn Sink>>) {
        self.sinks.borrow_mut().push(sink);
        self.active.set(true);
    }

    /// Detaches all sinks, returning to the counting-only fast path.
    pub fn detach_all(&self) {
        self.sinks.borrow_mut().clear();
        self.active.set(false);
    }

    /// True while at least one sink is attached.
    pub fn is_active(&self) -> bool {
        self.active.get()
    }

    /// Emits one event.
    ///
    /// The kind counter is always bumped. `make` is invoked — and the
    /// event allocated — only while a sink is attached, so the disabled
    /// path is a single counter increment.
    #[inline]
    pub fn emit(&self, kind: EventKind, make: impl FnOnce() -> TelemetryEvent) {
        let c = &self.counts[kind as usize];
        c.set(c.get() + 1);
        if self.active.get() {
            let event = make();
            debug_assert_eq!(event.kind(), kind, "emit kind mismatch");
            for sink in self.sinks.borrow().iter() {
                sink.borrow_mut().record(&event);
            }
        }
    }

    /// How many events of `kind` were emitted (counted even with no sink).
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize].get()
    }

    /// Total events across all kinds.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().map(Cell::get).sum()
    }
}

/// A bounded in-memory event buffer keeping the most recent events.
///
/// When full, the oldest event is dropped and counted in
/// [`RingBufferSink::dropped`] — wraparound never reallocates.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    buf: VecDeque<TelemetryEvent>,
    dropped: u64,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBufferSink {
            capacity,
            buf: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TelemetryEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Sink for RingBufferSink {
    fn record(&mut self, event: &TelemetryEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event.clone());
    }
}

/// A fixed-bucket histogram over non-negative values.
///
/// Buckets are powers of two of milliseconds-scale units starting at 1e-3:
/// bucket `i` holds values in `(2^(i-1), 2^i] * 1e-3` (bucket 0 holds
/// `[0, 1e-3]`). Coarse, but allocation-free and enough for the paper's
/// distribution shapes (term lengths, deferral intervals, energy deltas).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; Histogram::BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; Histogram::BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Number of buckets; the top bucket absorbs everything larger.
    pub const BUCKETS: usize = 48;

    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(value: f64) -> usize {
        if value <= 1e-3 {
            return 0;
        }
        let scaled = value / 1e-3;
        let b = scaled.log2().ceil() as isize;
        b.clamp(0, Self::BUCKETS as isize - 1) as usize
    }

    /// Upper bound of bucket `i`.
    fn bucket_upper(i: usize) -> f64 {
        1e-3 * (1u64 << i.min(52)) as f64
    }

    /// Records one value (negative values clamp to zero).
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest recorded value, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Per-bucket `(upper_bound, count)` pairs up to (and including) the
    /// last non-empty bucket — what a Prometheus-style exporter folds into
    /// cumulative `le` lines. Empty histograms yield nothing.
    pub fn bucket_counts(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        self.buckets[..last]
            .iter()
            .enumerate()
            .map(|(i, &c)| (Self::bucket_upper(i), c))
    }

    /// Approximate `p`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket containing that rank, clamped to the observed max.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

/// Streams each event as one JSON line into any writer.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink { out }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// The writer, for inspection.
    pub fn get_ref(&self) -> &W {
        &self.out
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn record(&mut self, event: &TelemetryEvent) {
        let line = event.to_json();
        let _ = self.out.write_all(line.as_bytes());
        let _ = self.out.write_all(b"\n");
    }
}

/// A parsed JSON value, preserving object field order so that re-rendering
/// a parsed line reproduces it byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON does not distinguish int/float).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = JsonParser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace), fields in stored order —
    /// the inverse of [`JsonValue::parse`] for documents this module wrote.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_to(&mut s);
        s
    }

    fn write_to(&self, s: &mut String) {
        use fmt::Write as _;
        match self {
            JsonValue::Null => s.push_str("null"),
            JsonValue::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                let _ = write!(s, "{n}");
            }
            JsonValue::Str(v) => {
                s.push('"');
                for ch in v.chars() {
                    match ch {
                        '"' => s.push_str("\\\""),
                        '\\' => s.push_str("\\\\"),
                        '\n' => s.push_str("\\n"),
                        '\t' => s.push_str("\\t"),
                        '\r' => s.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(s, "\\u{:04x}", c as u32);
                        }
                        c => s.push(c),
                    }
                }
                s.push('"');
            }
            JsonValue::Arr(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    item.write_to(s);
                }
                s.push(']');
            }
            JsonValue::Obj(fields) => {
                s.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{k}\":");
                    v.write_to(s);
                }
                s.push('}');
            }
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acquire(at_ms: u64, obj: u64) -> TelemetryEvent {
        TelemetryEvent::ServiceAcquire {
            at: SimTime::from_millis(at_ms),
            app: 1,
            obj,
            kind: "wakelock",
            decision: "grant",
            first: true,
        }
    }

    #[test]
    fn counters_run_with_no_sink_and_no_event_construction() {
        let bus = TelemetryBus::new();
        let mut built = 0;
        for i in 0..10 {
            bus.emit(EventKind::ServiceAcquire, || {
                built += 1;
                acquire(i, i)
            });
        }
        assert_eq!(bus.count(EventKind::ServiceAcquire), 10);
        assert_eq!(bus.total_count(), 10);
        assert_eq!(built, 0, "disabled path must not construct events");
        assert!(!bus.is_active());
    }

    #[test]
    fn attached_sink_receives_events() {
        let bus = TelemetryBus::new();
        let ring = Rc::new(RefCell::new(RingBufferSink::new(8)));
        bus.attach(ring.clone());
        bus.emit(EventKind::ServiceAcquire, || acquire(5, 0));
        assert!(bus.is_active());
        assert_eq!(ring.borrow().len(), 1);
        bus.detach_all();
        bus.emit(EventKind::ServiceAcquire, || acquire(6, 1));
        assert_eq!(ring.borrow().len(), 1, "detached sink must not receive");
        assert_eq!(
            bus.count(EventKind::ServiceAcquire),
            2,
            "counter still runs"
        );
    }

    #[test]
    fn ring_buffer_wraps_and_counts_drops() {
        let mut ring = RingBufferSink::new(3);
        for i in 0..7 {
            ring.record(&acquire(i, i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.dropped(), 4);
        let objs: Vec<u64> = ring
            .events()
            .map(|e| match e {
                TelemetryEvent::ServiceAcquire { obj, .. } => *obj,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(objs, vec![4, 5, 6], "oldest events evicted first");
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in [0.5, 1.0, 2.0, 4.0, 100.0, 1e6] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.mean(), Some(1_000_107.5 / 6.0));
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(1e6));
        let q25 = h.quantile(0.25).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q25 <= q50 && q50 <= q99);
        assert!(q99 <= h.max().unwrap());
        assert_eq!(Histogram::new().quantile(0.5), None);
        assert_eq!(Histogram::new().mean(), None);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&acquire(1500, 2));
        sink.record(&TelemetryEvent::DeviceState {
            at: SimTime::from_secs(2),
            state: "deep_sleep",
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\":\"service_acquire\",\"t_ms\":1500,"));
        assert_eq!(
            lines[1],
            "{\"event\":\"device_state\",\"t_ms\":2000,\"state\":\"deep_sleep\"}"
        );
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let events = [
            acquire(1500, 2),
            TelemetryEvent::ServiceRelease {
                at: SimTime::from_millis(1600),
                app: 1,
                obj: 2,
            },
            TelemetryEvent::ObjectDead {
                at: SimTime::from_millis(1700),
                app: 1,
                obj: 2,
            },
            TelemetryEvent::PolicyOp {
                at: SimTime::from_millis(2),
                hook: "on_timer",
                obj: 0,
            },
            TelemetryEvent::PolicyAction {
                at: SimTime::from_millis(3),
                action: "revoke",
                obj: 9,
            },
            TelemetryEvent::LeaseTransition {
                at: SimTime::from_millis(4),
                lease: 7,
                obj: 9,
                from: "active",
                to: "deferred",
            },
            TelemetryEvent::ClassifierVerdict {
                at: SimTime::from_millis(5),
                lease: 7,
                verdict: "lhb",
            },
            TelemetryEvent::TermRenewed {
                at: SimTime::from_millis(6),
                lease: 7,
                term_s: 12.5,
            },
            TelemetryEvent::TermDeferred {
                at: SimTime::from_millis(7),
                lease: 7,
                defer_s: 25.0,
            },
            TelemetryEvent::AppLifecycle {
                at: SimTime::from_millis(8),
                app: 3,
                event: "start",
            },
            TelemetryEvent::DeviceState {
                at: SimTime::from_millis(9),
                state: "wake",
            },
            TelemetryEvent::EnergySnapshot {
                at: SimTime::from_millis(10),
                consumer: "app",
                id: 3,
                energy_mj: 1234.5,
            },
            TelemetryEvent::FaultInjected {
                at: SimTime::from_millis(11),
                fault: "app_crash",
                app: 3,
                obj: 9,
            },
            TelemetryEvent::Attribution {
                at: SimTime::from_millis(12),
                app: 3,
                component: "cpu",
                useful_mj: 10.25,
                wasted_mj: 99.5,
            },
            TelemetryEvent::SpanSummary {
                at: SimTime::from_millis(13),
                scope: "obj",
                id: 9,
                app: 3,
                kind: "wakelock",
                state: "open",
                pscope: "app",
                pid: 3,
                useful_mj: 0.5,
                wasted_mj: 42.0,
            },
        ];
        assert_eq!(events.len(), EventKind::COUNT, "cover every kind");
        for event in &events {
            let json = event.to_json();
            let parsed = JsonValue::parse(&json).expect("parse");
            assert_eq!(parsed.to_json(), json, "round trip must be byte-identical");
            assert_eq!(
                parsed.get("event").and_then(JsonValue::as_str),
                Some(event.kind().name())
            );
            assert_eq!(
                parsed.get("t_ms").and_then(JsonValue::as_f64),
                Some(event.at().as_millis() as f64)
            );
        }
    }

    #[test]
    fn json_parser_handles_escapes_and_structures() {
        let src = r#"{"a":"line\nbreak \"q\" A","b":[1,2.5,-3],"c":{"d":null,"e":true}}"#;
        let v = JsonValue::parse(src).unwrap();
        assert_eq!(
            v.get("a").and_then(JsonValue::as_str),
            Some("line\nbreak \"q\" A")
        );
        assert_eq!(
            v.get("b"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.5),
                JsonValue::Num(-3.0),
            ]))
        );
        assert_eq!(v.get("c").and_then(|c| c.get("d")), Some(&JsonValue::Null));
        assert!(JsonValue::parse("{\"open\":").is_err());
        assert!(JsonValue::parse("[1,2] trailing").is_err());
    }

    #[test]
    fn event_metric_and_display() {
        let e = TelemetryEvent::TermDeferred {
            at: SimTime::from_secs(30),
            lease: 4,
            defer_s: 25.0,
        };
        assert_eq!(e.kind(), EventKind::TermDeferred);
        let text = format!("{e}");
        assert!(
            text.contains("lease4") && text.contains("deferred"),
            "{text}"
        );
        assert!(format!("{}", acquire(0, 1)).contains("acquires wakelock"));
    }

    #[test]
    fn all_kinds_enumerated_once() {
        assert_eq!(EventKind::ALL.len(), EventKind::COUNT);
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::COUNT, "kind names must be unique");
    }
}
