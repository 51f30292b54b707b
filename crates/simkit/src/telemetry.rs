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
        self.write_json(&mut s);
        s
    }

    /// Appends [`TelemetryEvent::to_json`]'s bytes to `s`. Every integer
    /// field is rendered as the `f64` it converts to, the number type JSON
    /// has; string fields are static vocabulary words that need no escape.
    fn write_json(&self, s: &mut String) {
        s.push_str("{\"event\":\"");
        s.push_str(self.kind().name());
        s.push_str("\",\"t_ms\":");
        push_num(s, self.at().as_millis() as f64);
        match *self {
            TelemetryEvent::ServiceAcquire {
                app,
                obj,
                kind,
                decision,
                first,
                ..
            } => {
                push_num_field(s, r#","app":"#, app as f64);
                push_num_field(s, r#","obj":"#, obj as f64);
                push_str_field(s, r#","kind":""#, kind);
                push_str_field(s, r#","decision":""#, decision);
                s.push_str(if first {
                    r#","first":true"#
                } else {
                    r#","first":false"#
                });
            }
            TelemetryEvent::ServiceRelease { app, obj, .. }
            | TelemetryEvent::ObjectDead { app, obj, .. } => {
                push_num_field(s, r#","app":"#, app as f64);
                push_num_field(s, r#","obj":"#, obj as f64);
            }
            TelemetryEvent::PolicyOp { hook, obj, .. } => {
                push_str_field(s, r#","hook":""#, hook);
                push_num_field(s, r#","obj":"#, obj as f64);
            }
            TelemetryEvent::PolicyAction { action, obj, .. } => {
                push_str_field(s, r#","action":""#, action);
                push_num_field(s, r#","obj":"#, obj as f64);
            }
            TelemetryEvent::LeaseTransition {
                lease,
                obj,
                from,
                to,
                ..
            } => {
                push_num_field(s, r#","lease":"#, lease as f64);
                push_num_field(s, r#","obj":"#, obj as f64);
                push_str_field(s, r#","from":""#, from);
                push_str_field(s, r#","to":""#, to);
            }
            TelemetryEvent::ClassifierVerdict { lease, verdict, .. } => {
                push_num_field(s, r#","lease":"#, lease as f64);
                push_str_field(s, r#","verdict":""#, verdict);
            }
            TelemetryEvent::TermRenewed { lease, term_s, .. } => {
                push_num_field(s, r#","lease":"#, lease as f64);
                push_num_field(s, r#","term_s":"#, term_s);
            }
            TelemetryEvent::TermDeferred { lease, defer_s, .. } => {
                push_num_field(s, r#","lease":"#, lease as f64);
                push_num_field(s, r#","defer_s":"#, defer_s);
            }
            TelemetryEvent::AppLifecycle { app, event, .. } => {
                push_num_field(s, r#","app":"#, app as f64);
                // "phase", not "event": the envelope key is already "event".
                push_str_field(s, r#","phase":""#, event);
            }
            TelemetryEvent::DeviceState { state, .. } => {
                push_str_field(s, r#","state":""#, state);
            }
            TelemetryEvent::EnergySnapshot {
                consumer,
                id,
                energy_mj,
                ..
            } => {
                push_str_field(s, r#","consumer":""#, consumer);
                push_num_field(s, r#","id":"#, id as f64);
                push_num_field(s, r#","energy_mj":"#, energy_mj);
            }
            TelemetryEvent::FaultInjected {
                fault, app, obj, ..
            } => {
                push_str_field(s, r#","fault":""#, fault);
                push_num_field(s, r#","app":"#, app as f64);
                push_num_field(s, r#","obj":"#, obj as f64);
            }
            TelemetryEvent::Attribution {
                app,
                component,
                useful_mj,
                wasted_mj,
                ..
            } => {
                push_num_field(s, r#","app":"#, app as f64);
                push_str_field(s, r#","component":""#, component);
                push_num_field(s, r#","useful_mj":"#, useful_mj);
                push_num_field(s, r#","wasted_mj":"#, wasted_mj);
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
                push_str_field(s, r#","scope":""#, scope);
                push_num_field(s, r#","id":"#, id as f64);
                push_num_field(s, r#","app":"#, app as f64);
                push_str_field(s, r#","kind":""#, kind);
                push_str_field(s, r#","state":""#, state);
                push_str_field(s, r#","pscope":""#, pscope);
                push_num_field(s, r#","pid":"#, pid as f64);
                push_num_field(s, r#","useful_mj":"#, useful_mj);
                push_num_field(s, r#","wasted_mj":"#, wasted_mj);
            }
        }
        s.push('}');
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

/// Appends `v` exactly as `format!("{v}")` renders it, without the
/// formatter where it can: an integral `f64` below 2^53 in magnitude is
/// written digit by digit. Those integers are exact in an `f64`, so their
/// shortest round-trip form is their plain decimal digits; a larger one can
/// print rounded (`u64::MAX as f64` prints `18446744073709552000`), and
/// `-0.0` prints `-0`, so those and every fraction, infinity and NaN still
/// go through `Display`.
fn push_num(s: &mut String, v: f64) {
    const EXACT: u64 = 1 << 53;
    // Saturating, so `v as i64` is integral and finite whatever `v` is; it
    // converts back to `v` exactly when `v` is an integer in i64's range.
    let int = v as i64;
    if int as f64 == v && int.unsigned_abs() < EXACT && !(int == 0 && v.is_sign_negative()) {
        if int < 0 {
            s.push('-');
        }
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = int.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        s.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    } else {
        use fmt::Write as _;
        let _ = write!(s, "{v}");
    }
}

/// Appends one numeric field; `key` is the whole literal `,"name":`.
fn push_num_field(s: &mut String, key: &str, v: f64) {
    s.push_str(key);
    push_num(s, v);
}

/// Appends one string field; `key` is the whole literal `,"name":"`.
fn push_str_field(s: &mut String, key: &str, v: &str) {
    s.push_str(key);
    s.push_str(v);
    s.push('"');
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
/// The buffer grows as events arrive, up to `capacity`, so a huge capacity
/// costs nothing until it is used. When full, the oldest event is dropped
/// and counted in [`RingBufferSink::dropped`] — wraparound never
/// reallocates.
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
            buf: VecDeque::new(),
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
///
/// Each event is encoded into one reused line buffer and handed to the
/// writer with a single `write_all`, so once the buffer has grown to the
/// longest line, recording allocates nothing.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    line: String,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            line: String::new(),
        }
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
        self.line.clear();
        event.write_json(&mut self.line);
        self.line.push('\n');
        let _ = self.out.write_all(self.line.as_bytes());
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
        let mut p = JsonParser { src: input, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != input.len() {
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
        match self {
            JsonValue::Null => s.push_str("null"),
            JsonValue::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => push_num(s, *n),
            JsonValue::Str(v) => write_json_str(s, v),
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
                    write_json_str(s, k);
                    s.push(':');
                    v.write_to(s);
                }
                s.push('}');
            }
        }
    }
}

/// Writes `v` as a quoted JSON string. Each run of bytes that needs no
/// escape is copied with one `push_str`; every escaped byte is ASCII, so
/// the runs always split `v` on char boundaries.
fn write_json_str(s: &mut String, v: &str) {
    use fmt::Write as _;
    s.push('"');
    let mut run = 0;
    for (i, b) in v.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        s.push_str(&v[run..i]);
        match b {
            b'"' => s.push_str("\\\""),
            b'\\' => s.push_str("\\\\"),
            b'\n' => s.push_str("\\n"),
            b'\t' => s.push_str("\\t"),
            b'\r' => s.push_str("\\r"),
            _ => {
                let _ = write!(s, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    s.push_str(&v[run..]);
    s.push('"');
}

struct JsonParser<'a> {
    src: &'a str,
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
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
        if self.src.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
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
        let text = &self.src[start..self.pos];
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
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\`. Both are
                    // ASCII, so the run ends on a char boundary of `src`.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
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
    use proptest::prelude::*;
    use proptest::strategy::from_fn;

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

    /// Characters a JSON string must survive: every escape, raw control
    /// characters, DEL, and one- to four-byte UTF-8.
    const TRICKY: &[char] = &[
        '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}',
        'é', 'ß', '€', '\u{2028}', '𝄞', '🦀',
    ];

    fn json_text(rng: &mut TestRng) -> String {
        (0..rng.below(12))
            .map(|_| match rng.below(3) {
                0 => TRICKY[rng.below(TRICKY.len() as u64) as usize],
                _ => char::from(b' ' + rng.below(95) as u8),
            })
            .collect()
    }

    fn json_number(rng: &mut TestRng) -> f64 {
        match rng.below(3) {
            0 => rng.below(1 << 20) as f64 - (1 << 19) as f64,
            1 => (rng.next_f64() - 0.5) * 1e6,
            _ => loop {
                let n = f64::from_bits(rng.next_u64());
                if n.is_finite() {
                    break n;
                }
            },
        }
    }

    fn json_value(rng: &mut TestRng, depth: u32) -> JsonValue {
        // Kinds 0..4 are leaves; 4 and 5 nest and need depth to spare.
        let kinds = if depth == 0 { 4 } else { 6 };
        match rng.below(kinds) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.below(2) == 1),
            2 => JsonValue::Num(json_number(rng)),
            3 => JsonValue::Str(json_text(rng)),
            4 => JsonValue::Arr(
                (0..rng.below(5))
                    .map(|_| json_value(rng, depth - 1))
                    .collect(),
            ),
            _ => JsonValue::Obj(
                (0..rng.below(5))
                    .map(|_| (json_text(rng), json_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever keys, strings and finite numbers a document holds,
        /// rendering and parsing it gives the same value back.
        #[test]
        fn json_codec_round_trips(v in from_fn(|rng| json_value(rng, 4))) {
            prop_assert_eq!(JsonValue::parse(&v.to_json()), Ok(v));
        }
    }

    /// A 4 MiB string of mixed escapes and multi-byte characters parses and
    /// re-renders byte for byte. Parsing must be linear in the input: a
    /// scan that revisits the rest of the input per character takes
    /// minutes here.
    #[test]
    fn four_mib_string_parses_in_linear_time() {
        let chunk = "plain ascii é€𝄞 \"quoted\" back\\slash\nnew\tline\u{1}";
        let big = chunk.repeat((4 << 20) / chunk.len() + 1);
        assert!(big.len() >= 4 << 20);
        let doc = JsonValue::Obj(vec![(
            "k\"ey".into(),
            JsonValue::Arr(vec![JsonValue::Str(big), JsonValue::Num(1.5)]),
        )]);
        let text = doc.to_json();
        let parsed = JsonValue::parse(&text).expect("the big document parses");
        assert_eq!(parsed.to_json(), text);
        assert_eq!(parsed, doc);
    }

    /// The event encoder as it was before the digit path: every field
    /// through `write!`, integers cast to `f64` first. The encoder must
    /// produce these bytes exactly.
    fn reference_to_json(event: &TelemetryEvent) -> String {
        use fmt::Write as _;
        fn num(s: &mut String, key: &str, v: f64) {
            let _ = write!(s, ",\"{key}\":{v}");
        }
        fn text(s: &mut String, key: &str, v: &str) {
            let _ = write!(s, ",\"{key}\":\"{v}\"");
        }
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"event\":\"{}\",\"t_ms\":{}",
            event.kind().name(),
            event.at().as_millis() as f64
        );
        match *event {
            TelemetryEvent::ServiceAcquire {
                app,
                obj,
                kind,
                decision,
                first,
                ..
            } => {
                num(&mut s, "app", app as f64);
                num(&mut s, "obj", obj as f64);
                text(&mut s, "kind", kind);
                text(&mut s, "decision", decision);
                let _ = write!(s, ",\"first\":{first}");
            }
            TelemetryEvent::ServiceRelease { app, obj, .. }
            | TelemetryEvent::ObjectDead { app, obj, .. } => {
                num(&mut s, "app", app as f64);
                num(&mut s, "obj", obj as f64);
            }
            TelemetryEvent::PolicyOp { hook, obj, .. } => {
                text(&mut s, "hook", hook);
                num(&mut s, "obj", obj as f64);
            }
            TelemetryEvent::PolicyAction { action, obj, .. } => {
                text(&mut s, "action", action);
                num(&mut s, "obj", obj as f64);
            }
            TelemetryEvent::LeaseTransition {
                lease,
                obj,
                from,
                to,
                ..
            } => {
                num(&mut s, "lease", lease as f64);
                num(&mut s, "obj", obj as f64);
                text(&mut s, "from", from);
                text(&mut s, "to", to);
            }
            TelemetryEvent::ClassifierVerdict { lease, verdict, .. } => {
                num(&mut s, "lease", lease as f64);
                text(&mut s, "verdict", verdict);
            }
            TelemetryEvent::TermRenewed { lease, term_s, .. } => {
                num(&mut s, "lease", lease as f64);
                num(&mut s, "term_s", term_s);
            }
            TelemetryEvent::TermDeferred { lease, defer_s, .. } => {
                num(&mut s, "lease", lease as f64);
                num(&mut s, "defer_s", defer_s);
            }
            TelemetryEvent::AppLifecycle { app, event, .. } => {
                num(&mut s, "app", app as f64);
                text(&mut s, "phase", event);
            }
            TelemetryEvent::DeviceState { state, .. } => text(&mut s, "state", state),
            TelemetryEvent::EnergySnapshot {
                consumer,
                id,
                energy_mj,
                ..
            } => {
                text(&mut s, "consumer", consumer);
                num(&mut s, "id", id as f64);
                num(&mut s, "energy_mj", energy_mj);
            }
            TelemetryEvent::FaultInjected {
                fault, app, obj, ..
            } => {
                text(&mut s, "fault", fault);
                num(&mut s, "app", app as f64);
                num(&mut s, "obj", obj as f64);
            }
            TelemetryEvent::Attribution {
                app,
                component,
                useful_mj,
                wasted_mj,
                ..
            } => {
                num(&mut s, "app", app as f64);
                text(&mut s, "component", component);
                num(&mut s, "useful_mj", useful_mj);
                num(&mut s, "wasted_mj", wasted_mj);
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
                text(&mut s, "scope", scope);
                num(&mut s, "id", id as f64);
                num(&mut s, "app", app as f64);
                text(&mut s, "kind", kind);
                text(&mut s, "state", state);
                text(&mut s, "pscope", pscope);
                num(&mut s, "pid", pid as f64);
                num(&mut s, "useful_mj", useful_mj);
                num(&mut s, "wasted_mj", wasted_mj);
            }
        }
        s.push('}');
        s
    }

    fn rendered(v: f64) -> String {
        let mut s = String::new();
        push_num(&mut s, v);
        s
    }

    /// An integer of uniformly drawn bit length, so every magnitude from 0
    /// to `u64::MAX` is as likely as any other.
    fn any_int(rng: &mut TestRng) -> u64 {
        rng.next_u64() >> rng.below(64)
    }

    /// Values on either side of every rule in [`push_num`].
    const EDGES: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -0.5,
        9_007_199_254_740_991.0,
        -9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        1_152_921_504_606_846_976.0,
        9_223_372_036_854_775_807.0,
        -9_223_372_036_854_775_808.0,
        18_446_744_073_709_551_615.0,
        1e21,
        -1e21,
        1e300,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::EPSILON,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    /// A float drawn from raw bit patterns, integral values of every
    /// magnitude and sign, subnormals, and the edges above.
    fn any_num(rng: &mut TestRng) -> f64 {
        match rng.below(5) {
            0 => f64::from_bits(rng.next_u64()),
            1 => any_int(rng) as f64,
            2 => -(any_int(rng) as f64),
            3 => f64::from_bits(rng.next_u64() >> 12 | (rng.below(2) << 63)),
            _ => EDGES[rng.below(EDGES.len() as u64) as usize],
        }
    }

    #[test]
    fn numbers_render_as_display_at_every_edge() {
        let ints = [
            0,
            1,
            u64::from(u32::MAX),
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            (1 << 53) + 2,
            1 << 60,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX,
        ];
        for v in ints {
            assert_eq!(rendered(v as f64), format!("{}", v as f64), "{v}");
        }
        for &v in EDGES {
            assert_eq!(rendered(v), format!("{v}"), "{v:?}");
        }
        assert_eq!(rendered(-0.0), "-0");
        assert_eq!(rendered(u64::MAX as f64), "18446744073709552000");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// An integer field renders as `format!` renders the `f64` it
        /// converts to, across the whole `u64` range.
        #[test]
        fn integers_render_as_their_f64_display(v in from_fn(any_int)) {
            prop_assert_eq!(rendered(v as f64), format!("{}", v as f64));
        }

        /// Every float renders as its `Display`.
        #[test]
        fn floats_render_as_their_display(v in from_fn(any_num)) {
            prop_assert_eq!(rendered(v), format!("{v}"));
        }
    }

    const WORDS: &[&str] = &["wakelock", "grant", "on_timer", "active", "", "app", "obj"];

    /// One event of `kind` with every field drawn at random.
    fn any_event(rng: &mut TestRng, kind: EventKind) -> TelemetryEvent {
        let at = SimTime::from_millis(any_int(rng));
        let word = |rng: &mut TestRng| WORDS[rng.below(WORDS.len() as u64) as usize];
        let app = (rng.next_u64() as u32) >> rng.below(32);
        match kind {
            EventKind::ServiceAcquire => TelemetryEvent::ServiceAcquire {
                at,
                app,
                obj: any_int(rng),
                kind: word(rng),
                decision: word(rng),
                first: rng.below(2) == 1,
            },
            EventKind::ServiceRelease => TelemetryEvent::ServiceRelease {
                at,
                app,
                obj: any_int(rng),
            },
            EventKind::ObjectDead => TelemetryEvent::ObjectDead {
                at,
                app,
                obj: any_int(rng),
            },
            EventKind::PolicyOp => TelemetryEvent::PolicyOp {
                at,
                hook: word(rng),
                obj: any_int(rng),
            },
            EventKind::PolicyAction => TelemetryEvent::PolicyAction {
                at,
                action: word(rng),
                obj: any_int(rng),
            },
            EventKind::LeaseTransition => TelemetryEvent::LeaseTransition {
                at,
                lease: any_int(rng),
                obj: any_int(rng),
                from: word(rng),
                to: word(rng),
            },
            EventKind::ClassifierVerdict => TelemetryEvent::ClassifierVerdict {
                at,
                lease: any_int(rng),
                verdict: word(rng),
            },
            EventKind::TermRenewed => TelemetryEvent::TermRenewed {
                at,
                lease: any_int(rng),
                term_s: any_num(rng),
            },
            EventKind::TermDeferred => TelemetryEvent::TermDeferred {
                at,
                lease: any_int(rng),
                defer_s: any_num(rng),
            },
            EventKind::AppLifecycle => TelemetryEvent::AppLifecycle {
                at,
                app,
                event: word(rng),
            },
            EventKind::DeviceState => TelemetryEvent::DeviceState {
                at,
                state: word(rng),
            },
            EventKind::EnergySnapshot => TelemetryEvent::EnergySnapshot {
                at,
                consumer: word(rng),
                id: app,
                energy_mj: any_num(rng),
            },
            EventKind::FaultInjected => TelemetryEvent::FaultInjected {
                at,
                fault: word(rng),
                app,
                obj: any_int(rng),
            },
            EventKind::Attribution => TelemetryEvent::Attribution {
                at,
                app,
                component: word(rng),
                useful_mj: any_num(rng),
                wasted_mj: any_num(rng),
            },
            EventKind::SpanSummary => TelemetryEvent::SpanSummary {
                at,
                scope: word(rng),
                id: any_int(rng),
                app,
                kind: word(rng),
                state: word(rng),
                pscope: word(rng),
                pid: any_int(rng),
                useful_mj: any_num(rng),
                wasted_mj: any_num(rng),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every kind of event encodes to the reference's bytes, through
        /// `to_json` and through the sink's reused line buffer alike.
        #[test]
        fn events_encode_as_the_reference(
            events in from_fn(|rng| EventKind::ALL.map(|kind| any_event(rng, kind)))
        ) {
            let mut sink = JsonlSink::new(Vec::new());
            let mut expected = String::new();
            for event in &events {
                let reference = reference_to_json(event);
                prop_assert_eq!(event.to_json(), reference.clone());
                sink.record(event);
                expected.push_str(&reference);
                expected.push('\n');
            }
            prop_assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), expected);
        }
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
