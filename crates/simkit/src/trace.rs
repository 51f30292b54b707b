//! Time-series recording and causal span tracing.
//!
//! The paper's figures are time series — GPS try duration per minute
//! (Fig. 1), wakelock holding time and CPU usage per minute (Figs. 2–4),
//! active lease count over an hour (Fig. 11). [`TimeSeries`] is the
//! append-only recording the profiler and harness write, and [`SeriesSet`]
//! groups the named series of one experiment run.
//!
//! The second half of the module is the diagnosis layer the paper's
//! utilitarian argument needs: a [`Span`] per kernel object (plus one per
//! app and one for the system baseline), opened at acquire and closed at
//! death, annotated with every policy hook, lease transition, and verdict
//! along the way, and carrying exact piecewise-constant energy integrals
//! split into *useful* and *wasted* draw. [`SpanLedger`] is a telemetry
//! [`Sink`] that builds those spans from the event stream while the kernel
//! feeds it per-span draws, so the causal chain acquire → verdict →
//! component state → joules is explicit and queryable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::power::ComponentKind;
use crate::telemetry::{Sink, TelemetryEvent};
use crate::time::SimTime;

/// One named, append-only series of `(time, value)` samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last sample (figures assume
    /// chronological order).
    pub fn record(&mut self, time: SimTime, value: f64) {
        if let Some((last, _)) = self.samples.last() {
            assert!(
                time >= *last,
                "samples must be chronological: {time} < {last}"
            );
        }
        self.samples.push((time, value));
    }

    /// The recorded samples, oldest first.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Just the values, oldest first.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|(_, v)| *v)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Largest recorded value, if any.
    pub fn max(&self) -> Option<f64> {
        self.values().fold(None, |acc, v| {
            Some(match acc {
                Some(m) if m >= v => m,
                _ => v,
            })
        })
    }

    /// Arithmetic mean of the values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.values().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (SimTime, f64)>>(iter: I) -> Self {
        let mut s = TimeSeries::new();
        for (t, v) in iter {
            s.record(t, v);
        }
        s
    }
}

/// A set of named series from one run, e.g. `"wakelock_hold_s"` and
/// `"cpu_usage_s"` for a Figure 2 reproduction.
#[derive(Debug, Clone, Default)]
pub struct SeriesSet {
    series: BTreeMap<String, TimeSeries>,
}

impl SeriesSet {
    /// An empty set.
    pub fn new() -> Self {
        SeriesSet::default()
    }

    /// Appends a sample to the named series, creating it on first use.
    pub fn record(&mut self, name: &str, time: SimTime, value: f64) {
        self.series
            .entry(name.to_owned())
            .or_default()
            .record(time, value);
    }

    /// The named series, if it exists.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Series names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when no series exist.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

/// Who a [`Span`] bills its energy to.
///
/// The ordering (system < app < obj) is the deterministic iteration and
/// report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanScope {
    /// The device baseline: deep-sleep floor, user-driven screen, draw with
    /// no holder to blame.
    System,
    /// An app's own execution — CPU bursts and network transfers the app
    /// causes directly rather than through a held object.
    App(u32),
    /// One kernel object: the paper's unit of blame.
    Obj(u64),
}

impl SpanScope {
    /// Stable scope name for serialization (`"system"`, `"app"`, `"obj"`).
    pub fn name(self) -> &'static str {
        match self {
            SpanScope::System => "system",
            SpanScope::App(_) => "app",
            SpanScope::Obj(_) => "obj",
        }
    }

    /// The numeric id within the scope (0 for system, app id, object id).
    pub fn id(self) -> u64 {
        match self {
            SpanScope::System => 0,
            SpanScope::App(app) => app as u64,
            SpanScope::Obj(obj) => obj,
        }
    }
}

/// One timestamped annotation on a span: a policy hook, a lease
/// transition, a classifier verdict, …
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNote {
    /// When the annotated event happened.
    pub at: SimTime,
    /// Annotation class (`"hook"`, `"lease"`, `"verdict"`, `"fault"`, …).
    pub label: &'static str,
    /// Human-readable detail (hook name, `from->to`, verdict name, …).
    pub detail: String,
}

/// Detailed notes kept per span before falling back to counting only.
///
/// Chatty spans (a reacquire storm annotates every 100 ms) would otherwise
/// grow without bound; counts in [`Span::note_counts`] stay exact.
const MAX_NOTES: usize = 64;

/// A causal span: the lifetime of one blame scope with its annotations and
/// exact energy integrals.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    scope: SpanScope,
    parent: Option<SpanScope>,
    app: u32,
    kind: &'static str,
    opened_at: SimTime,
    closed_at: Option<SimTime>,
    /// Accumulated energy per (component, wasted) bucket, mJ.
    energy: BTreeMap<(ComponentKind, bool), f64>,
    /// Current draw per (component, wasted) bucket, mW.
    draws: BTreeMap<(ComponentKind, bool), f64>,
    notes: Vec<SpanNote>,
    notes_dropped: u64,
    note_counts: BTreeMap<&'static str, u64>,
}

impl Span {
    fn new(scope: SpanScope, app: u32, kind: &'static str, opened_at: SimTime) -> Self {
        // Parentage is structural: objects blame their owning app's
        // execution span, apps hang off the system baseline, and the
        // system span is the root.
        let parent = match scope {
            SpanScope::System => None,
            SpanScope::App(_) => Some(SpanScope::System),
            SpanScope::Obj(_) => Some(SpanScope::App(app)),
        };
        Span {
            scope,
            parent,
            app,
            kind,
            opened_at,
            closed_at: None,
            energy: BTreeMap::new(),
            draws: BTreeMap::new(),
            notes: Vec::new(),
            notes_dropped: 0,
            note_counts: BTreeMap::new(),
        }
    }

    fn note(&mut self, at: SimTime, label: &'static str, detail: String) {
        *self.note_counts.entry(label).or_insert(0) += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(SpanNote { at, label, detail });
        } else {
            self.notes_dropped += 1;
        }
    }

    /// Integrates the current draws over `[from, to)`.
    fn integrate(&mut self, from: SimTime, to: SimTime) {
        let ms = to.since(from).as_millis();
        if ms == 0 {
            return;
        }
        for (key, mw) in &self.draws {
            *self.energy.entry(*key).or_insert(0.0) += mw * ms as f64 / 1000.0;
        }
    }

    /// The blame scope.
    pub fn scope(&self) -> SpanScope {
        self.scope
    }

    /// The parent scope in the span tree (`None` for the system root).
    ///
    /// Object spans point at their owning app's execution scope even when
    /// that app never earned an `exec` span of its own — consumers walking
    /// the tree must tolerate a parent scope with no stored span.
    pub fn parent(&self) -> Option<SpanScope> {
        self.parent
    }

    /// The owning app (0 for the system span).
    pub fn app(&self) -> u32 {
        self.app
    }

    /// Span class: a resource kind name for object spans, `"exec"` for app
    /// execution spans, `"system"` for the baseline.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// When the span opened.
    pub fn opened_at(&self) -> SimTime {
        self.opened_at
    }

    /// When the span closed, if it has.
    pub fn closed_at(&self) -> Option<SimTime> {
        self.closed_at
    }

    /// True while the scope is still alive.
    pub fn is_open(&self) -> bool {
        self.closed_at.is_none()
    }

    /// Total energy this span induced, mJ.
    ///
    /// Folds from +0.0 (not `Sum`'s -0.0 identity) so an empty bucket set
    /// reads — and serialises — as plain zero.
    pub fn energy_mj(&self) -> f64 {
        self.energy.values().fold(0.0, |acc, mj| acc + mj)
    }

    /// The useful share of [`Span::energy_mj`], mJ.
    pub fn useful_mj(&self) -> f64 {
        self.energy
            .iter()
            .filter(|((_, wasted), _)| !wasted)
            .fold(0.0, |acc, (_, mj)| acc + mj)
    }

    /// The wasted share of [`Span::energy_mj`], mJ.
    pub fn wasted_mj(&self) -> f64 {
        self.energy
            .iter()
            .filter(|((_, wasted), _)| *wasted)
            .fold(0.0, |acc, (_, mj)| acc + mj)
    }

    /// Energy per `(component, wasted)` bucket, mJ, in deterministic order.
    pub fn energy_by_component(&self) -> impl Iterator<Item = (ComponentKind, bool, f64)> + '_ {
        self.energy.iter().map(|((c, w), mj)| (*c, *w, *mj))
    }

    /// The retained detailed notes, oldest first (capped; see
    /// [`Span::notes_dropped`]).
    pub fn notes(&self) -> &[SpanNote] {
        &self.notes
    }

    /// Notes beyond the retention cap (counted but not stored).
    pub fn notes_dropped(&self) -> u64 {
        self.notes_dropped
    }

    /// Exact per-label note counts (never capped).
    pub fn note_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.note_counts.iter().map(|(l, n)| (*l, *n))
    }
}

/// The span store: a telemetry [`Sink`] that opens/annotates/closes spans
/// from the event stream, plus the piecewise-constant integrator the kernel
/// drives with per-span draws.
///
/// Invariant the attribution tests enforce: the sum of all span energies
/// equals the [`crate::EnergyMeter`] total within 1e-6 J, because the
/// kernel derives both from the same component-state snapshot.
#[derive(Debug, Default)]
pub struct SpanLedger {
    now: SimTime,
    spans: BTreeMap<SpanScope, Span>,
    /// The scopes whose draw set is non-empty, ascending. Only these spans
    /// gain energy when time advances, so a settle walks them and not
    /// every span ever opened.
    drawn: Vec<SpanScope>,
    /// lease id → governed object, learned from transitions, so verdicts
    /// and term events (which carry only the lease id) find their span.
    lease_obj: BTreeMap<u64, u64>,
    /// Notes for objects whose acquire event has not arrived yet (the
    /// `on_acquire` hook fires before the acquire event is emitted).
    pending: BTreeMap<u64, Vec<SpanNote>>,
}

impl SpanLedger {
    /// An empty ledger with the system span open at t=0.
    pub fn new() -> Self {
        let mut spans = BTreeMap::new();
        spans.insert(
            SpanScope::System,
            Span::new(SpanScope::System, 0, "system", SimTime::ZERO),
        );
        SpanLedger {
            now: SimTime::ZERO,
            spans,
            drawn: Vec::new(),
            lease_obj: BTreeMap::new(),
            pending: BTreeMap::new(),
        }
    }

    fn advance_to(&mut self, now: SimTime) {
        assert!(now >= self.now, "span ledger time went backwards");
        let from = self.now;
        for scope in &self.drawn {
            self.spans
                .get_mut(scope)
                .expect("a drawn scope has a span")
                .integrate(from, now);
        }
        self.now = now;
    }

    /// Replaces every span's current draw set after integrating up to
    /// `now`. Keys absent from `desired` drop to zero; `App` scopes are
    /// created on first reference.
    ///
    /// # Panics
    ///
    /// Panics (debug) when a draw references an object span that was never
    /// opened — the kernel opens spans before powering components.
    pub fn set_draws(
        &mut self,
        now: SimTime,
        desired: &BTreeMap<(SpanScope, ComponentKind, bool), f64>,
    ) {
        self.advance_to(now);
        for scope in self.drawn.drain(..) {
            self.spans
                .get_mut(&scope)
                .expect("a drawn scope has a span")
                .draws
                .clear();
        }
        for ((scope, component, wasted), mw) in desired {
            let span = match self.spans.get_mut(scope) {
                Some(span) => span,
                None => {
                    debug_assert!(
                        matches!(scope, SpanScope::App(_) | SpanScope::System),
                        "draw for unopened object span {scope:?}"
                    );
                    let app = scope.id() as u32;
                    self.spans
                        .entry(*scope)
                        .or_insert_with(|| Span::new(*scope, app, "exec", now))
                }
            };
            *span.draws.entry((*component, *wasted)).or_insert(0.0) += mw;
            // `desired` is sorted by scope, so a scope's keys are adjacent.
            if self.drawn.last() != Some(scope) {
                self.drawn.push(*scope);
            }
        }
    }

    /// Integrates all spans up to `now` without changing draws (end-of-run
    /// settling).
    pub fn settle(&mut self, now: SimTime) {
        self.advance_to(now);
    }

    /// Adds instantaneous useful energy to the system span — for costs
    /// billed per operation rather than as a draw over time (the kernel's
    /// modeled policy bookkeeping overhead).
    pub fn bill_system_mj(&mut self, component: ComponentKind, mj: f64) {
        if let Some(span) = self.spans.get_mut(&SpanScope::System) {
            *span.energy.entry((component, false)).or_insert(0.0) += mj;
        }
    }

    /// The ledger's current time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// All spans in deterministic scope order (system, apps, objects).
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.values()
    }

    /// The span for one scope, if it exists.
    pub fn span(&self, scope: SpanScope) -> Option<&Span> {
        self.spans.get(&scope)
    }

    /// Sum of all span energies, mJ.
    pub fn total_energy_mj(&self) -> f64 {
        self.spans.values().fold(0.0, |acc, s| acc + s.energy_mj())
    }

    /// Sum of all spans' useful energy, mJ.
    pub fn total_useful_mj(&self) -> f64 {
        self.spans.values().fold(0.0, |acc, s| acc + s.useful_mj())
    }

    /// Sum of all spans' wasted energy, mJ.
    pub fn total_wasted_mj(&self) -> f64 {
        self.spans.values().fold(0.0, |acc, s| acc + s.wasted_mj())
    }

    /// Scopes whose spans name `scope` as their parent, in deterministic
    /// scope order.
    pub fn children(&self, scope: SpanScope) -> Vec<SpanScope> {
        self.spans
            .values()
            .filter(|s| s.parent() == Some(scope))
            .map(|s| s.scope())
            .collect()
    }

    /// Renders the span hierarchy as an indented tree: the system root,
    /// then each app (ascending uid) with its object spans underneath.
    ///
    /// Apps that hold objects but never earned an `exec` span still get a
    /// synthetic line, so every object's causal chain is visible.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let mut apps: BTreeMap<u32, ()> = BTreeMap::new();
        for span in self.spans.values() {
            match span.scope() {
                SpanScope::App(app) => {
                    apps.insert(app, ());
                }
                SpanScope::Obj(_) => {
                    apps.insert(span.app(), ());
                }
                SpanScope::System => {}
            }
        }
        if let Some(system) = self.span(SpanScope::System) {
            Self::tree_line(&mut out, 0, system);
        }
        for &app in apps.keys() {
            match self.span(SpanScope::App(app)) {
                Some(span) => Self::tree_line(&mut out, 1, span),
                None => {
                    let _ = writeln!(
                        out,
                        "  app{app} [exec] idle: 0.000 mJ useful, 0.000 mJ wasted"
                    );
                }
            }
            for span in self.spans.values() {
                if matches!(span.scope(), SpanScope::Obj(_)) && span.app() == app {
                    Self::tree_line(&mut out, 2, span);
                }
            }
        }
        out
    }

    fn tree_line(out: &mut String, depth: usize, span: &Span) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let name = match span.scope() {
            SpanScope::System => "system".to_owned(),
            SpanScope::App(app) => format!("app{app}"),
            SpanScope::Obj(obj) => format!("obj{obj}"),
        };
        let state = match span.closed_at() {
            None => "open".to_owned(),
            Some(at) => format!("closed @ {at}"),
        };
        let _ = writeln!(
            out,
            "{name} [{kind}] {state}: {useful:.3} mJ useful, {wasted:.3} mJ wasted",
            kind = span.kind(),
            useful = span.useful_mj(),
            wasted = span.wasted_mj(),
        );
    }

    fn open_obj(&mut self, at: SimTime, obj: u64, app: u32, kind: &'static str) {
        let mut span = Span::new(SpanScope::Obj(obj), app, kind, at);
        for note in self.pending.remove(&obj).unwrap_or_default() {
            span.note(note.at, note.label, note.detail);
        }
        self.spans.insert(SpanScope::Obj(obj), span);
    }

    fn note_obj(&mut self, at: SimTime, obj: u64, label: &'static str, detail: String) {
        match self.spans.get_mut(&SpanScope::Obj(obj)) {
            Some(span) => span.note(at, label, detail),
            // Hooks can precede the acquire event; park the note until the
            // span opens.
            None => self
                .pending
                .entry(obj)
                .or_default()
                .push(SpanNote { at, label, detail }),
        }
    }

    fn note_system(&mut self, at: SimTime, label: &'static str, detail: String) {
        if let Some(span) = self.spans.get_mut(&SpanScope::System) {
            span.note(at, label, detail);
        }
    }
}

impl Sink for SpanLedger {
    fn record(&mut self, event: &TelemetryEvent) {
        match event {
            TelemetryEvent::ServiceAcquire {
                at,
                app,
                obj,
                kind,
                decision,
                first,
            } => {
                if *first {
                    self.open_obj(*at, *obj, *app, kind);
                    self.note_obj(*at, *obj, "acquire", (*decision).to_owned());
                } else {
                    self.note_obj(*at, *obj, "reacquire", (*decision).to_owned());
                }
            }
            TelemetryEvent::ServiceRelease { at, obj, .. } => {
                self.note_obj(*at, *obj, "release", String::new());
            }
            TelemetryEvent::ObjectDead { at, obj, .. } => {
                self.note_obj(*at, *obj, "dead", String::new());
                if let Some(span) = self.spans.get_mut(&SpanScope::Obj(*obj)) {
                    span.closed_at = Some(*at);
                }
            }
            TelemetryEvent::PolicyOp { at, hook, obj } => {
                if *obj != 0 {
                    self.note_obj(*at, *obj, "hook", (*hook).to_owned());
                } else {
                    self.note_system(*at, "hook", (*hook).to_owned());
                }
            }
            TelemetryEvent::PolicyAction { at, action, obj } => {
                if *obj != 0 {
                    self.note_obj(*at, *obj, "action", (*action).to_owned());
                }
            }
            TelemetryEvent::LeaseTransition {
                at,
                lease,
                obj,
                from,
                to,
            } => {
                self.lease_obj.insert(*lease, *obj);
                self.note_obj(*at, *obj, "lease", format!("{from}->{to}"));
            }
            TelemetryEvent::ClassifierVerdict { at, lease, verdict } => {
                if let Some(obj) = self.lease_obj.get(lease).copied() {
                    self.note_obj(*at, obj, "verdict", (*verdict).to_owned());
                }
            }
            TelemetryEvent::TermRenewed { at, lease, term_s } => {
                if let Some(obj) = self.lease_obj.get(lease).copied() {
                    self.note_obj(*at, obj, "renew", format!("{term_s}s"));
                }
            }
            TelemetryEvent::TermDeferred { at, lease, defer_s } => {
                if let Some(obj) = self.lease_obj.get(lease).copied() {
                    self.note_obj(*at, obj, "defer", format!("{defer_s}s"));
                }
            }
            TelemetryEvent::AppLifecycle { at, app, event } => {
                self.note_system(*at, "app", format!("app{app} {event}"));
            }
            TelemetryEvent::DeviceState { at, state } => {
                self.note_system(*at, "device", (*state).to_owned());
            }
            TelemetryEvent::FaultInjected {
                at,
                fault,
                app,
                obj,
            } => {
                if *obj != 0 {
                    self.note_obj(*at, *obj, "fault", (*fault).to_owned());
                } else {
                    self.note_system(*at, "fault", format!("{fault} app{app}"));
                }
            }
            TelemetryEvent::EnergySnapshot { .. }
            | TelemetryEvent::Attribution { .. }
            | TelemetryEvent::SpanSummary { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::from_fn;

    #[test]
    fn record_and_read_back() {
        let mut s = TimeSeries::new();
        s.record(SimTime::from_secs(60), 12.5);
        s.record(SimTime::from_secs(120), 30.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.samples()[1], (SimTime::from_secs(120), 30.0));
        assert_eq!(s.max(), Some(30.0));
        assert_eq!(s.mean(), Some(21.25));
    }

    #[test]
    fn empty_series_statistics() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn rejects_time_travel() {
        let mut s = TimeSeries::new();
        s.record(SimTime::from_secs(10), 1.0);
        s.record(SimTime::from_secs(5), 2.0);
    }

    #[test]
    fn from_iterator_builds_series() {
        let s: TimeSeries = (0..5)
            .map(|i| (SimTime::from_secs(i * 60), i as f64))
            .collect();
        assert_eq!(s.len(), 5);
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn series_set_groups_by_name() {
        let mut set = SeriesSet::new();
        set.record("wakelock_hold_s", SimTime::from_secs(60), 25.0);
        set.record("cpu_usage_s", SimTime::from_secs(60), 0.4);
        set.record("wakelock_hold_s", SimTime::from_secs(120), 27.0);
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("wakelock_hold_s").unwrap().len(), 2);
        assert_eq!(set.get("cpu_usage_s").unwrap().len(), 1);
        assert_eq!(
            set.names().collect::<Vec<_>>(),
            vec!["cpu_usage_s", "wakelock_hold_s"]
        );
    }

    fn acquire(at: SimTime, obj: u64) -> TelemetryEvent {
        TelemetryEvent::ServiceAcquire {
            at,
            app: 7,
            obj,
            kind: "wakelock",
            decision: "grant",
            first: true,
        }
    }

    #[test]
    fn span_parents_form_a_tree() {
        let mut ledger = SpanLedger::new();
        ledger.record(&acquire(SimTime::from_secs(1), 3));
        let mut draws = BTreeMap::new();
        draws.insert((SpanScope::App(7), ComponentKind::Cpu, false), 50.0);
        ledger.set_draws(SimTime::from_secs(1), &draws);

        assert_eq!(ledger.span(SpanScope::System).unwrap().parent(), None);
        assert_eq!(
            ledger.span(SpanScope::App(7)).unwrap().parent(),
            Some(SpanScope::System)
        );
        assert_eq!(
            ledger.span(SpanScope::Obj(3)).unwrap().parent(),
            Some(SpanScope::App(7))
        );
        assert_eq!(ledger.children(SpanScope::System), vec![SpanScope::App(7)]);
        assert_eq!(ledger.children(SpanScope::App(7)), vec![SpanScope::Obj(3)]);
        assert!(ledger.children(SpanScope::Obj(3)).is_empty());
    }

    #[test]
    fn render_tree_synthesizes_missing_exec_spans() {
        let mut ledger = SpanLedger::new();
        // App 7 holds a wakelock but never runs a burst, so no exec span
        // exists — the tree still shows the causal chain.
        ledger.record(&acquire(SimTime::from_secs(1), 3));
        let mut draws = BTreeMap::new();
        draws.insert((SpanScope::Obj(3), ComponentKind::Cpu, true), 100.0);
        ledger.set_draws(SimTime::from_secs(1), &draws);
        ledger.settle(SimTime::from_secs(11));

        let tree = ledger.render_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("system [system] open:"));
        assert_eq!(
            lines[1],
            "  app7 [exec] idle: 0.000 mJ useful, 0.000 mJ wasted"
        );
        assert!(
            lines[2].starts_with("    obj3 [wakelock] open: 0.000 mJ useful, 1000.000 mJ wasted")
        );
    }

    #[test]
    fn span_lifecycle_and_integration() {
        let mut ledger = SpanLedger::new();
        ledger.record(&acquire(SimTime::from_secs(1), 3));
        let mut draws = BTreeMap::new();
        // 100 mW wasted on the object, 20 mW useful on the system floor.
        draws.insert((SpanScope::Obj(3), ComponentKind::Cpu, true), 100.0);
        draws.insert((SpanScope::System, ComponentKind::Cpu, false), 20.0);
        ledger.set_draws(SimTime::from_secs(1), &draws);
        ledger.settle(SimTime::from_secs(11));

        let span = ledger.span(SpanScope::Obj(3)).unwrap();
        assert!(span.is_open());
        assert_eq!(span.app(), 7);
        assert_eq!(span.kind(), "wakelock");
        assert!((span.wasted_mj() - 1_000.0).abs() < 1e-9);
        assert_eq!(span.useful_mj(), 0.0);
        let system = ledger.span(SpanScope::System).unwrap();
        assert!((system.useful_mj() - 200.0).abs() < 1e-9);
        assert!((ledger.total_energy_mj() - 1_200.0).abs() < 1e-9);

        ledger.record(&TelemetryEvent::ObjectDead {
            at: SimTime::from_secs(11),
            app: 7,
            obj: 3,
        });
        let span = ledger.span(SpanScope::Obj(3)).unwrap();
        assert_eq!(span.closed_at(), Some(SimTime::from_secs(11)));
        assert_eq!(span.notes().last().unwrap().label, "dead");
    }

    #[test]
    fn hook_before_acquire_is_parked_then_attached() {
        let mut ledger = SpanLedger::new();
        // on_acquire's PolicyOp fires before the acquire event is emitted.
        ledger.record(&TelemetryEvent::PolicyOp {
            at: SimTime::from_secs(1),
            hook: "on_acquire",
            obj: 9,
        });
        assert!(ledger.span(SpanScope::Obj(9)).is_none());
        ledger.record(&acquire(SimTime::from_secs(1), 9));
        let span = ledger.span(SpanScope::Obj(9)).unwrap();
        assert_eq!(span.notes()[0].label, "hook");
        assert_eq!(span.notes()[0].detail, "on_acquire");
        assert_eq!(span.notes()[1].label, "acquire");
    }

    #[test]
    fn verdicts_route_through_lease_to_object() {
        let mut ledger = SpanLedger::new();
        ledger.record(&acquire(SimTime::from_secs(1), 4));
        ledger.record(&TelemetryEvent::LeaseTransition {
            at: SimTime::from_secs(1),
            lease: 12,
            obj: 4,
            from: "none",
            to: "active",
        });
        ledger.record(&TelemetryEvent::ClassifierVerdict {
            at: SimTime::from_secs(6),
            lease: 12,
            verdict: "lhb",
        });
        let span = ledger.span(SpanScope::Obj(4)).unwrap();
        let labels: Vec<_> = span.notes().iter().map(|n| n.label).collect();
        assert_eq!(labels, vec!["acquire", "lease", "verdict"]);
        assert_eq!(span.notes()[1].detail, "none->active");
        assert_eq!(span.notes()[2].detail, "lhb");
    }

    #[test]
    fn note_cap_counts_but_drops_detail() {
        let mut ledger = SpanLedger::new();
        ledger.record(&acquire(SimTime::ZERO, 1));
        for i in 0..200 {
            ledger.record(&TelemetryEvent::PolicyOp {
                at: SimTime::from_secs(i),
                hook: "on_timer",
                obj: 1,
            });
        }
        let span = ledger.span(SpanScope::Obj(1)).unwrap();
        assert_eq!(span.notes().len(), MAX_NOTES);
        assert_eq!(span.notes_dropped(), 201 - MAX_NOTES as u64);
        let hooks = span
            .note_counts()
            .find(|(l, _)| *l == "hook")
            .map(|(_, n)| n);
        assert_eq!(hooks, Some(200));
    }

    #[test]
    fn app_exec_spans_open_on_first_draw() {
        let mut ledger = SpanLedger::new();
        let mut draws = BTreeMap::new();
        draws.insert((SpanScope::App(5), ComponentKind::Cpu, false), 50.0);
        ledger.set_draws(SimTime::from_secs(2), &draws);
        ledger.settle(SimTime::from_secs(4));
        let span = ledger.span(SpanScope::App(5)).unwrap();
        assert_eq!(span.kind(), "exec");
        assert_eq!(span.app(), 5);
        assert_eq!(span.opened_at(), SimTime::from_secs(2));
        assert!((span.useful_mj() - 100.0).abs() < 1e-9);
    }

    type Draws = BTreeMap<(SpanScope, ComponentKind, bool), f64>;
    type Buckets = BTreeMap<(ComponentKind, bool), f64>;

    /// The integrator as it was before the ledger tracked drawn scopes:
    /// every settle walks every scope ever drawn, emptied ones included.
    #[derive(Default)]
    struct WalkAllLedger {
        now: SimTime,
        draws: BTreeMap<SpanScope, Buckets>,
        energy: BTreeMap<SpanScope, Buckets>,
    }

    impl WalkAllLedger {
        fn settle(&mut self, now: SimTime) {
            let ms = now.since(self.now).as_millis();
            if ms > 0 {
                for (scope, draws) in &self.draws {
                    let energy = self.energy.entry(*scope).or_default();
                    for (key, mw) in draws {
                        *energy.entry(*key).or_insert(0.0) += mw * ms as f64 / 1000.0;
                    }
                }
            }
            self.now = now;
        }

        fn set_draws(&mut self, now: SimTime, desired: &Draws) {
            self.settle(now);
            for draws in self.draws.values_mut() {
                draws.clear();
            }
            for ((scope, component, wasted), mw) in desired {
                *self
                    .draws
                    .entry(*scope)
                    .or_default()
                    .entry((*component, *wasted))
                    .or_insert(0.0) += mw;
            }
        }
    }

    /// One step of a traced run as the kernel drives the ledger.
    #[derive(Debug, Clone)]
    enum Step {
        /// A fresh object's span opens.
        Open(u64),
        /// The object dies; its span closes but keeps its draws until the
        /// next `set_draws`, as in the kernel.
        Close(u64),
        /// A new draw set (possibly empty: every span undrawn).
        Draw(Draws),
        /// Time advances with draws unchanged.
        Settle,
    }

    /// A random schedule over up to eight objects owned by three apps.
    /// Object ids are never reused and a draw names only objects opened
    /// earlier, as in the kernel.
    fn schedule(rng: &mut TestRng) -> Vec<(u64, Step)> {
        let mut opened: Vec<u64> = Vec::new();
        (0..rng.below(60) + 1)
            .map(|_| {
                let dt = [0, 1, 7, 250, 5_000][rng.below(5) as usize];
                let step = match rng.below(5) {
                    0 if opened.len() < 8 => {
                        opened.push(opened.len() as u64 + 1);
                        Step::Open(opened.len() as u64)
                    }
                    1 => Step::Close(rng.below(8) + 1),
                    2 => Step::Settle,
                    _ => {
                        let mut draws = Draws::new();
                        for _ in 0..rng.below(6) {
                            let scope = match rng.below(3) {
                                0 => SpanScope::System,
                                1 => SpanScope::App(rng.below(3) as u32),
                                _ if opened.is_empty() => SpanScope::System,
                                _ => {
                                    SpanScope::Obj(opened[rng.below(opened.len() as u64) as usize])
                                }
                            };
                            let component = ComponentKind::ALL[rng.below(6) as usize];
                            let mw = (rng.next_f64() * 2_000.0 * 1_024.0).round() / 1_024.0;
                            *draws
                                .entry((scope, component, rng.below(2) == 1))
                                .or_insert(0.0) += mw;
                        }
                        Step::Draw(draws)
                    }
                };
                (dt, step)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Integrating only the drawn spans gives every span the same
        /// energy, bit for bit, as walking every span on every settle.
        #[test]
        fn drawn_spans_integrate_like_walking_every_span(steps in from_fn(schedule)) {
            let mut ledger = SpanLedger::new();
            let mut reference = WalkAllLedger::default();
            let mut now = SimTime::ZERO;
            for (dt, step) in &steps {
                now += crate::SimDuration::from_millis(*dt);
                match step {
                    Step::Open(obj) => ledger.record(&TelemetryEvent::ServiceAcquire {
                        at: now,
                        app: (*obj % 3) as u32,
                        obj: *obj,
                        kind: "wakelock",
                        decision: "grant",
                        first: true,
                    }),
                    Step::Close(obj) => ledger.record(&TelemetryEvent::ObjectDead {
                        at: now,
                        app: (*obj % 3) as u32,
                        obj: *obj,
                    }),
                    Step::Draw(draws) => {
                        ledger.set_draws(now, draws);
                        reference.set_draws(now, draws);
                    }
                    Step::Settle => {
                        ledger.settle(now);
                        reference.settle(now);
                    }
                }
            }
            let end = now + crate::SimDuration::from_secs(60);
            ledger.settle(end);
            reference.settle(end);

            let bits = |buckets: &mut dyn Iterator<Item = (ComponentKind, bool, f64)>| {
                buckets.map(|(c, w, mj)| (c, w, mj.to_bits())).collect::<Vec<_>>()
            };
            for span in ledger.spans() {
                let expected = reference.energy.get(&span.scope()).map_or_else(Vec::new, |e| {
                    bits(&mut e.iter().map(|((c, w), mj)| (*c, *w, *mj)))
                });
                prop_assert_eq!(bits(&mut span.energy_by_component()), expected);
            }
            for scope in reference.energy.keys() {
                prop_assert!(ledger.span(*scope).is_some(), "{:?} has no span", scope);
            }
        }
    }
}
