//! LeaseOS as a pluggable resource policy.
//!
//! [`LeaseOs`] wires the lease manager and the per-resource proxies into the
//! substrate's [`ResourcePolicy`] hook layer, achieving the paper's
//! transparent integration (§4.2): apps keep making ordinary resource
//! requests; leases are created, checked, renewed, deferred, and removed
//! entirely behind the scenes, with no app code changes.

use std::any::Any;

use leaseos_framework::{
    AcquireOutcome, AcquireRequest, ObjId, PolicyAction, PolicyCtx, PolicyOverhead, ResourceKind,
    ResourcePolicy,
};
use leaseos_simkit::{EventKind, SimTime, TelemetryEvent};

use crate::behavior::BehaviorType;
use crate::classifier::Classifier;
use crate::descriptor::{LeaseEvent, LeaseId};
use crate::manager::{CheckOutcome, LeaseManager, ReacquireOutcome};
use crate::policy::LeasePolicy;
use crate::proxy::{standard_proxies, LeaseProxy};
use crate::stats::UsageSnapshot;

/// Modeled bookkeeping CPU cost per lease operation, in milliseconds —
/// between the measured create (0.357 ms) and update (4.79 ms) latencies of
/// the paper's Table 4, amortized over all hook invocations.
const LEASE_OP_CPU_MS: f64 = 1.0;

/// The LeaseOS resource-management policy.
pub struct LeaseOs {
    manager: LeaseManager,
    proxies: Vec<LeaseProxy>,
}

impl std::fmt::Debug for LeaseOs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseOs")
            .field("manager", &self.manager)
            .field("proxies", &self.proxies.len())
            .finish()
    }
}

impl LeaseOs {
    /// LeaseOS with the paper's default parameters (5 s term, 25 s
    /// deferral, adaptive ladder) and proxies for every resource kind.
    pub fn new() -> Self {
        LeaseOs::with_manager(LeaseManager::new())
    }

    /// LeaseOS with a custom lease policy (used by the §5/§7.5 sensitivity
    /// experiments).
    ///
    /// # Panics
    ///
    /// Panics on an invalid policy; generated configurations should use
    /// [`try_with_policy`](Self::try_with_policy) instead.
    pub fn with_policy(policy: LeasePolicy) -> Self {
        LeaseOs::with_manager(LeaseManager::with_policy(policy))
    }

    /// LeaseOS with a custom lease policy, rejecting invalid parameters.
    ///
    /// # Errors
    ///
    /// Returns the [`LeasePolicy::validate`] description of the first
    /// invalid parameter.
    pub fn try_with_policy(policy: LeasePolicy) -> Result<Self, String> {
        Ok(LeaseOs::with_manager(LeaseManager::try_with_policy(
            policy,
        )?))
    }

    /// LeaseOS with a custom policy and classifier.
    ///
    /// # Panics
    ///
    /// Panics on an invalid policy; generated configurations should use
    /// [`try_with_policy_and_classifier`](Self::try_with_policy_and_classifier).
    pub fn with_policy_and_classifier(policy: LeasePolicy, classifier: Classifier) -> Self {
        LeaseOs::with_manager(LeaseManager::with_policy_and_classifier(policy, classifier))
    }

    /// LeaseOS with a custom policy and classifier, rejecting invalid
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns the [`LeasePolicy::validate`] description of the first
    /// invalid parameter.
    pub fn try_with_policy_and_classifier(
        policy: LeasePolicy,
        classifier: Classifier,
    ) -> Result<Self, String> {
        Ok(LeaseOs::with_manager(
            LeaseManager::try_with_policy_and_classifier(policy, classifier)?,
        ))
    }

    /// LeaseOS around an explicit manager.
    pub fn with_manager(mut manager: LeaseManager) -> Self {
        let proxies = standard_proxies();
        for p in &proxies {
            manager.register_proxy(p.kind(), p.name());
        }
        LeaseOs { manager, proxies }
    }

    /// The lease manager (for experiment introspection: Figure 11, §7.2).
    pub fn manager(&self) -> &LeaseManager {
        &self.manager
    }

    fn proxy_mut(&mut self, kind: ResourceKind) -> &mut LeaseProxy {
        self.proxies
            .iter_mut()
            .find(|p| p.kind() == kind)
            .expect("standard proxies cover every kind")
    }

    fn snapshot(ctx: &PolicyCtx<'_>, obj: ObjId) -> UsageSnapshot {
        let o = ctx.ledger.obj(obj);
        UsageSnapshot::capture(ctx.ledger, obj, o.owner, ctx.now)
    }

    fn emit_transition(
        ctx: &PolicyCtx<'_>,
        lease: LeaseId,
        obj: ObjId,
        from: &'static str,
        to: &'static str,
    ) {
        ctx.telemetry.emit(EventKind::LeaseTransition, || {
            TelemetryEvent::LeaseTransition {
                at: ctx.now,
                lease: lease.0,
                obj: obj.0,
                from,
                to,
            }
        });
    }

    fn emit_renewed(ctx: &PolicyCtx<'_>, lease: LeaseId, next_check: SimTime) {
        let term_s = (next_check - ctx.now).as_secs_f64();
        ctx.metrics.inc("lease_renewals_total");
        ctx.metrics.observe("lease_term_s", term_s);
        ctx.telemetry
            .emit(EventKind::TermRenewed, || TelemetryEvent::TermRenewed {
                at: ctx.now,
                lease: lease.0,
                term_s,
            });
    }

    fn emit_verdict(ctx: &PolicyCtx<'_>, lease: LeaseId, behavior: BehaviorType) {
        ctx.metrics.inc("lease_verdicts_total");
        if ctx.metrics.is_enabled() {
            // Formatted name — only pay the allocation when recording.
            ctx.metrics
                .inc(&format!("lease_verdict_{}_total", behavior.key()));
        }
        ctx.telemetry.emit(EventKind::ClassifierVerdict, || {
            TelemetryEvent::ClassifierVerdict {
                at: ctx.now,
                lease: lease.0,
                verdict: behavior.key(),
            }
        });
    }
}

impl Default for LeaseOs {
    fn default() -> Self {
        LeaseOs::new()
    }
}

impl ResourcePolicy for LeaseOs {
    fn name(&self) -> &'static str {
        "leaseos"
    }

    fn on_acquire(&mut self, ctx: &PolicyCtx<'_>, req: &AcquireRequest) -> AcquireOutcome {
        if !self.manager.has_proxy(req.kind) {
            return AcquireOutcome::grant();
        }
        if req.first {
            // A lease is created when the app first accesses the kernel
            // object (§3.1), with the first term-end check scheduled.
            let snapshot = Self::snapshot(ctx, req.obj);
            let (lease, next_check) = self
                .manager
                .create(req.kind, req.app, req.obj, snapshot, ctx.now);
            self.proxy_mut(req.kind).bind(req.obj, lease);
            ctx.metrics.inc("lease_created_total");
            Self::emit_transition(ctx, lease, req.obj, "none", "active");
            Self::emit_renewed(ctx, lease, next_check);
            AcquireOutcome::grant().with_actions(vec![PolicyAction::ScheduleTimer {
                at: next_check,
                key: lease.0,
            }])
        } else {
            let Some(lease) = self.proxy_mut(req.kind).lease_for(req.obj) else {
                return AcquireOutcome::grant();
            };
            let snapshot = Self::snapshot(ctx, req.obj);
            match self
                .manager
                .note_event(lease, LeaseEvent::Reacquire, snapshot, ctx.now)
            {
                ReacquireOutcome::Granted => AcquireOutcome::grant(),
                ReacquireOutcome::Renewed { next_check } => {
                    self.proxy_mut(req.kind).on_renew(lease);
                    Self::emit_transition(ctx, lease, req.obj, "inactive", "active");
                    Self::emit_renewed(ctx, lease, next_check);
                    AcquireOutcome::grant().with_actions(vec![PolicyAction::ScheduleTimer {
                        at: next_check,
                        key: lease.0,
                    }])
                }
                // §4.6: during τ the acquire IPC pretends it succeeds.
                ReacquireOutcome::StillDeferred => {
                    ctx.metrics.inc("lease_proxy_traps_total");
                    AcquireOutcome::pretend()
                }
            }
        }
    }

    fn on_release(&mut self, ctx: &PolicyCtx<'_>, obj: ObjId) -> Vec<PolicyAction> {
        if let Some(lease) = self.manager.lease_of_obj(obj) {
            let snapshot = Self::snapshot(ctx, obj);
            self.manager
                .note_event(lease, LeaseEvent::Release, snapshot, ctx.now);
        }
        Vec::new()
    }

    fn on_object_dead(&mut self, ctx: &PolicyCtx<'_>, obj: ObjId) -> Vec<PolicyAction> {
        if let Some(lease) = self.manager.lease_of_obj(obj) {
            let kind = ctx.ledger.obj(obj).kind;
            let from = self
                .manager
                .lease(lease)
                .map(|l| l.state.name())
                .unwrap_or("active");
            self.manager.remove(lease, ctx.now);
            self.proxy_mut(kind).unbind(lease);
            Self::emit_transition(ctx, lease, obj, from, "dead");
        }
        Vec::new()
    }

    fn on_timer(&mut self, ctx: &PolicyCtx<'_>, key: u64) -> Vec<PolicyAction> {
        let lease = LeaseId(key);
        let Some(record) = self.manager.lease(lease) else {
            return Vec::new(); // removed in the meantime
        };
        let (obj, kind) = (record.obj, record.kind);
        // The pre-check state: WentInactive can be reached from Active (term
        // ended unheld) *or* Deferred (released during τ), and the emitted
        // transition must say which — the telemetry state audit replays it.
        let from = record.state.name();
        let snapshot = Self::snapshot(ctx, obj);
        match self.manager.process_check(lease, snapshot, ctx.now) {
            CheckOutcome::Renewed {
                next_check,
                behavior,
            } => {
                Self::emit_verdict(ctx, lease, behavior);
                Self::emit_renewed(ctx, lease, next_check);
                vec![PolicyAction::ScheduleTimer {
                    at: next_check,
                    key,
                }]
            }
            CheckOutcome::Deferred {
                restore_at,
                behavior,
            } => {
                debug_assert!(
                    restore_at > ctx.now,
                    "a deferral must always schedule its restore timer"
                );
                debug_assert!(
                    self.manager
                        .lease(lease)
                        .map(|l| !l.state.grants_capability())
                        .unwrap_or(true),
                    "a deferred lease must never grant capability"
                );
                Self::emit_verdict(ctx, lease, behavior);
                Self::emit_transition(ctx, lease, obj, from, "deferred");
                ctx.metrics.inc("lease_deferrals_total");
                ctx.metrics
                    .observe("lease_defer_s", (restore_at - ctx.now).as_secs_f64());
                ctx.telemetry
                    .emit(EventKind::TermDeferred, || TelemetryEvent::TermDeferred {
                        at: ctx.now,
                        lease: lease.0,
                        defer_s: (restore_at - ctx.now).as_secs_f64(),
                    });
                let mut actions = Vec::new();
                if let Some(obj) = self.proxy_mut(kind).on_expire(lease) {
                    ctx.metrics.inc("lease_proxy_traps_total");
                    actions.push(PolicyAction::Revoke(obj));
                }
                actions.push(PolicyAction::ScheduleTimer {
                    at: restore_at,
                    key,
                });
                actions
            }
            CheckOutcome::Restored { next_check } => {
                Self::emit_transition(ctx, lease, obj, "deferred", "active");
                Self::emit_renewed(ctx, lease, next_check);
                let mut actions = Vec::new();
                if let Some(obj) = self.proxy_mut(kind).on_renew(lease) {
                    ctx.metrics.inc("lease_proxy_traps_total");
                    actions.push(PolicyAction::Restore(obj));
                }
                actions.push(PolicyAction::ScheduleTimer {
                    at: next_check,
                    key,
                });
                actions
            }
            CheckOutcome::WentInactive => {
                Self::emit_transition(ctx, lease, obj, from, "inactive");
                Vec::new()
            }
            CheckOutcome::Stale => Vec::new(),
        }
    }

    fn overhead(&self) -> PolicyOverhead {
        PolicyOverhead {
            per_op_cpu_ms: LEASE_OP_CPU_MS,
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use leaseos_framework::{AppCtx, AppEvent, AppModel, Kernel};
    use leaseos_simkit::{
        ComponentKind, DeviceProfile, Environment, LeaseStateAudit, SimDuration, SimTime,
    };

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn try_constructors_reject_bad_policies_as_values() {
        let bad = crate::LeasePolicy::fixed(SimDuration::from_secs(0), SimDuration::from_secs(25));
        assert!(LeaseOs::try_with_policy(bad.clone()).is_err());
        assert!(LeaseOs::try_with_policy_and_classifier(bad, Classifier::default()).is_err());
        let good = crate::LeasePolicy::fixed(SimDuration::from_secs(5), SimDuration::from_secs(25));
        let os = LeaseOs::try_with_policy(good.clone()).expect("valid policy accepted");
        assert_eq!(os.manager().policy().initial_term, good.initial_term);
        assert!(LeaseOs::try_with_policy_and_classifier(good, Classifier::default()).is_ok());
    }

    /// Leaks a wakelock at start — pure Long-Holding.
    struct Leaky;
    impl AppModel for Leaky {
        fn name(&self) -> &str {
            "leaky"
        }
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.acquire_wakelock();
        }
        fn on_event(&mut self, _ctx: &mut AppCtx<'_>, _event: AppEvent) {}
    }

    /// Works productively every term: holds the lock, burns CPU, reports UI
    /// updates.
    struct Productive;
    impl AppModel for Productive {
        fn name(&self) -> &str {
            "productive"
        }
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.acquire_wakelock();
            ctx.do_work(SimDuration::from_millis(800), 1);
        }
        fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
            if let AppEvent::WorkDone(1) = event {
                ctx.note_ui_update();
                ctx.schedule(SimDuration::from_millis(200), 2);
            } else if let AppEvent::Timer(2) = event {
                ctx.do_work(SimDuration::from_millis(800), 1);
            }
        }
    }

    fn lease_kernel(app: Box<dyn AppModel>) -> Kernel {
        let mut k = Kernel::new(
            DeviceProfile::pixel_xl(),
            Environment::unattended(),
            Box::new(LeaseOs::new()),
            1,
        );
        k.add_app(app);
        k
    }

    fn leaseos(k: &Kernel) -> &LeaseOs {
        k.policy().as_any().downcast_ref::<LeaseOs>().unwrap()
    }

    #[test]
    fn leaky_wakelock_alternates_active_and_deferred() {
        let mut k = lease_kernel(Box::new(Leaky));
        k.run_until(t(120));
        // Cycle = 5 s active + 25 s deferred; holding ratio ≈ 1/6.
        let (_, o) = k.ledger().live_objects().next().expect("the leaked lock");
        let effective = o.effective_held_time(t(120)).as_secs_f64();
        assert!(
            (effective - 20.0).abs() <= 5.0,
            "expected ≈1/6 of 120 s, got {effective}"
        );
        assert_eq!(
            o.held_time(t(120)).as_secs_f64(),
            120.0,
            "app view unchanged"
        );
        let m = leaseos(&k).manager();
        assert_eq!(m.created_count(), 1);
        assert!(m.lease_reports(t(120))[0].deferrals >= 3);
    }

    #[test]
    fn release_during_deferral_emits_deferred_to_inactive() {
        /// Leaks a wakelock, gets deferred at t=5, then releases at t=15 —
        /// mid-deferral. The deferral-end check at t=30 must report the
        /// transition as deferred→inactive, not active→inactive; the replayed
        /// state audit catches any mislabelled edge.
        struct LeakThenRelease {
            lock: Option<ObjId>,
        }
        impl AppModel for LeakThenRelease {
            fn name(&self) -> &str {
                "leak-then-release"
            }
            fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
                self.lock = Some(ctx.acquire_wakelock());
                ctx.schedule_alarm(SimDuration::from_secs(15), 1);
            }
            fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
                if let AppEvent::Timer(1) = event {
                    ctx.release(self.lock.take().expect("lock"));
                }
            }
        }
        let audit = Rc::new(RefCell::new(LeaseStateAudit::new()));
        let mut k = Kernel::new(
            DeviceProfile::pixel_xl(),
            Environment::unattended(),
            Box::new(LeaseOs::new()),
            1,
        );
        k.telemetry().attach(audit.clone());
        k.add_app(Box::new(LeakThenRelease { lock: None }));
        k.run_until(t(60));
        let audit = audit.borrow();
        assert_eq!(audit.leases_seen(), 1);
        assert!(audit.is_clean(), "{:?}", audit.violations());
    }

    #[test]
    fn lease_lifecycle_stays_legal_under_the_state_audit() {
        let audit = Rc::new(RefCell::new(LeaseStateAudit::new()));
        let mut k = lease_kernel(Box::new(Leaky));
        k.telemetry().attach(audit.clone());
        k.run_until(t(300));
        let audit = audit.borrow();
        assert_eq!(audit.leases_seen(), 1);
        assert!(audit.is_clean(), "{:?}", audit.violations());
    }

    #[test]
    fn productive_app_is_never_deferred() {
        let mut k = lease_kernel(Box::new(Productive));
        k.run_until(t(120));
        let (_, o) = k.ledger().live_objects().next().expect("the lock");
        assert_eq!(
            o.effective_held_time(t(120)),
            SimDuration::from_secs(120),
            "no revocation for high-utility usage"
        );
        let m = leaseos(&k).manager();
        assert_eq!(m.lease_reports(t(120))[0].deferrals, 0);
    }

    #[test]
    fn adaptive_terms_reduce_check_frequency_for_good_apps() {
        let mut k = lease_kernel(Box::new(Productive));
        k.run_until(t(300));
        let m = leaseos(&k).manager();
        let report = &m.lease_reports(t(300))[0];
        // With pure 5 s terms a 300 s run would need 60 terms; the ladder
        // (12 normal terms → 1 min) cuts that down.
        assert!(
            report.terms < 25,
            "ladder should have grown the term, got {} terms",
            report.terms
        );
    }

    #[test]
    fn energy_saved_for_leaky_app_matches_lambda_formula() {
        // Vanilla baseline.
        let mut vanilla = Kernel::vanilla(DeviceProfile::pixel_xl(), Environment::unattended(), 1);
        let app_v = vanilla.add_app(Box::new(Leaky));
        vanilla.run_until(t(1800));
        let base = vanilla.meter().energy_mj(app_v.consumer());

        // Fixed policy (no escalation): λ = 25/5 = 5 → r = 5/6 ≈ 0.83.
        let mut k = Kernel::new(
            DeviceProfile::pixel_xl(),
            Environment::unattended(),
            Box::new(LeaseOs::with_policy(crate::LeasePolicy::fixed(
                SimDuration::from_secs(5),
                SimDuration::from_secs(25),
            ))),
            1,
        );
        k.add_app(Box::new(Leaky));
        k.run_until(t(1800));
        let app = k.app_by_name("leaky").unwrap();
        let treated = k.meter().energy_mj(app.consumer());
        let reduction = (base - treated) / base;
        assert!(
            (reduction - 5.0 / 6.0).abs() < 0.03,
            "reduction {reduction} should be ≈0.83"
        );

        // Default policy: escalating deferrals push a permanent offender
        // well past the fixed-λ cap.
        let mut k = lease_kernel(Box::new(Leaky));
        k.run_until(t(1800));
        let app = k.app_by_name("leaky").unwrap();
        let treated = k.meter().energy_mj(app.consumer());
        let reduction = (base - treated) / base;
        assert!(reduction > 0.9, "escalated reduction {reduction}");
    }

    #[test]
    fn dead_object_cleans_lease() {
        struct OpenClose;
        impl AppModel for OpenClose {
            fn name(&self) -> &str {
                "open-close"
            }
            fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
                let lock = ctx.acquire_wakelock();
                ctx.release(lock);
                ctx.close(lock);
            }
            fn on_event(&mut self, _ctx: &mut AppCtx<'_>, _event: AppEvent) {}
        }
        let mut k = lease_kernel(Box::new(OpenClose));
        k.run_until(t(60));
        let m = leaseos(&k).manager();
        assert_eq!(m.created_count(), 1);
        assert_eq!(m.active_count(), 0);
        let reports = m.lease_reports(t(60));
        assert_eq!(reports.len(), 1);
        assert!(reports[0].active_secs < 1.0);
    }

    #[test]
    fn deferral_suppresses_gps_draw_for_unused_listener() {
        struct BackgroundGps;
        impl AppModel for BackgroundGps {
            fn name(&self) -> &str {
                "bg-gps"
            }
            fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
                // No live Activity: utilization of the location data is 0.
                ctx.request_gps(SimDuration::from_secs(1));
            }
            fn on_event(&mut self, _ctx: &mut AppCtx<'_>, _event: AppEvent) {}
        }
        let mut k = lease_kernel(Box::new(BackgroundGps));
        k.run_until(t(600));
        let app = k.app_by_name("bg-gps").unwrap();
        let gps_mj = k
            .meter()
            .component_energy_mj(app.consumer(), ComponentKind::Gps);
        // Vanilla would pay full fixed-draw: 600 s × 85 mW = 51 000 mJ.
        assert!(
            gps_mj < 51_000.0 * 0.4,
            "deferral should cut GPS energy hard, got {gps_mj}"
        );
    }

    #[test]
    fn app_death_cleans_all_its_leases() {
        // §4.3: "When the leaseholder (an app) dies … the lease proxies also
        // need to notify the lease manager to clean up all the related
        // leases by invoking remove."
        struct MultiHolder;
        impl AppModel for MultiHolder {
            fn name(&self) -> &str {
                "multi-holder"
            }
            fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
                ctx.acquire_wakelock();
                ctx.request_gps(SimDuration::from_secs(1));
                ctx.register_sensor(SimDuration::from_secs(1));
            }
            fn on_event(&mut self, _ctx: &mut AppCtx<'_>, _event: AppEvent) {}
        }
        let mut k = lease_kernel(Box::new(MultiHolder));
        let id = k.app_by_name("multi-holder").unwrap();
        k.run_until(t(30));
        assert_eq!(leaseos(&k).manager().created_count(), 3);
        k.stop_app(id);
        let m = leaseos(&k).manager();
        assert_eq!(m.active_count(), 0, "no live leases survive the holder");
        let reports = m.lease_reports(t(30));
        assert_eq!(reports.len(), 3, "all three are accounted as finished");
        // The run continues without stale lease timers doing harm.
        k.run_until(t(300));
        assert_eq!(leaseos(&k).manager().active_count(), 0);
    }

    #[test]
    fn lease_lifecycle_is_emitted_on_the_telemetry_bus() {
        use leaseos_simkit::RingBufferSink;
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut k = lease_kernel(Box::new(Leaky));
        let ring = Rc::new(RefCell::new(RingBufferSink::new(8192)));
        k.telemetry().attach(ring.clone());
        k.run_until(t(120));
        let ring = ring.borrow();
        let has = |f: &dyn Fn(&TelemetryEvent) -> bool| ring.events().any(f);
        assert!(has(&|e| matches!(
            e,
            TelemetryEvent::LeaseTransition {
                from: "none",
                to: "active",
                ..
            }
        )));
        assert!(
            has(&|e| matches!(e, TelemetryEvent::ClassifierVerdict { verdict: "lhb", .. })),
            "a leaked wakelock must be classified as Long-Holding"
        );
        assert!(has(&|e| matches!(
            e,
            TelemetryEvent::LeaseTransition {
                from: "active",
                to: "deferred",
                ..
            }
        )));
        assert!(has(&|e| matches!(
            e,
            TelemetryEvent::LeaseTransition {
                from: "deferred",
                to: "active",
                ..
            }
        )));
        assert!(has(&|e| matches!(
            e,
            TelemetryEvent::TermDeferred { defer_s, .. } if *defer_s > 0.0
        )));
        assert!(has(&|e| matches!(
            e,
            TelemetryEvent::TermRenewed { term_s, .. } if *term_s > 0.0
        )));
        // Bus counters agree with the manager's own bookkeeping.
        assert!(k.telemetry().count(EventKind::TermDeferred) >= 3);
    }

    #[test]
    fn overhead_is_modeled() {
        let os = LeaseOs::new();
        assert_eq!(os.overhead().per_op_cpu_ms, LEASE_OP_CPU_MS);
        assert_eq!(os.name(), "leaseos");
    }
}
