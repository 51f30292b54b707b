//! Synthetic test apps for the sensitivity and latency experiments.
//!
//! * [`LongHolder`] — the §5.1 / Figure 9 test app: "acquires a wakelock and
//!   holds \[it\] for 30 minutes without doing anything and never releases
//!   it" (modelled on the Torch bug).
//! * [`IntermittentMisbehaver`] — the §7.5 / Figure 12 generator: random
//!   alternation of misbehaviour and normal slices, each 0–10 minutes long.
//! * [`InteractionFlow`] — the §7.6 / Figure 14 latency probes: a
//!   button-click → resource op → UI-update flow for the sensor, wakelock,
//!   and GPS resources.

use leaseos_framework::{AppCtx, AppEvent, AppModel, ObjId, ResourceKind, Token};
use leaseos_simkit::{SimDuration, SimRng, SimTime};

/// The Figure 9 Long-Holding test app: one wakelock, held forever, zero
/// work.
#[derive(Debug, Default)]
pub struct LongHolder {
    lock: Option<ObjId>,
}

impl LongHolder {
    /// Creates the test app.
    pub fn new() -> Self {
        LongHolder::default()
    }
}

impl AppModel for LongHolder {
    fn name(&self) -> &str {
        "long-holder"
    }

    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.lock = Some(ctx.acquire_wakelock());
    }

    fn on_event(&mut self, _ctx: &mut AppCtx<'_>, _event: AppEvent) {}
}

/// A randomly alternating misbehaviour schedule: `slices` pairs of
/// (misbehaving, normal) slice lengths, pre-drawn from a seeded stream so a
/// test case is reproducible.
///
/// During a *misbehaving* slice the app holds its wakelock and idles (pure
/// LHB); during a *normal* slice it works productively (high utilization and
/// UI output).
#[derive(Debug)]
pub struct IntermittentMisbehaver {
    /// Alternating slice lengths, misbehaving first.
    schedule: Vec<SimDuration>,
    index: usize,
    lock: Option<ObjId>,
    misbehaving: bool,
    working: bool,
}

const SLICE_END: Token = 100;
const WORK: Token = 101;
const WORK_GAP: Token = 102;

impl IntermittentMisbehaver {
    /// Draws `pairs` (misbehaviour, normal) slice pairs with lengths uniform
    /// in `[0, max_slice]` from `rng`.
    pub fn random(rng: &mut SimRng, pairs: usize, max_slice: SimDuration) -> Self {
        let schedule = (0..pairs * 2)
            .map(|_| SimDuration::from_millis(rng.range_u64(1, max_slice.as_millis().max(2))))
            .collect();
        IntermittentMisbehaver::with_schedule(schedule)
    }

    /// Builds the app from an explicit slice schedule (misbehaving first,
    /// then alternating).
    pub fn with_schedule(schedule: Vec<SimDuration>) -> Self {
        assert!(
            !schedule.is_empty(),
            "schedule must have at least one slice"
        );
        IntermittentMisbehaver {
            schedule,
            index: 0,
            lock: None,
            misbehaving: true,
            working: false,
        }
    }

    /// Total scheduled misbehaving time (the waste a perfect mitigator would
    /// remove).
    pub fn misbehaving_time(&self) -> SimDuration {
        self.schedule
            .iter()
            .step_by(2)
            .fold(SimDuration::ZERO, |acc, d| acc + *d)
    }

    /// Total schedule length.
    pub fn total_time(&self) -> SimDuration {
        self.schedule
            .iter()
            .fold(SimDuration::ZERO, |acc, d| acc + *d)
    }

    fn enter_slice(&mut self, ctx: &mut AppCtx<'_>) {
        if self.index >= self.schedule.len() {
            // Schedule exhausted: release and stop.
            if let Some(lock) = self.lock {
                ctx.release(lock);
            }
            return;
        }
        let len = self.schedule[self.index];
        self.misbehaving = self.index.is_multiple_of(2);
        ctx.schedule_alarm(len, SLICE_END);
        match self.lock {
            None => self.lock = Some(ctx.acquire_wakelock()),
            Some(lock) => ctx.reacquire(lock),
        }
        if !self.misbehaving && !self.working {
            self.working = true;
            ctx.do_work(SimDuration::from_millis(700), WORK);
        }
    }
}

impl AppModel for IntermittentMisbehaver {
    fn name(&self) -> &str {
        "intermittent"
    }

    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.enter_slice(ctx);
    }

    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        match event {
            AppEvent::Timer(SLICE_END) => {
                self.index += 1;
                self.enter_slice(ctx);
            }
            AppEvent::WorkDone(WORK) => {
                ctx.note_ui_update();
                ctx.schedule(SimDuration::from_millis(300), WORK_GAP);
            }
            AppEvent::Timer(WORK_GAP) => {
                if self.misbehaving {
                    self.working = false;
                } else {
                    ctx.do_work(SimDuration::from_millis(700), WORK);
                }
            }
            _ => {}
        }
    }
}

/// One interactive flow for the Figure 14 latency experiment: on `trigger`,
/// the app performs its resource operation and work, then marks the UI
/// updated. The harness reads [`InteractionFlow::mean_latency_ms`].
#[derive(Debug)]
pub struct InteractionFlow {
    resource: ResourceKind,
    started: Option<SimTime>,
    /// Latency of the last completed flow.
    pub last_latency: Option<SimDuration>,
    /// Summed latency of every completed flow.
    total_latency: SimDuration,
    /// Completed flows.
    pub completed: u64,
    lock: Option<ObjId>,
}

const TRIGGER: Token = 1;
const FLOW_WORK: Token = 2;
const FLOW_NET: Token = 3;

impl InteractionFlow {
    /// A flow exercising `resource` (wakelock, GPS, or sensor).
    pub fn new(resource: ResourceKind) -> Self {
        InteractionFlow {
            resource,
            started: None,
            last_latency: None,
            total_latency: SimDuration::ZERO,
            completed: 0,
            lock: None,
        }
    }

    /// Mean latency over the completed flows, ms (`None` before the first
    /// completes).
    pub fn mean_latency_ms(&self) -> Option<f64> {
        (self.completed > 0).then(|| self.total_latency.as_millis() as f64 / self.completed as f64)
    }

    fn finish(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.note_ui_update();
        if let Some(start) = self.started.take() {
            let latency = ctx.now() - start;
            self.last_latency = Some(latency);
            self.total_latency += latency;
            self.completed += 1;
        }
        // Next interaction in 10 s.
        ctx.schedule_alarm(SimDuration::from_secs(10), TRIGGER);
    }
}

impl AppModel for InteractionFlow {
    fn name(&self) -> &str {
        match self.resource {
            ResourceKind::Sensor => "flow-sensor",
            ResourceKind::Gps => "flow-gps",
            _ => "flow-wakelock",
        }
    }

    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.set_activity_alive(true);
        ctx.schedule_alarm(SimDuration::from_millis(500), TRIGGER);
    }

    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        match event {
            AppEvent::Timer(TRIGGER) => {
                ctx.note_user_interaction();
                self.started = Some(ctx.now());
                match self.resource {
                    ResourceKind::Sensor => {
                        // Button → enable sensor → first reading → UI.
                        ctx.register_sensor(SimDuration::from_millis(50));
                    }
                    ResourceKind::Gps => {
                        // Button → GPS request → fix (+ net lookup) → UI.
                        ctx.request_gps(SimDuration::from_millis(500));
                    }
                    _ => {
                        // Button → wakelock → network round trip + work → UI.
                        match self.lock {
                            None => self.lock = Some(ctx.acquire_wakelock()),
                            Some(lock) => ctx.reacquire(lock),
                        }
                        ctx.network_op(4_800_000, FLOW_NET);
                    }
                }
            }
            AppEvent::SensorReading { obj } if self.started.is_some() => {
                ctx.close(obj);
                self.finish(ctx);
            }
            AppEvent::GpsFix { obj, .. } if self.started.is_some() => {
                ctx.close(obj);
                ctx.do_work(SimDuration::from_millis(60), FLOW_WORK);
            }
            AppEvent::NetDone {
                token: FLOW_NET, ..
            } => {
                ctx.do_work(SimDuration::from_millis(250), FLOW_WORK);
            }
            AppEvent::WorkDone(FLOW_WORK) => {
                if let Some(lock) = self.lock {
                    ctx.release(lock);
                }
                self.finish(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaseos_framework::Kernel;
    use leaseos_simkit::{DeviceProfile, Environment, SimTime};

    #[test]
    fn long_holder_matches_figure9_no_lease_baseline() {
        let end = SimTime::from_mins(30);
        let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), Environment::unattended(), 1);
        let id = k.add_app(Box::new(LongHolder::new()));
        k.run_until(end);
        let (_, o) = k.ledger().objects_of(id).next().unwrap();
        assert_eq!(o.effective_held_time(end).as_secs(), 1_800, "the ∞ bar");
    }

    #[test]
    fn intermittent_schedule_accounting() {
        let app = IntermittentMisbehaver::with_schedule(vec![
            SimDuration::from_mins(2),
            SimDuration::from_mins(1),
            SimDuration::from_mins(4),
            SimDuration::from_mins(3),
        ]);
        assert_eq!(app.misbehaving_time(), SimDuration::from_mins(6));
        assert_eq!(app.total_time(), SimDuration::from_mins(10));
    }

    #[test]
    fn intermittent_random_is_reproducible() {
        let mut a = SimRng::new(5);
        let mut b = SimRng::new(5);
        let x = IntermittentMisbehaver::random(&mut a, 10, SimDuration::from_mins(10));
        let y = IntermittentMisbehaver::random(&mut b, 10, SimDuration::from_mins(10));
        assert_eq!(x.misbehaving_time(), y.misbehaving_time());
        assert_eq!(x.total_time(), y.total_time());
    }

    #[test]
    fn flows_complete_and_measure_latency() {
        for kind in [
            ResourceKind::Sensor,
            ResourceKind::Wakelock,
            ResourceKind::Gps,
        ] {
            let mut env = Environment::new(); // user present: screen on
            env.movement_speed_mps = 1.0;
            let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), env, 9);
            let id = k.add_app(Box::new(InteractionFlow::new(kind)));
            k.run_until(SimTime::from_mins(5));
            let flow = k.app_model::<InteractionFlow>(id).unwrap();
            assert!(flow.completed >= 2, "{kind}: {}", flow.completed);
            let lat = flow.last_latency.unwrap();
            assert!(!lat.is_zero(), "{kind}");
            match kind {
                // Sensor flows are tens of ms; wakelock/GPS flows seconds.
                ResourceKind::Sensor => {
                    assert!(lat < SimDuration::from_millis(200), "{kind}: {lat}")
                }
                _ => assert!(lat > SimDuration::from_millis(500), "{kind}: {lat}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn empty_schedule_rejected() {
        IntermittentMisbehaver::with_schedule(Vec::new());
    }
}
