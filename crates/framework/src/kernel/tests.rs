use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use leaseos_simkit::{
    ComponentKind, Consumer, DeviceProfile, Environment, EventKind, FaultKind, FaultPlan,
    FaultSpec, RingBufferSink, Schedule, ScheduledFault, SimDuration, SimTime, SpanScope,
};

use crate::app::{AppEvent, AppModel};
use crate::ids::{AppId, ObjId};
use crate::kernel::{AppCtx, Kernel};
use crate::policy::{
    AcquireOutcome, AcquireRequest, PolicyAction, PolicyCtx, PolicyOverhead, ResourcePolicy,
};
use crate::resource::NetResult;

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

fn d(secs: u64) -> SimDuration {
    SimDuration::from_secs(secs)
}

/// Environment with no user, so only wakelocks keep the device up.
fn background_env() -> Environment {
    Environment::unattended()
}

/// Holds a wakelock forever without doing anything (the Torch bug shape).
struct HoldForever {
    lock: Option<ObjId>,
}

impl HoldForever {
    fn new() -> Self {
        HoldForever { lock: None }
    }
}

impl AppModel for HoldForever {
    fn name(&self) -> &str {
        "hold-forever"
    }
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.lock = Some(ctx.acquire_wakelock());
    }
    fn on_event(&mut self, _ctx: &mut AppCtx<'_>, _event: AppEvent) {}
}

/// Takes a wakelock, runs one CPU burst, releases, and remembers what
/// happened.
struct WorkOnce {
    lock: Option<ObjId>,
    done_at: Option<SimTime>,
}

impl WorkOnce {
    fn new() -> Self {
        WorkOnce {
            lock: None,
            done_at: None,
        }
    }
}

impl AppModel for WorkOnce {
    fn name(&self) -> &str {
        "work-once"
    }
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.lock = Some(ctx.acquire_wakelock());
        ctx.do_work(d(5), 1);
    }
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        if let AppEvent::WorkDone(1) = event {
            self.done_at = Some(ctx.now());
            ctx.release(self.lock.expect("lock"));
        }
    }
}

/// Issues one network op at start and records the result.
struct NetOnce {
    lock: Option<ObjId>,
    result: Option<NetResult>,
}

impl NetOnce {
    fn new() -> Self {
        NetOnce {
            lock: None,
            result: None,
        }
    }
}

impl AppModel for NetOnce {
    fn name(&self) -> &str {
        "net-once"
    }
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.lock = Some(ctx.acquire_wakelock());
        ctx.network_op(10_000, 7);
    }
    fn on_event(&mut self, _ctx: &mut AppCtx<'_>, event: AppEvent) {
        if let AppEvent::NetDone { token: 7, result } = event {
            self.result = Some(result);
        }
    }
}

/// Registers GPS at start and counts deliveries/distance.
struct GpsOnce {
    fixes: u64,
    distance: f64,
}

impl GpsOnce {
    fn new() -> Self {
        GpsOnce {
            fixes: 0,
            distance: 0.0,
        }
    }
}

impl AppModel for GpsOnce {
    fn name(&self) -> &str {
        "gps-once"
    }
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.request_gps(d(1));
    }
    fn on_event(&mut self, _ctx: &mut AppCtx<'_>, event: AppEvent) {
        if let AppEvent::GpsFix { distance_m, .. } = event {
            self.fixes += 1;
            self.distance += distance_m;
        }
    }
}

/// A policy that executes a scripted list of actions at given times. The
/// script is installed on the first acquire (when the first object exists).
struct ScriptPolicy {
    script: Vec<(SimTime, PolicyAction)>,
    installed: bool,
}

impl ScriptPolicy {
    fn new(script: Vec<(SimTime, PolicyAction)>) -> Self {
        ScriptPolicy {
            script,
            installed: false,
        }
    }
}

impl ResourcePolicy for ScriptPolicy {
    fn name(&self) -> &'static str {
        "script"
    }
    fn on_acquire(&mut self, _ctx: &PolicyCtx<'_>, _req: &AcquireRequest) -> AcquireOutcome {
        if self.installed {
            return AcquireOutcome::grant();
        }
        self.installed = true;
        let timers = self
            .script
            .iter()
            .enumerate()
            .map(|(i, (at, _))| PolicyAction::ScheduleTimer {
                at: *at,
                key: i as u64,
            })
            .collect();
        AcquireOutcome::grant().with_actions(timers)
    }
    fn on_timer(&mut self, _ctx: &PolicyCtx<'_>, key: u64) -> Vec<PolicyAction> {
        vec![self.script[key as usize].1]
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Grants every acquire as a pretend-grant.
struct AlwaysPretend;

impl ResourcePolicy for AlwaysPretend {
    fn name(&self) -> &'static str {
        "pretend"
    }
    fn on_acquire(&mut self, _ctx: &PolicyCtx<'_>, _req: &AcquireRequest) -> AcquireOutcome {
        AcquireOutcome::pretend()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn downcast<T: 'static>(kernel: &Kernel, app: AppId) -> &T {
    let _ = app;
    kernel
        .policy()
        .as_any()
        .downcast_ref::<T>()
        .expect("policy type")
}

#[test]
fn wakelock_keeps_device_awake_and_bills_holder() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    let app = k.add_app(Box::new(HoldForever::new()));
    k.run_until(t(100));
    assert!(k.is_awake());
    assert!(!k.is_screen_on());
    // Holder pays the idle-keepalive delta: (32 - 7) mW for 100 s = 2500 mJ.
    let e = k.meter().energy_mj(app.consumer());
    assert!((e - 2_500.0).abs() < 1e-6, "expected 2500 mJ, got {e}");
    // System pays the floor: 7 mW * 100 s.
    let sys = k.meter().energy_mj(Consumer::System);
    assert!((sys - 700.0).abs() < 1e-6, "expected 700 mJ, got {sys}");
}

#[test]
fn idle_device_deep_sleeps_on_system_floor() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.run_until(t(100));
    assert!(!k.is_awake());
    let sys = k.meter().energy_mj(Consumer::System);
    assert!(
        (sys - 700.0).abs() < 1e-6,
        "only the deep-sleep floor, got {sys}"
    );
    assert_eq!(k.meter().total_energy_mj(), sys);
}

#[test]
fn work_completes_and_credits_cpu_time() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    let app = k.add_app(Box::new(WorkOnce::new()));
    k.run_until(t(60));
    let slot_done = {
        // Access through ledger: 5 s CPU.
        k.ledger().app_opt(app).map(|a| a.cpu_ms)
    };
    assert_eq!(slot_done, Some(5_000));
    // After release the device sleeps again.
    assert!(!k.is_awake());
    // Energy: 5 s active delta + 5 s idle delta + floor.
    let p = DeviceProfile::pixel_xl().power;
    let expect =
        5.0 * (p.cpu_active_mw - p.cpu_idle_mw) + 5.0 * (p.cpu_idle_mw - p.cpu_deep_sleep_mw);
    let e = k.meter().energy_mj(app.consumer());
    assert!((e - expect).abs() < 1e-6, "expected {expect}, got {e}");
}

#[test]
fn work_on_slow_device_takes_proportionally_longer() {
    let mut k = Kernel::vanilla(DeviceProfile::moto_g(), background_env(), 1);
    let app = k.add_app(Box::new(WorkOnce::new()));
    k.run_until(t(60));
    let _ = app;
    // 5 s of work at 0.4 speed = 12.5 s wall clock; the ledger counts wall
    // CPU time on this device.
    assert_eq!(k.ledger().app_opt(app).unwrap().cpu_ms, 12_500);
}

#[test]
fn network_ok_and_server_error_results() {
    for (env, expect) in [
        (background_env(), NetResult::Ok),
        (
            {
                let mut e = background_env();
                e.server_healthy = Schedule::new(false);
                e
            },
            NetResult::ServerError,
        ),
        (
            {
                let mut e = background_env();
                e.network_up = Schedule::new(false);
                e
            },
            NetResult::Disconnected,
        ),
    ] {
        let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), env, 1);
        let app = k.add_app(Box::new(NetOnce::new()));
        k.run_until(t(30));
        let result = k.app_model::<NetOnce>(app).unwrap().result;
        assert_eq!(result, Some(expect));
    }
}

#[test]
fn revoking_sole_wakelock_sleeps_device_and_restore_wakes_it() {
    // obj1 is the first object created (0 is the null object).
    let script = vec![
        (t(10), PolicyAction::Revoke(ObjId(1))),
        (t(35), PolicyAction::Restore(ObjId(1))),
    ];
    let mut k = Kernel::new(
        DeviceProfile::pixel_xl(),
        background_env(),
        Box::new(ScriptPolicy::new(script)),
        1,
    );
    let app = k.add_app(Box::new(HoldForever::new()));
    k.run_until(t(60));
    assert!(k.is_awake(), "restored at t=35");
    let o = k.ledger().obj(ObjId(1));
    assert_eq!(o.held_time(t(60)), d(60), "app view unaffected");
    assert_eq!(o.effective_held_time(t(60)), d(35), "25 s revoked");
    // Energy: idle delta only for the 35 effective seconds.
    let p = DeviceProfile::pixel_xl().power;
    let expect = 35.0 * (p.cpu_idle_mw - p.cpu_deep_sleep_mw);
    let e = k.meter().energy_mj(app.consumer());
    assert!((e - expect).abs() < 1e-6, "expected {expect}, got {e}");
}

#[test]
fn pretend_grant_never_powers_the_resource() {
    let mut k = Kernel::new(
        DeviceProfile::pixel_xl(),
        background_env(),
        Box::new(AlwaysPretend),
        1,
    );
    let app = k.add_app(Box::new(HoldForever::new()));
    k.run_until(t(50));
    assert!(!k.is_awake());
    assert_eq!(k.meter().energy_mj(app.consumer()), 0.0);
    let o = k.ledger().obj(ObjId(1));
    assert!(o.revoked);
    assert!(o.held, "the app believes it holds the lock");
    let _: &AlwaysPretend = downcast(&k, app);
}

#[test]
fn gps_fix_flows_and_distance_accrues_while_moving() {
    let mut env = background_env();
    env.in_motion = Schedule::new(true);
    env.movement_speed_mps = 2.0;
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), env, 42);
    let app = k.add_app(Box::new(GpsOnce::new()));
    k.run_until(t(120));
    let stats = k.ledger().app_opt(app).unwrap();
    assert!(
        stats.distance_m > 100.0,
        "moving 2 m/s for ~2 min: {}",
        stats.distance_m
    );
    let (obj, o) = k.ledger().objects_of(app).next().unwrap();
    let _ = obj;
    assert_eq!(o.fix_count, 1);
    assert!(
        o.deliveries > 50,
        "per-second deliveries, got {}",
        o.deliveries
    );
    assert!(o.searching_time(t(120)) < d(10), "good signal locks fast");
}

#[test]
fn gps_never_fixes_without_signal() {
    let mut k = Kernel::vanilla(
        DeviceProfile::pixel_xl(),
        Environment::weak_gps_building(),
        42,
    );
    let app = k.add_app(Box::new(GpsOnce::new()));
    k.run_until(t(300));
    let (_, o) = k.ledger().objects_of(app).next().unwrap();
    assert_eq!(o.fix_count, 0);
    assert_eq!(o.deliveries, 0);
    assert_eq!(o.searching_time(t(300)), d(300), "searching the whole run");
    // Searching draws the expensive GPS state the whole time.
    let p = DeviceProfile::pixel_xl().power;
    let e = k
        .meter()
        .component_energy_mj(app.consumer(), ComponentKind::Gps);
    assert!((e - 300.0 * p.gps_searching_mw).abs() < 1e-6);
}

#[test]
fn deferrable_timer_waits_for_wake_alarm_fires_asleep() {
    /// Schedules one deferrable timer and one alarm; records when each fired.
    struct TimerApp {
        timer_at: Option<SimTime>,
        alarm_at: Option<SimTime>,
        lock: Option<ObjId>,
    }
    impl AppModel for TimerApp {
        fn name(&self) -> &str {
            "timer-app"
        }
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.schedule(d(10), 1);
            ctx.schedule_alarm(d(20), 2);
        }
        fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
            match event {
                AppEvent::Timer(1) => self.timer_at = Some(ctx.now()),
                AppEvent::Timer(2) => {
                    self.alarm_at = Some(ctx.now());
                    // The alarm handler wakes the device for real work.
                    self.lock = Some(ctx.acquire_wakelock());
                }
                _ => {}
            }
        }
    }

    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    let id = k.add_app(Box::new(TimerApp {
        timer_at: None,
        alarm_at: None,
        lock: None,
    }));
    k.run_until(t(60));
    let app = k.app_model::<TimerApp>(id).unwrap();
    // The deferrable timer (due t=10, device asleep) flushed when the alarm
    // woke the device at t=20.
    assert_eq!(app.alarm_at, Some(t(20)));
    assert_eq!(app.timer_at, Some(t(20)));
}

#[test]
fn work_pauses_during_sleep_and_resumes_on_wake() {
    /// Starts 10 s of work with no wakelock while the user leaves at t=5 and
    /// returns at t=30 (screen drives wakefulness).
    struct PausedWork {
        done_at: Option<SimTime>,
    }
    impl AppModel for PausedWork {
        fn name(&self) -> &str {
            "paused-work"
        }
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.do_work(d(10), 1);
        }
        fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
            if let AppEvent::WorkDone(1) = event {
                self.done_at = Some(ctx.now());
            }
        }
    }

    let mut env = Environment::new();
    env.user_present = Schedule::new(true);
    env.user_present.set_from(t(5), false);
    env.user_present.set_from(t(30), true);
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), env, 1);
    let id = k.add_app(Box::new(PausedWork { done_at: None }));
    k.run_until(t(60));
    let app = k.app_model::<PausedWork>(id).unwrap();
    // 5 s ran before sleep; the remaining 5 s ran from t=30.
    assert_eq!(app.done_at, Some(t(35)));
}

#[test]
fn suspended_network_op_times_out_on_wake() {
    /// Screen-driven app that issues a slow net op, then the user leaves.
    struct SleepyNet {
        result: Option<(SimTime, NetResult)>,
    }
    impl AppModel for SleepyNet {
        fn name(&self) -> &str {
            "sleepy-net"
        }
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.network_op(50_000_000, 9); // ~25 s transfer
        }
        fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
            if let AppEvent::NetDone { token: 9, result } = event {
                self.result = Some((ctx.now(), result));
            }
        }
    }

    let mut env = Environment::new();
    env.user_present = Schedule::new(true);
    env.user_present.set_from(t(5), false);
    env.user_present.set_from(t(40), true);
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), env, 1);
    let id = k.add_app(Box::new(SleepyNet { result: None }));
    k.run_until(t(60));
    let app = k.app_model::<SleepyNet>(id).unwrap();
    assert_eq!(app.result, Some((t(40), NetResult::Timeout)));
}

#[test]
fn screen_wakelock_lights_screen_and_bills_holder() {
    struct ScreenHog;
    impl AppModel for ScreenHog {
        fn name(&self) -> &str {
            "screen-hog"
        }
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.acquire_screen_wakelock();
        }
        fn on_event(&mut self, _ctx: &mut AppCtx<'_>, _event: AppEvent) {}
    }
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    let app = k.add_app(Box::new(ScreenHog));
    k.run_until(t(10));
    assert!(k.is_screen_on());
    assert!(k.is_awake(), "screen implies awake");
    let e = k
        .meter()
        .component_energy_mj(app.consumer(), ComponentKind::Screen);
    let p = DeviceProfile::pixel_xl().power;
    assert!((e - 10.0 * p.screen_on_mw).abs() < 1e-6);
}

#[test]
fn identical_seeds_are_bit_identical() {
    let run = |seed: u64| {
        let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), seed);
        let a = k.add_app(Box::new(GpsOnce::new()));
        let b = k.add_app(Box::new(WorkOnce::new()));
        k.run_until(t(120));
        (
            k.meter().energy_mj(a.consumer()),
            k.meter().energy_mj(b.consumer()),
            k.meter().total_energy_mj(),
        )
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7).0, run(8).0, "different seeds perturb GPS timing");
}

#[test]
fn energy_is_conserved_across_a_busy_run() {
    let mut env = Environment::new();
    env.user_present = Schedule::new(true);
    env.user_present.set_from(t(30), false);
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), env, 3);
    k.add_app(Box::new(GpsOnce::new()));
    k.add_app(Box::new(WorkOnce::new()));
    k.add_app(Box::new(NetOnce::new()));
    k.run_until(t(90));
    let m = k.meter();
    assert!((m.total_energy_mj() - m.attributed_energy_mj()).abs() < 1e-6);
}

#[test]
fn profiler_integration_samples_every_minute() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.enable_profiler(SimDuration::from_secs(60));
    let app = k.add_app(Box::new(HoldForever::new()));
    k.run_until(t(300));
    let set = k.profile_of(app).expect("profile");
    let wl = set.get("wakelock_hold_s").expect("series");
    assert_eq!(wl.len(), 5);
    for v in wl.values() {
        assert!((v - 60.0).abs() < 1e-9, "held the whole minute, got {v}");
    }
}

#[test]
fn app_lookup_by_name() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    let id = k.add_app(Box::new(HoldForever::new()));
    assert_eq!(k.app_by_name("hold-forever"), Some(id));
    assert_eq!(k.app_by_name("nope"), None);
    assert_eq!(k.apps().count(), 1);
}

#[test]
fn two_wakelock_holders_split_the_idle_keepalive() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    let a = k.add_app(Box::new(HoldForever::new()));
    let b = k.add_app(Box::new(HoldForever::new()));
    k.run_until(t(100));
    let p = DeviceProfile::pixel_xl().power;
    let each = 100.0 * (p.cpu_idle_mw - p.cpu_deep_sleep_mw) / 2.0;
    for app in [a, b] {
        let e = k.meter().energy_mj(app.consumer());
        assert!((e - each).abs() < 1e-6, "{app}: expected {each}, got {e}");
    }
}

#[test]
fn screen_keeps_idle_delta_on_the_system_bill() {
    // When the user keeps the device awake, wakelock holders do not pay the
    // idle keep-alive — they are not the reason the CPU is up.
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), Environment::new(), 1);
    let app = k.add_app(Box::new(HoldForever::new()));
    k.run_until(t(100));
    assert_eq!(k.meter().energy_mj(app.consumer()), 0.0);
    let p = DeviceProfile::pixel_xl().power;
    let sys = k.meter().energy_mj(Consumer::System);
    let expect = 100.0 * (p.cpu_idle_mw + p.screen_on_mw);
    assert!((sys - expect).abs() < 1e-6, "expected {expect}, got {sys}");
}

#[test]
fn network_transfers_bill_wifi_active_to_the_transferring_app() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    let app = k.add_app(Box::new(NetOnce::new()));
    k.run_until(t(60));
    let wifi = k
        .meter()
        .component_energy_mj(app.consumer(), ComponentKind::Wifi);
    // The op lasts ~125–205 ms at 240 mW: tens of mJ, then the radio is off.
    assert!(wifi > 10.0 && wifi < 80.0, "got {wifi}");
}

/// One resource-acquiring call an app makes.
type Acquire = fn(&mut AppCtx<'_>);

/// Makes one acquire call at start the given number of times and holds
/// whatever it acquired.
struct Holds(Acquire, usize);

impl AppModel for Holds {
    fn name(&self) -> &str {
        "holds"
    }
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        for _ in 0..self.1 {
            (self.0)(ctx);
        }
    }
    fn on_event(&mut self, _ctx: &mut AppCtx<'_>, _event: AppEvent) {}
}

#[test]
fn every_shared_component_splits_its_draw_among_effective_holders() {
    let p = DeviceProfile::pixel_xl().power;
    let cases: [(&str, Acquire, ComponentKind, f64); 5] = [
        (
            "wakelock",
            |ctx| {
                ctx.acquire_wakelock();
            },
            ComponentKind::Cpu,
            p.cpu_idle_mw - p.cpu_deep_sleep_mw,
        ),
        (
            "screen wakelock",
            |ctx| {
                ctx.acquire_screen_wakelock();
            },
            ComponentKind::Screen,
            p.screen_on_mw,
        ),
        (
            "wifilock",
            |ctx| {
                ctx.acquire_wifilock();
            },
            ComponentKind::Wifi,
            p.wifi_idle_mw,
        ),
        (
            "sensor",
            |ctx| {
                ctx.register_sensor(d(1));
            },
            ComponentKind::Sensor,
            p.sensor_on_mw,
        ),
        (
            "audio",
            |ctx| {
                ctx.acquire_audio();
            },
            ComponentKind::Audio,
            p.audio_on_mw,
        ),
    ];
    for (name, acquire, comp, mw) in cases {
        let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
        // Holding two objects still makes one holder.
        let holders = [
            k.add_app(Box::new(Holds(acquire, 2))),
            k.add_app(Box::new(Holds(acquire, 1))),
        ];
        let bystander = k.add_app(Box::new(Holds(|_| {}, 0)));
        k.run_until(t(100));
        let each = 100.0 * mw / 2.0;
        for app in holders {
            let e = k.meter().component_energy_mj(app.consumer(), comp);
            assert!(
                (e - each).abs() < 1e-6,
                "{name}: {app} expected {each}, got {e}"
            );
        }
        let e = k.meter().energy_mj(bystander.consumer());
        assert_eq!(e, 0.0, "{name}: the bystander pays nothing");
    }
}

/// Holds a wakelock and keeps one transfer on the air for ~500 s.
struct LongTransfer;

impl AppModel for LongTransfer {
    fn name(&self) -> &str {
        "long-transfer"
    }
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.acquire_wakelock();
        ctx.network_op(1_000_000_000, 1);
    }
    fn on_event(&mut self, _ctx: &mut AppCtx<'_>, _event: AppEvent) {}
}

#[test]
fn concurrent_transfers_share_wifi_active_and_a_wifilock_holder_pays_nothing() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    let senders = [
        k.add_app(Box::new(LongTransfer)),
        k.add_app(Box::new(LongTransfer)),
    ];
    let locker = k.add_app(Box::new(Holds(
        |ctx| {
            ctx.acquire_wifilock();
        },
        1,
    )));
    k.run_until(t(100));
    let each = 100.0 * DeviceProfile::pixel_xl().power.wifi_active_mw / 2.0;
    for app in senders {
        let e = k
            .meter()
            .component_energy_mj(app.consumer(), ComponentKind::Wifi);
        assert!((e - each).abs() < 1e-6, "{app}: expected {each}, got {e}");
    }
    let e = k
        .meter()
        .component_energy_mj(locker.consumer(), ComponentKind::Wifi);
    assert_eq!(e, 0.0, "transfers keep the radio up, not the wifilock");
}

#[test]
fn an_app_added_mid_run_is_billed_from_its_start() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    let first = k.add_app(Box::new(HoldForever::new()));
    k.run_until(t(100));
    let second = k.add_app(Box::new(HoldForever::new()));
    k.run_until(t(200));
    let p = DeviceProfile::pixel_xl().power;
    let delta = p.cpu_idle_mw - p.cpu_deep_sleep_mw;
    // Alone for 100 s, then half the keep-alive for 100 s.
    for (app, secs) in [(first, 150.0), (second, 50.0)] {
        let want = secs * delta;
        let e = k.meter().energy_mj(app.consumer());
        assert!((e - want).abs() < 1e-6, "{app}: expected {want}, got {e}");
    }
    assert!(k.audit().is_empty(), "{:?}", k.audit());
}

#[test]
fn weak_gps_signal_cycles_between_search_and_fix() {
    let mut env = background_env();
    env.gps_signal = Schedule::new(leaseos_simkit::GpsSignal::Weak);
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), env, 23);
    let app = k.add_app(Box::new(GpsOnce::new()));
    k.run_until(SimTime::from_mins(60));
    let (_, o) = k.ledger().objects_of(app).next().unwrap();
    let end = SimTime::from_mins(60);
    assert!(
        o.fix_count >= 2,
        "weak signal re-acquires fixes: {}",
        o.fix_count
    );
    assert!(
        o.searching_time(end).as_secs() > 30,
        "long acquisition under weak signal"
    );
    assert!(o.fixed_time(end).as_secs() > 30, "but fixes do land");
    let total = o.searching_time(end) + o.fixed_time(end);
    assert!(total <= SimDuration::from_mins(60) + SimDuration::from_secs(1));
}

#[test]
fn gps_signal_loss_mid_run_drops_the_fix() {
    let mut env = background_env();
    // Good signal for 2 minutes, then the user walks into a basement.
    env.gps_signal
        .set_from(t(120), leaseos_simkit::GpsSignal::None);
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), env, 23);
    let app = k.add_app(Box::new(GpsOnce::new()));
    k.run_until(SimTime::from_mins(10));
    let (_, o) = k.ledger().objects_of(app).next().unwrap();
    let end = SimTime::from_mins(10);
    assert!(o.fixed_time(end) < SimDuration::from_secs(125));
    assert!(
        o.searching_time(end) > SimDuration::from_mins(7),
        "searching ever since the signal vanished: {}",
        o.searching_time(end)
    );
    // Deliveries stopped when the fix was lost.
    let fixes = k.app_model::<GpsOnce>(app).unwrap().fixes;
    assert!(fixes < 125, "got {fixes}");
}

#[test]
fn profiler_tracks_each_app_separately() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.enable_profiler(SimDuration::from_secs(60));
    let holder = k.add_app(Box::new(HoldForever::new()));
    let idle = k.add_app(Box::new(GpsOnce::new()));
    k.run_until(t(300));
    let hold_set = k.profile_of(holder).unwrap();
    let idle_set = k.profile_of(idle).unwrap();
    let hold_series = hold_set.get("wakelock_hold_s").unwrap();
    let idle_series = idle_set.get("wakelock_hold_s").unwrap();
    assert!(hold_series.values().all(|v| v > 59.0));
    assert!(idle_series.values().all(|v| v == 0.0));
}

#[test]
fn stopping_an_app_releases_everything_it_held() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    let holder = k.add_app(Box::new(HoldForever::new()));
    let gps = k.add_app(Box::new(GpsOnce::new()));
    k.run_until(t(60));
    assert!(k.is_awake());
    k.stop_app(holder);
    assert!(k.is_app_stopped(holder));
    assert!(!k.is_app_stopped(gps));
    // The leaked wakelock died with its owner: the device sleeps.
    assert!(!k.is_awake());
    for (_, o) in k.ledger().all_objects().filter(|(_, o)| o.owner == holder) {
        assert!(o.dead);
    }
    // Energy accounting stops for the dead app.
    let before = k.meter().energy_mj(holder.consumer());
    k.run_until(t(300));
    assert_eq!(k.meter().energy_mj(holder.consumer()), before);
    // The survivor keeps running.
    assert!(k.app_model::<GpsOnce>(gps).unwrap().fixes > 0);
}

#[test]
fn stopped_apps_receive_no_further_events() {
    struct Suicidal {
        events_after_stop: u32,
        stopped: bool,
    }
    impl AppModel for Suicidal {
        fn name(&self) -> &str {
            "suicidal"
        }
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.acquire_wakelock();
            ctx.schedule_alarm(d(5), 1);
            ctx.schedule_alarm(d(10), 2);
        }
        fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
            if self.stopped {
                self.events_after_stop += 1;
            }
            if let AppEvent::Timer(1) = event {
                self.stopped = true;
                ctx.stop_self();
            }
        }
    }
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    let id = k.add_app(Box::new(Suicidal {
        events_after_stop: 0,
        stopped: false,
    }));
    k.run_until(t(60));
    let app = k.app_model::<Suicidal>(id).unwrap();
    assert!(app.stopped);
    assert_eq!(app.events_after_stop, 0, "the t=10 alarm was dropped");
}

#[test]
fn stop_app_cancels_in_flight_work_and_io() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    let id = k.add_app(Box::new(NetOnce::new()));
    // Stop before the network op completes (latency ≥ 120 ms).
    k.run_until(SimTime::from_millis(50));
    k.stop_app(id);
    k.run_until(t(60));
    assert_eq!(k.app_model::<NetOnce>(id).unwrap().result, None);
}

#[test]
fn telemetry_records_lifecycle_when_sink_attached() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    let ring = Rc::new(RefCell::new(RingBufferSink::new(4096)));
    k.telemetry().attach(ring.clone());
    k.add_app(Box::new(WorkOnce::new()));
    k.run_until(t(30));
    let ring = ring.borrow();
    let lines: Vec<String> = ring.events().map(|e| e.to_string()).collect();
    assert!(lines.iter().any(|w| w.contains("acquires wakelock")));
    assert!(lines.iter().any(|w| w.contains("releases")));
    assert!(lines.iter().any(|w| w.contains("deep_sleep")));
    // Events are chronological.
    let mut last = SimTime::ZERO;
    for e in ring.events() {
        assert!(e.at() >= last);
        last = e.at();
    }
}

#[test]
fn telemetry_counters_run_even_without_sinks() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    // Periodic audits attach an internal lease-legality sink; disable them
    // to exercise the zero-sink fast path the overhead bench relies on.
    k.set_audit_interval(None);
    k.add_app(Box::new(WorkOnce::new()));
    k.run_until(t(30));
    assert!(!k.telemetry().is_active(), "no sinks attached");
    assert!(k.telemetry().count(EventKind::ServiceAcquire) >= 1);
    assert!(k.telemetry().count(EventKind::PolicyOp) >= 2);
}

#[test]
fn periodic_audits_attach_internal_lease_replay() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.set_audit_interval(Some(64));
    k.add_app(Box::new(WorkOnce::new()));
    k.run_until(t(30));
    assert!(
        k.telemetry().is_active(),
        "audits attach a lease-legality replay sink"
    );
    assert!(k.audit().is_empty(), "{:?}", k.audit());
}

// ---- fault injection & runtime audits ----------------------------------

fn one_fault(at: SimTime, kind: FaultKind) -> FaultPlan {
    FaultPlan::scripted(vec![ScheduledFault { at, kind }])
}

#[test]
fn app_crash_fault_stops_and_restarts_the_app() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.install_fault_plan(&one_fault(t(10), FaultKind::AppCrash));
    let app = k.add_app(Box::new(HoldForever::new()));
    k.run_until(t(20));
    assert!(k.is_app_stopped(app), "crashed at t=10, restart pending");
    assert!(!k.is_awake(), "the leaked wakelock died with the process");
    k.run_until(t(60));
    assert!(!k.is_app_stopped(app), "restarted 30 s after the crash");
    assert!(k.is_awake(), "the new incarnation re-acquired its lock");
    assert_eq!(k.telemetry().count(EventKind::FaultInjected), 1);
    assert!(k.audit().is_empty(), "{:?}", k.audit());
}

#[test]
fn object_leak_fault_kills_the_object_without_a_release() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.install_fault_plan(&one_fault(t(10), FaultKind::ObjectLeak));
    let app = k.add_app(Box::new(HoldForever::new()));
    k.run_until(t(30));
    assert!(!k.is_app_stopped(app), "only the object died, not the app");
    assert!(!k.is_awake(), "the sole wakelock is dead");
    let (_, o) = k
        .ledger()
        .all_objects()
        .find(|(_, o)| o.owner == app)
        .unwrap();
    assert!(o.dead && !o.held);
    // The death notification reached the policy and the telemetry bus.
    assert_eq!(k.telemetry().count(EventKind::ObjectDead), 1);
}

#[test]
fn listener_failure_records_a_severe_exception_against_the_owner() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 42);
    k.install_fault_plan(&one_fault(t(30), FaultKind::ListenerFailure));
    let app = k.add_app(Box::new(GpsOnce::new()));
    k.run_until(t(60));
    assert_eq!(k.ledger().app_opt(app).unwrap().exceptions, 1);
    // The callback threw but the registration survives.
    let (_, o) = k.ledger().objects_of(app).next().unwrap();
    assert!(!o.dead);
}

#[test]
fn service_exception_fault_lands_on_the_next_service_call() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    // WorkOnce acquires at t=0 and releases at t=5; the fault arrives in
    // between, is swallowed (§4.6 transparency), and surfaces as a recorded
    // exception only at the release IPC.
    k.install_fault_plan(&one_fault(t(2), FaultKind::ServiceException));
    let app = k.add_app(Box::new(WorkOnce::new()));
    k.run_until(t(3));
    assert_eq!(k.ledger().app_opt(app).map_or(0, |a| a.exceptions), 0);
    k.run_until(t(30));
    assert_eq!(k.ledger().app_opt(app).map_or(0, |a| a.exceptions), 1);
}

#[test]
fn fault_with_no_eligible_target_is_skipped() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    // No GPS/sensor object ever exists, so the listener fault has no target.
    k.install_fault_plan(&one_fault(t(10), FaultKind::ListenerFailure));
    let app = k.add_app(Box::new(HoldForever::new()));
    k.run_until(t(30));
    assert_eq!(k.telemetry().count(EventKind::FaultInjected), 0);
    assert_eq!(k.ledger().app_opt(app).map_or(0, |a| a.exceptions), 0);
}

#[test]
fn timers_from_a_crashed_incarnation_never_reach_the_restart() {
    /// First incarnation schedules an alarm for t=50 and crashes at t=10;
    /// the restart (t=40) schedules its own alarm for t=45.
    struct Reborn {
        incarnations: u32,
        stale_fired: u32,
        fresh_fired: u32,
    }
    impl AppModel for Reborn {
        fn name(&self) -> &str {
            "reborn"
        }
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            self.incarnations += 1;
            if self.incarnations == 1 {
                ctx.schedule_alarm(d(50), 1);
            } else {
                ctx.schedule_alarm(d(5), 2);
            }
        }
        fn on_event(&mut self, _ctx: &mut AppCtx<'_>, event: AppEvent) {
            match event {
                AppEvent::Timer(1) => self.stale_fired += 1,
                AppEvent::Timer(2) => self.fresh_fired += 1,
                _ => {}
            }
        }
    }
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.install_fault_plan(&one_fault(t(10), FaultKind::AppCrash));
    let id = k.add_app(Box::new(Reborn {
        incarnations: 0,
        stale_fired: 0,
        fresh_fired: 0,
    }));
    k.run_until(t(120));
    let app = k.app_model::<Reborn>(id).unwrap();
    assert_eq!(app.incarnations, 2);
    assert_eq!(app.fresh_fired, 1, "the restart's own alarm fires");
    assert_eq!(
        app.stale_fired, 0,
        "the dead incarnation's alarm must not leak across the restart"
    );
}

#[test]
fn fault_runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), seed);
        let plan = FaultPlan::generate(seed, SimDuration::from_mins(30), &FaultSpec::all());
        k.install_fault_plan(&plan);
        let a = k.add_app(Box::new(GpsOnce::new()));
        let b = k.add_app(Box::new(HoldForever::new()));
        k.run_until(SimTime::from_mins(30));
        (
            k.meter().energy_mj(a.consumer()),
            k.meter().energy_mj(b.consumer()),
            k.meter().total_energy_mj(),
            k.telemetry().count(EventKind::FaultInjected),
        )
    };
    assert_eq!(run(7), run(7));
}

#[test]
fn audits_stay_clean_across_a_faulty_run() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 5);
    let plan = FaultPlan::generate(
        5,
        SimDuration::from_mins(30),
        &FaultSpec::all().with_mean_interval(SimDuration::from_mins(2)),
    );
    k.install_fault_plan(&plan);
    k.set_audit_interval(Some(16));
    k.add_app(Box::new(GpsOnce::new()));
    k.add_app(Box::new(WorkOnce::new()));
    k.add_app(Box::new(HoldForever::new()));
    k.run_until(SimTime::from_mins(30));
    assert!(k.audit().is_empty(), "{:?}", k.audit());
}

#[test]
#[should_panic(expected = "before the first run_until")]
fn fault_plan_after_start_is_rejected() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.run_until(t(1));
    k.install_fault_plan(&FaultPlan::none());
}

/// Re-issues a network op every 5 s and tallies outcomes — the minimal
/// K-9-shaped poller for observing an injected outage.
struct NetPoller {
    ok: u32,
    failed: u32,
}

impl AppModel for NetPoller {
    fn name(&self) -> &str {
        "net-poller"
    }
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.acquire_wakelock();
        ctx.network_op(1_000, 1);
    }
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        match event {
            AppEvent::NetDone { token: 1, result } => {
                if result.is_err() {
                    self.failed += 1;
                } else {
                    self.ok += 1;
                }
                ctx.schedule(d(5), 1);
            }
            AppEvent::Timer(1) => ctx.network_op(1_000, 1),
            _ => {}
        }
    }
}

#[test]
fn network_drop_fault_flips_the_signal_and_apps_react() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.install_fault_plan(&one_fault(t(60), FaultKind::NetworkDrop));
    let app = k.add_app(Box::new(NetPoller { ok: 0, failed: 0 }));
    k.run_until(t(59));
    let before_outage = k.app_model::<NetPoller>(app).unwrap().ok;
    assert!(before_outage > 5, "healthy polling before the drop");
    assert_eq!(k.app_model::<NetPoller>(app).unwrap().failed, 0);
    // The outage is bounded (≤ 3 min), so by t=6 min the script resumed.
    k.run_until(t(360));
    let m = k.app_model::<NetPoller>(app).unwrap();
    assert!(
        m.failed > 0,
        "polls during the outage see real Disconnected results"
    );
    assert!(
        m.ok > before_outage,
        "the signal recovers and polling succeeds again"
    );
    assert_eq!(k.telemetry().count(EventKind::FaultInjected), 1);
    let stats = k.ledger().app_opt(app).unwrap();
    assert_eq!(
        stats.net_failures, m.failed as u64,
        "kernel billed the failures"
    );
    assert!(k.audit().is_empty(), "{:?}", k.audit());
}

#[test]
fn network_drop_while_already_down_is_skipped() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), Environment::disconnected(), 1);
    k.install_fault_plan(&one_fault(t(10), FaultKind::NetworkDrop));
    k.add_app(Box::new(NetPoller { ok: 0, failed: 0 }));
    k.run_until(t(30));
    assert_eq!(
        k.telemetry().count(EventKind::FaultInjected),
        0,
        "a drop with the signal already down has no eligible target"
    );
}

/// Ticks every second; the tick count is transient, the lifetime count is
/// "persisted" by its on_restart override.
struct SplitState {
    ticks: u32,
    lifetime: u32,
}

impl AppModel for SplitState {
    fn name(&self) -> &str {
        "split-state"
    }
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.acquire_wakelock();
        ctx.schedule(d(1), 1);
    }
    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        if let AppEvent::Timer(1) = event {
            self.ticks += 1;
            self.lifetime += 1;
            ctx.schedule(d(1), 1);
        }
    }
    fn on_restart(&mut self, cold: bool) {
        if cold {
            self.ticks = 0;
        }
    }
}

#[test]
fn cold_restart_loses_transient_state_and_warm_restart_keeps_it() {
    let run = |cold: bool| {
        let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
        k.set_cold_restart(cold);
        k.install_fault_plan(&one_fault(t(30), FaultKind::AppCrash));
        let app = k.add_app(Box::new(SplitState {
            ticks: 0,
            lifetime: 0,
        }));
        // Crash at t=30, restart at t=60, observe at t=90.
        k.run_until(t(90));
        let m = k.app_model::<SplitState>(app).unwrap();
        (m.ticks, m.lifetime)
    };
    let (cold_ticks, cold_lifetime) = run(true);
    assert!(
        cold_ticks < cold_lifetime,
        "cold restart reset the transient half ({cold_ticks} < {cold_lifetime})"
    );
    assert!(cold_ticks > 0, "the new incarnation ticks again");
    let (warm_ticks, warm_lifetime) = run(false);
    assert_eq!(
        warm_ticks, warm_lifetime,
        "warm restart keeps the whole process image"
    );
    assert_eq!(
        cold_lifetime, warm_lifetime,
        "the persistent half is identical either way"
    );
}

#[test]
fn policy_overhead_accrues_per_op() {
    struct CostlyVanilla;
    impl ResourcePolicy for CostlyVanilla {
        fn name(&self) -> &'static str {
            "costly"
        }
        fn overhead(&self) -> PolicyOverhead {
            PolicyOverhead { per_op_cpu_ms: 1.0 }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }
    let mut k = Kernel::new(
        DeviceProfile::pixel_xl(),
        background_env(),
        Box::new(CostlyVanilla),
        1,
    );
    k.add_app(Box::new(WorkOnce::new()));
    k.run_until(t(30));
    let ops = k.telemetry().count(EventKind::PolicyOp);
    assert!(ops >= 2, "acquire + release at least");
    let expect = ops as f64 * 1.0 / 1_000.0 * 1_050.0;
    assert!((k.policy_overhead_mj() - expect).abs() < 1e-9);
}

// ---- causal spans, attribution, battery cross-check ---------------------

#[test]
fn tracing_spans_conserve_meter_energy() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.enable_tracing();
    k.add_app(Box::new(HoldForever::new()));
    k.add_app(Box::new(WorkOnce::new()));
    k.run_until(SimTime::from_mins(30));
    let spans = k.tracing().expect("tracing enabled");
    let span_total = spans.total_energy_mj();
    // Spans conserve the *reported* total: metered draw plus the modeled
    // per-op policy overhead (zero for the vanilla policy).
    let meter_total = k.meter().total_energy_mj() + k.policy_overhead_mj();
    assert!(
        (span_total - meter_total).abs() <= 1e-3,
        "span sum {span_total} vs meter {meter_total}"
    );
    let split = spans.total_useful_mj() + spans.total_wasted_mj();
    assert!((split - span_total).abs() <= 1e-9);
}

#[test]
fn tracing_blames_a_leaked_wakelock_span_for_the_waste() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.enable_tracing();
    k.add_app(Box::new(HoldForever::new()));
    k.run_until(SimTime::from_mins(30));
    let spans = k.tracing().expect("tracing enabled");
    let total_wasted = spans.total_wasted_mj();
    assert!(total_wasted > 0.0, "an idle held wakelock wastes energy");
    let worst = spans
        .spans()
        .filter(|s| matches!(s.scope(), SpanScope::Obj(_)))
        .map(|s| s.wasted_mj())
        .fold(0.0_f64, f64::max);
    assert!(
        worst >= 0.9 * total_wasted,
        "the leaked lock's span carries the blame: {worst} of {total_wasted}"
    );
    // The span records its policy history too.
    let obj_span = spans
        .spans()
        .find(|s| matches!(s.scope(), SpanScope::Obj(_)))
        .expect("object span");
    assert!(obj_span.note_counts().any(|(label, _)| label == "hook"));
    assert!(obj_span.note_counts().any(|(label, _)| label == "acquire"));
    assert!(obj_span.is_open(), "never released");
}

#[test]
fn exec_spans_carry_cpu_burst_energy_as_useful() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.enable_tracing();
    let app = k.add_app(Box::new(WorkOnce::new()));
    k.run_until(SimTime::from_mins(5));
    let spans = k.tracing().expect("tracing enabled");
    let exec = spans.span(SpanScope::App(app.0)).expect("exec span");
    // 5 s at the active-idle CPU delta (1050 - 32 mW).
    let expect = 5.0 * (1_050.0 - 32.0);
    assert!(
        (exec.useful_mj() - expect).abs() < 1.0,
        "burst energy {} vs {expect}",
        exec.useful_mj()
    );
    assert_eq!(exec.wasted_mj(), 0.0);
}

#[test]
fn battery_drains_in_step_with_the_meter() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.add_app(Box::new(HoldForever::new()));
    k.run_until(SimTime::from_mins(30));
    assert!(k.audit().is_empty(), "{:?}", k.audit());
    let drained_mj = (k.battery().capacity_mwh() - k.battery().remaining_mwh()) * 3_600.0;
    let total = k.meter().total_energy_mj();
    assert!(total > 0.0);
    assert!(
        (drained_mj - total).abs() <= 1e-3 + 1e-9 * total,
        "battery {drained_mj} vs meter {total}"
    );
}

#[test]
fn attribution_and_span_summaries_are_emitted() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.enable_tracing();
    let ring = Rc::new(RefCell::new(RingBufferSink::new(65_536)));
    k.telemetry().attach(ring.clone());
    k.add_app(Box::new(HoldForever::new()));
    k.run_until(SimTime::from_mins(5));
    assert!(k.telemetry().count(EventKind::Attribution) >= 1);
    assert!(k.telemetry().count(EventKind::SpanSummary) >= 1);
    let ring = ring.borrow();
    // Acquire-path policy hooks are annotated with the object they concern.
    let hooked = ring.events().any(|e| {
        matches!(
            e,
            leaseos_simkit::TelemetryEvent::PolicyOp { obj, .. } if *obj != 0
        )
    });
    assert!(hooked, "on_acquire carries its object id");
    // Wasted energy shows up in the attribution rows.
    let wasted = ring
        .events()
        .filter_map(|e| match e {
            leaseos_simkit::TelemetryEvent::Attribution { wasted_mj, .. } => Some(*wasted_mj),
            _ => None,
        })
        .fold(0.0_f64, f64::max);
    assert!(wasted > 0.0, "HoldForever wastes visibly");
}

#[test]
#[should_panic(expected = "enable tracing before the first run_until")]
fn tracing_after_start_is_rejected() {
    let mut k = Kernel::vanilla(DeviceProfile::pixel_xl(), background_env(), 1);
    k.run_until(t(1));
    k.enable_tracing();
}
