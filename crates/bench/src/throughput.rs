//! The kernel workload `leaseos-perf`'s `kernel_churn` arm times.
//!
//! **churn-heavy** — apps that acquire, work, and close wakelock + GPS
//! objects several times a second: object tables grow, runtimes install and
//! tear down, and every acquire re-walks the holder sets. The workload's
//! seed-42 digest is pinned in `leaseos-perf`, so its kernel must stay
//! byte-identical.

use leaseos_framework::{AppCtx, AppEvent, AppModel, Kernel, ObjId, Token};
use leaseos_simkit::{DeviceProfile, Environment, SimDuration};

use crate::PolicyKind;

/// One kernel workload shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Rapid acquire/work/close object churn.
    ChurnHeavy,
}

impl Workload {
    /// Builds the workload's kernel, ready to run. Deterministic for a
    /// fixed seed; the measured run is `kernel.run_until(end)`.
    pub fn build(self, seed: u64) -> Kernel {
        match self {
            Workload::ChurnHeavy => {
                let mut kernel = Kernel::new(
                    DeviceProfile::pixel_xl(),
                    Environment::new(),
                    PolicyKind::Vanilla.build(),
                    seed,
                );
                for _ in 0..16 {
                    kernel.add_app(Box::new(ChurnApp::default()));
                }
                kernel
            }
        }
    }
}

/// Object churner: every 200 ms it closes last tick's wakelock and GPS
/// request, acquires fresh ones, and issues a short CPU burst — the
/// create/kill path and the holder-set rebuilds dominate.
#[derive(Default)]
struct ChurnApp {
    wakelock: Option<ObjId>,
    gps: Option<ObjId>,
    tick: Token,
}

impl AppModel for ChurnApp {
    fn name(&self) -> &str {
        "churn"
    }

    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        ctx.set_activity_alive(true);
        ctx.schedule(SimDuration::from_millis(200), 0);
    }

    fn on_event(&mut self, ctx: &mut AppCtx<'_>, event: AppEvent) {
        if let AppEvent::Timer(0) = event {
            if let Some(obj) = self.wakelock.take() {
                ctx.close(obj);
            }
            if let Some(obj) = self.gps.take() {
                ctx.close(obj);
            }
            self.wakelock = Some(ctx.acquire_wakelock());
            self.gps = Some(ctx.request_gps(SimDuration::from_secs(1)));
            self.tick += 1;
            ctx.do_work(SimDuration::from_millis(5), 1_000 + self.tick);
            ctx.schedule(SimDuration::from_millis(200), 0);
        }
    }
}
