//! Declarative scenario matrix + parallel runner.
//!
//! Every experiment runs the same loop: build a kernel for some
//! (app × policy × device × environment × seed) combination, simulate for a
//! fixed duration, and extract a few numbers. [`ScenarioSpec`] makes that
//! combination a value, [`Matrix`] enumerates the cross product, and
//! [`ScenarioRunner`] executes a batch of specs across worker threads.
//!
//! Determinism: every scenario owns its kernel and its seed, so results
//! depend only on the spec — never on thread count or completion order. The
//! runner returns results in spec order regardless of which worker finished
//! first, which is what lets `repro table5 --threads 8` print byte-identical
//! output to the sequential run.
//!
//! The runner is scoped to one batch and is the crate's only pool of
//! workers. The resident daemon ([`crate::daemon`]) receives work one
//! request at a time, so it keeps no workers: each connection thread runs
//! its own request, and a permit gate caps how many run at once.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use leaseos_apps::normal::{Haven, RunKeeper, Spotify};
use leaseos_framework::{AppId, AppModel, Kernel, ResourcePolicy};
use leaseos_simkit::{DeviceProfile, Environment, MetricsRegistry, Schedule, SimDuration, SimTime};

/// Shareable app-model factory.
pub type AppBuilder = Arc<dyn Fn() -> Box<dyn AppModel> + Send + Sync>;
/// Shareable environment factory.
pub type EnvBuilder = Arc<dyn Fn() -> Environment + Send + Sync>;
/// Shareable policy factory (an `Arc` closure so sweeps can capture
/// parameters like the LHB threshold).
pub type PolicyBuilder = Arc<dyn Fn() -> Box<dyn ResourcePolicy> + Send + Sync>;

/// One cell of an experiment matrix: everything needed to build and run a
/// kernel, as data.
#[derive(Clone)]
pub struct ScenarioSpec {
    /// Human-readable identifier ("K-9 Mail/leaseos/Pixel XL/42").
    pub label: String,
    /// Builds the app under test.
    pub app: AppBuilder,
    /// Builds the resource policy.
    pub policy: PolicyBuilder,
    /// The simulated phone.
    pub device: DeviceProfile,
    /// Builds the scripted environment.
    pub env: EnvBuilder,
    /// Kernel RNG seed.
    pub seed: u64,
    /// Simulated duration.
    pub length: SimDuration,
}

impl std::fmt::Debug for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioSpec")
            .field("label", &self.label)
            .field("device", &self.device.name)
            .field("seed", &self.seed)
            .field("length", &self.length)
            .finish_non_exhaustive()
    }
}

/// A completed scenario: the kernel after `run_until(end)` plus the ids
/// needed to read results out of it.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The kernel, stopped at `end`.
    pub kernel: Kernel,
    /// The app the spec installed.
    pub app: AppId,
    /// The instant the run stopped.
    pub end: SimTime,
    /// The simulated duration.
    pub length: SimDuration,
}

impl ScenarioRun {
    /// Average power attributed to the app over the run, mW.
    pub fn app_power_mw(&self) -> f64 {
        self.kernel.avg_app_power_mw(self.app, self.length)
    }

    /// Average system-wide power including modeled policy overhead, mW.
    pub fn system_power_mw(&self) -> f64 {
        system_power_mw(&self.kernel, self.length)
    }
}

/// Average system-wide power over the first `length` of the kernel's run,
/// including the policy's modeled overhead, mW.
///
/// Returns zero for an empty window, as [`leaseos_simkit::EnergyMeter`]'s
/// averages do: overhead over zero seconds is `inf` or `NaN`, and neither
/// is JSON.
pub(crate) fn system_power_mw(kernel: &Kernel, length: SimDuration) -> f64 {
    if length.is_zero() {
        return 0.0;
    }
    kernel.meter().avg_total_power_mw(length) + kernel.policy_overhead_mj() / length.as_secs_f64()
}

/// The three §7.4 legitimate heavy apps as (name, app, environment):
/// RunKeeper tracking a run (the user is in motion), Spotify streaming and
/// Haven monitoring, both unattended.
pub(crate) fn normal_apps() -> [(&'static str, AppBuilder, EnvBuilder); 3] {
    [
        (
            "RunKeeper",
            Arc::new(|| Box::new(RunKeeper::new()) as Box<dyn AppModel>),
            Arc::new(|| {
                let mut env = Environment::unattended();
                env.in_motion = Schedule::new(true);
                env
            }),
        ),
        (
            "Spotify",
            Arc::new(|| Box::new(Spotify::new()) as Box<dyn AppModel>),
            Arc::new(Environment::unattended),
        ),
        (
            "Haven",
            Arc::new(|| Box::new(Haven::new()) as Box<dyn AppModel>),
            Arc::new(Environment::unattended),
        ),
    ]
}

impl ScenarioSpec {
    /// Canonical, stable text form of everything that identifies this cell:
    /// the label (which by harness convention encodes the app, policy, and
    /// any swept parameter), the device and its power-relevant scalars, the
    /// seed, and the run length.
    ///
    /// The app/policy/environment *builders* are closures and cannot be
    /// hashed — their identity must be captured in the label. Every harness
    /// binary that caches results follows that convention, so two specs
    /// with equal fingerprints run byte-identical scenarios.
    pub fn fingerprint(&self) -> String {
        format!(
            "spec:v1;label={};device={};battery_mah={};voltage={};cpu_speed={};\
             ipc_ms={};seed={};len_ms={}",
            self.label,
            self.device.name,
            self.device.battery_mah,
            self.device.battery_voltage,
            self.device.cpu_speed,
            self.device.ipc_latency.as_millis(),
            self.seed,
            self.length.as_millis()
        )
    }

    /// Builds the kernel, installs the app, and simulates to the end.
    pub fn execute(&self) -> ScenarioRun {
        self.execute_with(|_| {})
    }

    /// Like [`execute`](Self::execute), but calls `configure` on the fresh
    /// kernel before the run — the hook for attaching telemetry sinks.
    pub fn execute_with(&self, configure: impl FnOnce(&mut Kernel)) -> ScenarioRun {
        let mut kernel = Kernel::new(
            self.device.clone(),
            (self.env)(),
            (self.policy)(),
            self.seed,
        );
        configure(&mut kernel);
        let app = kernel.add_app((self.app)());
        let end = SimTime::ZERO + self.length;
        kernel.run_until(end);
        ScenarioRun {
            kernel,
            app,
            end,
            length: self.length,
        }
    }
}

/// Declarative (app × policy × device × seed) cross product.
///
/// Specs are emitted in row-major order — apps outermost, then policies,
/// devices, seeds — so callers can index results with simple arithmetic.
pub struct Matrix {
    apps: Vec<(String, AppBuilder, EnvBuilder)>,
    policies: Vec<(String, PolicyBuilder)>,
    devices: Vec<DeviceProfile>,
    seeds: Vec<u64>,
    length: SimDuration,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Matrix")
            .field("apps", &self.apps.len())
            .field("policies", &self.policies.len())
            .field("devices", &self.devices.len())
            .field("seeds", &self.seeds)
            .finish_non_exhaustive()
    }
}

impl Matrix {
    /// An empty matrix with the standard 30-minute run, Pixel XL, seed 42.
    pub fn new(length: SimDuration) -> Self {
        Matrix {
            apps: Vec::new(),
            policies: Vec::new(),
            devices: vec![DeviceProfile::pixel_xl()],
            seeds: vec![42],
            length,
        }
    }

    /// Adds an app (with its trigger environment) as a matrix row.
    pub fn app(mut self, name: impl Into<String>, app: AppBuilder, env: EnvBuilder) -> Self {
        self.apps.push((name.into(), app, env));
        self
    }

    /// Adds a policy column.
    pub fn policy(mut self, name: impl Into<String>, build: PolicyBuilder) -> Self {
        self.policies.push((name.into(), build));
        self
    }

    /// Replaces the device axis (default: Pixel XL only).
    pub fn devices(mut self, devices: Vec<DeviceProfile>) -> Self {
        self.devices = devices;
        self
    }

    /// Replaces the seed axis (default: the single committed seed 42).
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Enumerates every combination, row-major.
    pub fn specs(&self) -> Vec<ScenarioSpec> {
        let mut specs = Vec::with_capacity(
            self.apps.len() * self.policies.len() * self.devices.len() * self.seeds.len(),
        );
        for (app_name, app, env) in &self.apps {
            for (policy_name, policy) in &self.policies {
                for device in &self.devices {
                    for &seed in &self.seeds {
                        specs.push(ScenarioSpec {
                            label: format!("{app_name}/{policy_name}/{}/{seed}", device.name),
                            app: app.clone(),
                            policy: policy.clone(),
                            device: device.clone(),
                            env: env.clone(),
                            seed,
                            length: self.length,
                        });
                    }
                }
            }
        }
        specs
    }
}

/// Parses a `LEASEOS_BENCH_THREADS`-style worker count: a non-negative
/// integer, where `0` means "auto" (available parallelism).
pub fn parse_thread_count(raw: &str) -> Result<usize, String> {
    raw.trim()
        .parse::<usize>()
        .map_err(|e| format!("not a thread count: {e}"))
}

/// A worker count where `0` means "auto": the machine's available
/// parallelism.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Runs batches of scenarios across worker threads.
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    threads: usize,
    /// Process-level registry for wall-clock metrics (cells completed,
    /// per-cell wall time, thread utilization). These are deliberately
    /// *not* sim-deterministic, which is why they live in the harness
    /// binaries' registry rather than the kernel's.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for ScenarioRunner {
    fn default() -> Self {
        ScenarioRunner::new()
    }
}

impl ScenarioRunner {
    /// A runner sized from `LEASEOS_BENCH_THREADS` if set, else the
    /// machine's available parallelism. A value that fails to parse is
    /// *warned about*, not silently swallowed, and `0` means "auto".
    pub fn new() -> Self {
        let threads = match std::env::var("LEASEOS_BENCH_THREADS") {
            Ok(raw) => match parse_thread_count(&raw) {
                Ok(n) => n,
                Err(why) => {
                    eprintln!(
                        "warning: ignoring LEASEOS_BENCH_THREADS={raw:?} ({why}); \
                         using available parallelism"
                    );
                    0
                }
            },
            Err(_) => 0,
        };
        ScenarioRunner::with_threads(threads)
    }

    /// A runner with an explicit worker count; `0` selects the machine's
    /// available parallelism.
    pub fn with_threads(threads: usize) -> Self {
        ScenarioRunner {
            threads: resolve_threads(threads),
            metrics: None,
        }
    }

    /// Attaches a metrics registry: every batch then records
    /// `harness_cells_total`, a `harness_cell_wall_ms` histogram, and the
    /// `harness_threads` / `harness_thread_utilization` gauges.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `measure` once per spec and returns the results **in spec
    /// order**, independent of scheduling.
    ///
    /// Workers pull the next unclaimed index from a shared atomic counter
    /// (cheap work stealing — scenario runtimes vary by an order of
    /// magnitude between a sleepy tracker and a busy-loop bug), build the
    /// kernel inside the worker, and write into that index's result slot.
    pub fn run<T, F>(&self, specs: &[ScenarioSpec], measure: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &ScenarioSpec) -> T + Send + Sync,
    {
        self.run_tasks(specs.len(), |i| measure(i, &specs[i]))
    }

    /// The generic core of [`run`](Self::run): executes `task(i)` for every
    /// `i in 0..count` across the workers and returns the results **in
    /// index order**, independent of scheduling. Work that is not shaped
    /// like a [`ScenarioSpec`] — fleet cohorts, merge shards — parallelises
    /// through this directly.
    pub fn run_tasks<T, F>(&self, count: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(count);
        let instruments = self.metrics.as_deref().map(|r| {
            (
                r.counter("harness_cells_total"),
                r.histogram("harness_cell_wall_ms"),
            )
        });
        let busy_us = AtomicU64::new(0);
        let batch_start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let cell_start = instruments.as_ref().map(|_| Instant::now());
                    let result = task(i);
                    if let (Some((cells, wall_ms)), Some(start)) = (&instruments, cell_start) {
                        let elapsed = start.elapsed();
                        cells.inc();
                        wall_ms.observe(elapsed.as_secs_f64() * 1_000.0);
                        busy_us.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
                    }
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        if let Some(registry) = self.metrics.as_deref() {
            registry.set_gauge("harness_threads", workers as f64);
            let wall_us = batch_start.elapsed().as_micros() as f64 * workers as f64;
            if wall_us > 0.0 {
                registry.set_gauge(
                    "harness_thread_utilization",
                    busy_us.load(Ordering::Relaxed) as f64 / wall_us,
                );
            }
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every index was claimed exactly once")
            })
            .collect()
    }

    /// Convenience: [`run`](Self::run) where the measurement is a pure
    /// function of the finished [`ScenarioRun`].
    pub fn run_each<T, F>(&self, specs: &[ScenarioSpec], measure: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&ScenarioSpec, ScenarioRun) -> T + Send + Sync,
    {
        self.run(specs, |_, spec| measure(spec, spec.execute()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaseos_framework::VanillaPolicy;

    fn tiny_matrix(seeds: Vec<u64>) -> Matrix {
        use leaseos_apps::normal::Spotify;
        Matrix::new(SimDuration::from_mins(2))
            .app(
                "Spotify",
                Arc::new(|| Box::new(Spotify::new()) as Box<dyn AppModel>),
                Arc::new(Environment::unattended),
            )
            .policy("vanilla", Arc::new(|| Box::new(VanillaPolicy::new()) as _))
            .seeds(seeds)
    }

    #[test]
    fn matrix_enumerates_row_major() {
        let specs = tiny_matrix(vec![1, 2]).specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].label, "Spotify/vanilla/Pixel XL/1");
        assert_eq!(specs[1].seed, 2);
    }

    #[test]
    fn results_are_in_spec_order_and_thread_invariant() {
        let specs = tiny_matrix(vec![1, 2, 3, 4]).specs();
        let sequential =
            ScenarioRunner::with_threads(1).run_each(&specs, |_, run| run.app_power_mw());
        let parallel =
            ScenarioRunner::with_threads(4).run_each(&specs, |_, run| run.app_power_mw());
        assert_eq!(sequential, parallel);
        // Different seeds genuinely differ, so order mix-ups would show.
        assert_ne!(sequential[0], sequential[1]);
    }

    #[test]
    fn runner_handles_empty_batches_and_zero_means_auto() {
        let runner = ScenarioRunner::with_threads(0);
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(runner.threads(), auto, "0 selects available parallelism");
        let out: Vec<u8> = runner.run(&[], |_, _| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn fingerprint_tracks_every_hashable_field() {
        let base = tiny_matrix(vec![7]).specs().remove(0);
        assert_eq!(base.fingerprint(), base.fingerprint(), "deterministic");
        let mut label = base.clone();
        label.label = "renamed".into();
        assert_ne!(base.fingerprint(), label.fingerprint());
        let mut seed = base.clone();
        seed.seed = 8;
        assert_ne!(base.fingerprint(), seed.fingerprint());
        let mut length = base.clone();
        length.length = SimDuration::from_mins(3);
        assert_ne!(base.fingerprint(), length.fingerprint());
        let mut device = base.clone();
        device.device = leaseos_simkit::DeviceProfile::nexus_6();
        assert_ne!(base.fingerprint(), device.fingerprint());
    }

    #[test]
    fn thread_count_parsing_accepts_integers_and_rejects_garbage() {
        assert_eq!(parse_thread_count("4"), Ok(4));
        assert_eq!(parse_thread_count(" 8 "), Ok(8), "whitespace tolerated");
        assert_eq!(parse_thread_count("0"), Ok(0), "0 is the auto sentinel");
        assert!(parse_thread_count("four").is_err());
        assert!(parse_thread_count("-2").is_err());
        assert!(parse_thread_count("").is_err());
    }
}
