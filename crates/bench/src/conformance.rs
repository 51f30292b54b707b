//! The standing conformance suite: the full chaos/regression matrix.
//!
//! The paper's Table 5 claim is that mitigation survives across all 20
//! buggy apps and every policy; the chaos harness adds deterministic fault
//! injection on top. This module makes that cross product — app × policy ×
//! seed × fault arm, including a correlated crash-storm arm and a
//! concurrent-fault arm running every [`FaultKind`] at once — a
//! first-class value ([`MatrixConfig`]), executes
//! it through the parallel [`ScenarioRunner`] with an optional
//! content-addressed [`ResultCache`], and evaluates two properties over
//! **every** cell before reporting:
//!
//! 1. **Robustness** — no runtime-invariant violations (energy
//!    conservation, queue bookkeeping, battery-vs-meter agreement, lease
//!    state-machine legality) in any cell;
//! 2. **Graceful degradation** — each mitigating policy's *savings* may
//!    not drop more than `tolerance_pp` percentage points below its
//!    fault-free savings on the same seed. Savings are measured against a
//!    fixed denominator — the fault-free vanilla baseline `b_c`:
//!    `savings(arm) = 100·(t_c − t_arm)/b_c` where `t` is the treated
//!    policy's power. The naive ratio-of-ratios drift (`reduction(arm) −
//!    reduction(control)`) is ill-defined under faults: a leak that kills
//!    the buggy app collapses *both* arms toward the idle floor, deflating
//!    the reduction ratio by 60–80 pp with no policy misbehaviour at all.
//!    Pinning the denominator makes the drift read in units of real power,
//!    and the bound is one-sided because a fault killing the app *saves*
//!    energy — only a *loss* of savings (the policy letting power through
//!    that it blocked fault-free, i.e. an inversion) is a conformance
//!    failure.
//!
//! Evaluation never short-circuits: all violations across the whole matrix
//! are collected and reported together, and the caller exits non-zero once
//! at the end (`chaos` binary behaviour, pinned by tests).
//!
//! The matrix's app axis is not limited to Table 5: an app name of the form
//! `corpus:SEED:INDEX` resolves to the generated bug corpus
//! ([`leaseos_apps::corpus`]), so a sampled corpus slice can ride the same
//! runner, cache, and evaluation as the catalog apps
//! ([`MatrixConfig::corpus`], `chaos --corpus`). Corpus cells carry their
//! [`BugSpec fingerprint`](leaseos_apps::corpus::BugSpec::fingerprint) into
//! a dedicated `corpus-cell/v1` cache domain — Table 5 keys
//! (`chaos-cell/v2`) are untouched, byte for byte — and every violation in
//! a corpus cell reports its `(corpus_seed, index)` as a one-line repro.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use leaseos_apps::buggy::{case_names, table5_case, BuggyCase};
use leaseos_apps::corpus::{check_oracle, corpus_case, CorpusCase};
use leaseos_simkit::{
    DeviceProfile, EventKind, FaultKind, FaultPlan, FaultSpec, JsonValue, JsonlSink, SimDuration,
};

use crate::cache::{CacheKey, CacheStats, KeyBuilder, ResultCache};
use crate::{f2, AppBuilder, EnvBuilder, PolicyKind, ScenarioRunner, ScenarioSpec, TextTable};

/// One fault arm of the matrix: no faults, one class alone, the correlated
/// crash storm, or every class concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultArm {
    /// The fault-free control arm reductions are measured against.
    Control,
    /// One fault class alone.
    Single(FaultKind),
    /// The correlated arm ([`FaultSpec::crash_storm`]): a base object-leak
    /// stream whose every leak spawns a burst of app crashes within a
    /// two-minute window. The leak arrivals are identical to the
    /// `object_leak` single arm on the same seed (per-class streams stay
    /// independent); only the follower crashes are added.
    Storm,
    /// All classes concurrently ([`FaultSpec::all`]). Per-class RNG
    /// streams are independent, so each class's arrivals here are identical
    /// to its single-class arm on the same seed.
    All,
}

impl FaultArm {
    /// Every arm, in report order: control, each single class, the
    /// correlated storm, all.
    pub const ALL_ARMS: [FaultArm; 8] = [
        FaultArm::Control,
        FaultArm::Single(FaultKind::AppCrash),
        FaultArm::Single(FaultKind::ObjectLeak),
        FaultArm::Single(FaultKind::ListenerFailure),
        FaultArm::Single(FaultKind::ServiceException),
        FaultArm::Single(FaultKind::NetworkDrop),
        FaultArm::Storm,
        FaultArm::All,
    ];

    /// Stable machine-readable name (CLI vocabulary and cache-key part).
    pub fn name(self) -> &'static str {
        match self {
            FaultArm::Control => "control",
            FaultArm::Single(kind) => kind.name(),
            FaultArm::Storm => "storm",
            FaultArm::All => "all",
        }
    }

    /// Parses an arm name (`control`, a [`FaultKind::name`], `storm`, or
    /// `all`; `netdrop` is accepted as shorthand for `network_drop`).
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input with the full vocabulary.
    pub fn parse(raw: &str) -> Result<FaultArm, String> {
        match raw {
            "control" => Ok(FaultArm::Control),
            "storm" => Ok(FaultArm::Storm),
            "all" => Ok(FaultArm::All),
            "netdrop" => Ok(FaultArm::Single(FaultKind::NetworkDrop)),
            other => FaultKind::parse(other).map(FaultArm::Single).map_err(|_| {
                let names: Vec<&str> = FaultArm::ALL_ARMS.iter().map(|a| a.name()).collect();
                format!("unknown fault arm {other:?} ({})", names.join(", "))
            }),
        }
    }

    /// The arm's fault plan for one seed: empty for control, one class's
    /// Poisson stream, the leak-triggered crash storm, or all classes
    /// concurrently.
    pub fn plan(self, seed: u64, length: SimDuration, mean: SimDuration) -> FaultPlan {
        let spec = match self {
            FaultArm::Control => return FaultPlan::none(),
            FaultArm::Single(kind) => FaultSpec::single(kind),
            FaultArm::Storm => FaultSpec::crash_storm(),
            FaultArm::All => FaultSpec::all(),
        };
        FaultPlan::generate(seed, length, &spec.with_mean_interval(mean))
    }
}

/// One resolved app on the matrix's app axis: a Table 5 catalog case or a
/// generated corpus case, reduced to what the runner actually needs. The
/// two sources keep their provenance — corpus handles carry their
/// `(corpus_seed, index)` coordinates (for one-line repros) and their
/// `BugSpec` fingerprint (the `corpus-cell/v1` cache-key ingredient).
#[derive(Clone)]
pub struct CaseHandle {
    /// Display name: the Table 5 name, or `corpus-{seed}-{index}`.
    pub name: String,
    /// Builds a fresh instance of the app model.
    pub build: AppBuilder,
    /// Builds the trigger environment.
    pub env: EnvBuilder,
    /// `(corpus_seed, index)` for generated cases, `None` for Table 5.
    pub corpus: Option<(u64, u64)>,
    /// The corpus spec fingerprint for generated cases, `None` for Table 5.
    pub fingerprint: Option<String>,
}

impl std::fmt::Debug for CaseHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaseHandle")
            .field("name", &self.name)
            .field("corpus", &self.corpus)
            .finish_non_exhaustive()
    }
}

impl CaseHandle {
    /// Wraps a Table 5 catalog case.
    pub fn table5(case: &BuggyCase) -> CaseHandle {
        CaseHandle {
            name: case.name.to_owned(),
            build: Arc::new(case.build),
            env: Arc::new(case.environment),
            corpus: None,
            fingerprint: None,
        }
    }

    /// Wraps a generated corpus case.
    pub fn corpus(case: &CorpusCase) -> CaseHandle {
        let build = case.clone();
        let env = case.clone();
        CaseHandle {
            name: case.name.clone(),
            build: Arc::new(move || build.build()),
            env: Arc::new(move || env.environment()),
            corpus: Some((case.spec.corpus_seed, case.spec.index)),
            fingerprint: Some(case.fingerprint.clone()),
        }
    }

    /// The `corpus:SEED:INDEX` name this handle resolves from, when it is a
    /// corpus case — the repro coordinate violations print.
    pub fn repro(&self) -> Option<String> {
        self.corpus.map(|(s, i)| format!("corpus:{s}:{i}"))
    }
}

/// Resolves one app-axis name: `corpus:SEED:INDEX` mints the generated
/// case, anything else must be a Table 5 catalog name.
///
/// # Errors
///
/// Reports an unknown Table 5 name or malformed corpus coordinates.
pub fn resolve_case(name: &str) -> Result<CaseHandle, String> {
    if let Some(coords) = name.strip_prefix("corpus:") {
        let (seed, index) = coords
            .split_once(':')
            .ok_or_else(|| format!("malformed corpus name {name:?} (want corpus:SEED:INDEX)"))?;
        let seed: u64 = seed
            .parse()
            .map_err(|e| format!("bad corpus seed in {name:?}: {e}"))?;
        let index: u64 = index
            .parse()
            .map_err(|e| format!("bad corpus index in {name:?}: {e}"))?;
        Ok(CaseHandle::corpus(&corpus_case(seed, index)))
    } else {
        table5_case(name)
            .as_ref()
            .map(CaseHandle::table5)
            .ok_or_else(|| format!("unknown Table 5 app {name:?}"))
    }
}

/// The matrix to run, as data. Cells enumerate row-major: app outermost,
/// then policy, seed, arm.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// App-axis names: Table 5 catalog names and/or `corpus:SEED:INDEX`
    /// corpus coordinates (validated by [`resolve_case`] at run time).
    pub apps: Vec<String>,
    /// Policy columns. Degradation is only checkable when
    /// [`PolicyKind::Vanilla`] is present (it is the reduction baseline).
    pub policies: Vec<PolicyKind>,
    /// Kernel RNG seeds; each seed is an independent replication.
    pub seeds: Vec<u64>,
    /// Fault arms.
    pub arms: Vec<FaultArm>,
    /// Simulated duration per cell.
    pub length: SimDuration,
    /// Mean fault inter-arrival interval per enabled class.
    pub mean_interval: SimDuration,
    /// Degradation bound: the most savings (percentage points of the
    /// fault-free vanilla baseline) a policy may lose under any fault arm.
    pub tolerance_pp: f64,
    /// Whether an [`FaultKind::AppCrash`] restart is a cold start (the
    /// restarted process loses its transient state — handles, counters,
    /// in-flight retries — and keeps only what its model persists). `false`
    /// replays the legacy warm-restart semantics, where the model resumes
    /// with its full pre-crash state.
    pub cold_restart: bool,
}

impl MatrixConfig {
    /// The full conformance matrix: all 20 catalog apps × all 5 policies ×
    /// `n_seeds` seeds from `base_seed` × all 8 arms.
    pub fn full(base_seed: u64, n_seeds: u64) -> Self {
        MatrixConfig {
            apps: case_names().iter().map(|s| (*s).to_owned()).collect(),
            policies: PolicyKind::ALL.to_vec(),
            seeds: (0..n_seeds.max(1)).map(|s| base_seed + s).collect(),
            arms: FaultArm::ALL_ARMS.to_vec(),
            length: crate::RUN_LENGTH,
            mean_interval: SimDuration::from_secs(300),
            tolerance_pp: 35.0,
            cold_restart: true,
        }
    }

    /// A sampled slice of the generated bug corpus: `sample` of the first
    /// `count` apps of corpus `corpus_seed`, evenly spaced (see
    /// [`sample_indices`](Self::sample_indices)) so the slice is
    /// deterministic and stable under re-runs — × all 5 policies × one
    /// kernel seed × all 8 arms.
    pub fn corpus(corpus_seed: u64, count: u64, sample: u64, kernel_seed: u64) -> Self {
        MatrixConfig {
            apps: Self::sample_indices(count, sample)
                .into_iter()
                .map(|i| format!("corpus:{corpus_seed}:{i}"))
                .collect(),
            policies: PolicyKind::ALL.to_vec(),
            seeds: vec![kernel_seed],
            arms: FaultArm::ALL_ARMS.to_vec(),
            length: crate::RUN_LENGTH,
            mean_interval: SimDuration::from_secs(300),
            tolerance_pp: 35.0,
            cold_restart: true,
        }
    }

    /// `sample` indices evenly spaced over `0..count` (`⌊i·count/sample⌋`),
    /// deduplicated when `sample > count`. Deterministic by construction —
    /// no RNG — so the same `(count, sample)` always names the same corpus
    /// slice, and growing `count` shifts which apps are sampled without
    /// changing any app's identity (each `corpus:SEED:INDEX` is a pure
    /// function of its coordinates).
    pub fn sample_indices(count: u64, sample: u64) -> Vec<u64> {
        let n = sample.min(count);
        if n == 0 {
            // Degenerate requests still name a stable slice: the first app
            // of a non-empty corpus, nothing of an empty one.
            return if count > 0 { vec![0] } else { Vec::new() };
        }
        (0..n).map(|i| i * count / n).collect()
    }

    /// The historical smoke subset: two wakelock cases plus a GPS case (so
    /// every fault class finds an eligible target), vanilla vs LeaseOS,
    /// one seed, all eight arms.
    pub fn smoke(seed: u64) -> Self {
        MatrixConfig {
            apps: ["Facebook", "Torch", "GPSLogger"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            policies: vec![PolicyKind::Vanilla, PolicyKind::LeaseOs],
            seeds: vec![seed],
            arms: FaultArm::ALL_ARMS.to_vec(),
            length: crate::RUN_LENGTH,
            mean_interval: SimDuration::from_secs(300),
            tolerance_pp: 35.0,
            cold_restart: true,
        }
    }

    /// Number of cells the matrix enumerates.
    pub fn cell_count(&self) -> usize {
        self.apps.len() * self.policies.len() * self.seeds.len() * self.arms.len()
    }

    /// Flat index of cell `(app, policy, seed, arm)` (indices into the
    /// config's own axes).
    pub fn index(&self, app: usize, policy: usize, seed: usize, arm: usize) -> usize {
        ((app * self.policies.len() + policy) * self.seeds.len() + seed) * self.arms.len() + arm
    }

    /// The canonical cell label: `app/policy/arm/seed`.
    pub fn label(&self, case: &CaseHandle, policy: PolicyKind, arm: FaultArm, seed: u64) -> String {
        format!("{}/{}/{}/{seed}", case.name, policy.cli_name(), arm.name())
    }

    fn resolve_cases(&self) -> Result<Vec<CaseHandle>, String> {
        self.apps.iter().map(|name| resolve_case(name)).collect()
    }
}

/// What one executed (or replayed) cell reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The cell's canonical label.
    pub label: String,
    /// Average app power over the run, mW.
    pub app_power_mw: f64,
    /// Average system-wide power (incl. modeled policy overhead), mW.
    pub system_power_mw: f64,
    /// Faults actually delivered into the run.
    pub faults_injected: u64,
    /// Runtime-invariant violations the kernel's audits recorded.
    pub violations: Vec<String>,
    /// The cell's full telemetry stream (what `--jsonl` writes, and what
    /// the cache replays byte-for-byte).
    pub jsonl: Vec<u8>,
}

impl CellOutcome {
    /// The summary document the cache stores (everything but the JSONL).
    pub fn summary_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("label".into(), JsonValue::Str(self.label.clone())),
            ("app_power_mw".into(), JsonValue::Num(self.app_power_mw)),
            (
                "system_power_mw".into(),
                JsonValue::Num(self.system_power_mw),
            ),
            (
                "faults_injected".into(),
                JsonValue::Num(self.faults_injected as f64),
            ),
            (
                "violations".into(),
                JsonValue::Arr(
                    self.violations
                        .iter()
                        .map(|v| JsonValue::Str(v.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds the outcome from a cached summary + JSONL bytes.
    ///
    /// # Errors
    ///
    /// Reports the first missing or mistyped field (the caller treats any
    /// error as a cache miss and re-executes).
    pub fn from_summary(summary: &JsonValue, jsonl: Vec<u8>) -> Result<CellOutcome, String> {
        let str_field = |k: &str| {
            summary
                .get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("summary missing string field {k:?}"))
        };
        let num_field = |k: &str| {
            summary
                .get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("summary missing numeric field {k:?}"))
        };
        let violations = match summary.get("violations") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "non-string violation entry".to_owned())
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("summary missing array field \"violations\"".into()),
        };
        Ok(CellOutcome {
            label: str_field("label")?,
            app_power_mw: num_field("app_power_mw")?,
            system_power_mw: num_field("system_power_mw")?,
            faults_injected: num_field("faults_injected")? as u64,
            violations,
            jsonl,
        })
    }
}

/// A completed matrix: one outcome per cell, in config enumeration order.
#[derive(Debug)]
pub struct MatrixRun {
    /// The configuration that produced it.
    pub config: MatrixConfig,
    /// The resolved cases, in `config.apps` order.
    pub cases: Vec<CaseHandle>,
    /// One outcome per cell ([`MatrixConfig::index`] order).
    pub cells: Vec<CellOutcome>,
    /// Cache counters for this run, when a cache was used.
    pub cache_stats: Option<CacheStats>,
}

impl MatrixRun {
    /// The outcome of cell `(app, policy, seed, arm)`.
    pub fn cell(&self, app: usize, policy: usize, seed: usize, arm: usize) -> &CellOutcome {
        &self.cells[self.config.index(app, policy, seed, arm)]
    }
}

/// The cache key of one cell: a content hash over the scenario fingerprint,
/// the expanded fault plan, the restart semantics, and the build revision.
/// The domain is `v2`: `v1` entries predate correlated plans and cold
/// restarts and must never replay against them.
pub fn cell_key(spec: &ScenarioSpec, plan: &FaultPlan, cold_restart: bool, rev: &str) -> CacheKey {
    KeyBuilder::new("chaos-cell/v2;audit=256")
        .field("spec", spec.fingerprint())
        .field("plan", plan.fingerprint())
        .field("cold", if cold_restart { "1" } else { "0" })
        .field("rev", rev)
        .finish()
}

/// The cache key of one *corpus* cell. Same ingredients as [`cell_key`]
/// plus the app's full [`BugSpec
/// fingerprint`](leaseos_apps::corpus::BugSpec::fingerprint) — the spec
/// fingerprint alone only carries the label, and `corpus-{seed}-{index}`
/// does not pin the drawn parameters if the generator ever changes. The
/// domain is separate (`corpus-cell/v1`) so corpus entries can never alias
/// a Table 5 cell and the Table 5 key bytes stay untouched.
pub fn corpus_cell_key(
    spec: &ScenarioSpec,
    app_fingerprint: &str,
    plan: &FaultPlan,
    cold_restart: bool,
    rev: &str,
) -> CacheKey {
    KeyBuilder::new("corpus-cell/v1;audit=256")
        .field("app", app_fingerprint)
        .field("spec", spec.fingerprint())
        .field("plan", plan.fingerprint())
        .field("cold", if cold_restart { "1" } else { "0" })
        .field("rev", rev)
        .finish()
}

/// Executes one cell for real: kernel + fault plan + restart semantics +
/// always-on audits + in-memory JSONL capture. This is the single execution
/// path every front end shares — [`run_matrix`], the daemon's `run-cell`
/// command, and the one-shot reference computations in tests — so a cell's
/// bytes are identical no matter which door it came in through.
pub fn run_cell(spec: &ScenarioSpec, plan: &FaultPlan, cold_restart: bool) -> CellOutcome {
    let sink: Rc<RefCell<JsonlSink<Vec<u8>>>> = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let run = spec.execute_with(|kernel| {
        kernel.install_fault_plan(plan);
        kernel.set_cold_restart(cold_restart);
        // Force periodic audits on even in release builds: the conformance
        // matrix is exactly the run where we want them. The kernel attaches
        // its own lease state-machine replay sink whenever audits are on.
        kernel.set_audit_interval(Some(256));
        kernel.telemetry().attach(sink.clone());
    });
    let violations = run.kernel.audit().iter().map(|v| v.to_string()).collect();
    let jsonl = sink.borrow().get_ref().clone();
    CellOutcome {
        label: spec.label.clone(),
        app_power_mw: run.app_power_mw(),
        system_power_mw: run.system_power_mw(),
        faults_injected: run.kernel.telemetry().count(EventKind::FaultInjected),
        violations,
        jsonl,
    }
}

/// A cell's execute-and-cache path, shared by [`run_matrix`] and the
/// daemon's `run-cell`: load the entry under `key`, treat one that
/// [`CellOutcome::from_summary`] rejects as a miss, and on a miss run
/// [`run_cell`] and store the result (a failed store warns and does not
/// fail the cell). The flag says whether the outcome was replayed from the
/// cache.
pub(crate) fn run_cell_cached(
    cache: &ResultCache,
    key: CacheKey,
    spec: &ScenarioSpec,
    plan: &FaultPlan,
    cold_restart: bool,
) -> (CellOutcome, bool) {
    if let Some(entry) = cache.load(key) {
        if let Ok(outcome) = CellOutcome::from_summary(&entry.summary, entry.jsonl) {
            return (outcome, true);
        }
    }
    let outcome = run_cell(spec, plan, cold_restart);
    if let Err(e) = cache.store(key, &outcome.summary_json(), &outcome.jsonl) {
        eprintln!("warning: cache store failed for {}: {e}", spec.label);
    }
    (outcome, false)
}

/// Runs (or replays) the whole matrix.
///
/// With a cache, each cell is looked up by [`cell_key`] first; hits replay
/// the stored summary and JSONL byte-for-byte, misses execute and store.
/// Results are independent of worker count and of hit/miss mix — the
/// conformance tests pin both.
///
/// # Errors
///
/// Fails on an app name the catalog does not know.
pub fn run_matrix(
    config: &MatrixConfig,
    runner: &ScenarioRunner,
    cache: Option<&ResultCache>,
    rev: &str,
) -> Result<MatrixRun, String> {
    let cases = config.resolve_cases()?;
    // One plan per (seed, arm), shared across every (app, policy) cell so
    // arms stay comparable within a seed.
    let plans: Vec<Vec<FaultPlan>> = config
        .seeds
        .iter()
        .map(|&seed| {
            config
                .arms
                .iter()
                .map(|arm| arm.plan(seed, config.length, config.mean_interval))
                .collect()
        })
        .collect();

    let mut specs = Vec::with_capacity(config.cell_count());
    let mut spec_plan = Vec::with_capacity(config.cell_count());
    for case in &cases {
        for &policy in &config.policies {
            for (si, &seed) in config.seeds.iter().enumerate() {
                for (ai, &arm) in config.arms.iter().enumerate() {
                    specs.push(ScenarioSpec {
                        label: config.label(case, policy, arm, seed),
                        app: case.build.clone(),
                        policy: Arc::new(move || policy.build()),
                        device: DeviceProfile::pixel_xl(),
                        env: case.env.clone(),
                        seed,
                        length: config.length,
                    });
                    spec_plan.push((si, ai, case.fingerprint.clone()));
                }
            }
        }
    }

    let cold_restart = config.cold_restart;
    let cells = runner.run(&specs, |i, spec| {
        let (si, ai, ref corpus_fp) = spec_plan[i];
        let plan = &plans[si][ai];
        let Some(cache) = cache else {
            return run_cell(spec, plan, cold_restart);
        };
        let key = match corpus_fp {
            Some(fp) => corpus_cell_key(spec, fp, plan, cold_restart, rev),
            None => cell_key(spec, plan, cold_restart, rev),
        };
        run_cell_cached(cache, key, spec, plan, cold_restart).0
    });

    Ok(MatrixRun {
        config: config.clone(),
        cases,
        cells,
        cache_stats: cache.map(ResultCache::stats),
    })
}

/// One conformance failure: which cell, and what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The offending cell's label (`app/policy/arm/seed`).
    pub cell: String,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.cell, self.detail)
    }
}

/// Evaluates both conformance properties over **every** cell, collecting
/// all violations instead of stopping at the first — the caller prints the
/// full list and exits once at the end.
pub fn evaluate(run: &MatrixRun) -> Vec<Violation> {
    let cfg = &run.config;
    let mut violations = Vec::new();

    // Corpus cells annotate every violation with their one-line repro.
    let repro_of = |app: usize| -> String {
        run.cases
            .get(app)
            .and_then(CaseHandle::repro)
            .map(|r| format!(" — repro: chaos --apps {r}"))
            .unwrap_or_default()
    };

    // Robustness: every cell's runtime audits must be clean.
    let cells_per_app = cfg.policies.len() * cfg.seeds.len() * cfg.arms.len();
    for (i, cell) in run.cells.iter().enumerate() {
        for v in &cell.violations {
            violations.push(Violation {
                cell: cell.label.clone(),
                detail: format!("runtime audit: {v}{}", repro_of(i / cells_per_app.max(1))),
            });
        }
    }

    // Graceful degradation: needs the vanilla baseline and a control arm.
    let vanilla = cfg.policies.iter().position(|p| *p == PolicyKind::Vanilla);
    let control = cfg.arms.iter().position(|a| *a == FaultArm::Control);
    let (Some(vp), Some(ctl)) = (vanilla, control) else {
        return violations;
    };
    for (a, _case) in run.cases.iter().enumerate() {
        for (p, policy) in cfg.policies.iter().enumerate() {
            if p == vp {
                continue;
            }
            for s in 0..cfg.seeds.len() {
                let base = run.cell(a, vp, s, ctl).app_power_mw;
                if base <= 0.0 {
                    // A buggy case whose fault-free baseline burns nothing
                    // has no savings to lose.
                    continue;
                }
                let treated_control = run.cell(a, p, s, ctl).app_power_mw;
                for (r, arm) in cfg.arms.iter().enumerate() {
                    if r == ctl {
                        continue;
                    }
                    let treated = run.cell(a, p, s, r).app_power_mw;
                    let drift = 100.0 * (treated_control - treated) / base;
                    if drift < -cfg.tolerance_pp {
                        violations.push(Violation {
                            cell: run.cell(a, p, s, r).label.clone(),
                            detail: format!(
                                "{} savings moved {drift:+.2} pp vs the fault-free \
                                 control (bound -{:.1} pp, arm {}){}",
                                policy.label(),
                                cfg.tolerance_pp,
                                arm.name(),
                                repro_of(a)
                            ),
                        });
                    }
                }
            }
        }
    }
    violations
}

/// Checks the machine-checkable oracle of every *corpus* case on the
/// matrix's app axis (Table 5 cases have none and are skipped): the waste
/// signature under vanilla, the expected lease verdict class, the savings
/// band, and the §7.4 zero-disruption bound — see
/// [`leaseos_apps::corpus::check_oracle`]. Each failure becomes a
/// [`Violation`] whose detail *is* the one-line `(corpus_seed, index)`
/// repro. Like [`evaluate`], this never short-circuits.
///
/// `oracle_seed` is the kernel seed the oracle runs replicate — the corpus
/// savings bands are calibrated against it (42 everywhere in this repo),
/// independently of the matrix's own kernel seeds.
pub fn corpus_oracle_violations(run: &MatrixRun, oracle_seed: u64) -> Vec<Violation> {
    run.cases
        .iter()
        .filter_map(|case| {
            let (seed, index) = case.corpus?;
            check_oracle(&corpus_case(seed, index), oracle_seed)
                .err()
                .map(|v| Violation {
                    cell: case.name.clone(),
                    detail: v.to_string(),
                })
        })
        .collect()
}

/// Renders the per-cell table: one row per (app, arm, seed), one power
/// column per policy, one drift column per mitigating policy (when the
/// vanilla baseline is present), faults and audit status.
pub fn render_table(run: &MatrixRun) -> String {
    let cfg = &run.config;
    let vanilla = cfg.policies.iter().position(|p| *p == PolicyKind::Vanilla);
    let control = cfg.arms.iter().position(|a| *a == FaultArm::Control);

    let mut header: Vec<String> = vec!["App".into(), "Arm".into(), "Seed".into(), "Faults".into()];
    for policy in &cfg.policies {
        header.push(format!("{} mW", policy.label()));
    }
    if let (Some(vp), Some(_)) = (vanilla, control) {
        for (p, policy) in cfg.policies.iter().enumerate() {
            if p != vp {
                header.push(format!("{} Δpp", policy.label()));
            }
        }
    }
    header.push("Audits".into());

    let mut table = TextTable::new(header);
    for (a, case) in run.cases.iter().enumerate() {
        for (r, arm) in cfg.arms.iter().enumerate() {
            for (s, seed) in cfg.seeds.iter().enumerate() {
                let mut row: Vec<String> =
                    vec![case.name.clone(), arm.name().to_owned(), seed.to_string()];
                let faults: Vec<String> = (0..cfg.policies.len())
                    .map(|p| run.cell(a, p, s, r).faults_injected.to_string())
                    .collect();
                row.push(faults.join("+"));
                let mut dirty = false;
                for p in 0..cfg.policies.len() {
                    let cell = run.cell(a, p, s, r);
                    row.push(f2(cell.app_power_mw));
                    dirty |= !cell.violations.is_empty();
                }
                if let (Some(vp), Some(ctl)) = (vanilla, control) {
                    let base = run.cell(a, vp, s, ctl).app_power_mw;
                    for p in 0..cfg.policies.len() {
                        if p == vp {
                            continue;
                        }
                        if base <= 0.0 {
                            row.push("n/a".into());
                            continue;
                        }
                        let treated_control = run.cell(a, p, s, ctl).app_power_mw;
                        let treated = run.cell(a, p, s, r).app_power_mw;
                        row.push(format!(
                            "{:+.2}",
                            100.0 * (treated_control - treated) / base
                        ));
                    }
                }
                row.push(if dirty { "VIOLATED" } else { "clean" }.to_owned());
                table.row(row);
            }
        }
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_names_parse_round_trip() {
        for arm in FaultArm::ALL_ARMS {
            assert_eq!(FaultArm::parse(arm.name()), Ok(arm));
        }
        assert_eq!(
            FaultArm::parse("netdrop"),
            Ok(FaultArm::Single(FaultKind::NetworkDrop)),
            "CLI shorthand"
        );
        let err = FaultArm::parse("meteor").unwrap_err();
        for arm in FaultArm::ALL_ARMS {
            assert!(err.contains(arm.name()), "error lists {:?}", arm.name());
        }
    }

    /// The gap test the ISSUE asks for: a [`FaultKind`] added to the enum
    /// cannot be silently omitted from the arm vocabulary.
    #[test]
    fn every_fault_kind_has_a_single_arm() {
        for kind in FaultKind::ALL {
            assert!(
                FaultArm::ALL_ARMS.contains(&FaultArm::Single(kind)),
                "FaultKind::{kind} missing from FaultArm::ALL_ARMS"
            );
        }
    }

    #[test]
    fn storm_arm_embeds_the_leak_stream_and_adds_follower_crashes() {
        let len = SimDuration::from_mins(60);
        let mean = SimDuration::from_secs(300);
        let storm = FaultArm::Storm.plan(7, len, mean);
        let leaks = FaultArm::Single(FaultKind::ObjectLeak).plan(7, len, mean);
        let storm_leaks: Vec<_> = storm
            .faults()
            .iter()
            .filter(|f| f.kind == FaultKind::ObjectLeak)
            .copied()
            .collect();
        assert_eq!(
            leaks.faults(),
            storm_leaks.as_slice(),
            "the base leak stream is untouched by correlation"
        );
        assert!(
            storm.faults().iter().any(|f| f.kind == FaultKind::AppCrash),
            "an hour of leaks at 5 min mean must spawn follower crashes"
        );
    }

    #[test]
    fn arm_plans_cover_control_single_and_concurrent() {
        let len = SimDuration::from_mins(30);
        let mean = SimDuration::from_secs(300);
        assert!(FaultArm::Control.plan(1, len, mean).is_empty());
        let solo = FaultArm::Single(FaultKind::AppCrash).plan(1, len, mean);
        assert!(solo.faults().iter().all(|f| f.kind == FaultKind::AppCrash));
        let all = FaultArm::All.plan(1, len, mean);
        for kind in FaultKind::ALL {
            assert!(
                all.faults().iter().any(|f| f.kind == kind),
                "concurrent plan must schedule {kind} (30 min at 5 min mean)"
            );
        }
        // Per-class streams are independent: the concurrent arm embeds the
        // single-class arm's arrivals exactly.
        let crashes: Vec<_> = all
            .faults()
            .iter()
            .filter(|f| f.kind == FaultKind::AppCrash)
            .copied()
            .collect();
        assert_eq!(solo.faults(), crashes.as_slice());
    }

    #[test]
    fn full_config_enumerates_the_whole_table5_matrix() {
        let cfg = MatrixConfig::full(42, 3);
        assert_eq!(cfg.apps.len(), 20);
        assert_eq!(cfg.policies.len(), 5);
        assert_eq!(cfg.seeds, vec![42, 43, 44]);
        assert_eq!(cfg.arms.len(), 8);
        assert_eq!(cfg.cell_count(), 20 * 5 * 3 * 8);
        assert!(cfg.cold_restart, "cold starts are the realistic default");
        assert!(cfg.resolve_cases().is_ok());
    }

    #[test]
    fn unknown_app_is_rejected() {
        let mut cfg = MatrixConfig::smoke(42);
        cfg.apps.push("NotAnApp".into());
        let err = run_matrix(&cfg, &ScenarioRunner::with_threads(1), None, "test").unwrap_err();
        assert!(err.contains("NotAnApp"));
    }

    #[test]
    fn cell_outcome_summary_round_trips() {
        let outcome = CellOutcome {
            label: "Torch/leaseos/all/42".into(),
            app_power_mw: 1.2345678901234567,
            system_power_mw: 100.5,
            faults_injected: 17,
            violations: vec!["[t=1s] invariant 'x' violated: y".into()],
            jsonl: b"{}\n".to_vec(),
        };
        let summary = outcome.summary_json();
        let reparsed = JsonValue::parse(&summary.to_json()).unwrap();
        let back = CellOutcome::from_summary(&reparsed, outcome.jsonl.clone()).unwrap();
        assert_eq!(back, outcome, "f64s survive the shortest-round-trip JSON");
        assert!(CellOutcome::from_summary(&JsonValue::Obj(vec![]), vec![]).is_err());
    }

    /// A zero-minute cell averages over an empty window: its powers read
    /// zero under both policies, so its summary is JSON the cache and the
    /// daemon can read back.
    #[test]
    fn zero_minute_cells_summarise_as_json() {
        let case = resolve_case("Torch").unwrap();
        for policy in [PolicyKind::Vanilla, PolicyKind::LeaseOs] {
            let spec = ScenarioSpec {
                label: format!("Torch/{}/all/42", policy.cli_name()),
                app: case.build.clone(),
                policy: std::sync::Arc::new(move || policy.build()),
                device: DeviceProfile::pixel_xl(),
                env: case.env.clone(),
                seed: 42,
                length: SimDuration::ZERO,
            };
            let plan = FaultArm::All.plan(42, spec.length, SimDuration::from_secs(300));
            let outcome = run_cell(&spec, &plan, false);
            assert_eq!(outcome.system_power_mw, 0.0, "{}", spec.label);
            let summary = outcome.summary_json().to_json();
            let reparsed = JsonValue::parse(&summary).unwrap_or_else(|e| panic!("{e}: {summary}"));
            let back = CellOutcome::from_summary(&reparsed, outcome.jsonl.clone()).unwrap();
            assert_eq!(back, outcome);
        }
    }

    /// The behaviour the ISSUE pins: violations from *every* cell are
    /// collected — evaluation never stops at the first bad cell or arm.
    #[test]
    fn evaluate_collects_all_violations_across_the_matrix() {
        let mut cfg = MatrixConfig::smoke(1);
        cfg.apps = vec!["Facebook".into(), "Torch".into()];
        cfg.arms = vec![FaultArm::Control, FaultArm::All];
        cfg.tolerance_pp = 10.0;
        let cases = cfg.resolve_cases().unwrap();
        let mk = |label: &str, power: f64, violations: Vec<String>| CellOutcome {
            label: label.into(),
            app_power_mw: power,
            system_power_mw: power,
            faults_injected: 0,
            violations,
            jsonl: Vec::new(),
        };
        // Cells in index order: app → policy(vanilla, leaseos) → seed → arm.
        let cells = vec![
            // Facebook vanilla: control 100, all 100.
            mk("Facebook/vanilla/control/1", 100.0, vec![]),
            mk(
                "Facebook/vanilla/all/1",
                100.0,
                vec!["audit broke".into(), "and again".into()],
            ),
            // Facebook leaseos: control treats 100→5; the all arm lets 50
            // through → savings moved (5−50)/100 = −45 pp, violating the
            // 10 pp bound.
            mk("Facebook/leaseos/control/1", 5.0, vec![]),
            mk("Facebook/leaseos/all/1", 50.0, vec![]),
            // Torch vanilla.
            mk("Torch/vanilla/control/1", 80.0, vec![]),
            mk("Torch/vanilla/all/1", 80.0, vec![]),
            // Torch leaseos: (8−40)/80 = −40 pp, also violating.
            mk("Torch/leaseos/control/1", 8.0, vec![]),
            mk("Torch/leaseos/all/1", 40.0, vec![]),
        ];
        let run = MatrixRun {
            config: cfg,
            cases,
            cells,
            cache_stats: None,
        };
        let violations = evaluate(&run);
        // 2 audit violations + 2 drift violations, all reported at once.
        assert_eq!(violations.len(), 4, "got: {violations:?}");
        assert!(violations[0].detail.contains("audit broke"));
        assert!(violations[1].detail.contains("and again"));
        assert!(
            violations
                .iter()
                .filter(|v| v.detail.contains("savings moved"))
                .count()
                == 2,
            "both apps' drift violations must be present"
        );
        let table = render_table(&run);
        assert!(table.contains("VIOLATED"), "dirty cells flagged in table");
        assert_eq!(table.lines().count(), 2 + 4, "one row per (app, arm, seed)");
    }

    #[test]
    fn corpus_names_resolve_and_malformed_ones_are_rejected() {
        let handle = resolve_case("corpus:42:7").unwrap();
        assert_eq!(handle.name, "corpus-42-7");
        assert_eq!(handle.corpus, Some((42, 7)));
        assert_eq!(handle.repro().as_deref(), Some("corpus:42:7"));
        let fp = handle.fingerprint.as_deref().unwrap();
        assert!(fp.contains("seed=42") && fp.contains("index=7"), "{fp}");

        let table5 = resolve_case("Torch").unwrap();
        assert_eq!(table5.name, "Torch");
        assert_eq!(table5.corpus, None);
        assert_eq!(table5.fingerprint, None);
        assert_eq!(table5.repro(), None);

        for bad in ["corpus:42", "corpus:x:1", "corpus:1:y", "NotAnApp"] {
            assert!(resolve_case(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn corpus_config_samples_evenly_and_deterministically() {
        let cfg = MatrixConfig::corpus(42, 200, 12, 7);
        assert_eq!(cfg.apps.len(), 12);
        assert_eq!(cfg.apps[0], "corpus:42:0");
        assert_eq!(cfg.policies.len(), 5);
        assert_eq!(cfg.seeds, vec![7]);
        assert_eq!(cfg.arms.len(), 8);
        assert!(cfg.resolve_cases().is_ok());
        // Deterministic: same knobs, same slice.
        assert_eq!(cfg.apps, MatrixConfig::corpus(42, 200, 12, 7).apps);

        assert_eq!(MatrixConfig::sample_indices(200, 4), vec![0, 50, 100, 150]);
        assert_eq!(MatrixConfig::sample_indices(3, 8), vec![0, 1, 2]);
        assert_eq!(MatrixConfig::sample_indices(0, 4), Vec::<u64>::new());
        assert_eq!(MatrixConfig::sample_indices(5, 0), vec![0]);
    }

    #[test]
    fn corpus_cells_key_into_their_own_domain() {
        use std::sync::Arc;
        let handle = resolve_case("corpus:42:0").unwrap();
        let spec = ScenarioSpec {
            label: "corpus-42-0/leaseos/control/42".into(),
            app: handle.build.clone(),
            policy: Arc::new(|| PolicyKind::LeaseOs.build()),
            device: DeviceProfile::pixel_xl(),
            env: handle.env.clone(),
            seed: 42,
            length: SimDuration::from_mins(5),
        };
        let plan = FaultPlan::none();
        let fp = handle.fingerprint.as_deref().unwrap();
        let corpus = corpus_cell_key(&spec, fp, &plan, true, "rev-a");
        assert_eq!(
            corpus,
            corpus_cell_key(&spec, fp, &plan, true, "rev-a"),
            "deterministic"
        );
        assert_ne!(
            corpus,
            cell_key(&spec, &plan, true, "rev-a"),
            "never aliases a Table 5 cell, even for identical spec and plan"
        );
        let other_fp = resolve_case("corpus:42:1").unwrap().fingerprint.unwrap();
        assert_ne!(
            corpus,
            corpus_cell_key(&spec, &other_fp, &plan, true, "rev-a"),
            "the drawn parameters are a key ingredient"
        );
    }

    /// The Table 5 key bytes are load-bearing: a warm cache from before the
    /// corpus change must keep hitting. This pins one key's literal value
    /// so any accidental change to the domain string, the field set, or the
    /// spec fingerprint format fails loudly.
    #[test]
    fn table5_cell_key_bytes_are_pinned() {
        let spec = ScenarioSpec {
            label: "Torch/leaseos/control/42".into(),
            app: resolve_case("Torch").unwrap().build,
            policy: std::sync::Arc::new(|| PolicyKind::LeaseOs.build()),
            device: DeviceProfile::pixel_xl(),
            env: resolve_case("Torch").unwrap().env,
            seed: 42,
            length: SimDuration::from_mins(5),
        };
        assert_eq!(
            cell_key(&spec, &FaultPlan::none(), true, "rev-a").hex(),
            "b118d9bc4a50e32f94f19a96031d56fc"
        );
    }

    #[test]
    fn corpus_violations_carry_the_one_line_repro() {
        let mut cfg = MatrixConfig::smoke(1);
        cfg.apps = vec!["corpus:42:0".into()];
        cfg.policies = vec![PolicyKind::Vanilla, PolicyKind::LeaseOs];
        cfg.arms = vec![FaultArm::Control, FaultArm::All];
        cfg.tolerance_pp = 10.0;
        let cases = cfg.resolve_cases().unwrap();
        let mk = |label: &str, power: f64, violations: Vec<String>| CellOutcome {
            label: label.into(),
            app_power_mw: power,
            system_power_mw: power,
            faults_injected: 0,
            violations,
            jsonl: Vec::new(),
        };
        let cells = vec![
            mk("corpus-42-0/vanilla/control/1", 100.0, vec![]),
            mk(
                "corpus-42-0/vanilla/all/1",
                100.0,
                vec!["audit broke".into()],
            ),
            mk("corpus-42-0/leaseos/control/1", 5.0, vec![]),
            // (5 − 50)/100 = −45 pp: beyond the 10 pp bound.
            mk("corpus-42-0/leaseos/all/1", 50.0, vec![]),
        ];
        let run = MatrixRun {
            config: cfg,
            cases,
            cells,
            cache_stats: None,
        };
        let violations = evaluate(&run);
        assert_eq!(violations.len(), 2, "got: {violations:?}");
        for v in &violations {
            assert!(
                v.detail.contains("repro: chaos --apps corpus:42:0"),
                "corpus violations must carry the repro coordinates: {v}"
            );
        }
    }

    /// A real (tiny) corpus slice through the full machinery: resolve,
    /// execute, evaluate, and oracle-check. The corpus rides the exact same
    /// runner and evaluation as Table 5.
    #[test]
    fn corpus_matrix_runs_clean_and_oracles_pass() {
        let mut cfg = MatrixConfig::corpus(42, 200, 2, 42);
        cfg.policies = vec![PolicyKind::Vanilla, PolicyKind::LeaseOs];
        cfg.arms = vec![FaultArm::Control, FaultArm::All];
        cfg.length = SimDuration::from_mins(5);
        let run = run_matrix(&cfg, &ScenarioRunner::with_threads(2), None, "test").unwrap();
        assert_eq!(run.cells.len(), 2 * 2 * 2);
        assert_eq!(run.cases[0].name, "corpus-42-0");
        let violations = evaluate(&run);
        assert!(violations.is_empty(), "got: {violations:?}");
        let oracle_failures = corpus_oracle_violations(&run, 42);
        assert!(oracle_failures.is_empty(), "got: {oracle_failures:?}");
    }

    #[test]
    fn smoke_matrix_runs_and_is_clean_under_cache_and_threads() {
        // A tiny-but-real slice: one app, both smoke policies, control +
        // concurrent arm, short run. Exercises execute + evaluate end to
        // end without a cache.
        let mut cfg = MatrixConfig::smoke(42);
        cfg.apps = vec!["Torch".into()];
        cfg.arms = vec![FaultArm::Control, FaultArm::All];
        cfg.length = SimDuration::from_mins(5);
        let run = run_matrix(&cfg, &ScenarioRunner::with_threads(2), None, "test").unwrap();
        assert_eq!(run.cells.len(), 4);
        assert!(run.cache_stats.is_none());
        for cell in &run.cells {
            assert!(!cell.jsonl.is_empty(), "telemetry captured for caching");
        }
        let violations = evaluate(&run);
        assert!(violations.is_empty(), "got: {violations:?}");
    }
}
