//! Fleet-scale population sweeps: savings *distributions*, not means.
//!
//! The paper's utilitarian claim is about an install base (§7): LeaseOS
//! should save energy across heterogeneous devices, workloads, and fault
//! conditions, not just on one curated handset. This module simulates a
//! generated population ([`PopulationSpec`]) of 10k–1M devices — each a
//! scaled hardware archetype running a sampled multi-app mix
//! ([`leaseos_apps::fleet`]) for its own session length — under every
//! configured policy and fault arm, and reports per-policy savings
//! percentiles (p5/p50/p95/p99) per arm.
//!
//! ## Cohorts, caching, sharding
//!
//! Devices are grouped into fixed-size *cohorts* — the unit of both
//! caching and scheduling. A cohort's result is one JSONL chunk (one line
//! per device × arm), content-addressed in [`ResultCache`] by the
//! population fingerprint, the device range, the sweep axes, and the build
//! revision ([`cohort_key`]), so an incremental sweep only re-executes
//! dirty cohorts and a warm re-run of an unchanged population reports
//! `misses: 0` while replaying byte-identical output.
//!
//! A fleet run shards across *processes* by splitting the cohort sequence
//! into contiguous ranges ([`shard_cohorts`]); cohort boundaries depend
//! only on population size and cohort size, never on the shard count, so
//! concatenating the shard outputs in shard order ([`merge_shards`])
//! reproduces the single-process byte stream exactly — and the two share
//! cache entries.
//!
//! ## The NaN policy, exercised honestly
//!
//! Per-device savings are the raw ratio `100·(base − treated)/base`
//! against the same-arm vanilla power. A fault that idles both runs makes
//! that 0/0 — a genuine NaN, serialised as JSON `null` and excluded from
//! the percentile tables by [`leaseos_simkit::stats`]'s documented
//! drop-and-count policy (the `dropped` column), never silently swallowed
//! and never a panic.

use std::ops::Range;

use leaseos_apps::fleet::{sample_mix, MIX_SAMPLER_VERSION};
use leaseos_framework::Kernel;
use leaseos_simkit::stats::Summary;
use leaseos_simkit::{JsonValue, PopulationSpec, SimDuration, SimTime};

use crate::cache::{CacheKey, CacheStats, KeyBuilder, ResultCache};
use crate::conformance::FaultArm;
use crate::{f2, PolicyKind, ScenarioRunner, TextTable};

/// A fleet sweep, as data: the population plus the policy × arm axes.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The generated device population.
    pub population: PopulationSpec,
    /// Policy columns. Savings require [`PolicyKind::Vanilla`] present.
    pub policies: Vec<PolicyKind>,
    /// Fault arms; each device runs every arm on its own fault plan.
    pub arms: Vec<FaultArm>,
    /// Devices per cohort — the caching/scheduling granule. Boundaries
    /// depend only on this and the population size, never on shard count.
    pub cohort_size: u64,
    /// Mean fault inter-arrival interval per enabled class.
    pub mean_interval: SimDuration,
    /// Crash-restart semantics (see `MatrixConfig::cold_restart`).
    pub cold_restart: bool,
}

impl FleetConfig {
    /// The default sweep: `devices` devices from `seed`, the Table 5
    /// policy columns, the control and all-faults arms, 50-device cohorts.
    pub fn new(seed: u64, devices: u64) -> Self {
        FleetConfig {
            population: PopulationSpec::new(seed, devices),
            policies: PolicyKind::TABLE5.to_vec(),
            arms: vec![FaultArm::Control, FaultArm::All],
            cohort_size: 50,
            mean_interval: SimDuration::from_secs(300),
            cold_restart: true,
        }
    }

    /// Validates the axes and the population knobs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.population.validate()?;
        if self.policies.is_empty() {
            return Err("no policies configured".into());
        }
        if self.arms.is_empty() {
            return Err("no fault arms configured".into());
        }
        if self.cohort_size == 0 {
            return Err("cohort size must be positive".into());
        }
        Ok(())
    }

    /// Number of cohorts the population splits into.
    pub fn cohort_count(&self) -> u64 {
        self.population.size.div_ceil(self.cohort_size)
    }

    /// The device range of cohort `cohort` (the last cohort may be short).
    pub fn cohort_devices(&self, cohort: u64) -> Range<u64> {
        let lo = cohort * self.cohort_size;
        lo..((cohort + 1) * self.cohort_size).min(self.population.size)
    }
}

/// The contiguous cohort range shard `shard` of `shards` owns. Every shard
/// gets `ceil(cohorts / shards)` cohorts except a possibly-short (or
/// empty) tail, so concatenating shard outputs in shard order reproduces
/// the single-shard cohort sequence exactly.
///
/// # Panics
///
/// Panics when `shards == 0` or `shard >= shards`.
pub fn shard_cohorts(cohorts: u64, shard: u64, shards: u64) -> Range<u64> {
    assert!(shards > 0, "shard count must be positive");
    assert!(
        shard < shards,
        "shard {shard} out of range ({shards} shards)"
    );
    let per = cohorts.div_ceil(shards);
    let lo = (shard * per).min(cohorts);
    lo..((shard + 1) * per).min(cohorts)
}

/// One device × arm measurement: the sampled device, its app mix, and the
/// measured per-policy powers. Serialises to exactly one JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOutcome {
    /// Device index within the population.
    pub device: u64,
    /// Fault-arm name ([`FaultArm::name`]).
    pub arm: String,
    /// Hardware archetype name.
    pub archetype: String,
    /// Trigger-environment class name.
    pub trigger: String,
    /// Table 5 app names in the device's mix, primary first.
    pub apps: Vec<String>,
    /// Sampled battery state-of-health.
    pub battery_health: f64,
    /// Sampled radio-quality bucket name.
    pub radio: String,
    /// Sampled screen-class bucket name.
    pub screen: String,
    /// The device's session length, minutes.
    pub session_mins: u64,
    /// Average summed app power per policy (CLI name → mW), config order.
    pub power_mw: Vec<(String, f64)>,
    /// Savings vs same-arm vanilla per non-vanilla policy, percent. A
    /// non-finite ratio (0/0 baseline) is held as NaN and serialised as
    /// JSON `null`.
    pub savings_pct: Vec<(String, f64)>,
}

impl DeviceOutcome {
    /// The outcome as one JSON object (one JSONL line, newline excluded).
    pub fn to_json(&self) -> String {
        let num_map = |pairs: &[(String, f64)]| {
            JsonValue::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| {
                        let val = if v.is_finite() {
                            JsonValue::Num(*v)
                        } else {
                            JsonValue::Null
                        };
                        (k.clone(), val)
                    })
                    .collect(),
            )
        };
        JsonValue::Obj(vec![
            ("device".into(), JsonValue::Num(self.device as f64)),
            ("arm".into(), JsonValue::Str(self.arm.clone())),
            ("archetype".into(), JsonValue::Str(self.archetype.clone())),
            ("trigger".into(), JsonValue::Str(self.trigger.clone())),
            (
                "apps".into(),
                JsonValue::Arr(
                    self.apps
                        .iter()
                        .map(|a| JsonValue::Str(a.clone()))
                        .collect(),
                ),
            ),
            ("battery_health".into(), JsonValue::Num(self.battery_health)),
            ("radio".into(), JsonValue::Str(self.radio.clone())),
            ("screen".into(), JsonValue::Str(self.screen.clone())),
            (
                "session_mins".into(),
                JsonValue::Num(self.session_mins as f64),
            ),
            ("power_mw".into(), num_map(&self.power_mw)),
            ("savings_pct".into(), num_map(&self.savings_pct)),
        ])
        .to_json()
    }

    /// Parses one JSONL line back into the outcome. JSON `null` in the
    /// numeric maps becomes NaN (the in-memory spelling of "dropped").
    ///
    /// # Errors
    ///
    /// Reports the first missing or mistyped field.
    pub fn parse(line: &str) -> Result<DeviceOutcome, String> {
        let doc = JsonValue::parse(line).map_err(|e| format!("bad fleet line: {e}"))?;
        let str_field = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("fleet line missing string field {k:?}"))
        };
        let num_field = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("fleet line missing numeric field {k:?}"))
        };
        let num_map = |k: &str| -> Result<Vec<(String, f64)>, String> {
            match doc.get(k) {
                Some(JsonValue::Obj(fields)) => fields
                    .iter()
                    .map(|(name, v)| match v {
                        JsonValue::Num(n) => Ok((name.clone(), *n)),
                        JsonValue::Null => Ok((name.clone(), f64::NAN)),
                        _ => Err(format!("non-numeric entry {name:?} in {k:?}")),
                    })
                    .collect(),
                _ => Err(format!("fleet line missing object field {k:?}")),
            }
        };
        let apps = match doc.get("apps") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "non-string app entry".to_owned())
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("fleet line missing array field \"apps\"".into()),
        };
        Ok(DeviceOutcome {
            device: num_field("device")? as u64,
            arm: str_field("arm")?,
            archetype: str_field("archetype")?,
            trigger: str_field("trigger")?,
            apps,
            battery_health: num_field("battery_health")?,
            radio: str_field("radio")?,
            screen: str_field("screen")?,
            session_mins: num_field("session_mins")? as u64,
            power_mw: num_map("power_mw")?,
            savings_pct: num_map("savings_pct")?,
        })
    }
}

/// Simulates one device under every configured arm and policy.
fn run_device(cfg: &FleetConfig, index: u64) -> Vec<DeviceOutcome> {
    let params = cfg.population.device(index);
    let mix = sample_mix(&mut cfg.population.mix_rng(index));
    let length = SimDuration::from_mins(params.session_mins);
    let kernel_seed = cfg.population.kernel_seed(index);
    let vanilla = cfg.policies.iter().position(|p| *p == PolicyKind::Vanilla);

    let mut outcomes = Vec::with_capacity(cfg.arms.len());
    for &arm in &cfg.arms {
        // One plan per (device, arm), shared across policies so columns
        // within an arm stay comparable.
        let plan = arm.plan(kernel_seed, length, cfg.mean_interval);
        let mut power_mw = Vec::with_capacity(cfg.policies.len());
        for &policy in &cfg.policies {
            let mut kernel = Kernel::new(
                params.profile(),
                mix.environment(),
                policy.build(),
                kernel_seed,
            );
            let apps: Vec<_> = mix
                .cases
                .iter()
                .map(|case| kernel.add_app((case.build)()))
                .collect();
            kernel.install_fault_plan(&plan);
            kernel.set_cold_restart(cfg.cold_restart);
            kernel.run_until(SimTime::from_millis(0) + length);
            let total: f64 = apps
                .iter()
                .map(|&app| kernel.avg_app_power_mw(app, length))
                .sum();
            power_mw.push((policy.cli_name().to_owned(), total));
        }
        // Raw savings ratio: NaN on a 0/0 cell by design — the stats
        // layer's drop-and-count policy reports it, we don't clamp it.
        let savings_pct = match vanilla {
            Some(vp) => {
                let base = power_mw[vp].1;
                cfg.policies
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| *p != vp)
                    .map(|(p, policy)| {
                        (
                            policy.cli_name().to_owned(),
                            100.0 * (base - power_mw[p].1) / base,
                        )
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        outcomes.push(DeviceOutcome {
            device: index,
            arm: arm.name().to_owned(),
            archetype: params.archetype_name().to_owned(),
            trigger: mix.trigger.name().to_owned(),
            apps: mix.case_names().iter().map(|s| (*s).to_owned()).collect(),
            battery_health: params.battery_health,
            radio: params.radio.name().to_owned(),
            screen: params.screen.name().to_owned(),
            session_mins: params.session_mins,
            power_mw,
            savings_pct,
        });
    }
    outcomes
}

/// The cache key of one cohort: a content hash over the population
/// fingerprint (generator version included), the mix-sampler version, the
/// cohort's device range, the sweep axes, the restart semantics, and the
/// build revision. Deliberately independent of shard count and shard
/// index — every shard split shares one set of entries.
pub fn cohort_key(cfg: &FleetConfig, cohort: u64, rev: &str) -> CacheKey {
    let range = cfg.cohort_devices(cohort);
    let policies: Vec<&str> = cfg.policies.iter().map(|p| p.cli_name()).collect();
    let arms: Vec<&str> = cfg.arms.iter().map(|a| a.name()).collect();
    KeyBuilder::new("fleet-cohort/v1")
        .field("pop", cfg.population.fingerprint())
        .field("mix", MIX_SAMPLER_VERSION)
        .field("devices", format!("{}..{}", range.start, range.end))
        .field("policies", policies.join(","))
        .field("arms", arms.join(","))
        .field("mean_ms", cfg.mean_interval.as_millis())
        .field("cold", if cfg.cold_restart { "1" } else { "0" })
        .field("rev", rev)
        .finish()
}

/// Executes (or replays) one cohort, returning its JSONL chunk: one line
/// per device × arm, devices ascending, arms in config order.
fn run_cohort(cfg: &FleetConfig, cohort: u64, cache: Option<&ResultCache>, rev: &str) -> Vec<u8> {
    let key = cache.map(|c| (c, cohort_key(cfg, cohort, rev)));
    if let Some((cache, key)) = key {
        if let Some(entry) = cache.load(key) {
            return entry.jsonl;
        }
    }
    let range = cfg.cohort_devices(cohort);
    let mut jsonl = Vec::new();
    for index in range.clone() {
        for outcome in run_device(cfg, index) {
            jsonl.extend_from_slice(outcome.to_json().as_bytes());
            jsonl.push(b'\n');
        }
    }
    if let Some((cache, key)) = key {
        let summary = JsonValue::Obj(vec![
            ("cohort".into(), JsonValue::Num(cohort as f64)),
            (
                "devices".into(),
                JsonValue::Num((range.end - range.start) as f64),
            ),
        ]);
        if let Err(e) = cache.store(key, &summary, &jsonl) {
            eprintln!("warning: fleet cache store failed for cohort {cohort}: {e}");
        }
    }
    jsonl
}

/// One shard's completed portion of a fleet sweep.
#[derive(Debug)]
pub struct ShardRun {
    /// The shard's JSONL stream: its cohorts' chunks concatenated in
    /// cohort order.
    pub jsonl: Vec<u8>,
    /// Devices this shard simulated (or replayed).
    pub devices: u64,
    /// Cache counters, when a cache was used.
    pub cache_stats: Option<CacheStats>,
}

/// Runs shard `shard` of `shards` — its contiguous cohort range — through
/// the runner's workers. `shard 0 of 1` is the whole fleet.
///
/// # Errors
///
/// Fails on an invalid config.
pub fn run_shard(
    cfg: &FleetConfig,
    shard: u64,
    shards: u64,
    runner: &ScenarioRunner,
    cache: Option<&ResultCache>,
    rev: &str,
) -> Result<ShardRun, String> {
    cfg.validate()?;
    if shards == 0 || shard >= shards {
        return Err(format!("shard {shard}/{shards} out of range"));
    }
    let cohorts = shard_cohorts(cfg.cohort_count(), shard, shards);
    let chunks = runner.run_tasks((cohorts.end - cohorts.start) as usize, |i| {
        run_cohort(cfg, cohorts.start + i as u64, cache, rev)
    });
    let mut jsonl = Vec::new();
    for chunk in chunks {
        jsonl.extend_from_slice(&chunk);
    }
    let devices = cohorts
        .clone()
        .map(|c| {
            let r = cfg.cohort_devices(c);
            r.end - r.start
        })
        .sum();
    Ok(ShardRun {
        jsonl,
        devices,
        cache_stats: cache.map(ResultCache::stats),
    })
}

/// Concatenates shard JSONL streams in shard order and verifies the device
/// sequence is exactly `0..n` with a constant line count per device — the
/// merged stream is then byte-identical to a single-shard run.
///
/// # Errors
///
/// Reports a gap, overlap, or reordering in the merged device sequence.
pub fn merge_shards(shards: &[Vec<u8>]) -> Result<Vec<u8>, String> {
    let mut merged = Vec::new();
    for chunk in shards {
        merged.extend_from_slice(chunk);
    }
    let text = std::str::from_utf8(&merged).map_err(|e| format!("non-UTF-8 fleet line: {e}"))?;
    let mut expected: u64 = 0;
    let mut current: Option<u64> = None;
    for line in text.lines() {
        let device = DeviceOutcome::parse(line)?.device;
        if Some(device) == current {
            continue;
        }
        if device != expected {
            return Err(format!(
                "merged stream out of order: expected device {expected}, got {device} \
                 (shards merged in the wrong order, or one is missing)"
            ));
        }
        current = Some(device);
        expected += 1;
    }
    Ok(merged)
}

/// The population-level report: one row per (mitigating policy, arm) with
/// the savings distribution over the fleet — finite-sample count, dropped
/// non-finite cells, mean, and the p5/p50/p95/p99 percentiles.
///
/// Built purely from the JSONL stream (cold, warm, and merged runs all
/// print identical bytes).
///
/// # Errors
///
/// Fails on an unparseable line.
pub fn render_report(jsonl: &[u8], cfg: &FleetConfig) -> Result<String, String> {
    let text = std::str::from_utf8(jsonl).map_err(|e| format!("non-UTF-8 fleet line: {e}"))?;
    let policies: Vec<&PolicyKind> = cfg
        .policies
        .iter()
        .filter(|p| **p != PolicyKind::Vanilla)
        .collect();
    // values[(policy, arm)] = per-device savings samples, NaN included.
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); policies.len() * cfg.arms.len()];
    let mut lines = 0u64;
    for line in text.lines() {
        let outcome = DeviceOutcome::parse(line)?;
        lines += 1;
        let Some(ai) = cfg.arms.iter().position(|a| a.name() == outcome.arm) else {
            continue;
        };
        for (pi, policy) in policies.iter().enumerate() {
            let sample = outcome
                .savings_pct
                .iter()
                .find(|(name, _)| name == policy.cli_name())
                .map_or(f64::NAN, |(_, v)| *v);
            values[pi * cfg.arms.len() + ai].push(sample);
        }
    }

    let mut table = TextTable::new([
        "Policy", "Arm", "Devices", "Dropped", "Mean %", "P5 %", "P50 %", "P95 %", "P99 %",
    ]);
    for (pi, policy) in policies.iter().enumerate() {
        for (ai, arm) in cfg.arms.iter().enumerate() {
            let samples = &values[pi * cfg.arms.len() + ai];
            let mut row = vec![
                policy.label().to_owned(),
                arm.name().to_owned(),
                samples.len().to_string(),
            ];
            match Summary::of(samples) {
                Some(s) => {
                    row.push(s.dropped.to_string());
                    for v in [s.mean, s.p5, s.median, s.p95, s.p99] {
                        row.push(f2(v));
                    }
                }
                None => {
                    row.push(samples.len().to_string());
                    row.extend(std::iter::repeat_n("n/a".to_owned(), 5));
                }
            }
            table.row(row);
        }
    }
    Ok(format!(
        "Fleet — {} devices, {} policies × {} arms ({lines} device-arm lines)\n\
         Savings are % of the same-arm vanilla power; Dropped counts devices\n\
         whose savings ratio was non-finite (0/0 idle cells), excluded from\n\
         the distribution by the stats layer's documented NaN policy.\n{}",
        cfg.population.size,
        cfg.policies.len(),
        cfg.arms.len(),
        table.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> FleetConfig {
        let mut cfg = FleetConfig::new(42, 8);
        cfg.policies = vec![PolicyKind::Vanilla, PolicyKind::LeaseOs];
        cfg.arms = vec![FaultArm::Control, FaultArm::All];
        cfg.cohort_size = 3;
        // Short sessions keep the test fast while staying real runs.
        cfg.population.session_mins = (2, 4);
        cfg
    }

    #[test]
    fn shard_ranges_tile_the_cohort_sequence() {
        for cohorts in [0u64, 1, 5, 7, 16] {
            for shards in [1u64, 2, 3, 4, 9] {
                let mut next = 0;
                for shard in 0..shards {
                    let r = shard_cohorts(cohorts, shard, shards);
                    assert_eq!(r.start, next.min(cohorts), "contiguous");
                    assert!(r.end <= cohorts);
                    next = r.end.max(next);
                }
                assert_eq!(next, cohorts, "{cohorts} cohorts / {shards} shards");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_is_bounds_checked() {
        shard_cohorts(10, 2, 2);
    }

    #[test]
    fn device_outcome_line_round_trips_including_nan() {
        let outcome = DeviceOutcome {
            device: 17,
            arm: "all".into(),
            archetype: "Pixel XL".into(),
            trigger: "unattended".into(),
            apps: vec!["Facebook".into(), "Torch".into()],
            battery_health: 0.8125,
            radio: "poor".into(),
            screen: "large".into(),
            session_mins: 23,
            power_mw: vec![("vanilla".into(), 0.0), ("leaseos".into(), 0.0)],
            savings_pct: vec![("leaseos".into(), f64::NAN)],
        };
        let line = outcome.to_json();
        assert!(line.contains("null"), "NaN serialises as null: {line}");
        let back = DeviceOutcome::parse(&line).unwrap();
        assert!(back.savings_pct[0].1.is_nan());
        assert_eq!(back.device, outcome.device);
        assert_eq!(back.apps, outcome.apps);
        assert_eq!(back.power_mw, outcome.power_mw);
        assert!(DeviceOutcome::parse("{}").is_err());
    }

    #[test]
    fn shard_split_is_byte_identical_to_single_process() {
        let cfg = tiny_config();
        let runner = ScenarioRunner::with_threads(2);
        let single = run_shard(&cfg, 0, 1, &runner, None, "r").unwrap();
        assert_eq!(single.devices, 8);
        let chunks: Vec<Vec<u8>> = (0..3)
            .map(|s| run_shard(&cfg, s, 3, &runner, None, "r").unwrap().jsonl)
            .collect();
        let merged = merge_shards(&chunks).unwrap();
        assert_eq!(merged, single.jsonl, "3-shard merge == 1-shard bytes");
        assert_eq!(
            render_report(&merged, &cfg).unwrap(),
            render_report(&single.jsonl, &cfg).unwrap()
        );
    }

    #[test]
    fn merge_rejects_misordered_and_missing_shards() {
        let cfg = tiny_config();
        let runner = ScenarioRunner::with_threads(1);
        let a = run_shard(&cfg, 0, 2, &runner, None, "r").unwrap().jsonl;
        let b = run_shard(&cfg, 1, 2, &runner, None, "r").unwrap().jsonl;
        assert!(merge_shards(&[a.clone(), b.clone()]).is_ok());
        let err = merge_shards(&[b.clone(), a]).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
        assert!(merge_shards(&[b]).is_err(), "a missing shard is detected");
    }

    #[test]
    fn report_covers_every_policy_arm_pair() {
        let cfg = tiny_config();
        let run = run_shard(&cfg, 0, 1, &ScenarioRunner::with_threads(2), None, "r").unwrap();
        let report = render_report(&run.jsonl, &cfg).unwrap();
        assert!(report.contains("8 devices"));
        for arm in &cfg.arms {
            assert!(report.contains(arm.name()), "arm {} in report", arm.name());
        }
        assert!(report.contains("LeaseOS"));
        assert!(!report.contains("Vanilla"), "vanilla is the baseline");
    }

    #[test]
    fn config_validation_rejects_bad_axes() {
        let mut cfg = tiny_config();
        cfg.policies.clear();
        assert!(cfg.validate().is_err());
        cfg = tiny_config();
        cfg.arms.clear();
        assert!(cfg.validate().is_err());
        cfg = tiny_config();
        cfg.cohort_size = 0;
        assert!(cfg.validate().is_err());
        cfg = tiny_config();
        cfg.population.size = 0;
        assert!(cfg.validate().is_err());
        assert!(tiny_config().validate().is_ok());
    }

    #[test]
    fn cohort_key_tracks_every_axis_but_not_the_shard_split() {
        let cfg = tiny_config();
        let base = cohort_key(&cfg, 0, "rev");
        assert_eq!(base, cohort_key(&cfg, 0, "rev"), "deterministic");
        assert_ne!(base, cohort_key(&cfg, 1, "rev"));
        assert_ne!(base, cohort_key(&cfg, 0, "rev2"));
        let mut m = cfg.clone();
        m.population.seed = 43;
        assert_ne!(base, cohort_key(&m, 0, "rev"));
        m = cfg.clone();
        m.arms = vec![FaultArm::Control];
        assert_ne!(base, cohort_key(&m, 0, "rev"));
        m = cfg.clone();
        m.policies = vec![PolicyKind::Vanilla];
        assert_ne!(base, cohort_key(&m, 0, "rev"));
        m = cfg.clone();
        m.cold_restart = false;
        assert_ne!(base, cohort_key(&m, 0, "rev"));
    }
}
