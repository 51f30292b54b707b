//! Determinism of the telemetry stream under the parallel harness.
//!
//! The contract: a scenario's telemetry JSONL is a pure function of its
//! spec (app, policy, device, environment, seed) — the number of worker
//! threads the [`ScenarioRunner`] happens to use must not change a single
//! byte. This is what makes `repro table5 --jsonl` output diffable across
//! machines and thread counts.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use leaseos::LeaseOs;
use leaseos_apps::buggy::table5_cases;
use leaseos_apps::normal::{RunKeeper, Spotify};
use leaseos_bench::{Matrix, ScenarioRunner, ScenarioSpec};
use leaseos_framework::{AppModel, ResourcePolicy, VanillaPolicy};
use leaseos_simkit::{Environment, JsonlSink, Schedule, SimDuration};
use proptest::prelude::*;

/// Runs every spec with a capturing JSONL sink attached and returns the
/// bytes each scenario emitted, in spec order.
fn jsonl_for(specs: &[ScenarioSpec], threads: usize) -> Vec<Vec<u8>> {
    ScenarioRunner::with_threads(threads).run(specs, |_, spec| {
        let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
        let run = spec.execute_with(|kernel| kernel.telemetry().attach(sink.clone()));
        drop(run);
        let bytes = sink.borrow().get_ref().clone();
        bytes
    })
}

fn mixed_matrix(seeds: Vec<u64>) -> Vec<ScenarioSpec> {
    let cases = table5_cases();
    let k9 = cases
        .iter()
        .find(|c| c.name == "K-9 Mail")
        .unwrap_or(&cases[0]);
    Matrix::new(SimDuration::from_mins(5))
        .seeds(seeds)
        .app(k9.name, Arc::new(k9.build), Arc::new(k9.environment))
        .app(
            "RunKeeper",
            Arc::new(|| Box::new(RunKeeper::new()) as Box<dyn AppModel>),
            Arc::new(|| {
                let mut env = Environment::unattended();
                env.in_motion = Schedule::new(true);
                env
            }),
        )
        .policy(
            "vanilla",
            Arc::new(|| Box::new(VanillaPolicy::new()) as Box<dyn ResourcePolicy>),
        )
        .policy(
            "leaseos",
            Arc::new(|| Box::new(LeaseOs::new()) as Box<dyn ResourcePolicy>),
        )
        .specs()
}

#[test]
fn telemetry_jsonl_is_byte_identical_across_thread_counts() {
    let specs = mixed_matrix(vec![42, 43, 44]);
    let sequential = jsonl_for(&specs, 1);
    let parallel = jsonl_for(&specs, 8);
    assert_eq!(sequential.len(), specs.len());
    for (i, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
        assert!(!a.is_empty(), "scenario {} emitted nothing", specs[i].label);
        assert_eq!(
            a, b,
            "scenario {} diverged across thread counts",
            specs[i].label
        );
    }
}

#[test]
fn different_seeds_produce_different_streams() {
    let specs = Matrix::new(SimDuration::from_mins(5))
        .seeds(vec![1, 2])
        .app(
            "Spotify",
            Arc::new(|| Box::new(Spotify::new()) as Box<dyn AppModel>),
            Arc::new(Environment::unattended),
        )
        .policy(
            "leaseos",
            Arc::new(|| Box::new(LeaseOs::new()) as Box<dyn ResourcePolicy>),
        )
        .specs();
    let streams = jsonl_for(&specs, 2);
    assert_ne!(
        streams[0], streams[1],
        "seeds 1 and 2 should not produce identical telemetry"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property form of the contract: for any seed, a leaky-app scenario's
    /// JSONL is identical whether the batch runs on 1 thread or 4.
    #[test]
    fn any_seed_is_thread_invariant(seed in 0u64..10_000) {
        let cases = table5_cases();
        let case = &cases[(seed % cases.len() as u64) as usize];
        let specs = Matrix::new(SimDuration::from_mins(2))
            .seeds(vec![seed, seed ^ 0x9e37_79b9])
            .app(case.name, Arc::new(case.build), Arc::new(case.environment))
            .policy(
                "leaseos",
                Arc::new(|| Box::new(LeaseOs::new()) as Box<dyn ResourcePolicy>),
            )
            .specs();
        prop_assert_eq!(jsonl_for(&specs, 1), jsonl_for(&specs, 4));
    }
}
