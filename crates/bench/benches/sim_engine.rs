//! Criterion benchmarks for the simulation substrate itself: event-queue
//! throughput, energy-meter integration, and a full 30-minute Table 5 case
//! end to end — the numbers that bound how fast the whole evaluation can
//! re-run.
//!
//! Run: `cargo bench -p leaseos-bench --bench sim_engine`

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use leaseos_apps::buggy::table5_cases;
use leaseos_bench::{Matrix, PolicyKind, RUN_LENGTH};
use leaseos_simkit::{ComponentKind, Consumer, EnergyMeter, EventQueue, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                q.push(SimTime::from_millis((i * 37) % 10_000 + 10_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            acc
        })
    });
}

fn bench_energy_meter(c: &mut Criterion) {
    c.bench_function("energy_meter_1k_draw_changes", |b| {
        b.iter_batched(
            EnergyMeter::new,
            |mut m| {
                for i in 0..1_000u64 {
                    m.set_draw(
                        SimTime::from_millis(i),
                        Consumer::App((i % 8) as u32),
                        ComponentKind::Cpu,
                        (i % 100) as f64,
                    );
                }
                m.total_energy_mj()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_full_case(c: &mut Criterion) {
    let torch = table5_cases()
        .into_iter()
        .find(|case| case.name == "Torch")
        .unwrap();
    let spec = Matrix::new(RUN_LENGTH)
        .seeds(vec![1])
        .app(
            torch.name,
            Arc::new(torch.build),
            Arc::new(torch.environment),
        )
        .policy("leaseos", Arc::new(|| PolicyKind::LeaseOs.build()))
        .specs()
        .remove(0);
    c.bench_function("table5_torch_case_30min_leaseos", |b| {
        b.iter(|| {
            let run = spec.execute();
            (run.app_power_mw(), run.system_power_mw())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_event_queue, bench_energy_meter, bench_full_case
}
criterion_main!(benches);
