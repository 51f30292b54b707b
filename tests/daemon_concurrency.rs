//! Single-flight and graceful-shutdown guarantees of the resident daemon:
//! a stampede of identical cold requests executes the cell exactly once,
//! and `shutdown` drains in-flight work before the socket disappears.

use std::path::Path;
use std::sync::{Arc, Barrier};

use leaseos_bench::daemon::{self, DaemonConfig};
use leaseos_simkit::JsonValue;

/// Reads one metric's value out of a Prometheus snapshot.
fn metric(snapshot: &str, name: &str) -> f64 {
    snapshot
        .lines()
        .find_map(|line| {
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .and_then(|value| value.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("metric {name} not in snapshot:\n{snapshot}"))
}

fn cell_fields() -> Vec<(String, JsonValue)> {
    vec![
        ("app".to_owned(), JsonValue::Str("Torch".to_owned())),
        ("minutes".to_owned(), JsonValue::Num(2.0)),
    ]
}

/// Regression test for the duplicate-execution race: before single-flight,
/// N concurrent cold requests for the same cell each ran the simulation.
#[test]
fn identical_cold_cells_execute_exactly_once() {
    const STAMPEDE: usize = 8;
    let mut config = DaemonConfig::scratch("flight");
    config.cache_dir = None;
    let daemon = daemon::spawn(config).expect("daemon binds");

    let barrier = Arc::new(Barrier::new(STAMPEDE));
    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..STAMPEDE)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let daemon = &daemon;
                scope.spawn(move || {
                    let mut client = daemon.client().expect("client connects");
                    barrier.wait();
                    client
                        .call("run-cell", cell_fields())
                        .expect("stampede run-cell succeeds")
                        .to_json()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for resp in &responses[1..] {
        assert_eq!(resp, &responses[0], "stampede responses must be identical");
    }

    let snapshot = daemon.handle().registry().render_prometheus();
    daemon.shutdown().expect("clean shutdown");
    assert_eq!(
        metric(&snapshot, "daemon_cell_executions_total"),
        1.0,
        "the cell must execute exactly once:\n{snapshot}"
    );
    // Every request is accounted for exactly once across the four ways a
    // cell can be served.
    let served = metric(&snapshot, "daemon_cell_executions_total")
        + metric(&snapshot, "daemon_cell_mem_hits_total")
        + metric(&snapshot, "daemon_cell_joined_total")
        + metric(&snapshot, "daemon_cell_disk_loads_total");
    assert_eq!(served, STAMPEDE as f64, "accounting mismatch:\n{snapshot}");
}

/// Walks `dir` asserting no `.tmp` cache-write leftovers survived the
/// shutdown drain.
fn assert_no_tmp_entries(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("cache dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            assert_no_tmp_entries(&path);
        } else {
            assert!(
                path.extension().is_none_or(|ext| ext != "tmp"),
                "leftover temp file {}",
                path.display()
            );
        }
    }
}

#[test]
fn shutdown_drains_inflight_work_and_removes_the_socket() {
    let config = DaemonConfig::scratch("drain");
    let cache_dir = config
        .cache_dir
        .clone()
        .expect("scratch config has a cache");
    let daemon = daemon::spawn(config).expect("daemon binds");
    let socket = daemon.socket().to_owned();

    let inflight = {
        let mut client = daemon.client().expect("worker client connects");
        std::thread::spawn(move || client.call("run-cell", cell_fields()))
    };
    // Give the in-flight request a moment to start executing, then ask
    // for shutdown from a second connection.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut admin = daemon.client().expect("admin client connects");
    let result = admin
        .call("shutdown", Vec::new())
        .expect("shutdown accepted");
    assert_eq!(result.get("draining"), Some(&JsonValue::Bool(true)));

    // The in-flight request still completes with a full, valid response.
    let outcome = inflight
        .join()
        .expect("worker thread survives")
        .expect("in-flight run-cell drains to completion");
    assert!(matches!(outcome, JsonValue::Obj(_)));

    let stats = daemon.shutdown().expect("serve loop exits cleanly");
    assert_eq!(stats.stores, 1, "drained stats: {stats}");

    // After the drain: no socket file, no new connections, and no
    // half-written cache entries.
    assert!(!socket.exists(), "socket file must be removed");
    assert!(
        std::os::unix::net::UnixStream::connect(&socket).is_err(),
        "new connections must be refused after shutdown"
    );
    assert_no_tmp_entries(&cache_dir);
}
