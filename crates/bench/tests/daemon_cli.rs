//! End-to-end tests of the `daemon` binary itself: server lifecycle under
//! SIGINT, the protocol `shutdown` command, and the scripting client mode.
//! That mode is the only client: the one-shot binaries reject `--connect`,
//! and `table5` rejects `--cache`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use leaseos_bench::daemon::DaemonClient;
use leaseos_simkit::JsonValue;

static SCRATCH: AtomicU64 = AtomicU64::new(0);

/// Unique socket + cache dir pair for one spawned server.
fn scratch_paths(tag: &str) -> (PathBuf, PathBuf) {
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let tmp = std::env::temp_dir();
    (
        tmp.join(format!("leaseos-cli-{tag}-{pid}-{n}.sock")),
        tmp.join(format!("leaseos-cli-{tag}-cache-{pid}-{n}")),
    )
}

/// Starts the daemon binary and waits until its socket accepts.
fn start_server(socket: &Path, cache: &Path) -> (Child, DaemonClient) {
    let child = Command::new(env!("CARGO_BIN_EXE_daemon"))
        .args(["--socket", &socket.display().to_string()])
        .args(["--cache-dir", &cache.display().to_string()])
        .args(["--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon binary starts");
    let client =
        DaemonClient::connect_retry(socket, Duration::from_secs(10)).expect("daemon comes up");
    (child, client)
}

/// Waits up to 10 s for the child to exit, then returns its output.
fn wait_for_exit(mut child: Child) -> std::process::Output {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(_) => return child.wait_with_output().expect("collect output"),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("daemon did not exit within 10 s of shutdown");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

#[test]
fn sigint_drains_and_exits_zero() {
    let (socket, cache) = scratch_paths("sigint");
    let (child, mut client) = start_server(&socket, &cache);

    let pong = client.call("ping", Vec::new()).expect("ping served");
    assert!(pong.get("pid").is_some());

    let status = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success());

    let output = wait_for_exit(child);
    assert!(
        output.status.success(),
        "daemon must exit 0 on SIGINT, got {:?}",
        output.status
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("daemon cache:"),
        "exit banner missing from stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("daemon_requests_total"),
        "final metrics snapshot missing from stderr:\n{stderr}"
    );
    assert!(!socket.exists(), "socket file must be removed on exit");
}

#[test]
fn client_mode_round_trips_and_shutdown_command_stops_the_server() {
    let (socket, cache) = scratch_paths("client");
    let (child, _server_client) = start_server(&socket, &cache);
    let socket_arg = socket.display().to_string();

    // Scripting client mode: one request line in, one response line out.
    let ping = Command::new(env!("CARGO_BIN_EXE_daemon"))
        .args(["--connect", &socket_arg])
        .args(["--request", "{\"v\":1,\"id\":7,\"cmd\":\"ping\"}"])
        .output()
        .expect("client mode runs");
    assert!(ping.status.success(), "ping client exits 0");
    let line = String::from_utf8(ping.stdout).expect("response is UTF-8");
    let resp = JsonValue::parse(line.trim()).expect("response parses");
    assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(resp.get("id"), Some(&JsonValue::Num(7.0)));

    // An ok:false response makes the client exit 1.
    let bad = Command::new(env!("CARGO_BIN_EXE_daemon"))
        .args(["--connect", &socket_arg])
        .args(["--request", "{\"v\":1,\"cmd\":\"frobnicate\"}"])
        .output()
        .expect("client mode runs");
    assert_eq!(bad.status.code(), Some(1), "error responses exit 1");

    // `--extract output` prints a daemon-served report byte-identical to
    // the one-shot binary's.
    let served = Command::new(env!("CARGO_BIN_EXE_daemon"))
        .args(["--connect", &socket_arg])
        .args([
            "--request",
            r#"{"v":1,"cmd":"dumpsys","app":"Facebook","policy":"vanilla","seed":42,"minutes":5}"#,
        ])
        .args(["--extract", "output"])
        .output()
        .expect("client mode runs");
    assert!(served.status.success(), "dumpsys request exits 0");
    let oneshot = Command::new(env!("CARGO_BIN_EXE_dumpsys"))
        .args(["--app", "Facebook", "--policy", "vanilla"])
        .args(["--seed", "42", "--mins", "5"])
        .output()
        .expect("dumpsys runs");
    assert!(!oneshot.stdout.is_empty(), "dumpsys prints a report");
    assert_eq!(
        String::from_utf8_lossy(&served.stdout),
        String::from_utf8_lossy(&oneshot.stdout),
        "daemon-served dumpsys must match the one-shot binary"
    );

    // The protocol shutdown command drains the server to a clean exit.
    let stop = Command::new(env!("CARGO_BIN_EXE_daemon"))
        .args(["--connect", &socket_arg])
        .args(["--request", "{\"v\":1,\"cmd\":\"shutdown\"}"])
        .output()
        .expect("client mode runs");
    assert!(stop.status.success(), "shutdown client exits 0");

    let output = wait_for_exit(child);
    assert!(
        output.status.success(),
        "daemon must exit 0 after shutdown, got {:?}",
        output.status
    );
    assert!(!socket.exists(), "socket file must be removed on exit");
}

#[test]
fn one_shot_binaries_reject_connect_and_cache_flags() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_explore"), &["--connect", "x"][..]),
        (env!("CARGO_BIN_EXE_dumpsys"), &["--connect", "x"]),
        (env!("CARGO_BIN_EXE_table5"), &["--cache"]),
    ] {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        assert!(
            !out.status.success(),
            "{bin} {args:?} must exit non-zero, got {:?}",
            out.status
        );
    }
}
