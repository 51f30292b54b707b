//! Protocol-level robustness: whatever bytes arrive on the wire, the
//! daemon answers with a structured error (or, past the size cap, an error
//! followed by a close) and keeps serving — it never panics and never
//! wedges the accept loop.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use proptest::prelude::*;
use proptest::strategy::from_fn;

use leaseos_bench::daemon::{self, DaemonConfig, MAX_REQUEST_BYTES, PROTOCOL_VERSION};
use leaseos_simkit::JsonValue;

/// A raw connection that can put arbitrary bytes on the wire (the typed
/// [`daemon::DaemonClient`] only speaks UTF-8 strings). Reads are capped at
/// 5 s so a wedged daemon fails the test instead of hanging it.
struct RawClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl RawClient {
    fn connect(socket: &Path) -> RawClient {
        let stream = UnixStream::connect(socket).expect("raw client connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout applies");
        let reader = BufReader::new(stream.try_clone().expect("stream clones"));
        RawClient {
            reader,
            writer: stream,
        }
    }

    /// Writes one framed payload and returns the response line. Write-side
    /// errors are ignored: an oversized payload makes the daemon respond
    /// and close mid-write, which can EPIPE the sender even though the
    /// error response is already waiting in our receive buffer.
    fn round_trip(&mut self, payload: &[u8]) -> std::io::Result<String> {
        let _ = self
            .writer
            .write_all(payload)
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(line.trim_end().to_owned())
    }
}

/// One adversarial request line (newline-free; the newline is the frame).
fn malformed_line() -> impl Strategy<Value = Vec<u8>> {
    from_fn(|rng| {
        let valid = format!("{{\"v\":{PROTOCOL_VERSION},\"cmd\":\"ping\"}}");
        match rng.below(11) {
            // Random non-UTF-8 garbage (continuation bytes only, never 0x0A).
            0 => (0..rng.below(64) + 1)
                .map(|_| 0x80 + rng.below(64) as u8)
                .collect(),
            // A truncated prefix of a valid request.
            1 => valid.as_bytes()[..rng.below(valid.len() as u64) as usize].to_vec(),
            // Valid JSON that is not an object.
            2 => b"[1,2,3]".to_vec(),
            3 => b"\"just a string\"".to_vec(),
            // Wrong or missing protocol version.
            4 => format!("{{\"v\":{},\"cmd\":\"ping\"}}", rng.below(1000) + 2).into_bytes(),
            5 => b"{\"cmd\":\"ping\"}".to_vec(),
            // Missing or unknown command.
            6 => format!("{{\"v\":{PROTOCOL_VERSION}}}").into_bytes(),
            7 => format!("{{\"v\":{PROTOCOL_VERSION},\"cmd\":\"frobnicate\"}}").into_bytes(),
            // A mistyped field on a real command.
            8 => {
                format!("{{\"v\":{PROTOCOL_VERSION},\"cmd\":\"run-cell\",\"app\":42}}").into_bytes()
            }
            // A fault arm with no time between faults.
            9 => format!(
                "{{\"v\":{PROTOCOL_VERSION},\"cmd\":\"run-cell\",\"app\":\"Torch\",\
                 \"arm\":\"all\",\"mean_secs\":0}}"
            )
            .into_bytes(),
            // More minutes than a simulated duration holds.
            _ => {
                let cmd = ["run-cell", "dumpsys", "explore"][rng.below(3) as usize];
                let minutes = u64::MAX / 60_000 + 1 + rng.below(1 << 20);
                format!(
                    "{{\"v\":{PROTOCOL_VERSION},\"cmd\":\"{cmd}\",\"app\":\"Torch\",\
                     \"minutes\":{minutes}}}"
                )
                .into_bytes()
            }
        }
    })
}

/// Asserts `line` is a protocol error response: parseable JSON with
/// `ok:false` and a non-empty `error` string.
fn assert_structured_error(line: &str) {
    let resp = JsonValue::parse(line)
        .unwrap_or_else(|e| panic!("error response must parse as JSON ({e}): {line}"));
    assert_eq!(
        resp.get("ok"),
        Some(&JsonValue::Bool(false)),
        "malformed input must be refused: {line}"
    );
    let error = resp
        .get("error")
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("error response carries an error string: {line}"));
    assert!(!error.is_empty());
}

/// A `trace` too large to preallocate is answered, and the daemon stays
/// up: the ring buffer grows only as events arrive.
#[test]
fn huge_explore_trace_is_answered_and_the_daemon_survives() {
    let mut config = DaemonConfig::scratch("proto-trace");
    config.cache_dir = None;
    let daemon = daemon::spawn(config).expect("daemon binds");

    let mut client = RawClient::connect(daemon.socket());
    let line = client
        .round_trip(br#"{"v":1,"cmd":"explore","trace":9007199254740992,"minutes":1}"#)
        .expect("the explore request is answered");
    let resp = JsonValue::parse(&line).expect("explore response parses");
    assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)), "got {line}");

    let mut fresh = daemon.client().expect("fresh connection accepted");
    fresh
        .call("ping", Vec::new())
        .expect("the daemon still serves");
    daemon.shutdown().expect("clean shutdown");
}

/// An `id` whose object keys need escaping is echoed as one well-formed
/// response line: the keys are escaped on the way out, not written raw.
#[test]
fn id_keys_that_need_escaping_are_echoed_intact() {
    let mut config = DaemonConfig::scratch("proto-id-keys");
    config.cache_dir = None;
    let daemon = daemon::spawn(config).expect("daemon binds");

    let mut client = RawClient::connect(daemon.socket());
    let line = client
        .round_trip(
            r#"{"v":1,"id":{"q\"t":1,"b\\s":2,"n\nl":3,"c\u0001":4,"café €":5},"cmd":"ping"}"#
                .as_bytes(),
        )
        .expect("the ping is answered");
    let resp = JsonValue::parse(&line)
        .unwrap_or_else(|e| panic!("the response line parses ({e}): {line}"));
    assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)), "got {line}");
    let sent = JsonValue::Obj(
        ["q\"t", "b\\s", "n\nl", "c\u{1}", "café €"]
            .iter()
            .zip(1..)
            .map(|(k, n)| (k.to_string(), JsonValue::Num(f64::from(n))))
            .collect(),
    );
    assert_eq!(resp.get("id"), Some(&sent), "the id is echoed as sent");

    // Exactly one line came back: the next line on this connection is the
    // answer to the next request, not a tail of the first.
    let pong = client
        .round_trip(format!("{{\"v\":{PROTOCOL_VERSION},\"cmd\":\"ping\"}}").as_bytes())
        .expect("same connection still serves");
    let pong = JsonValue::parse(&pong).expect("the next response parses");
    assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));
    assert_eq!(pong.get("id"), None);
    daemon.shutdown().expect("clean shutdown");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any malformed line gets a structured error on the same connection,
    /// and both that connection and fresh ones keep answering `ping`.
    #[test]
    fn malformed_lines_get_structured_errors_and_never_wedge(payload in malformed_line()) {
        let mut config = DaemonConfig::scratch("proto");
        config.cache_dir = None;
        let daemon = daemon::spawn(config).expect("daemon binds");

        let mut client = RawClient::connect(daemon.socket());
        let line = client
            .round_trip(&payload)
            .expect("a malformed request still gets a response line");
        assert_structured_error(&line);

        // The connection survives the error…
        let pong_line = client
            .round_trip(format!("{{\"v\":{PROTOCOL_VERSION},\"cmd\":\"ping\"}}").as_bytes())
            .expect("same connection still serves");
        let pong = JsonValue::parse(&pong_line).expect("ping response parses");
        prop_assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));
        // …and so does the accept loop.
        let mut fresh = daemon.client().expect("fresh connection accepted");
        fresh.call("ping", Vec::new()).expect("fresh connection serves");
        daemon.shutdown().expect("clean shutdown");
    }

    /// Oversized lines are refused with a structured error and the
    /// connection is closed — but the daemon itself keeps accepting.
    #[test]
    fn oversized_lines_are_refused_without_wedging(extra in 1u64..4096) {
        let mut config = DaemonConfig::scratch("proto-big");
        config.cache_dir = None;
        let daemon = daemon::spawn(config).expect("daemon binds");

        let mut client = RawClient::connect(daemon.socket());
        let oversized = "x".repeat(MAX_REQUEST_BYTES + extra as usize);
        let line = client
            .round_trip(oversized.as_bytes())
            .expect("an oversized request still gets a response line");
        assert_structured_error(&line);
        client
            .round_trip(b"{\"v\":1,\"cmd\":\"ping\"}")
            .expect_err("the oversized connection is closed");

        let mut fresh = daemon.client().expect("fresh connection accepted");
        fresh.call("ping", Vec::new()).expect("fresh connection serves");
        daemon.shutdown().expect("clean shutdown");
    }
}
