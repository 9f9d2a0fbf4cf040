//! End-to-end tests for the epoll reactor's protection machinery: the
//! slow-loris header deadline, bounded-queue backpressure (`429` +
//! `Retry-After`), and the per-request deadline budget (`503`).
//!
//! Determinism notes: the backpressure test runs with `queue_depth: 0`
//! (every queue-bound request is shed — no timing race), and the deadline
//! test with `deadline: Duration::ZERO` (every dequeued job has already
//! expired). The slow-loris test only asserts one-sided timing facts: the
//! fast client finishes, the stalled client is eventually cut off.

use qmatch::datasets::corpus;
use qmatch_serve::{Server, ServerConfig, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Boots a server, giving the caller a chance to pre-register schemas
/// through the embedder API before the reactor starts (needed when the
/// config rejects every queued request, so `PUT` could never succeed).
fn boot_registered(
    config: ServerConfig,
) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<String>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    for (name, tree) in [("po1", corpus::po1()), ("po2", corpus::po2())] {
        server.registry().register(name, tree, b"<preloaded/>");
    }
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, runner)
}

/// One request over a fresh connection (`Connection: close` framing),
/// returning status, response head, and body.
fn send(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let head_end = text.find("\r\n\r\n").expect("header separator");
    let status: u16 = text
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (
        status,
        text[..head_end].to_owned(),
        text[head_end + 4..].to_owned(),
    )
}

#[test]
fn slow_client_is_cut_off_without_delaying_fast_clients() {
    let (addr, shutdown, runner) = boot_registered(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        header_deadline: Duration::from_millis(250),
        idle_deadline: Duration::from_millis(250),
        ..ServerConfig::default()
    });

    // A slow-loris client: opens the connection, writes half a request
    // head, and stalls forever.
    let mut slow = TcpStream::connect(addr).expect("connect slow");
    slow.write_all(b"POST /v1/match?source=po1&ta")
        .expect("partial head");

    // While the slow client is stalled, a well-behaved client gets full
    // service from the same reactor.
    let t0 = std::time::Instant::now();
    let (status, _, body) = send(addr, "POST", "/v1/match?source=po1&target=po2", b"");
    assert_eq!(status, 200, "{body}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "fast client was delayed behind the stalled one: {:?}",
        t0.elapsed()
    );

    // The stalled connection is cut off once the header deadline lapses:
    // the server sends a best-effort 408 and closes, so the client-side
    // read terminates instead of hanging.
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut raw = Vec::new();
    slow.read_to_end(&mut raw).expect("slow read terminates");
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 408 "),
        "stalled mid-head client should see the 408 cutoff: {text:?}"
    );
    assert!(text.contains("request_timeout"), "{text:?}");

    // A connection that never writes anything is reaped by the idle
    // deadline with a bare close (no request to answer).
    let mut idle = TcpStream::connect(addr).expect("connect idle");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut raw = Vec::new();
    idle.read_to_end(&mut raw).expect("idle read terminates");
    assert!(raw.is_empty(), "idle reap sends nothing: {raw:?}");

    shutdown.shutdown();
    runner.join().expect("server thread");
}

#[test]
fn saturated_queue_sheds_load_with_429_and_retry_after() {
    // queue_depth 0: every request bound for a shard queue is shed, with
    // no dependence on worker timing.
    let (addr, shutdown, runner) = boot_registered(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        queue_depth: 0,
        ..ServerConfig::default()
    });
    let (status, head, body) = send(addr, "POST", "/v1/match?source=po1&target=po2", b"");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("backpressure"), "{body}");
    assert!(head.contains("retry-after: 1"), "{head}");
    assert!(head.contains("x-request-id:"), "{head}");
    // The scatter path sheds identically.
    let (status, head, body) = send(addr, "POST", "/v1/match/topk?source=po1&k=3", b"");
    assert_eq!(status, 429, "{body}");
    assert!(head.contains("retry-after: 1"), "{head}");
    // An unversioned path answers 404 inline; it is never queued or shed.
    let (status, _, body) = send(addr, "POST", "/match?source=po1&target=po2", b"");
    assert_eq!(status, 404, "{body}");
    // Inline endpoints never occupy the queue and still answer.
    let (status, _, _) = send(addr, "GET", "/v1/healthz", b"");
    assert_eq!(status, 200);
    let (status, _, metrics) = send(addr, "GET", "/v1/metrics", b"");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("qmatch_rejected_backpressure_total 2"),
        "{metrics}"
    );
    shutdown.shutdown();
    runner.join().expect("server thread");
}

#[test]
fn server_default_precision_is_used_and_echoed() {
    use qmatch::core::matrix::Precision;
    use qmatch::core::model::MatchConfig;
    let (addr, shutdown, runner) = boot_registered(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        config: MatchConfig {
            precision: Precision::F32,
            ..MatchConfig::default()
        },
        ..ServerConfig::default()
    });
    // No precision= parameter: the server-wide default (the CLI's
    // --precision flag) applies and is echoed in the response.
    let (status, _, body) = send(addr, "POST", "/v1/match?source=po1&target=po2", b"");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""precision":"f32""#), "{body}");
    let (status, _, body) = send(addr, "POST", "/v1/match/topk?source=po1&k=3", b"");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""precision":"f32""#), "{body}");
    // The query parameter still wins over the server default.
    let (status, _, body) = send(
        addr,
        "POST",
        "/v1/match?source=po1&target=po2&precision=f64",
        b"",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""precision":"f64""#), "{body}");
    shutdown.shutdown();
    runner.join().expect("server thread");
}

#[test]
fn expired_deadline_budget_answers_503() {
    // A zero deadline budget: every job has already expired by the time a
    // shard worker dequeues it.
    let (addr, shutdown, runner) = boot_registered(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        deadline: Duration::ZERO,
        ..ServerConfig::default()
    });
    let (status, head, body) = send(addr, "POST", "/v1/match?source=po1&target=po2", b"");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("deadline_exceeded"), "{body}");
    assert!(head.contains("x-request-id:"), "{head}");
    // Scatter-gather reports the expiry exactly once after all shards
    // decrement.
    let (status, _, body) = send(addr, "POST", "/v1/match/topk?source=po1&k=3", b"");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("deadline_exceeded"), "{body}");
    // Inline endpoints carry no deadline budget.
    let (status, _, _) = send(addr, "GET", "/v1/healthz", b"");
    assert_eq!(status, 200);
    shutdown.shutdown();
    runner.join().expect("server thread");
}
