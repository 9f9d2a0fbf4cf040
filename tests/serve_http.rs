//! End-to-end tests for `qmatch-serve` over a real localhost socket.
//!
//! Each test binds an ephemeral port, drives the server with a plain
//! `TcpStream` client, and shuts it down through the handle. The match
//! endpoints are checked for *bit-identity* with the library: every float
//! in a response must equal `fmt_f64` of the corresponding
//! `MatchSession` result, including under concurrent clients.

use qmatch::core::mapping::extract_mapping;
use qmatch::core::model::MatchConfig;
use qmatch::core::{Aggregation, Algorithm, Component, MatchSession};
use qmatch::datasets::{corpus, drift};
use qmatch::xsd::{IngestLimits, SchemaTree};
use qmatch_serve::{fmt_f64, Server, ServerConfig, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

type XsdSource = fn() -> &'static str;

/// The corpus slice every test registers: name → embedded XSD source.
const CORPUS: [(&str, XsdSource); 6] = [
    ("po1", corpus::po1_xsd),
    ("po2", corpus::po2_xsd),
    ("article", corpus::article_xsd),
    ("book", corpus::book_xsd),
    ("dcmd_item", corpus::dcmd_item_xsd),
    ("dcmd_ord", corpus::dcmd_ord_xsd),
];

fn boot_with(
    config: ServerConfig,
) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<String>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, runner)
}

fn boot() -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<String>) {
    boot_with(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 4,
        ..ServerConfig::default()
    })
}

/// One request over a fresh connection (`Connection: close` framing).
fn send(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String) {
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
    (status, text[head_end + 4..].to_owned())
}

/// Like [`send`], but with caller-supplied extra request headers, and
/// returning the response head text alongside the body.
fn send_raw(
    addr: SocketAddr,
    method: &str,
    target: &str,
    extra_headers: &str,
    body: &[u8],
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n{extra_headers}connection: close\r\n\r\n",
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

fn register_corpus(addr: SocketAddr) {
    for (name, xsd) in CORPUS {
        let (status, body) = send(addr, "PUT", &format!("/schemas/{name}"), xsd().as_bytes());
        assert_eq!(status, 201, "registering {name}: {body}");
    }
}

/// The raw JSON text of a top-level scalar field (`"key":<value>`).
fn json_field<'a>(body: &'a str, key: &str) -> &'a str {
    let pattern = format!("\"{key}\":");
    let start = body.find(&pattern).map(|i| i + pattern.len());
    let start = start.unwrap_or_else(|| panic!("no field {key:?} in {body}"));
    let rest = &body[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated field {key:?}"));
    &rest[..end]
}

/// A library session prepared over the same corpus, for expectations.
fn library() -> (MatchSession, Vec<(&'static str, SchemaTree)>) {
    let session = MatchSession::new(MatchConfig::default());
    let trees = vec![
        ("po1", corpus::po1()),
        ("po2", corpus::po2()),
        ("article", corpus::article()),
        ("book", corpus::book()),
        ("dcmd_item", corpus::dcmd_item()),
        ("dcmd_ord", corpus::dcmd_ord()),
    ];
    (session, trees)
}

#[test]
fn health_listing_and_hybrid_bit_identity() {
    let (addr, shutdown, runner) = boot();
    let (status, body) = send(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"status":"ok"}"#);
    register_corpus(addr);
    let (status, listing) = send(addr, "GET", "/schemas", b"");
    assert_eq!(status, 200);
    assert!(listing.contains(r#""count":6"#), "{listing}");
    assert!(listing.contains(r#""name":"po1""#));

    let (status, body) = send(addr, "POST", "/match?source=po1&target=po2", b"");
    assert_eq!(status, 200, "{body}");
    // Library expectation, formatted through the same float writer.
    let (session, trees) = library();
    let po1 = trees.iter().find(|(n, _)| *n == "po1").unwrap().1.clone();
    let po2 = trees.iter().find(|(n, _)| *n == "po2").unwrap().1.clone();
    let (pa, pb) = (session.prepare(&po1), session.prepare(&po2));
    let outcome = session.run(&Algorithm::Hybrid, &pa, &pb).unwrap();
    assert_eq!(
        json_field(&body, "total_qom"),
        fmt_f64(outcome.total_qom),
        "{body}"
    );
    let threshold = session.config().weights.acceptance_threshold();
    assert_eq!(json_field(&body, "threshold"), fmt_f64(threshold));
    let mapping = extract_mapping(&outcome.matrix, threshold);
    assert_eq!(
        json_field(&body, "matches"),
        mapping.len().to_string(),
        "{body}"
    );
    // Every accepted pair appears, in order, with the identical score text.
    let mut cursor = 0usize;
    for (source_path, target_path) in mapping.to_path_pairs(&po1, &po2) {
        let pair = format!(r#""source_path":"{source_path}","target_path":"{target_path}""#);
        let at = body[cursor..]
            .find(&pair)
            .unwrap_or_else(|| panic!("missing/unordered pair {pair} in {body}"));
        cursor += at + pair.len();
    }
    for pair in &mapping.pairs {
        assert!(
            body.contains(&format!(r#""score":{}"#, fmt_f64(pair.score))),
            "score of {pair:?} not rendered bit-identically: {body}"
        );
    }
    // The category comes from the same session machinery.
    let category = session.category(&pa, &pb, &outcome);
    assert_eq!(
        json_field(&body, "category"),
        format!("\"{category}\""),
        "{body}"
    );
    shutdown.shutdown();
    let summary = runner.join().expect("server thread");
    assert!(summary.contains("6 schema(s) registered"), "{summary}");
}

#[test]
fn algorithm_variants_match_the_library() {
    let (addr, shutdown, runner) = boot();
    register_corpus(addr);
    let (session, trees) = library();
    let article = trees
        .iter()
        .find(|(n, _)| *n == "article")
        .unwrap()
        .1
        .clone();
    let book = trees.iter().find(|(n, _)| *n == "book").unwrap().1.clone();
    let (pa, pb) = (session.prepare(&article), session.prepare(&book));
    let qom = |algorithm: Algorithm| session.run(&algorithm, &pa, &pb).unwrap().total_qom;
    let expectations = [
        ("linguistic", qom(Algorithm::Linguistic)),
        ("structural", qom(Algorithm::Structural)),
        (
            "composite",
            qom(Algorithm::Composite {
                components: vec![Component::Linguistic, Component::Structural],
                aggregation: Aggregation::Average,
            }),
        ),
    ];
    for (algo, expected) in expectations {
        let (status, body) = send(
            addr,
            "POST",
            &format!("/match?source=article&target=book&algo={algo}"),
            b"",
        );
        assert_eq!(status, 200, "{algo}: {body}");
        assert_eq!(
            json_field(&body, "total_qom"),
            fmt_f64(expected),
            "{algo} parity: {body}"
        );
    }
    // Explicit composite knobs are honoured.
    let max_qom = qom(Algorithm::Composite {
        components: vec![Component::Hybrid],
        aggregation: Aggregation::Max,
    });
    let (status, body) = send(
        addr,
        "POST",
        "/match?source=article&target=book&algo=composite&components=hybrid&agg=max",
        b"",
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "total_qom"), fmt_f64(max_qom));
    // explain=1 produces per-pair explanations under hybrid.
    let (status, body) = send(addr, "POST", "/match?source=po1&target=po2&explain=1", b"");
    assert_eq!(status, 200);
    assert!(body.contains(r#""explanations":["#), "{body}");
    shutdown.shutdown();
    runner.join().expect("server thread");
}

#[test]
fn topk_ranks_the_registry_like_the_library() {
    let (addr, shutdown, runner) = boot();
    register_corpus(addr);
    let (status, body) = send(addr, "POST", "/match/topk?source=po1&k=10", b"");
    assert_eq!(status, 200, "{body}");
    let (session, trees) = library();
    let po1 = trees.iter().find(|(n, _)| *n == "po1").unwrap().1.clone();
    let source = session.prepare(&po1);
    let mut expected: Vec<(&str, f64)> = trees
        .iter()
        .filter(|(name, _)| *name != "po1")
        .map(|(name, tree)| {
            let target = session.prepare(tree);
            (
                *name,
                session
                    .run(&Algorithm::Hybrid, &source, &target)
                    .unwrap()
                    .total_qom,
            )
        })
        .collect();
    expected.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    // Ranking order and every QoM are bit-identical.
    let mut cursor = 0usize;
    for (name, qom) in &expected {
        let entry = format!(r#"{{"target":"{name}","total_qom":{}}}"#, fmt_f64(*qom));
        let at = body[cursor..]
            .find(&entry)
            .unwrap_or_else(|| panic!("missing/unordered entry {entry} in {body}"));
        cursor += at + entry.len();
    }
    assert!(
        expected[0].1 > expected.last().unwrap().1,
        "corpus produces a non-trivial ranking"
    );
    shutdown.shutdown();
    runner.join().expect("server thread");
}

#[test]
fn error_paths_404_400_405_413() {
    let (addr, shutdown, runner) = boot();
    register_corpus(addr);
    let (status, body) = send(addr, "GET", "/no-such-path", b"");
    assert_eq!(status, 404);
    assert!(body.contains("not_found"));
    let (status, body) = send(addr, "POST", "/match?source=po1&target=ghost", b"");
    assert_eq!(status, 404);
    assert!(body.contains("unknown_schema"));
    let (status, body) = send(addr, "POST", "/match?source=po1", b"");
    assert_eq!(status, 400);
    assert!(body.contains("missing_parameter"));
    let (status, body) = send(
        addr,
        "POST",
        "/match?source=po1&target=po2&algo=psychic",
        b"",
    );
    assert_eq!(status, 400);
    assert!(body.contains("unknown_algo"));
    let (status, _) = send(addr, "PATCH", "/schemas/po1", b"");
    assert_eq!(status, 405);
    let (status, body) = send(addr, "DELETE", "/schemas/ghost", b"");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("unknown_schema"), "{body}");
    let (status, body) = send(addr, "PUT", "/schemas/bad%20name", b"<x/>");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("invalid_name"));
    shutdown.shutdown();
    runner.join().expect("server thread");

    // A server with tight limits rejects with 413 and reports the first
    // offending byte offset in the typed error.
    let (addr, shutdown, runner) = boot_with(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        limits: IngestLimits {
            max_depth: 2,
            ..IngestLimits::default()
        },
        ..ServerConfig::default()
    });
    let (status, body) = send(addr, "PUT", "/schemas/po1", corpus::po1_xsd().as_bytes());
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("limit_exceeded"), "{body}");
    assert!(body.contains("first offending byte at offset"), "{body}");
    let (_, metrics) = send(addr, "GET", "/metrics", b"");
    assert!(
        metrics.contains("qmatch_rejected_by_limits_total 1"),
        "{metrics}"
    );
    // Oversized bodies are refused at the wire before parsing.
    let (addr2, shutdown2, runner2) = boot_with(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        limits: IngestLimits {
            max_input_bytes: 64,
            ..IngestLimits::default()
        },
        ..ServerConfig::default()
    });
    let (status, body) = send(addr2, "PUT", "/schemas/po1", corpus::po1_xsd().as_bytes());
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("max_input_bytes"), "{body}");
    shutdown.shutdown();
    runner.join().expect("server thread");
    shutdown2.shutdown();
    runner2.join().expect("server thread");
}

#[test]
fn concurrent_clients_get_byte_identical_responses() {
    let (addr, shutdown, runner) = boot();
    register_corpus(addr);
    let (status, baseline) = send(addr, "POST", "/match?source=po1&target=po2", b"");
    assert_eq!(status, 200);
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let baseline = baseline.clone();
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let (status, body) = send(addr, "POST", "/match?source=po1&target=po2", b"");
                    assert_eq!(status, 200);
                    assert_eq!(body, baseline, "concurrent response diverged");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }
    // Repeated matching drove the shared label cache: the hit rate metric
    // must be visible and positive.
    let (status, metrics) = send(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let rate_line = metrics
        .lines()
        .find(|l| l.starts_with("qmatch_label_cache_hit_rate "))
        .expect("hit rate metric");
    let rate: f64 = rate_line
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("numeric rate");
    assert!(rate > 0.0, "label cache never hit: {metrics}");
    assert!(
        metrics.contains("qmatch_requests{endpoint=\"match\"} 41"),
        "{metrics}"
    );
    assert!(metrics.contains("qmatch_bytes_ingested_total"), "{metrics}");
    shutdown.shutdown();
    let summary = runner.join().expect("server thread");
    assert!(summary.contains("match=41"), "{summary}");
}

#[test]
fn v1_surface_request_ids_and_phase_metrics() {
    let (addr, shutdown, runner) = boot();
    // Registration through the versioned surface.
    for (name, xsd) in CORPUS {
        let (status, _, body) = send_raw(
            addr,
            "PUT",
            &format!("/v1/schemas/{name}"),
            "",
            xsd().as_bytes(),
        );
        assert_eq!(status, 201, "registering {name} via /v1: {body}");
    }
    // The unversioned alias answers identically but is marked deprecated.
    let (status, head, body) = send_raw(addr, "GET", "/schemas", "", b"");
    assert_eq!(status, 200);
    assert!(head.contains("deprecation: true"), "{head}");
    assert!(
        head.contains("link: </v1/schemas>; rel=\"successor-version\""),
        "{head}"
    );
    let (_, head_v1, body_v1) = send_raw(addr, "GET", "/v1/schemas", "", b"");
    assert!(!head_v1.contains("deprecation:"), "{head_v1}");
    assert_eq!(body, body_v1, "alias and versioned bodies must agree");
    assert!(body.contains("deprecated aliases"), "{body}");
    // Server-minted request ids ride on every response...
    assert!(head.contains("x-request-id: q-"), "{head}");
    // ...and a client-supplied id is echoed verbatim.
    let (status, head, _) = send_raw(
        addr,
        "POST",
        "/v1/match?source=po1&target=po2",
        "x-request-id: trace-42\r\n",
        b"",
    );
    assert_eq!(status, 200);
    assert!(head.contains("x-request-id: trace-42"), "{head}");
    // The match drove the instrumented pipeline: per-phase series appear
    // in the metrics exposition.
    let (status, _, metrics) = send_raw(addr, "GET", "/v1/metrics", "", b"");
    assert_eq!(status, 200);
    for phase in ["prepare", "labels", "hybrid_wave", "request"] {
        assert!(
            metrics.contains(&format!("qmatch_phase_count{{phase=\"{phase}\"}}")),
            "missing phase {phase}: {metrics}"
        );
    }
    assert!(
        metrics.contains("qmatch_phase_wall_us_bucket{phase=\"hybrid_wave\",le=\"+Inf\"}"),
        "{metrics}"
    );
    shutdown.shutdown();
    let summary = runner.join().expect("server thread");
    assert!(summary.contains("request ids q-1.."), "{summary}");
    assert!(summary.contains("phases (count/wall):"), "{summary}");
}

#[test]
fn delete_and_hot_update_evolution() {
    let (addr, shutdown, runner) = boot();
    register_corpus(addr);
    // Baseline response for a pair that will ride through a hot update.
    let (status, baseline) = send(addr, "POST", "/v1/match?source=po1&target=po2", b"");
    assert_eq!(status, 200, "{baseline}");
    // Re-PUT of an identical revision: the served bytes must not change.
    let (status, body) = send(addr, "PUT", "/v1/schemas/po1", corpus::po1_xsd().as_bytes());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""replaced":true"#), "{body}");
    let (status, after) = send(addr, "POST", "/v1/match?source=po1&target=po2", b"");
    assert_eq!(status, 200);
    assert_eq!(baseline, after, "hot update must not change match bytes");
    // Re-PUT of a drifted revision: every match and index-forced topk body
    // equals that of a fresh server that only ever saw the final revision,
    // so no posting of the old revision survives in the index.
    let drifted = drift::to_xsd(&drift::mutation_chain(&corpus::po1(), 1, 0.3, 7)[0]);
    let (status, body) = send(addr, "PUT", "/v1/schemas/po1", drifted.as_bytes());
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""replaced":true"#), "{body}");
    let (fresh_addr, fresh_shutdown, fresh_runner) = boot();
    for (name, xsd) in CORPUS {
        let xsd = if name == "po1" {
            drifted.as_str()
        } else {
            xsd()
        };
        let (status, body) = send(
            fresh_addr,
            "PUT",
            &format!("/v1/schemas/{name}"),
            xsd.as_bytes(),
        );
        assert_eq!(status, 201, "registering {name}: {body}");
    }
    let queries = [
        "/v1/match?source=po1&target=po2",
        "/v1/match?source=po2&target=po1",
        "/v1/match/topk?source=po1&k=10&index=force",
        "/v1/match/topk?source=po2&k=10&index=force",
    ];
    for query in queries {
        let (status, replaced) = send(addr, "POST", query, b"");
        assert_eq!(status, 200, "{query}: {replaced}");
        let (_, fresh) = send(fresh_addr, "POST", query, b"");
        assert_eq!(replaced, fresh, "{query}");
    }
    let (_, drifted_match) = send(addr, "POST", queries[0], b"");
    assert_ne!(baseline, drifted_match, "the drift changes the match");
    fresh_shutdown.shutdown();
    fresh_runner.join().expect("fresh server thread");
    // DELETE removes the schema from listings, matching, and the index.
    let (status, body) = send(addr, "DELETE", "/v1/schemas/book", b"");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, r#"{"name":"book","deleted":true}"#);
    let (_, listing) = send(addr, "GET", "/v1/schemas", b"");
    assert!(listing.contains(r#""count":5"#), "{listing}");
    assert!(!listing.contains(r#""name":"book""#), "{listing}");
    let (status, body) = send(addr, "POST", "/v1/match?source=book&target=po1", b"");
    assert_eq!(status, 404, "{body}");
    // Deleting twice is a 404; re-registering afterwards is a fresh 201.
    let (status, _) = send(addr, "DELETE", "/v1/schemas/book", b"");
    assert_eq!(status, 404);
    let (status, _) = send(
        addr,
        "PUT",
        "/v1/schemas/book",
        corpus::book_xsd().as_bytes(),
    );
    assert_eq!(status, 201);
    let (_, metrics) = send(addr, "GET", "/v1/metrics", b"");
    assert!(
        metrics.contains("qmatch_schema_deletes_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("qmatch_requests{endpoint=\"schemas_delete\"} 2"),
        "{metrics}"
    );
    shutdown.shutdown();
    runner.join().expect("server thread");
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let (addr, shutdown, runner) = boot();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let read_one = |stream: &mut TcpStream| -> (u16, String) {
        let mut raw = Vec::new();
        let mut byte = [0u8; 1];
        // Read headers byte-wise until the separator, then the body by
        // its declared length (keep-alive framing).
        while !raw.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).expect("header byte");
            raw.push(byte[0]);
        }
        let head = String::from_utf8(raw).expect("UTF-8 head");
        let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .expect("content-length")
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; length];
        stream.read_exact(&mut body).expect("body");
        (status, String::from_utf8(body).unwrap())
    };
    for _ in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
            .expect("write");
        let (status, body) = read_one(&mut stream);
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"status":"ok"}"#);
    }
    drop(stream);
    shutdown.shutdown();
    let summary = runner.join().expect("server thread");
    assert!(summary.contains("healthz=3"), "{summary}");
}
