//! End-to-end tests: a real server on an ephemeral port, driven by
//! real sockets — concurrent clients, malformed traffic, admission
//! control, metrics accounting, and graceful shutdown under load.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_core::{BuildOpts, IndexService};
use reach_graph::generators::random_digraph;
use reach_graph::{fixtures, LabelSet, PreparedGraph, VertexId};
use reach_labeled::LcrService;
use reach_server::client::{request_once, Client};
use reach_server::{start, Endpoint, IdleWait, ServerConfig, Services};
use std::io::{Read, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

fn plain_service(n: u32, m: usize, seed: u64) -> Arc<IndexService> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = Arc::new(random_digraph(n as usize, m, &mut rng));
    let prepared = PreparedGraph::new_shared(g);
    Arc::new(IndexService::build("BFL", prepared, &BuildOpts::default(), 2).unwrap())
}

fn lcr_service() -> Arc<LcrService> {
    Arc::new(
        LcrService::build(
            "Landmark index",
            Arc::new(fixtures::figure1b()),
            &BuildOpts::default(),
        )
        .unwrap(),
    )
}

fn test_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        ..ServerConfig::default()
    }
}

#[test]
fn concurrent_clients_match_direct_queries_and_metrics_add_up() {
    let svc = plain_service(400, 1600, 11);
    let handle = start(
        Services {
            plain: Arc::clone(&svc),
            lcr: Some(lcr_service()),
        },
        test_config(4),
    )
    .unwrap();
    let addr = handle.addr();

    const CLIENTS: usize = 6;
    const QUERIES_PER_CLIENT: usize = 40;
    let mismatches = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let svc = Arc::clone(&svc);
            handles.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(1000 + c as u64);
                let mut client = Client::connect(addr, TIMEOUT).unwrap();
                let mut bad = 0;
                for _ in 0..QUERIES_PER_CLIENT {
                    let s = VertexId(rng.random_range(0..400));
                    let t = VertexId(rng.random_range(0..400));
                    let resp = client
                        .request("POST", "/query", &format!("{} {}", s.0, t.0))
                        .unwrap();
                    let expect = if svc.query(s, t) { "true\n" } else { "false\n" };
                    if resp.status != 200 || resp.body != expect {
                        bad += 1;
                    }
                }
                bad
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum::<u32>()
    });
    assert_eq!(mismatches, 0, "every HTTP answer must match the index");

    // a batch must agree with the engine's batch evaluation
    let mut rng = SmallRng::seed_from_u64(77);
    let pairs: Vec<(VertexId, VertexId)> = (0..100)
        .map(|_| {
            (
                VertexId(rng.random_range(0..400)),
                VertexId(rng.random_range(0..400)),
            )
        })
        .collect();
    let body: String = pairs
        .iter()
        .map(|(s, t)| format!("{} {}\n", s.0, t.0))
        .collect();
    let resp = request_once(addr, TIMEOUT, "POST", "/batch", &body).unwrap();
    assert_eq!(resp.status, 200);
    let expect: String = svc
        .query_batch(&pairs)
        .into_iter()
        .map(|a| if a { "true\n" } else { "false\n" })
        .collect();
    assert_eq!(resp.body, expect);

    // LCR endpoint answers like the direct index
    let lcr = lcr_service();
    let no_works_for = LabelSet::from_labels([fixtures::FRIEND_OF, fixtures::FOLLOWS]);
    let resp = request_once(
        addr,
        TIMEOUT,
        "POST",
        "/lcr",
        &format!("{} {} 0,1", fixtures::A.0, fixtures::G.0),
    )
    .unwrap();
    assert_eq!(resp.status, 200);
    let expect = lcr.query(fixtures::A, fixtures::G, no_works_for);
    assert_eq!(resp.body.trim() == "true", expect);
    let resp = request_once(
        addr,
        TIMEOUT,
        "POST",
        "/lcr",
        &format!("{} {} *", fixtures::A.0, fixtures::G.0),
    )
    .unwrap();
    assert_eq!(resp.body, "true\n");

    // malformed traffic gets 4xx, never a hang or a crash
    for (method, path, body, status) in [
        ("POST", "/query", "1", 400),
        ("POST", "/query", "1 2 3", 400),
        ("POST", "/query", "1 99999", 400),
        ("POST", "/query", "x y", 400),
        ("POST", "/batch", "", 400),
        ("POST", "/lcr", "0 1 9", 400),
        ("POST", "/lcr", "0 1", 400),
        ("GET", "/nope", "", 404),
        ("GET", "/query", "", 405),
        ("POST", "/healthz", "", 405),
    ] {
        let resp = request_once(addr, TIMEOUT, method, path, body).unwrap();
        assert_eq!(resp.status, status, "{method} {path} {body:?}");
    }

    assert_eq!(
        request_once(addr, TIMEOUT, "GET", "/healthz", "")
            .unwrap()
            .body,
        "ok\n"
    );

    // metrics accounting: fetch /metrics and cross-check the counters
    // (give workers a moment to finish recording the last responses —
    // a response reaches the client just before its counters bump)
    std::thread::sleep(Duration::from_millis(200));
    let m = handle.metrics();
    let queries_sent = (CLIENTS * QUERIES_PER_CLIENT) as u64 + 4; // + the 4 malformed /query
    assert_eq!(m.requests(Endpoint::Query), queries_sent);
    assert_eq!(m.requests(Endpoint::Batch), 2); // one good, one empty
    assert_eq!(m.requests(Endpoint::Lcr), 4);
    assert_eq!(
        m.total_requests(),
        m.total_responses(),
        "every request gets one response"
    );

    let text = request_once(addr, TIMEOUT, "GET", "/metrics", "")
        .unwrap()
        .body;
    std::thread::sleep(Duration::from_millis(100));
    let metric = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing in:\n{text}"))
    };
    assert_eq!(
        metric("reach_requests_total{endpoint=\"query\"}"),
        queries_sent
    );
    assert_eq!(metric("reach_batch_pairs_total"), 100);
    assert!(metric("reach_request_latency_us_count{endpoint=\"query\"}") == queries_sent);
    assert!(text.contains("reach_build_info{index=\"BFL\",kind=\"plain\",n=\"400\","));
    assert!(text.contains("reach_scratch_overflows_total"));
    // both builds report phases, bytes and entries under their own
    // `index` label; the LCR build read no condensation
    for index in ["BFL", "Landmark index"] {
        for phase in ["condense", "order", "label", "total"] {
            assert!(text.contains(&format!(
                "reach_build_seconds{{index=\"{index}\",phase=\"{phase}\"}} "
            )));
        }
        assert!(metric(&format!("reach_index_bytes{{index=\"{index}\"}}")) > 0);
        assert!(metric(&format!("reach_index_entries{{index=\"{index}\"}}")) > 0);
    }
    assert!(text.contains(",condensation=\"computed\"} 1\n"));
    let lg = fixtures::figure1b();
    assert!(text.contains(&format!(
        "reach_build_info{{index=\"Landmark index\",kind=\"lcr\",n=\"{}\",m=\"{}\",\
         labels=\"3\",condensation=\"none\"}} 1\n",
        lg.num_vertices(),
        lg.num_edges()
    )));
    let mut series = std::collections::HashSet::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let name_and_labels = line.rsplit_once(' ').map_or(line, |(s, _)| s);
        assert!(
            series.insert(name_and_labels),
            "{name_and_labels} appears twice"
        );
    }
    // the exposition's own request is in flight while it renders, so
    // re-read the totals invariant afterwards
    assert_eq!(m.total_requests(), m.total_responses());

    handle.shutdown_and_join();
}

#[test]
fn responses_are_byte_identical_at_every_worker_count() {
    let svc = plain_service(200, 700, 5);
    let mut rng = SmallRng::seed_from_u64(42);
    let requests: Vec<(String, String)> = (0..60)
        .map(|i| {
            if i % 10 == 0 {
                let body: String = (0..8)
                    .map(|_| {
                        format!(
                            "{} {}\n",
                            rng.random_range(0..200u32),
                            rng.random_range(0..200u32)
                        )
                    })
                    .collect();
                ("/batch".to_string(), body)
            } else {
                (
                    "/query".to_string(),
                    format!(
                        "{} {}",
                        rng.random_range(0..200u32),
                        rng.random_range(0..200u32)
                    ),
                )
            }
        })
        .collect();

    let mut transcripts = Vec::new();
    for workers in [1, 4] {
        let handle = start(
            Services {
                plain: Arc::clone(&svc),
                lcr: None,
            },
            test_config(workers),
        )
        .unwrap();
        let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
        let mut transcript = String::new();
        for (path, body) in &requests {
            let resp = client.request("POST", path, body).unwrap();
            assert_eq!(resp.status, 200);
            transcript.push_str(&resp.body);
        }
        transcripts.push(transcript);
        handle.shutdown_and_join();
    }
    assert_eq!(transcripts[0], transcripts[1]);
}

#[test]
fn admission_control_rejects_oversize_and_queue_overflow() {
    let svc = plain_service(50, 120, 9);
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        max_body_bytes: 256,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let handle = start(
        Services {
            plain: svc,
            lcr: None,
        },
        cfg,
    )
    .unwrap();
    let addr = handle.addr();

    // 413: declared body over the cap, rejected before it is read
    let big = "0 1\n".repeat(500);
    let resp = request_once(addr, TIMEOUT, "POST", "/batch", &big).unwrap();
    assert_eq!(resp.status, 413);
    assert!(resp.body.contains("256-byte limit"), "{}", resp.body);

    // occupy the single worker with a silent connection, fill the
    // 1-slot queue with a second, then the third must be turned away
    let worker_hog = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200)); // let it reach a worker
    let _queued = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200)); // let it be enqueued
    let mut rejected = TcpStream::connect(addr).unwrap();
    rejected
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut raw = String::new();
    rejected.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 429"), "expected 429, got {raw:?}");
    assert!(handle.metrics().queue_full_rejects() >= 1);

    // the hogged worker times the silent connection out with a 408
    let mut hog = worker_hog;
    hog.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut raw = String::new();
    hog.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 408"), "expected 408, got {raw:?}");

    handle.shutdown_and_join();
}

#[test]
fn graceful_shutdown_drains_in_flight_load() {
    let svc = plain_service(300, 1000, 21);
    let handle = start(
        Services {
            plain: Arc::clone(&svc),
            lcr: None,
        },
        test_config(3),
    )
    .unwrap();
    let addr = handle.addr();

    // clients hammer the server; after a warm-up, shutdown fires
    let results = std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for c in 0..4u64 {
            clients.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(900 + c);
                let mut completed = 0u32;
                let mut truncated = 0u32;
                'outer: loop {
                    let Ok(mut client) = Client::connect(addr, TIMEOUT) else {
                        break; // accept loop is gone: clean refusal
                    };
                    loop {
                        let body =
                            format!("{} {}", rng.random_range(0..300), rng.random_range(0..300));
                        match client.request("POST", "/query", &body) {
                            Ok(resp) => {
                                // an accepted request must be answered
                                // completely and correctly
                                if resp.status == 200
                                    && (resp.body == "true\n" || resp.body == "false\n")
                                {
                                    completed += 1;
                                } else if resp.status == 503 {
                                    break 'outer; // turned away at the door
                                } else {
                                    truncated += 1;
                                }
                                if !resp.keep_alive {
                                    break; // server is draining this conn
                                }
                            }
                            Err(_) => break 'outer, // closed between requests
                        }
                        if completed > 5000 {
                            break 'outer; // safety valve
                        }
                    }
                }
                (completed, truncated)
            }));
        }
        // let the load build, then pull the plug mid-flight
        std::thread::sleep(Duration::from_millis(300));
        handle.shutdown();
        clients
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });

    let total_completed: u32 = results.iter().map(|r| r.0).sum();
    let total_truncated: u32 = results.iter().map(|r| r.1).sum();
    assert!(total_completed > 0, "some requests must finish pre-drain");
    assert_eq!(total_truncated, 0, "no accepted request may be truncated");

    handle.join();
    // after join, the port no longer accepts (or resets immediately)
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut s) => {
            let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = String::new();
            s.read_to_string(&mut buf).is_err() || buf.is_empty()
        }
    };
    assert!(refused, "server must be gone after shutdown_and_join");
}

#[test]
fn shutdown_endpoint_drains_the_server() {
    let svc = plain_service(60, 150, 3);
    let handle = start(
        Services {
            plain: svc,
            lcr: None,
        },
        test_config(2),
    )
    .unwrap();
    let addr = handle.addr();
    let resp = request_once(addr, TIMEOUT, "POST", "/query", "0 59").unwrap();
    assert_eq!(resp.status, 200);
    let resp = request_once(addr, TIMEOUT, "POST", "/admin/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    assert!(!resp.keep_alive, "shutdown response closes the connection");
    assert!(handle.is_shutting_down());
    handle.join();
}

#[test]
fn lcr_without_index_is_a_clean_404() {
    let svc = plain_service(40, 100, 2);
    let handle = start(
        Services {
            plain: svc,
            lcr: None,
        },
        test_config(1),
    )
    .unwrap();
    let resp = request_once(handle.addr(), TIMEOUT, "POST", "/lcr", "0 1 *").unwrap();
    assert_eq!(resp.status, 404);
    assert!(resp.body.contains("--lcr"));
    handle.shutdown_and_join();
}

/// Sends `parts` on one fresh connection, `pause` apart, and returns
/// everything the server writes back before it closes.
fn send_in_parts(addr: std::net::SocketAddr, parts: &[&str], pause: Duration) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(pause);
        }
        s.write_all(part.as_bytes()).unwrap();
    }
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    raw
}

#[test]
fn a_pause_between_head_and_body_outlasts_the_poll_slice() {
    let svc = plain_service(100, 300, 4);
    let handle = start(
        Services {
            plain: Arc::clone(&svc),
            lcr: None,
        },
        test_config(1),
    )
    .unwrap();
    let body = "3 97";
    let head = format!(
        "POST /query HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    // 50 ms is two idle-poll slices: the parked read must keep waiting
    let raw = send_in_parts(handle.addr(), &[&head, body], Duration::from_millis(50));
    let expect = if svc.query(VertexId(3), VertexId(97)) {
        "true\n"
    } else {
        "false\n"
    };
    assert!(raw.starts_with("HTTP/1.1 200"), "expected 200, got {raw:?}");
    assert!(raw.ends_with(&format!("\r\n\r\n{expect}")), "{raw:?}");
    handle.shutdown_and_join();
}

#[test]
fn a_body_stalled_past_the_read_timeout_gets_408() {
    let read_timeout = Duration::from_millis(300);
    let handle = start(
        Services {
            plain: plain_service(50, 120, 8),
            lcr: None,
        },
        ServerConfig {
            workers: 1,
            read_timeout,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let started = std::time::Instant::now();
    // three of the ten declared body bytes, then silence
    let raw = send_in_parts(
        handle.addr(),
        &["POST /batch HTTP/1.1\r\nContent-Length: 10\r\n\r\n0 1"],
        Duration::ZERO,
    );
    assert!(raw.starts_with("HTTP/1.1 408"), "expected 408, got {raw:?}");
    assert!(started.elapsed() >= read_timeout, "408 before the timeout");
    assert_eq!(handle.metrics().responses_with_status(408), 1);
    handle.shutdown_and_join();
}

#[test]
fn an_idle_keep_alive_connection_closes_soon_after_shutdown() {
    let handle = start(
        Services {
            plain: plain_service(50, 120, 6),
            lcr: None,
        },
        ServerConfig {
            workers: 1,
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    let mut buf = [0u8; 256];
    while !raw.ends_with(b"\r\n\r\nok\n") {
        let got = s.read(&mut buf).unwrap();
        assert!(got > 0, "closed before the response");
        raw.extend_from_slice(&buf[..got]);
    }
    assert!(String::from_utf8_lossy(&raw).contains("Connection: keep-alive"));
    // let the worker pass its spin window and park on the idle socket
    std::thread::sleep(Duration::from_millis(100));
    let started = std::time::Instant::now();
    handle.shutdown();
    assert_eq!(s.read(&mut buf).unwrap(), 0, "a parked connection closes");
    // one 25 ms idle-poll slice, plus margin for a loaded host; the
    // read timeout (30 s) plays no part
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(250),
        "closed after {waited:?}"
    );
    handle.join();
}

#[test]
fn every_request_read_counts_one_spin_or_one_park() {
    let handle = start(
        Services {
            plain: plain_service(100, 300, 12),
            lcr: None,
        },
        test_config(2),
    )
    .unwrap();
    const REQUESTS: u64 = 40;
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let mut slept = 0;
    for i in 0..REQUESTS - 1 {
        if i % 8 == 7 {
            // longer than any spin window: this request finds the
            // worker parked
            std::thread::sleep(Duration::from_millis(5));
            slept += 1;
        }
        let resp = client
            .request("POST", "/query", &format!("{} {}", i, 99 - i))
            .unwrap();
        assert_eq!(resp.status, 200);
    }
    let text = client.request("GET", "/metrics", "").unwrap().body;
    assert!(text.contains("reach_idle_waits_total{outcome=\"spin\"}"));
    assert!(text.contains("reach_idle_waits_total{outcome=\"park\"}"));
    drop(client);
    // a response reaches the client just before its counters bump
    let m = handle.metrics();
    let waited = std::time::Instant::now();
    while m.total_requests() < REQUESTS && waited.elapsed() < TIMEOUT {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(m.total_requests(), REQUESTS);
    let (spin, park) = (m.idle_waits(IdleWait::Spin), m.idle_waits(IdleWait::Park));
    assert_eq!(spin + park, REQUESTS, "spin {spin} + park {park}");
    assert!(park >= slept, "{slept} slept-for requests, {park} parks");
    handle.shutdown_and_join();
}
