//! End-to-end service suite: a live `thicketd` [`Server`] on an
//! ephemeral port, driven through [`ThicketClient`] and through raw
//! frames where the test needs to violate the client's manners.
//!
//! Robustness invariants under test, one per test:
//! correct filtered/query/stats results off a pinned snapshot; typed
//! `Overloaded` shedding under a full queue (and client recovery via
//! budgeted backoff); typed `DeadlineExceeded` on a blown per-request
//! deadline; worker panic isolation; graceful drain of in-flight work;
//! typed `BadRequest` for malformed frames on a connection that stays
//! usable. Every test ends asserting the store carries **zero pin
//! lease files** — the per-request pin lifecycle is the headline.

use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use thicket_perfsim::{simulate_cpu_run, CpuRunConfig, Json, Profile, ScratchDir, Store};
use thicket_serve::{
    read_frame, write_frame, Request, Response, ServeError, ServeOptions, Server, ThicketClient,
};

fn run(seed: u64) -> Profile {
    let mut cfg = CpuRunConfig::quartz_default();
    cfg.seed = seed;
    simulate_cpu_run(&cfg)
}

fn seed_store(dir: &Path, n: u64) -> Vec<Profile> {
    let profiles: Vec<Profile> = (0..n).map(run).collect();
    Store::save(dir, &profiles).unwrap();
    profiles
}

fn pin_count(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("pin-"))
        .count()
}

fn debug_opts() -> ServeOptions {
    ServeOptions { enable_debug_ops: true, ..ServeOptions::default() }
}

/// One raw round trip on a fresh connection, no retries, no manners.
fn raw_request(addr: &str, request: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(&mut stream, request.to_json().to_string_compact().as_bytes()).unwrap();
    let frame = read_frame(&mut stream, 8 << 20, Duration::from_secs(10))
        .unwrap()
        .expect("server closed before responding");
    Response::from_json(&Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap()).unwrap()
}

#[test]
fn filtered_load_query_stats_status_round_trip() {
    let dir = ScratchDir::new("serve-roundtrip");
    let profiles = seed_store(&dir, 6);
    let server = Server::bind(&*dir, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let client = ThicketClient::new(server.addr().to_string());

    // Filtered load returns exactly the predicate's subset, decoded
    // back into real profiles (hashes match the originals).
    let (generation, loaded) = client.load_matching(Some("seed >= 3")).unwrap();
    assert_eq!(generation, 1);
    assert_eq!(loaded.len(), 3);
    let want: std::collections::BTreeSet<i64> = profiles
        .iter()
        .filter(|p| p.metadata("seed").and_then(|v| v.as_i64()).unwrap() >= 3)
        .map(Profile::profile_hash)
        .collect();
    let got: std::collections::BTreeSet<i64> =
        loaded.iter().map(Profile::profile_hash).collect();
    assert_eq!(got, want, "wire round trip changed profile content");

    // Unfiltered load: everything.
    let (_, all) = client.load_matching(None).unwrap();
    assert_eq!(all.len(), 6);

    // Call-path query runs server-side over the composed thicket.
    let (nodes, rows) = client
        .query_nodes(r#"("*", name contains "Stream")"#, Some("seed >= 3"))
        .unwrap();
    assert!(nodes.iter().any(|n| n == "Stream_MUL"), "nodes: {nodes:?}");
    assert!(rows > 0);

    // Per-node stats aggregate across the matching profiles.
    let stats = client.node_stats("time (exc)", None).unwrap();
    let mul = stats.iter().find(|r| r.node == "Stream_MUL").expect("Stream_MUL row");
    assert_eq!(mul.count, 6, "one observation per profile");
    assert!(mul.min <= mul.mean && mul.mean <= mul.max);

    // Status reflects the pinned generation and the served counter.
    let status = client.status().unwrap();
    assert_eq!(status.generation, 1);
    assert_eq!(status.profiles, 6);
    assert!(status.served >= 4);

    server.shutdown();
    assert_eq!(pin_count(&dir), 0, "a request leaked its pin lease");
}

#[test]
fn full_queue_sheds_typed_overloaded_and_client_backs_off_into_success() {
    let dir = ScratchDir::new("serve-overload");
    seed_store(&dir, 2);
    let opts = ServeOptions {
        workers: 1,
        queue_depth: 1,
        ..debug_opts()
    };
    let server = Server::bind(&*dir, "127.0.0.1:0", opts).unwrap();
    let addr = server.addr().to_string();

    // Occupy the single worker for a while.
    let blocker = {
        let addr = addr.clone();
        std::thread::spawn(move || raw_request(&addr, &Request::DebugSleep { ms: 800 }))
    };
    std::thread::sleep(Duration::from_millis(150)); // worker now busy

    // Concurrent flood: with one worker busy and a depth-1 queue, at
    // most one of these can queue — the rest must be shed with a typed
    // Overloaded carrying a retry hint.
    let flood: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || raw_request(&addr, &Request::Status))
        })
        .collect();
    let mut overloaded = 0;
    for h in flood {
        if let Response::Error(ServeError::Overloaded { retry_after_ms }) = h.join().unwrap() {
            assert!(retry_after_ms > 0);
            overloaded += 1;
        }
    }
    assert!(overloaded >= 1, "full queue never shed");

    // A polite client retries under its budgeted backoff and lands
    // once the blocker finishes.
    let client = ThicketClient::new(&addr);
    let status = client.status().unwrap();
    assert_eq!(status.profiles, 2);

    assert!(matches!(blocker.join().unwrap(), Response::Done));
    assert!(server.shed() >= 1);
    server.shutdown();
    assert_eq!(pin_count(&dir), 0);
}

#[test]
fn blown_deadline_is_a_typed_response_and_releases_the_pin() {
    let dir = ScratchDir::new("serve-deadline");
    seed_store(&dir, 2);
    let opts = ServeOptions {
        request_deadline: Duration::from_millis(100),
        ..debug_opts()
    };
    let server = Server::bind(&*dir, "127.0.0.1:0", opts).unwrap();
    let addr = server.addr().to_string();

    let resp = raw_request(&addr, &Request::DebugSleep { ms: 5_000 });
    assert!(
        matches!(resp, Response::Error(ServeError::DeadlineExceeded)),
        "expected DeadlineExceeded, got {resp:?}"
    );
    // The server survives and the blown request dropped its pin.
    assert!(matches!(raw_request(&addr, &Request::Status), Response::Status(_)));
    server.shutdown();
    assert_eq!(pin_count(&dir), 0);
}

#[test]
fn worker_panic_is_isolated_typed_and_leaks_nothing() {
    let dir = ScratchDir::new("serve-panic");
    seed_store(&dir, 2);
    let server = Server::bind(&*dir, "127.0.0.1:0", debug_opts()).unwrap();
    let addr = server.addr().to_string();

    match raw_request(&addr, &Request::DebugPanic) {
        Response::Error(ServeError::Internal(detail)) => {
            assert!(detail.contains("panicked"), "{detail}")
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    // The worker pool survives: real work still completes.
    let (_, loaded) = ThicketClient::new(&addr).load_matching(None).unwrap();
    assert_eq!(loaded.len(), 2);
    server.shutdown();
    assert_eq!(pin_count(&dir), 0, "panicked request leaked its pin");
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let dir = ScratchDir::new("serve-drain");
    seed_store(&dir, 2);
    let server = Server::bind(&*dir, "127.0.0.1:0", debug_opts()).unwrap();
    let addr = server.addr().to_string();

    // Put a pin-holding request in flight, then shut down underneath it.
    let inflight = {
        let addr = addr.clone();
        std::thread::spawn(move || raw_request(&addr, &Request::DebugSleep { ms: 600 }))
    };
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(pin_count(&dir), 1, "in-flight request should hold its pin");

    let t0 = Instant::now();
    server.shutdown();
    // Drain semantics: the in-flight request finished (Done, not an
    // error), shutdown waited for it, and its pin is gone.
    assert!(t0.elapsed() >= Duration::from_millis(200), "shutdown did not wait");
    assert!(matches!(inflight.join().unwrap(), Response::Done));
    assert_eq!(pin_count(&dir), 0, "drained request leaked its pin");
    // And the listener is really gone.
    assert!(TcpStream::connect(&addr).is_err(), "listener survived shutdown");
}

#[test]
fn malformed_frames_get_typed_bad_request_and_connection_survives() {
    let dir = ScratchDir::new("serve-badreq");
    seed_store(&dir, 2);
    let server = Server::bind(&*dir, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.addr().to_string();

    // One persistent connection: garbage JSON, unknown op, disabled
    // debug op — each answered with a typed BadRequest — then a real
    // request still works on the same connection.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut ask = |payload: &[u8]| -> Response {
        write_frame(&mut stream, payload).unwrap();
        let frame = read_frame(&mut stream, 8 << 20, Duration::from_secs(5))
            .unwrap()
            .expect("server hung up");
        Response::from_json(&Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap()).unwrap()
    };
    for bad in [
        b"this is not json".as_slice(),
        br#"{"op": "drop_tables"}"#,
        br#"{"op": "debug_panic"}"#,
        br#"{"op": "load_matching", "pred": "cluster =="}"#,
    ] {
        let resp = ask(bad);
        assert!(
            matches!(resp, Response::Error(ServeError::BadRequest(_))),
            "payload {:?} got {resp:?}",
            String::from_utf8_lossy(bad)
        );
    }
    assert!(matches!(ask(br#"{"op": "status"}"#), Response::Status(_)));
    drop(stream);

    server.shutdown();
    assert_eq!(pin_count(&dir), 0);
}
