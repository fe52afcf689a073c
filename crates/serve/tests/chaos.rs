//! The wire chaos suite: drive every [`FaultKind::WIRE`] fault against
//! a live `thicketd` and assert the ISSUE's acceptance contract —
//! every in-flight request ends in a typed response or a clean
//! disconnect, the (restarted) daemon keeps serving, fsck reports
//! nothing worse than `StaleLease`, and after GC the store holds zero
//! leaked pin leases and exactly one complete newest generation.
//!
//! Four of the five faults are socket-level and run against an
//! in-process [`Server`]; `DaemonKill` needs a real process to SIGKILL
//! and uses the repo's child-test subprocess pattern (a `#[test]`
//! body gated by an env var, spawned via `current_exe`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use thicket_perfsim::{
    simulate_cpu_run, CpuRunConfig, DiagKind, FaultKind, Json, Profile, ScratchDir, Store,
};
use thicket_serve::{
    read_frame, write_frame, Request, Response, ServeError, ServeOptions, Server, ThicketClient,
};

fn run(seed: u64) -> Profile {
    let mut cfg = CpuRunConfig::quartz_default();
    cfg.seed = seed;
    simulate_cpu_run(&cfg)
}

fn pin_count(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("pin-"))
        .count()
}

/// Wait (bounded) for every per-request pin to be released.
fn await_zero_pins(dir: &Path, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while pin_count(dir) != 0 {
        assert!(Instant::now() < deadline, "{what}: pin lease leaked");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn raw_response(stream: &mut TcpStream) -> Response {
    let frame = read_frame(stream, 8 << 20, Duration::from_secs(10))
        .unwrap()
        .expect("server closed before responding");
    Response::from_json(&Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap()).unwrap()
}

/// The server must answer a well-formed request after each fault: the
/// probe that proves one poisoned connection cannot poison the daemon.
fn assert_still_serving(addr: &str, fault: FaultKind) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(
        &mut stream,
        Request::Status.to_json().to_string_compact().as_bytes(),
    )
    .unwrap();
    let resp = raw_response(&mut stream);
    assert!(
        matches!(resp, Response::Status(_)),
        "after {fault:?}: expected Status, got {resp:?}"
    );
}

/// Socket-level faults: torn frame, oversized declared length,
/// slow-loris writer, mid-request connection kill — each followed by a
/// health probe and a zero-leaked-pins check, then a drain.
#[test]
fn socket_fault_schedule_leaves_no_leases_and_a_serving_daemon() {
    let dir = ScratchDir::new("chaos-socket");
    Store::save(&dir, &(0..4).map(run).collect::<Vec<_>>()).unwrap();
    let opts = ServeOptions {
        idle_timeout: Duration::from_millis(100),
        frame_deadline: Duration::from_millis(300),
        enable_debug_ops: true,
        ..ServeOptions::default()
    };
    let server = Server::bind(&*dir, "127.0.0.1:0", opts).unwrap();
    let addr = server.addr().to_string();

    let mut covered = 0;
    for fault in FaultKind::WIRE {
        match fault {
            FaultKind::TornFrame => {
                // Half a length prefix, then hang up: the server must
                // treat it as a torn frame and just drop the peer.
                let mut s = TcpStream::connect(&addr).unwrap();
                s.write_all(&[0x00, 0x00]).unwrap();
                drop(s);
            }
            FaultKind::OversizedFrame => {
                // Declare ~4 GiB. The typed refusal must come back
                // without the server ever allocating the buffer.
                let mut s = TcpStream::connect(&addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                s.write_all(&u32::MAX.to_be_bytes()).unwrap();
                match raw_response(&mut s) {
                    Response::Error(ServeError::BadRequest(detail)) => {
                        assert!(detail.contains("exceeds cap"), "{detail}")
                    }
                    other => panic!("oversized frame got {other:?}"),
                }
                // Past a bad length the stream is unrecoverable: the
                // server must hang up after the refusal.
                let mut rest = Vec::new();
                s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                assert_eq!(s.read_to_end(&mut rest).unwrap_or(0), 0);
            }
            FaultKind::SlowLoris => {
                // Trickle a valid frame slower than the frame
                // deadline: the server must cut us off, not camp a
                // worker forever.
                let mut s = TcpStream::connect(&addr).unwrap();
                let wire = {
                    let mut w = Vec::new();
                    write_frame(&mut w, br#"{"op": "status"}"#).unwrap();
                    w
                };
                let t0 = Instant::now();
                let mut cut = false;
                for b in wire {
                    if s.write_all(&[b]).is_err() {
                        cut = true;
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(150));
                }
                if !cut {
                    // Writes can succeed into the OS buffer after the
                    // server closed; the read makes the cut visible.
                    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                    let mut buf = [0u8; 16];
                    cut = matches!(s.read(&mut buf), Ok(0) | Err(_));
                }
                assert!(cut, "slow-loris writer was never cut off");
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "slow-loris defense took implausibly long"
                );
            }
            FaultKind::ConnectionKill => {
                // A full, valid, pin-taking request — and the client
                // vanishes before the response. The server must finish
                // or abort it internally and release the pin either way.
                let mut s = TcpStream::connect(&addr).unwrap();
                write_frame(
                    &mut s,
                    Request::LoadMatching { pred: None }
                        .to_json()
                        .to_string_compact()
                        .as_bytes(),
                )
                .unwrap();
                drop(s);
            }
            // Needs a real process to SIGKILL; exercised in
            // kill_nine_daemon_recovers below.
            FaultKind::DaemonKill => {}
            other => panic!("unexpected fault in WIRE: {other:?}"),
        }
        covered += 1;
        assert_still_serving(&addr, fault);
        await_zero_pins(&dir, &format!("{fault:?}"));
    }
    assert_eq!(covered, FaultKind::WIRE.len(), "schedule missed a wire fault");

    server.shutdown();
    assert_eq!(pin_count(&dir), 0);
    let fsck = Store::fsck(&dir).unwrap();
    assert!(fsck.is_clean(), "{fsck}");
}

/// Subprocess body for [`kill_nine_daemon_recovers`]: a real `thicketd`
/// server process the parent SIGKILLs mid-request. Run only when
/// `THICKETD_CHILD_STORE` is set.
#[test]
fn child_server_loop() {
    let Ok(store) = std::env::var("THICKETD_CHILD_STORE") else {
        return; // Normal test runs: nothing to do.
    };
    let portfile = std::env::var("THICKETD_CHILD_PORTFILE").expect("portfile env");
    let opts = ServeOptions { enable_debug_ops: true, ..ServeOptions::default() };
    let server = Server::bind(&store, "127.0.0.1:0", opts).expect("child bind");
    // Write-then-rename so the parent never reads a half-written port.
    let tmp_path = format!("{portfile}.tmp");
    std::fs::write(&tmp_path, server.addr().to_string()).unwrap();
    std::fs::rename(&tmp_path, &portfile).unwrap();
    loop {
        // The parent SIGKILLs this process; no graceful path runs.
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// `FaultKind::DaemonKill`: SIGKILL the daemon while a request holds a
/// pinned snapshot. The lease file survives its owner; fsck must type
/// it `StaleLease` (and find nothing worse), a restarted daemon must
/// serve, and the next commit's GC must reap the lease — zero leaked
/// pins, one complete newest generation, zero records lost.
#[test]
fn kill_nine_daemon_recovers() {
    let scratch = ScratchDir::new("chaos-kill9");
    let dir = scratch.join("store");
    let portfile = scratch.join("port");
    Store::save(&dir, &(0..4).map(run).collect::<Vec<_>>()).unwrap();

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["child_server_loop", "--exact", "--nocapture"])
        .env("THICKETD_CHILD_STORE", &dir)
        .env("THICKETD_CHILD_PORTFILE", &portfile)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child server");

    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&portfile) {
            break addr;
        }
        assert!(Instant::now() < deadline, "child server never published a port");
        std::thread::sleep(Duration::from_millis(10));
    };

    // Put a pin-holding request in flight (never read the response),
    // wait for the lease to exist, then kill the daemon cold.
    let mut inflight = TcpStream::connect(addr.trim()).unwrap();
    write_frame(
        &mut inflight,
        Request::DebugSleep { ms: 30_000 }
            .to_json()
            .to_string_compact()
            .as_bytes(),
    )
    .unwrap();
    while pin_count(&dir) == 0 {
        assert!(Instant::now() < deadline, "in-flight request never pinned");
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL daemon");
    child.wait().expect("reap daemon");
    drop(inflight);

    // The dead daemon's lease survives it; fsck types it StaleLease
    // and finds nothing worse (DaemonKill maps to exactly this
    // diagnostic in the fault taxonomy).
    assert_eq!(pin_count(&dir), 1, "SIGKILL should strand the lease file");
    let fsck = Store::fsck(&dir).unwrap();
    assert!(!fsck.is_clean(), "stranded lease went unreported: {fsck}");
    assert!(!fsck.coordination.is_empty());
    for diag in &fsck.coordination {
        assert!(
            FaultKind::DaemonKill.matches(&diag.kind),
            "finding {diag} is not a DaemonKill signature"
        );
        assert!(matches!(diag.kind, DiagKind::StaleLease { .. }), "{diag}");
    }
    assert_eq!(fsck.newest_intact, Some(1), "data generation must survive the kill");

    // A restarted daemon serves immediately — the stale lease blocks
    // nothing but GC of its generation.
    let server = Server::bind(&dir, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let client = ThicketClient::new(server.addr().to_string());
    let (generation, profiles) = client.load_matching(Some("seed >= 2")).unwrap();
    assert_eq!(generation, 1);
    assert_eq!(profiles.len(), 2);
    let (nodes, _) = client.query_nodes(r#"("*", name contains "Stream")"#, None).unwrap();
    assert!(!nodes.is_empty());
    server.shutdown();

    // GC rides on commits: the next append reaps the dead daemon's
    // lease. Zero leaked pins, one complete newest generation, all
    // five records present.
    Store::append(&dir, &[run(4)]).unwrap();
    assert_eq!(pin_count(&dir), 0, "stale lease survived the commit GC");
    let fsck = Store::fsck(&dir).unwrap();
    assert!(fsck.is_clean(), "{fsck}");
    let reader = Store::open(&dir).unwrap();
    let (all, rep) = reader.load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    let mut seeds: Vec<i64> = all
        .iter()
        .map(|p| p.metadata("seed").unwrap().as_i64().unwrap())
        .collect();
    seeds.sort_unstable();
    assert_eq!(seeds, vec![0, 1, 2, 3, 4], "records lost across the kill");
}
