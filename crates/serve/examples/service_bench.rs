//! PERF.md workload driver for W6: N concurrent clients hammering one
//! `thicketd` server with filtered loads, printed as ready-to-paste
//! markdown.
//!
//! ```sh
//! cargo run -p thicket-serve --release --example service_bench           # 2000 profiles
//! cargo run -p thicket-serve --release --example service_bench -- 200   # smaller store
//! ```
//!
//! One server (in-process, same code path as the `thicketd serve` verb),
//! a client-count sweep at 1/2/4/8 concurrent [`ThicketClient`]s, each
//! issuing a fixed batch of requests over a persistent connection:
//!
//! * **status** — the empty round trip: frame codec + dispatch + one
//!   snapshot pin/release, no payload to speak of. This is the protocol
//!   floor.
//! * **filtered load** — `seed < 10` over the full store: metadata
//!   pushdown below the shard read server-side, then 10 profiles
//!   decoded, re-encoded as JSON frames, and parsed back client-side.
//!   This is the workload the service exists for.
//!
//! Per cell: median per-request latency across every request in the
//! sweep, plus aggregate throughput (requests / wall time). Workers are
//! fixed at 2 so the client sweep is the only variable.

use std::time::Instant;

use thicket_perfsim::{simulate_cpu_run, CpuRunConfig, ScratchDir, Store};
use thicket_serve::{ServeOptions, Server, ThicketClient};

/// Requests per client per cell — enough for a stable median, small
/// enough that the full sweep stays in seconds.
const BATCH: usize = 20;

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Run `clients` concurrent clients, each issuing `BATCH` requests via
/// `op`; returns (median per-request ms, aggregate requests/sec).
fn sweep_cell(addr: &str, clients: usize, op: fn(&ThicketClient)) -> (f64, f64) {
    let wall = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let client = ThicketClient::new(&addr);
                (0..BATCH)
                    .map(|_| {
                        let t = Instant::now();
                        op(&client);
                        t.elapsed().as_secs_f64() * 1e3
                    })
                    .collect::<Vec<f64>>()
            })
        })
        .collect();
    let mut samples: Vec<f64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    let wall_s = wall.elapsed().as_secs_f64();
    let rps = samples.len() as f64 / wall_s;
    (median_ms(&mut samples), rps)
}

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2000)
        .max(10); // the filtered-load cell asserts on a 10-profile subset

    let nproc = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc (version unavailable)".into());
    println!("_host: nproc = {nproc}, {rustc}_\n");

    eprintln!("seeding {n}-profile store...");
    let dir = ScratchDir::new("service-bench");
    let profiles: Vec<_> = (0..n)
        .map(|seed| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.seed = seed;
            simulate_cpu_run(&cfg)
        })
        .collect();
    Store::save(&dir, &profiles).unwrap();
    drop(profiles);

    let server = Server::bind(dir.to_path_buf(), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.addr().to_string();

    println!("## W6: concurrent clients vs one thicketd, {n}-profile store, 2 workers\n");
    println!("| clients | status median | status req/s | filtered load median | load req/s |");
    println!("|---|---|---|---|---|");
    for clients in [1usize, 2, 4, 8] {
        let (status_ms, status_rps) = sweep_cell(&addr, clients, |c| {
            c.status().unwrap();
        });
        let (load_ms, load_rps) = sweep_cell(&addr, clients, |c| {
            let (_, got) = c.load_matching(Some("seed < 10")).unwrap();
            assert_eq!(got.len(), 10, "pushdown returned the wrong subset");
        });
        println!(
            "| {clients} | {status_ms:.2} ms | {status_rps:.0} | {load_ms:.1} ms | {load_rps:.0} |"
        );
    }

    server.shutdown();
    let leases = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("pin-"))
        .count();
    assert_eq!(leases, 0, "bench leaked {leases} pin leases");
    eprintln!("done (zero pin leases left behind)");
}
