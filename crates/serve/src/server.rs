//! The `thicketd` server: accept loop, bounded work queue, worker
//! pool, and the per-request pin lifecycle.
//!
//! Robustness invariants, in the order the request path enforces them:
//!
//! * **Event-driven accept.** The accept thread sits in blocking
//!   `accept(2)` — no poll tick, no idle wakeups, no added connection
//!   latency. Shutdown wakes it with a loopback connection (plus a
//!   nonblocking-fd fallback) instead of waiting out a sleep.
//! * **Bounded queueing.** Accepted connections enter a
//!   `sync_channel` of fixed depth. A full queue sheds the connection
//!   with a typed [`ServeError::Overloaded`] frame (carrying a retry
//!   hint) instead of queueing unboundedly — the client backs off, the
//!   server never falls behind silently.
//! * **One pin per request.** Every data-touching request opens a
//!   generation-pinned snapshot ([`Store::open_pinned`]) *inside*
//!   the request scope and releases it on every exit path: success,
//!   typed error, deadline, client disconnect, and worker panic (the
//!   snapshot lives inside the `catch_unwind` closure, so an unwind
//!   drops it before the panic is even caught). Pins share the
//!   process's verified manifest (see [`Store::open`]), so a request
//!   pays a directory listing, a header read, the lease and the shard
//!   handles, never a manifest parse of an unchanged generation.
//! * **Per-request deadlines.** The clock starts when the request
//!   frame completes; stages check it between pin, select, and load.
//!   A blown deadline is a typed [`ServeError::DeadlineExceeded`], and
//!   the connection stays usable.
//! * **Panic isolation.** Request execution runs under
//!   `catch_unwind`, the same discipline as
//!   [`thicket_perfsim::parallel_map_catch`]: one poisoned request
//!   answers [`ServeError::Internal`]; the worker, the connection, and
//!   every other request keep going.
//! * **Graceful drain.** [`Server::shutdown`] stops the accept loop,
//!   lets workers finish (and answer) everything already queued or
//!   in flight, then joins them. In-flight pins are released by the
//!   normal request epilogue; nothing is abandoned.

use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use thicket_core::{ProfileSource, StoreSource, Thicket, ThicketError};
use thicket_perfsim::{Json, Profile, Store, StoreError, Strictness};
use thicket_query::parse_pred;

use crate::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::proto::{NodeStat, Request, Response, ServeError, StatusInfo};

/// Retry hint attached to `Overloaded` responses.
const RETRY_AFTER: Duration = Duration::from_millis(50);

/// Harvest a connection (close it, freeing its worker) after this much
/// continuous idleness between requests. With persistent client
/// connections a worker is held for a connection's lifetime, so without
/// a harvest `workers` idle clients would starve everyone else; the
/// client's reconnect-on-stale path makes the close invisible to it.
const IDLE_HARVEST: Duration = Duration::from_secs(5);

/// Server configuration. Declared frame lengths are capped at
/// [`DEFAULT_MAX_FRAME`] before allocation.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Depth of the bounded accept→worker queue; a full queue sheds.
    pub queue_depth: usize,
    /// Per-request deadline, measured from the completed request frame.
    pub request_deadline: Duration,
    /// Socket read timeout: the tick at which idle workers poll the
    /// shutdown flag.
    pub idle_timeout: Duration,
    /// Wall-time budget for one frame, first byte to last (the
    /// slow-loris cut).
    pub frame_deadline: Duration,
    /// Enable `debug_sleep` / `debug_panic` (tests only; off by
    /// default so production servers reject them as bad requests).
    pub enable_debug_ops: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            queue_depth: 32,
            request_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_millis(200),
            frame_deadline: Duration::from_secs(2),
            enable_debug_ops: false,
        }
    }
}

/// Counters shared by the accept loop, the workers, and `status`.
struct ServerStats {
    served: AtomicU64,
    shed: AtomicU64,
    started: Instant,
}

/// A running `thicketd` instance; dropping it without
/// [`Server::shutdown`] aborts the threads non-gracefully at process
/// exit (tests should always shut down).
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<ServerStats>,
    /// A dup of the listening socket, used only to flip the shared fd
    /// nonblocking at shutdown — the fallback wake for the blocking
    /// accept if the loopback wake connection cannot be made.
    listener: Option<TcpListener>,
}

/// Everything a worker needs to execute requests.
struct Engine {
    store_dir: PathBuf,
    opts: ServeOptions,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving the store at `store_dir`.
    pub fn bind(
        store_dir: impl Into<PathBuf>,
        addr: &str,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let listener_dup = listener.try_clone().ok();
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats {
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            started: Instant::now(),
        });
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(opts.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let engine = Arc::new(Engine {
            store_dir: store_dir.into(),
            opts: opts.clone(),
            stats: Arc::clone(&stats),
            shutdown: Arc::clone(&shutdown),
        });

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || accept_loop(listener, tx, shutdown, stats))
        };

        let workers = (0..opts.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || worker_loop(rx, engine))
            })
            .collect();

        Ok(Server {
            addr: local,
            shutdown,
            accept: Some(accept),
            workers,
            stats,
            listener: listener_dup,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.stats.served.load(Ordering::Relaxed)
    }

    /// Connections shed with `Overloaded` so far.
    pub fn shed(&self) -> u64 {
        self.stats.shed.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// requests, join every thread. Returns once the last worker has
    /// exited — at which point every per-request pin is released.
    ///
    /// The accept thread sits in blocking `accept(2)` (no poll tick),
    /// so shutdown wakes it explicitly: flip the shared listening fd
    /// nonblocking (a dup shares file status flags, so the blocked
    /// accept returns `WouldBlock`), then make a throwaway loopback
    /// connection for the common case where the fd dup failed.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(listener) = &self.listener {
            let _ = listener.set_nonblocking(true);
        }
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_millis(200));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Where shutdown's wake connection should aim: the bound address,
/// with an unspecified IP (0.0.0.0 / ::) rewritten to loopback so the
/// connect actually lands on this host's listener.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let mut addr = addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// The accept thread: blocking `accept(2)`, no poll tick. Between
/// connections it burns zero CPU and adds zero latency — the kernel
/// hands over each connection the moment it completes. Shutdown wakes
/// it via [`Server::shutdown`]'s loopback connection (or the
/// nonblocking-fd fallback), after which the flag check exits the loop.
fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<TcpStream>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::SeqCst) {
                    // The shutdown wake connection itself (or a client
                    // racing the drain): hang up unanswered — the
                    // client's retry policy treats it as transient.
                    drop(stream);
                    break;
                }
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) | Err(TrySendError::Disconnected(stream)) => {
                        // Shed: answer with a typed Overloaded frame on
                        // the accept thread (tiny write) and hang up.
                        stats.shed.fetch_add(1, Ordering::Relaxed);
                        shed_connection(stream);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Only reachable after shutdown flipped the listener
                // nonblocking; the flag check at the top exits.
            }
            // Transient accept failure (EMFILE, aborted handshake):
            // brief pause so a persistent error cannot spin the thread.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Dropping tx closes the queue: workers drain what is already
    // inside and then exit.
}

fn shed_connection(mut stream: TcpStream) {
    let resp = Response::Error(ServeError::Overloaded {
        retry_after_ms: RETRY_AFTER.as_millis() as u64,
    });
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    if write_frame(&mut stream, resp.to_json().to_string_compact().as_bytes()).is_err() {
        return;
    }
    // The client's request bytes are still unread in our receive buffer
    // (shedding never reads them); closing a socket with unread data
    // sends RST, which can destroy the Overloaded frame before the
    // client reads it. Signal end-of-responses, then drain the request
    // until the client's EOF so the eventual close is graceful.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut sink = [0u8; 1024];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

fn worker_loop(rx: Arc<Mutex<Receiver<TcpStream>>>, engine: Arc<Engine>) {
    loop {
        // Hold the lock only for the recv itself.
        let next = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(_) => return,
            };
            guard.recv()
        };
        match next {
            Ok(stream) => engine.handle_connection(stream),
            // Channel closed and drained: the accept loop is gone and
            // nothing is queued — the drain is complete.
            Err(_) => return,
        }
    }
}

impl Engine {
    /// Serve one (possibly persistent) connection: frames in, frames
    /// out, until the peer hangs up, violates the protocol, or the
    /// server drains.
    fn handle_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(self.opts.idle_timeout));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_nodelay(true);
        let mut idle = Duration::ZERO;
        loop {
            let payload =
                match read_frame(&mut stream, DEFAULT_MAX_FRAME, self.opts.frame_deadline) {
                    Ok(Some(p)) => {
                        idle = Duration::ZERO;
                        p
                    }
                    // Clean disconnect at a frame boundary.
                    Ok(None) => return,
                    Err(FrameError::IdleTimeout) => {
                        // No request in progress: close if draining or
                        // if the peer has idled past the harvest budget
                        // (frees this worker for queued connections);
                        // otherwise keep waiting.
                        if self.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        idle += self.opts.idle_timeout;
                        if idle >= IDLE_HARVEST {
                            return;
                        }
                        continue;
                    }
                    Err(e @ FrameError::Oversized { .. }) => {
                        // Typed refusal, then hang up: the stream
                        // position is unrecoverable past a bad length.
                        self.respond(
                            &mut stream,
                            Response::Error(ServeError::BadRequest(e.to_string())),
                        );
                        return;
                    }
                    // Torn frame, slow-loris, hard I/O error: nothing
                    // sane can be written back.
                    Err(_) => return,
                };

            if self.shutdown.load(Ordering::SeqCst) {
                self.respond(&mut stream, Response::Error(ServeError::ShuttingDown));
                return;
            }

            let response = match parse_request(&payload) {
                Err(detail) => Response::Error(ServeError::BadRequest(detail)),
                Ok(request) => {
                    let deadline = Instant::now() + self.opts.request_deadline;
                    // The snapshot (pin) is created inside this
                    // closure, so a panicking request drops it during
                    // unwind — before catch_unwind even reports.
                    match catch_unwind(AssertUnwindSafe(|| self.execute(request, deadline))) {
                        Ok(resp) => {
                            self.stats.served.fetch_add(1, Ordering::Relaxed);
                            resp
                        }
                        Err(_) => Response::Error(ServeError::Internal(
                            "request worker panicked; request isolated, pin released".into(),
                        )),
                    }
                }
            };
            if !self.respond(&mut stream, response) {
                return;
            }
        }
    }

    /// Write one response frame; false means the connection is dead.
    fn respond(&self, stream: &mut TcpStream, response: Response) -> bool {
        write_frame(stream, response.to_json().to_string_compact().as_bytes()).is_ok()
    }

    fn execute(&self, request: Request, deadline: Instant) -> Response {
        match self.execute_inner(request, deadline) {
            Ok(resp) => resp,
            Err(e) => Response::Error(e),
        }
    }

    fn execute_inner(&self, request: Request, deadline: Instant) -> Result<Response, ServeError> {
        match request {
            Request::Status => {
                let snap = self.pin()?;
                check_deadline(deadline)?;
                Ok(Response::Status(StatusInfo {
                    generation: snap.generation(),
                    profiles: snap.manifest().profiles.len(),
                    served: self.stats.served.load(Ordering::Relaxed),
                    shed: self.stats.shed.load(Ordering::Relaxed),
                    uptime_ms: self.stats.started.elapsed().as_millis() as u64,
                }))
            }
            Request::LoadMatching { pred } => {
                let snap = self.pin()?;
                check_deadline(deadline)?;
                let (generation, profiles) = load_matching(snap, pred.as_deref(), deadline)?;
                Ok(Response::Profiles { generation, profiles })
            }
            Request::Query { query, pred } => {
                let snap = self.pin()?;
                check_deadline(deadline)?;
                // load_matching consumes the snapshot, so the pin is
                // released before the CPU-bound compose below.
                let (_, profiles) = load_matching(snap, pred.as_deref(), deadline)?;
                check_deadline(deadline)?;
                let (tk, _) = Thicket::loader(profiles)
                    .load()
                    .map_err(|e| ServeError::Internal(format!("compose: {e}")))?;
                check_deadline(deadline)?;
                let queried = tk
                    .query_str(&query)
                    .map_err(|e| ServeError::BadRequest(format!("query: {e}")))?;
                let graph = queried.graph();
                let nodes = graph.ids().map(|id| graph.node(id).name().to_string()).collect();
                Ok(Response::Nodes { nodes, rows: queried.perf_data().len() })
            }
            Request::NodeStats { metric, pred } => {
                let snap = self.pin()?;
                check_deadline(deadline)?;
                let (_, profiles) = load_matching(snap, pred.as_deref(), deadline)?;
                check_deadline(deadline)?;
                Ok(Response::Stats { rows: node_stats(&profiles, &metric), metric })
            }
            Request::DebugSleep { ms } => {
                self.debug_op("debug_sleep")?;
                // Pin while sleeping: the op models a long-running
                // query holding its snapshot, which is exactly what
                // drain and daemon-kill tests need to observe.
                let _snap = self.pin()?;
                // Sleep in slices so the deadline stays honest even
                // mid-sleep; keep going through a drain (in-flight
                // work finishes during shutdown by design).
                let until = Instant::now() + Duration::from_millis(ms);
                while Instant::now() < until {
                    check_deadline(deadline)?;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(Response::Done)
            }
            Request::DebugPanic => {
                self.debug_op("debug_panic")?;
                panic!("injected debug panic (worker isolation test)");
            }
        }
    }

    fn debug_op(&self, name: &str) -> Result<(), ServeError> {
        if self.opts.enable_debug_ops {
            Ok(())
        } else {
            Err(ServeError::BadRequest(format!("{name} requires enable_debug_ops")))
        }
    }

    /// Pin a snapshot for the current request, mapping store
    /// contention to the typed `Busy` response.
    fn pin(&self) -> Result<thicket_perfsim::Snapshot, ServeError> {
        Store::open_pinned(&self.store_dir).map_err(store_error)
    }
}

fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    let doc = Json::parse(text).map_err(|e| format!("frame is not JSON: {e}"))?;
    Request::from_json(&doc)
}

fn check_deadline(deadline: Instant) -> Result<(), ServeError> {
    if Instant::now() >= deadline {
        Err(ServeError::DeadlineExceeded)
    } else {
        Ok(())
    }
}

fn store_error(e: StoreError) -> ServeError {
    match e {
        StoreError::Busy { waited } => {
            ServeError::Busy { waited_ms: waited.as_millis() as u64 }
        }
        other => ServeError::Internal(format!("store: {other}")),
    }
}

/// Load the profiles matching an optional dialect predicate off a
/// pinned snapshot, routed through the same [`ProfileSource`] the
/// loader uses for every store read: the snapshot becomes a
/// [`StoreSource`], the predicate is pushed down to its columnar
/// manifest selection, and chunks are pulled with a deadline check
/// between each. Consumes the snapshot — the pin is released when the
/// source is dropped, before this function returns.
fn load_matching(
    snap: thicket_perfsim::Snapshot,
    pred: Option<&str>,
    deadline: Instant,
) -> Result<(u64, Vec<Profile>), ServeError> {
    let expr = match pred {
        None => None,
        Some(text) => Some(
            parse_pred(text).map_err(|e| ServeError::BadRequest(format!("predicate: {e}")))?,
        ),
    };
    check_deadline(deadline)?;
    let generation = snap.generation();
    let mut src = StoreSource::from_snapshot(snap);
    if let Some(expr) = &expr {
        // A snapshot-backed source always claims the pushdown (no
        // entry filter is set), so chunks arrive pre-selected.
        let _ = src.push_filter(expr);
    }
    let mut profiles = Vec::new();
    while let Some(chunk) = src.next_chunk(None, Strictness::FailFast).map_err(load_error)? {
        profiles.extend(chunk.into_owned());
        check_deadline(deadline)?;
    }
    Ok((generation, profiles))
}

/// Map a source-load failure to the wire: store contention stays the
/// typed retryable `Busy`, anything else is internal.
fn load_error(e: ThicketError) -> ServeError {
    match e {
        ThicketError::Store(StoreError::Busy { waited }) => {
            ServeError::Busy { waited_ms: waited.as_millis() as u64 }
        }
        other => ServeError::Internal(format!("store load: {other}")),
    }
}

/// Per-node aggregate stats of `metric` across `profiles`: count,
/// mean, min, max keyed by node name, first-seen order.
fn node_stats(profiles: &[Profile], metric: &str) -> Vec<NodeStat> {
    let mut order: Vec<String> = Vec::new();
    let mut agg: std::collections::HashMap<String, (u64, f64, f64, f64)> =
        std::collections::HashMap::new();
    for p in profiles {
        let graph = p.graph();
        for id in graph.ids() {
            let Some(v) = p.metric(id, metric) else { continue };
            let name = graph.node(id).name();
            let entry = agg.entry(name.to_string()).or_insert_with(|| {
                order.push(name.to_string());
                (0, 0.0, f64::INFINITY, f64::NEG_INFINITY)
            });
            entry.0 += 1;
            entry.1 += v;
            entry.2 = entry.2.min(v);
            entry.3 = entry.3.max(v);
        }
    }
    order
        .into_iter()
        .map(|node| {
            let (count, sum, min, max) = agg[&node];
            NodeStat { node, count, mean: sum / count as f64, min, max }
        })
        .collect()
}
