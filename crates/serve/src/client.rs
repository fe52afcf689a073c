//! `ThicketClient`: a retrying, deadline-bounded client for the
//! `thicketd` wire protocol.
//!
//! Retry discipline: transient failures — a shed connection
//! ([`ServeError::Overloaded`]), store contention
//! ([`ServeError::Busy`]), a draining server, or a connection-level
//! I/O failure (the daemon restarting) — are retried under the
//! equal-jitter [`Backoff`], bounded by [`Backoff::with_deadline`] so
//! the *total* sleep across all retries never exceeds the client's
//! 10 s request budget. The server's
//! `retry_after` hint acts as a floor on each sleep, clamped to the
//! remaining wall budget so the bound still holds. Non-retryable
//! failures (bad request, internal error, deadline) surface
//! immediately.
//!
//! Connection discipline: the client keeps **one persistent framed
//! connection** and reuses it across requests — the server's
//! connection loop is built for exactly this, and skipping the
//! per-request TCP handshake removes the dominant latency term for
//! small requests. Any wire-level failure (I/O, torn frame, protocol
//! violation) invalidates the cached connection; a *stale* reused
//! connection (the server restarted or idled it out) is retried once
//! on a fresh connection immediately, and anything beyond that falls
//! back to the budgeted backoff above.

use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use thicket_perfsim::{Backoff, Json, Profile};

use crate::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::proto::{NodeStat, Request, Response, ServeError, StatusInfo};

/// Total request budget: wall time across every attempt and every
/// backoff sleep.
const DEADLINE: Duration = Duration::from_secs(10);
/// First backoff slot.
const BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Backoff slot cap.
const BACKOFF_CAP: Duration = Duration::from_millis(500);
/// Socket read (and write) timeout while waiting for the response.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The server answered with a non-retryable typed error.
    Server(ServeError),
    /// The request budget ran out; `last` is the most recent transient
    /// failure description, if any attempt got that far.
    DeadlineExceeded {
        /// Last transient failure seen before the budget ran out.
        last: Option<String>,
    },
    /// A connection-level failure on the final permitted attempt.
    Io(std::io::Error),
    /// The server broke the frame protocol.
    Frame(FrameError),
    /// The response frame parsed as JSON but not as a known response.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::DeadlineExceeded { last: Some(l) } => {
                write!(f, "request budget exhausted (last failure: {l})")
            }
            ClientError::DeadlineExceeded { last: None } => {
                write!(f, "request budget exhausted")
            }
            ClientError::Io(e) => write!(f, "connection: {e}"),
            ClientError::Frame(e) => write!(f, "frame: {e}"),
            ClientError::Protocol(d) => write!(f, "protocol: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A client for one `thicketd` address. Holds one persistent framed
/// connection, established lazily and reused across requests; the
/// client is `Send`, and a clone starts with its own connection slot
/// (clones never serialize behind each other's in-flight requests).
/// Declared response frame lengths are capped at [`DEFAULT_MAX_FRAME`]
/// before allocation.
#[derive(Debug)]
pub struct ThicketClient {
    addr: String,
    /// The cached connection. `None` until the first request, and
    /// again after any wire-level failure invalidates it.
    conn: Arc<Mutex<Option<TcpStream>>>,
}

impl Clone for ThicketClient {
    fn clone(&self) -> ThicketClient {
        ThicketClient {
            addr: self.addr.clone(),
            conn: Arc::new(Mutex::new(None)),
        }
    }
}

impl ThicketClient {
    /// A client for `addr`; it dials on the first request.
    pub fn new(addr: impl Into<String>) -> ThicketClient {
        ThicketClient {
            addr: addr.into(),
            conn: Arc::new(Mutex::new(None)),
        }
    }

    /// Dial and configure a fresh connection.
    fn connect(&self) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect(&self.addr).map_err(ClientError::Io)?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(ClientError::Io)?;
        stream
            .set_write_timeout(Some(READ_TIMEOUT))
            .map_err(ClientError::Io)?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    /// One framed request/response exchange on an open connection.
    fn round_trip(&self, stream: &mut TcpStream, payload: &[u8]) -> Result<Response, ClientError> {
        write_frame(stream, payload).map_err(ClientError::Io)?;
        let frame = read_frame(stream, DEFAULT_MAX_FRAME, READ_TIMEOUT)
            .map_err(ClientError::Frame)?
            .ok_or_else(|| {
                ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection before responding",
                ))
            })?;
        let text = std::str::from_utf8(&frame)
            .map_err(|e| ClientError::Protocol(format!("response not UTF-8: {e}")))?;
        let doc = Json::parse(text)
            .map_err(|e| ClientError::Protocol(format!("response not JSON: {e}")))?;
        Response::from_json(&doc).map_err(ClientError::Protocol)
    }

    /// One wire attempt, no backoff: reuse the cached connection (or
    /// dial one), exchange frames, and keep the connection only on
    /// success. A reused connection that fails with an I/O error is
    /// most likely stale (the server restarted or closed it idle), so
    /// that one case gets a single immediate redial — a genuine outage
    /// fails the redial too and lands in the caller's backoff.
    fn attempt(&self, payload: &[u8]) -> Result<Response, ClientError> {
        let mut guard = self.conn.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let reused = guard.is_some();
        let mut stream = match guard.take() {
            Some(stream) => stream,
            None => self.connect()?,
        };
        match self.round_trip(&mut stream, payload) {
            Ok(resp) => {
                *guard = Some(stream);
                Ok(resp)
            }
            Err(ClientError::Io(_)) if reused => {
                let mut fresh = self.connect()?;
                let resp = self.round_trip(&mut fresh, payload)?;
                *guard = Some(fresh);
                Ok(resp)
            }
            // Any other wire-level failure: the stream position is
            // unknowable, so the connection stays invalidated.
            Err(e) => Err(e),
        }
    }

    /// Send `request`, retrying transient failures under the budgeted
    /// backoff, until success, a permanent failure, or budget
    /// exhaustion.
    pub fn request(&self, request: &Request) -> Result<Response, ClientError> {
        let payload = request.to_json().to_string_compact().into_bytes();
        let start = Instant::now();
        let mut backoff = Backoff::new(BACKOFF_BASE, BACKOFF_CAP, 0).with_deadline(DEADLINE);
        let mut last: Option<String> = None;
        loop {
            if start.elapsed() >= DEADLINE {
                return Err(ClientError::DeadlineExceeded { last });
            }
            let (transient, hint) = match self.attempt(&payload) {
                Ok(Response::Error(e)) if e.is_retryable() => {
                    let hint = match e {
                        ServeError::Overloaded { retry_after_ms } => {
                            Some(Duration::from_millis(retry_after_ms))
                        }
                        _ => None,
                    };
                    (e.to_string(), hint)
                }
                Ok(Response::Error(e)) => return Err(ClientError::Server(e)),
                Ok(resp) => return Ok(resp),
                // Connection-level failures are transient by policy: a
                // restarting daemon looks exactly like this.
                Err(ClientError::Io(e)) => (format!("connection: {e}"), None),
                Err(other) => return Err(other),
            };
            last = Some(transient);
            // Budgeted sleep: the backoff's deadline bounds its own
            // total; the server hint may raise one sleep but is
            // clamped to the remaining wall budget.
            let Some(delay) = backoff.next() else {
                return Err(ClientError::DeadlineExceeded { last });
            };
            let wall_left = DEADLINE.saturating_sub(start.elapsed());
            let sleep = delay.max(hint.unwrap_or(Duration::ZERO)).min(wall_left);
            if sleep.is_zero() && wall_left.is_zero() {
                return Err(ClientError::DeadlineExceeded { last });
            }
            std::thread::sleep(sleep);
        }
    }

    fn expect_server_err(resp: Response) -> ClientError {
        match resp {
            Response::Error(e) => ClientError::Server(e),
            other => ClientError::Protocol(format!("unexpected response shape: {other:?}")),
        }
    }

    /// Load the profiles matching a dialect predicate (`None` = all).
    /// Returns the pinned generation and the profiles.
    pub fn load_matching(
        &self,
        pred: Option<&str>,
    ) -> Result<(u64, Vec<Profile>), ClientError> {
        let req = Request::LoadMatching { pred: pred.map(str::to_string) };
        match self.request(&req)? {
            Response::Profiles { generation, profiles } => Ok((generation, profiles)),
            other => Err(Self::expect_server_err(other)),
        }
    }

    /// Run a call-path query (string dialect) server-side; returns the
    /// surviving node names and the surviving perf-row count.
    pub fn query_nodes(
        &self,
        query: &str,
        pred: Option<&str>,
    ) -> Result<(Vec<String>, usize), ClientError> {
        let req = Request::Query { query: query.into(), pred: pred.map(str::to_string) };
        match self.request(&req)? {
            Response::Nodes { nodes, rows } => Ok((nodes, rows)),
            other => Err(Self::expect_server_err(other)),
        }
    }

    /// Per-node stats of `metric` across the matching profiles.
    pub fn node_stats(
        &self,
        metric: &str,
        pred: Option<&str>,
    ) -> Result<Vec<NodeStat>, ClientError> {
        let req = Request::NodeStats { metric: metric.into(), pred: pred.map(str::to_string) };
        match self.request(&req)? {
            Response::Stats { rows, .. } => Ok(rows),
            other => Err(Self::expect_server_err(other)),
        }
    }

    /// Server and store status.
    pub fn status(&self) -> Result<StatusInfo, ClientError> {
        match self.request(&Request::Status)? {
            Response::Status(s) => Ok(s),
            other => Err(Self::expect_server_err(other)),
        }
    }
}
