//! The ingest failure model: strictness contracts and structured
//! per-source diagnostics.
//!
//! Production campaigns (the paper's Figure 13 study joins 560 profiles
//! collected across machines, tools, and scales) routinely contain
//! truncated, corrupt, or schema-drifted profiles. Ingest therefore
//! offers two contracts, chosen through [`Strictness`]:
//!
//! * **fail-fast** — the first unhealthy source aborts the whole load
//!   with a typed error identifying the offending path/profile. The
//!   "first" failure is deterministic (lowest source in path/input
//!   order) for any worker-thread count.
//! * **lenient** — every source is attempted; the healthy subset is
//!   returned together with an [`IngestReport`] carrying one typed
//!   [`Diagnostic`] per dropped source. The report is byte-identical
//!   across thread counts.
//!
//! Every failure path surfaces as a [`DiagKind`]; nothing panics and
//! nothing is silently dropped.

use crate::profile::ProfileError;
use std::fmt;

/// The ingest contract: what happens when a source is unhealthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strictness {
    /// First unhealthy source aborts the load with a typed error.
    FailFast,
    /// Unhealthy sources are dropped and reported.
    Lenient,
}

/// What went wrong with one source (a file path or an in-memory
/// profile), classified for programmatic handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagKind {
    /// The source could not be read.
    Io(String),
    /// The source is not valid JSON; `offset` is the failing byte.
    Parse {
        /// Byte offset of the parse failure.
        offset: usize,
        /// Parser message.
        message: String,
    },
    /// Valid JSON that does not satisfy the profile schema (missing or
    /// mistyped members, bad tree shape, empty call tree, …).
    Schema(String),
    /// The source's profile id collides with an earlier source.
    DuplicateProfile {
        /// The earlier source that already claimed the id.
        first: String,
    },
    /// A metric value is NaN or infinite.
    NonFiniteMetric {
        /// Node index carrying the bad value.
        node: usize,
        /// Metric name.
        metric: String,
    },
    /// The worker processing this source panicked (captured, never
    /// propagated); the panic message.
    WorkerPanic(String),
    /// A store shard record's payload does not match its CRC32C
    /// checksum (bit rot, or a header corrupted into misframing).
    ChecksumMismatch {
        /// Shard file name carrying the bad record.
        shard: String,
        /// Zero-based record index within the shard.
        record: usize,
    },
    /// A store shard ends mid-record: the framing promises more bytes
    /// than the file holds (a write torn by a crash).
    TornShard {
        /// Shard file name that is torn.
        shard: String,
    },
    /// A store manifest exists but cannot be verified (torn, corrupt,
    /// or referencing shards that no longer check out).
    StaleManifest {
        /// Manifest file name that failed verification.
        manifest: String,
    },
    /// A store commit lock whose owner is gone (dead pid, or an
    /// unreadable body past its ttl) — a writer crashed mid-commit.
    StaleLock {
        /// Lock file name (always `LOCK` today).
        lock: String,
    },
    /// A reader lease whose owner died or stopped heartbeating — it no
    /// longer pins its generation against garbage collection.
    StaleLease {
        /// Lease (`pin-*`) file name.
        lease: String,
    },
    /// A trace stream ends or breaks mid-line: a malformed event line,
    /// a missing header, or a final line cut off before its newline (a
    /// write torn by a crash).
    TornTrace {
        /// 1-based line number of the damage.
        line: u64,
        /// What the parser found there.
        message: String,
    },
    /// A trace event's timestamp regresses on its rank's clock —
    /// events were reordered in flight or the stream was stitched
    /// badly. The rank is poisoned from this event on.
    OutOfOrderEvent {
        /// Rank whose clock regressed.
        rank: u32,
        /// Timestamp (ns) that moved backwards.
        time_ns: u64,
    },
    /// A rank's enter/leave events do not balance: a leave with no
    /// open region, or regions still open when the stream ends.
    UnbalancedStream {
        /// Rank with the unbalanced stream.
        rank: u32,
        /// What was unbalanced about it.
        detail: String,
    },
}

impl DiagKind {
    /// Classify a [`ProfileError`] (unwrapping file-context layers).
    pub fn from_profile_error(e: &ProfileError) -> DiagKind {
        match e.root_cause() {
            ProfileError::Io(io) => DiagKind::Io(io.to_string()),
            ProfileError::Json(j) => DiagKind::Parse {
                offset: j.offset,
                message: j.message.clone(),
            },
            ProfileError::Malformed(m) => DiagKind::Schema(m.clone()),
            ProfileError::NonFinite { node, metric } => DiagKind::NonFiniteMetric {
                node: *node,
                metric: metric.clone(),
            },
            ProfileError::Panicked(m) => DiagKind::WorkerPanic(m.clone()),
            ProfileError::InFile { .. } => unreachable!("root_cause unwraps InFile"),
        }
    }
}

impl fmt::Display for DiagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagKind::Io(m) => write!(f, "io error: {m}"),
            DiagKind::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            DiagKind::Schema(m) => write!(f, "schema mismatch: {m}"),
            DiagKind::DuplicateProfile { first } => {
                write!(f, "duplicate profile id (first seen in {first})")
            }
            DiagKind::NonFiniteMetric { node, metric } => {
                write!(f, "non-finite metric {metric:?} on node {node}")
            }
            DiagKind::WorkerPanic(m) => write!(f, "worker panicked: {m}"),
            DiagKind::ChecksumMismatch { shard, record } => {
                write!(f, "checksum mismatch in {shard} record {record}")
            }
            DiagKind::TornShard { shard } => write!(f, "torn shard {shard}"),
            DiagKind::StaleManifest { manifest } => {
                write!(f, "stale manifest {manifest}")
            }
            DiagKind::StaleLock { lock } => write!(f, "stale lock {lock}"),
            DiagKind::StaleLease { lease } => write!(f, "stale lease {lease}"),
            DiagKind::TornTrace { line, message } => {
                write!(f, "torn trace at line {line}: {message}")
            }
            DiagKind::OutOfOrderEvent { rank, time_ns } => {
                write!(f, "out-of-order event on rank {rank} (clock regressed at {time_ns} ns)")
            }
            DiagKind::UnbalancedStream { rank, detail } => {
                write!(f, "unbalanced event stream on rank {rank}: {detail}")
            }
        }
    }
}

impl DiagKind {
    /// Short stable label for this kind (used by
    /// [`IngestReport::summary`] counts).
    pub fn label(&self) -> &'static str {
        match self {
            DiagKind::Io(_) => "io",
            DiagKind::Parse { .. } => "parse",
            DiagKind::Schema(_) => "schema",
            DiagKind::DuplicateProfile { .. } => "duplicate-profile",
            DiagKind::NonFiniteMetric { .. } => "non-finite-metric",
            DiagKind::WorkerPanic(_) => "worker-panic",
            DiagKind::ChecksumMismatch { .. } => "checksum-mismatch",
            DiagKind::TornShard { .. } => "torn-shard",
            DiagKind::StaleManifest { .. } => "stale-manifest",
            DiagKind::StaleLock { .. } => "stale-lock",
            DiagKind::StaleLease { .. } => "stale-lease",
            DiagKind::TornTrace { .. } => "torn-trace",
            DiagKind::OutOfOrderEvent { .. } => "out-of-order-event",
            DiagKind::UnbalancedStream { .. } => "unbalanced-stream",
        }
    }
}

/// One dropped source: where it came from and why it was dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The source: a file path for directory loads, a profile id for
    /// in-memory construction.
    pub source: String,
    /// The classified failure.
    pub kind: DiagKind,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.source, self.kind)
    }
}

/// How the loader's planner split a filter around the store read: which
/// conjuncts were pushed below it (evaluated on the columnar metadata
/// index, skipping shards) and which remained for post-compose
/// evaluation over the performance frame.
///
/// Conjuncts are recorded in their predicate-display form (e.g.
/// `cluster == quartz`), in original order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FilterPlan {
    /// Conjuncts evaluated below the store read (metadata-only fields).
    pub pushed: Vec<String>,
    /// Conjuncts evaluated after composition (perf-frame fields, or
    /// mixed/negated subtrees the planner cannot prove metadata-only).
    pub residual: Vec<String>,
}

impl FilterPlan {
    /// True when every conjunct was pushed below the store read.
    pub fn fully_pushed(&self) -> bool {
        self.residual.is_empty()
    }
}

impl fmt::Display for FilterPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pushdown: {} pushed [{}], {} residual [{}]",
            self.pushed.len(),
            self.pushed.join("; "),
            self.residual.len(),
            self.residual.join("; ")
        )
    }
}

/// The outcome of a lenient ingest: how many sources were attempted,
/// how many made it, and one [`Diagnostic`] per source that did not.
///
/// Diagnostics are ordered by source (path order for directory loads,
/// input order for in-memory construction) and are byte-identical for
/// any worker-thread count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Number of sources attempted.
    pub attempted: usize,
    /// Number of sources successfully ingested.
    pub loaded: usize,
    /// One entry per dropped source, in source order.
    pub diagnostics: Vec<Diagnostic>,
    /// When the load carried a predicate through the loader's planner:
    /// how it was split around the store read. `None` for unfiltered
    /// loads and for direct `StoreReader` calls, which take a predicate
    /// that is already split.
    pub pushdown: Option<FilterPlan>,
}

impl IngestReport {
    /// True when every attempted source was ingested.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of sources dropped.
    pub fn dropped(&self) -> usize {
        self.diagnostics.len()
    }

    /// One-line human-readable triage summary: totals plus a count per
    /// [`DiagKind`] label, e.g.
    /// `ingest: 7/10 loaded, 3 dropped (parse ×2, torn-shard ×1)`.
    ///
    /// Labels appear in first-seen diagnostic order, so the line is
    /// deterministic for a deterministic report.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "ingest: {}/{} loaded, {} dropped",
            self.loaded,
            self.attempted,
            self.dropped()
        );
        if !self.diagnostics.is_empty() {
            let mut counts: Vec<(&'static str, usize)> = Vec::new();
            for d in &self.diagnostics {
                let label = d.kind.label();
                match counts.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((label, 1)),
                }
            }
            let parts: Vec<String> = counts
                .iter()
                .map(|(l, n)| format!("{l} \u{d7}{n}"))
                .collect();
            line.push_str(&format!(" ({})", parts.join(", ")));
        }
        line
    }

    /// Append another report's outcome onto this one (used when a load
    /// pipeline has multiple accounting stages, e.g. store read followed
    /// by thicket build): `attempted` stays this report's count, `loaded`
    /// takes the later stage's count, and diagnostics concatenate in
    /// stage order.
    pub fn absorb(&mut self, later: IngestReport) {
        self.loaded = later.loaded;
        self.diagnostics.extend(later.diagnostics);
        if self.pushdown.is_none() {
            self.pushdown = later.pushdown;
        }
    }
}

impl fmt::Display for IngestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ingest: {}/{} sources loaded, {} dropped",
            self.loaded,
            self.attempted,
            self.dropped()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_unwraps_file_context() {
        let e = ProfileError::NonFinite {
            node: 3,
            metric: "time".into(),
        }
        .in_file("/tmp/x.json");
        assert_eq!(
            DiagKind::from_profile_error(&e),
            DiagKind::NonFiniteMetric {
                node: 3,
                metric: "time".into()
            }
        );
        let io = ProfileError::Io(std::io::Error::other("nope"));
        assert!(matches!(DiagKind::from_profile_error(&io), DiagKind::Io(_)));
    }

    #[test]
    fn report_display_lists_diagnostics() {
        let report = IngestReport {
            attempted: 3,
            loaded: 2,
            diagnostics: vec![Diagnostic {
                source: "a.json".into(),
                kind: DiagKind::Parse {
                    offset: 17,
                    message: "unterminated object".into(),
                },
            }],
            pushdown: None,
        };
        assert!(!report.is_clean());
        assert_eq!(report.dropped(), 1);
        let s = report.to_string();
        assert!(s.contains("2/3"));
        assert!(s.contains("a.json"));
        assert!(s.contains("byte 17"));
    }

    #[test]
    fn summary_counts_per_kind() {
        let mut report = IngestReport {
            attempted: 10,
            loaded: 7,
            diagnostics: vec![
                Diagnostic {
                    source: "a.json".into(),
                    kind: DiagKind::Parse {
                        offset: 1,
                        message: "x".into(),
                    },
                },
                Diagnostic {
                    source: "shard-000001-0000.tks#2".into(),
                    kind: DiagKind::TornShard {
                        shard: "shard-000001-0000.tks".into(),
                    },
                },
                Diagnostic {
                    source: "b.json".into(),
                    kind: DiagKind::Parse {
                        offset: 9,
                        message: "y".into(),
                    },
                },
            ],
            pushdown: None,
        };
        assert_eq!(
            report.summary(),
            "ingest: 7/10 loaded, 3 dropped (parse \u{d7}2, torn-shard \u{d7}1)"
        );
        // A clean report stays a bare one-liner.
        report.diagnostics.clear();
        report.loaded = 10;
        assert_eq!(report.summary(), "ingest: 10/10 loaded, 0 dropped");
    }

    #[test]
    fn absorb_chains_stage_accounting() {
        let mut read = IngestReport {
            attempted: 5,
            loaded: 4,
            diagnostics: vec![Diagnostic {
                source: "s#0".into(),
                kind: DiagKind::ChecksumMismatch {
                    shard: "s".into(),
                    record: 0,
                },
            }],
            pushdown: None,
        };
        let build = IngestReport {
            attempted: 4,
            loaded: 3,
            diagnostics: vec![Diagnostic {
                source: "profile 9".into(),
                kind: DiagKind::DuplicateProfile {
                    first: "profile 1".into(),
                },
            }],
            pushdown: None,
        };
        read.absorb(build);
        assert_eq!(read.attempted, 5);
        assert_eq!(read.loaded, 3);
        assert_eq!(read.dropped(), 2);
        assert_eq!(read.diagnostics[0].kind.label(), "checksum-mismatch");
        assert_eq!(read.diagnostics[1].kind.label(), "duplicate-profile");
    }

    #[test]
    fn strictness_helpers() {
        assert_ne!(Strictness::FailFast, Strictness::Lenient);
    }
}
