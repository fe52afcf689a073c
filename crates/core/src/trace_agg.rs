//! Streaming trace → profile aggregation.
//!
//! [`TraceAggregator`] folds chunks of [`TraceEvent`]s into per-rank
//! call-tree profiles without ever materializing the full trace. Memory
//! is bounded by O(tree depth × open windows) per rank: the only state
//! kept between chunks is each rank's deduplicated call graph, its stack
//! of open frames, and one accumulator row per graph node. Event vectors
//! are borrowed, folded, and dropped — a trace 1000× larger than RAM
//! streams through at constant resident size.
//!
//! Timestamps accumulate as exact `u64` nanoseconds, so the result is
//! bit-identical regardless of where chunk boundaries fall (no float
//! reassociation); the conversion to seconds happens once, at profile
//! emission.
//!
//! With a window length set, the event time axis is cut into absolute
//! windows `[k·w, (k+1)·w)` and each rank emits one profile per window
//! that saw activity. Frames open at a boundary are split: time up to the
//! boundary is attributed to the closing window, and the frame reopens in
//! the next window without a new visit count.

use std::collections::BTreeMap;
use std::time::Duration;

use thicket_dataframe::Value;
use thicket_graph::{Frame, Graph, NodeId};
use thicket_perfsim::{
    DiagKind, Diagnostic, IngestReport, Profile, Strictness, TraceEvent, TraceEventKind,
};

use crate::thicket::ThicketError;

/// A frame currently open on one rank's region stack.
struct OpenFrame {
    node: NodeId,
    /// Start of the current accumulation segment (reset at window roll).
    seg_start_ns: u64,
}

/// Per-rank streaming state: the growing call graph, the open-region
/// stack, and one `(inclusive ns, visits)` accumulator per node.
struct RankState {
    graph: Graph,
    stack: Vec<OpenFrame>,
    inc_ns: Vec<u64>,
    visits: Vec<u64>,
    window: u64,
    window_start_ns: u64,
    last_time_ns: u64,
    /// Anything recorded since the last emit? (Gates empty-window skips.)
    dirty: bool,
    /// A lenient-mode anomaly drops the rank's current window and
    /// swallows the rest of its stream; prior emitted windows survive.
    poisoned: bool,
}

impl RankState {
    fn new(first_time_ns: u64, window_ns: Option<u64>) -> Self {
        let (window, window_start_ns) = match window_ns {
            Some(w) => (first_time_ns / w, (first_time_ns / w) * w),
            None => (0, 0),
        };
        RankState {
            graph: Graph::new(),
            stack: Vec::new(),
            inc_ns: Vec::new(),
            visits: Vec::new(),
            window,
            window_start_ns,
            last_time_ns: first_time_ns,
            dirty: false,
            poisoned: false,
        }
    }

    fn grow_to_graph(&mut self) {
        let n = self.graph.len();
        if self.inc_ns.len() < n {
            self.inc_ns.resize(n, 0);
            self.visits.resize(n, 0);
        }
    }
}

/// Streaming aggregator: push event chunks, pull finished profiles.
///
/// ```
/// use std::io::Cursor;
/// use thicket_core::TraceAggregator;
/// use thicket_perfsim::{Strictness, TraceConfig, TraceReader};
///
/// let cfg = TraceConfig::quartz(2, 1, 42);
/// let mut bytes = Vec::new();
/// thicket_perfsim::emit_trace(&cfg, &mut bytes).unwrap();
///
/// let mut reader = TraceReader::new(Cursor::new(bytes)).unwrap();
/// let meta = reader.metadata().to_vec();
/// let mut agg = TraceAggregator::new(meta, None, Strictness::FailFast);
/// loop {
///     let events = reader.next_events(512).unwrap();
///     if events.is_empty() {
///         break;
///     }
///     agg.push_events(&events).unwrap();
/// }
/// let (profiles, report) = agg.finish().unwrap();
/// assert_eq!(profiles.len(), 2); // one per rank
/// assert!(report.is_clean());
/// ```
pub struct TraceAggregator {
    window_ns: Option<u64>,
    strictness: Strictness,
    base_meta: Vec<(String, Value)>,
    source_label: String,
    ranks: BTreeMap<u32, RankState>,
    ready: Vec<Profile>,
    diagnostics: Vec<Diagnostic>,
    emitted: usize,
    dropped: usize,
}

impl TraceAggregator {
    /// Create an aggregator. `metadata` is stamped onto every emitted
    /// profile (the trace header's M-block, typically); `window` of
    /// `None` means one profile per rank for the whole trace.
    pub fn new(
        metadata: Vec<(String, Value)>,
        window: Option<Duration>,
        strictness: Strictness,
    ) -> Self {
        TraceAggregator {
            window_ns: window.map(|w| (w.as_nanos() as u64).max(1)),
            strictness,
            base_meta: metadata,
            source_label: "trace".to_string(),
            ranks: BTreeMap::new(),
            ready: Vec::new(),
            diagnostics: Vec::new(),
            emitted: 0,
            dropped: 0,
        }
    }

    /// Label used as the `source` of emitted diagnostics (usually the
    /// trace file path).
    pub fn with_source_label(mut self, label: impl Into<String>) -> Self {
        self.source_label = label.into();
        self
    }

    /// Record an externally detected problem (e.g. a torn read from the
    /// underlying [`thicket_perfsim::TraceReader`]). Under fail-fast
    /// strictness this aborts the ingest; under lenient strictness the
    /// diagnostic is kept and every rank's *current* window is dropped
    /// (prior emitted windows survive).
    pub fn record_failure(&mut self, kind: DiagKind) -> Result<(), ThicketError> {
        match self.strictness {
            Strictness::FailFast => Err(ThicketError::Invalid(format!(
                "trace ingest failed under fail-fast strictness ({kind} in {})",
                self.source_label
            ))),
            Strictness::Lenient => {
                self.diagnostics.push(Diagnostic {
                    source: self.source_label.clone(),
                    kind,
                });
                self.poison_all();
                Ok(())
            }
        }
    }

    /// Drop the current (incomplete) window of every rank and ignore any
    /// further events. Used after a stream-level failure.
    fn poison_all(&mut self) {
        for state in self.ranks.values_mut() {
            if !state.poisoned {
                if state.dirty {
                    self.dropped += 1;
                }
                state.poisoned = true;
            }
        }
    }

    /// Fold one chunk of events into the per-rank state. Events must be
    /// non-decreasing in time *per rank* (the global interleaving is
    /// irrelevant). Malformed streams produce typed diagnostics under
    /// lenient strictness and an error under fail-fast — never a panic.
    pub fn push_events(&mut self, events: &[TraceEvent]) -> Result<(), ThicketError> {
        for ev in events {
            self.push_event(ev)?;
        }
        Ok(())
    }

    fn push_event(&mut self, ev: &TraceEvent) -> Result<(), ThicketError> {
        let window_ns = self.window_ns;
        let state = self
            .ranks
            .entry(ev.rank)
            .or_insert_with(|| RankState::new(ev.time_ns, window_ns));
        if state.poisoned {
            return Ok(());
        }
        if ev.time_ns < state.last_time_ns {
            return self.anomaly(
                ev.rank,
                DiagKind::OutOfOrderEvent {
                    rank: ev.rank,
                    time_ns: ev.time_ns,
                },
            );
        }

        // Roll window boundaries the event has crossed, emitting each
        // closed window that saw activity.
        if let Some(w) = window_ns {
            while ev.time_ns >= state.window_start_ns + w {
                let boundary = state.window_start_ns + w;
                for frame in &mut state.stack {
                    state.inc_ns[frame.node.index()] += boundary - frame.seg_start_ns;
                    frame.seg_start_ns = boundary;
                    state.dirty = true;
                }
                if state.dirty {
                    let profile = emit_window(state, ev.rank, &self.base_meta);
                    self.ready.push(profile);
                    self.emitted += 1;
                } else if state.stack.is_empty() {
                    // Idle gap: jump straight to the event's window
                    // instead of rolling one empty window at a time.
                    state.window = ev.time_ns / w;
                    state.window_start_ns = state.window * w;
                    break;
                }
                state.window += 1;
                state.window_start_ns = boundary;
            }
        }

        match &ev.kind {
            TraceEventKind::Enter(name) => {
                let frame = Frame::with_type(name.clone(), "region");
                let node = match state.stack.last() {
                    Some(top) => {
                        let parent = top.node;
                        state
                            .graph
                            .child_with_frame(parent, &frame)
                            .unwrap_or_else(|| state.graph.add_child(parent, frame))
                    }
                    None => state
                        .graph
                        .root_with_frame(&frame)
                        .unwrap_or_else(|| state.graph.add_root(frame)),
                };
                state.grow_to_graph();
                state.visits[node.index()] += 1;
                state.dirty = true;
                state.stack.push(OpenFrame {
                    node,
                    seg_start_ns: ev.time_ns,
                });
                state.last_time_ns = ev.time_ns;
            }
            TraceEventKind::Leave => match state.stack.pop() {
                Some(frame) => {
                    state.inc_ns[frame.node.index()] += ev.time_ns - frame.seg_start_ns;
                    state.dirty = true;
                    state.last_time_ns = ev.time_ns;
                }
                None => {
                    return self.anomaly(
                        ev.rank,
                        DiagKind::UnbalancedStream {
                            rank: ev.rank,
                            detail: "leave event with no open region".to_string(),
                        },
                    );
                }
            },
        }
        Ok(())
    }

    fn anomaly(&mut self, rank: u32, kind: DiagKind) -> Result<(), ThicketError> {
        match self.strictness {
            Strictness::FailFast => Err(ThicketError::Invalid(format!(
                "trace ingest failed under fail-fast strictness ({kind} in {})",
                self.source_label
            ))),
            Strictness::Lenient => {
                self.diagnostics.push(Diagnostic {
                    source: format!("{} (rank {rank})", self.source_label),
                    kind,
                });
                if let Some(state) = self.ranks.get_mut(&rank) {
                    if state.dirty {
                        self.dropped += 1;
                    }
                    state.poisoned = true;
                }
                Ok(())
            }
        }
    }

    /// Profiles completed so far (closed windows). Draining between
    /// chunks is what keeps windowed ingest memory-bounded.
    pub fn drain_ready(&mut self) -> Vec<Profile> {
        std::mem::take(&mut self.ready)
    }

    /// True if no completed profile is waiting in the ready queue.
    pub fn ready_is_empty(&self) -> bool {
        self.ready.is_empty()
    }

    /// Close every rank's final window and return any undrained profiles
    /// plus the ingest report. Ranks with regions still open at end of
    /// trace are unbalanced: fail-fast errors, lenient drops that rank's
    /// final window with a typed diagnostic.
    pub fn finish(mut self) -> Result<(Vec<Profile>, IngestReport), ThicketError> {
        let mut ranks = std::mem::take(&mut self.ranks);
        for (rank, state) in ranks.iter_mut() {
            if state.poisoned {
                continue;
            }
            if !state.stack.is_empty() {
                let detail = format!("{} region(s) still open at end of trace", state.stack.len());
                self.anomaly(*rank, DiagKind::UnbalancedStream {
                    rank: *rank,
                    detail,
                })?;
                // Lenient: the anomaly path couldn't see this state (we
                // took the map), so drop the window here.
                if state.dirty {
                    self.dropped += 1;
                }
                state.poisoned = true;
                continue;
            }
            if state.dirty {
                let profile = emit_window(state, *rank, &self.base_meta);
                self.ready.push(profile);
                self.emitted += 1;
            }
        }
        let report = IngestReport {
            attempted: self.emitted + self.dropped,
            loaded: self.emitted,
            diagnostics: std::mem::take(&mut self.diagnostics),
            pushdown: None,
        };
        Ok((std::mem::take(&mut self.ready), report))
    }
}

/// Emit one rank-window profile from the accumulated state and reset the
/// accumulators for the next window. Exclusive time is derived as
/// inclusive minus the sum of the children's inclusive (exact in u64
/// before the single conversion to seconds).
fn emit_window(state: &mut RankState, rank: u32, base_meta: &[(String, Value)]) -> Profile {
    state.grow_to_graph();
    let mut profile = Profile::new(state.graph.clone());
    for (i, id) in state.graph.ids().enumerate() {
        let inc = state.inc_ns[i];
        let visits = state.visits[i];
        if inc == 0 && visits == 0 {
            continue;
        }
        let child_inc: u64 = state
            .graph
            .node(id)
            .children()
            .iter()
            .map(|c| state.inc_ns[c.index()])
            .sum();
        let exc = inc.saturating_sub(child_inc);
        profile.set_metric(id, "time (inc)", inc as f64 / 1e9);
        profile.set_metric(id, "time (exc)", exc as f64 / 1e9);
        profile.set_metric(id, "visits", visits as f64);
    }
    for (k, v) in base_meta {
        profile.set_metadata(k.clone(), v.clone());
    }
    profile.set_metadata("rank", Value::Int(rank as i64));
    profile.set_metadata("window", Value::Int(state.window as i64));
    profile.set_metadata(
        "window start (ns)",
        Value::Int(state.window_start_ns as i64),
    );
    state.inc_ns.iter_mut().for_each(|v| *v = 0);
    state.visits.iter_mut().for_each(|v| *v = 0);
    state.dirty = false;
    profile
}
