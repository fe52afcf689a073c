//! Streaming trace ingest tests: chunked aggregation must be
//! bit-identical to whole-trace aggregation for any chunk boundary and
//! thread count, windowed ingest must conserve time exactly, corrupted
//! event streams must produce typed diagnostics (never panics), and the
//! trace → store path must round-trip to the same thicket as a direct
//! trace load.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

use proptest::prelude::*;
use thicket_core::{trace_to_store, LoadSource, ProfileSource, Thicket, ThicketError, TraceSource};
use thicket_perfsim::{
    emit_trace_to_path, inject, simulate_cpu_run, FaultKind, Profile, ScratchDir, Strictness,
    TraceConfig, TraceReader,
};

/// Emit `cfg` as `run.trace` into a fresh scratch directory; returns
/// the directory (which owns the file) and the trace's path.
fn emit_file(cfg: &TraceConfig) -> (ScratchDir, PathBuf) {
    let dir = ScratchDir::new("trace");
    let path = dir.join("run.trace");
    emit_trace_to_path(cfg, &path).unwrap();
    (dir, path)
}

/// Timestamp of the last event in the trace (for window sizing).
fn trace_span_ns(path: &Path) -> u64 {
    let mut reader = TraceReader::open(path).unwrap();
    let mut last = 0;
    loop {
        let events = reader.next_events(1024).unwrap();
        if events.is_empty() {
            return last;
        }
        last = events.last().unwrap().time_ns;
    }
}

#[test]
fn whole_trace_yields_one_profile_per_rank() {
    let cfg = TraceConfig::quartz(3, 2, 7);
    let (_dir, path) = emit_file(&cfg);
    let (tk, report) = Thicket::loader(LoadSource::trace(&path)).load().unwrap();
    assert_eq!(tk.metadata().len(), 3, "one profile per rank");
    assert!(report.is_clean());
    assert_eq!(report.attempted, 3);
    assert_eq!(report.loaded, 3);
    // The header metadata plus the per-rank stamps all made it through.
    for key in ["cluster", "rank", "seed"] {
        assert!(
            tk.metadata().column_named(key).is_ok(),
            "metadata is missing {key:?}"
        );
    }
}

#[test]
fn windowed_ingest_conserves_inclusive_time() {
    let cfg = TraceConfig::quartz(2, 3, 11);
    let (_dir, path) = emit_file(&cfg);
    let span = trace_span_ns(&path);
    let window = Duration::from_nanos(span / 5);

    let (whole, _) = Thicket::loader(LoadSource::trace(&path)).load().unwrap();
    let windows = TraceSource::open(&path, Some(window)).unwrap();
    let (windowed, report) = Thicket::loader(LoadSource::custom(windows)).load().unwrap();
    assert!(report.is_clean());
    assert!(
        windowed.metadata().len() > whole.metadata().len(),
        "a window a fifth of the span must cut each rank into multiple profiles"
    );
    for key in ["window", "window start (ns)"] {
        assert!(
            windowed.metadata().column_named(key).is_ok(),
            "windowed metadata is missing {key:?}"
        );
    }
    // Exact conservation: every nanosecond of inclusive time lands in
    // exactly one window, so the summed metric matches the whole-trace
    // aggregate up to the one ns→s float conversion per emission.
    let sum_inc = |tk: &Thicket| -> f64 {
        tk.perf_data()
            .column_named("time (inc)")
            .unwrap()
            .iter()
            .filter_map(|v| v.as_f64())
            .sum()
    };
    let whole_inc = sum_inc(&whole);
    let windowed_inc = sum_inc(&windowed);
    assert!(
        (whole_inc - windowed_inc).abs() < 1e-6,
        "inclusive time not conserved: whole {whole_inc} vs windowed {windowed_inc}"
    );
}

#[test]
fn trace_to_store_roundtrips_to_the_same_thicket() {
    let cfg = TraceConfig::quartz(2, 2, 23);
    let (dir, path) = emit_file(&cfg);
    let span = trace_span_ns(&path);
    let window = Duration::from_nanos(span / 4);
    let store_dir = dir.join("store");

    let (report, written) =
        trace_to_store(&path, &store_dir, Some(window), Strictness::FailFast).unwrap();
    assert!(report.is_clean());
    assert!(written > 2, "windowing must produce several profiles");
    assert_eq!(report.loaded, written);

    let windows = TraceSource::open(&path, Some(window)).unwrap();
    let (direct, _) = Thicket::loader(LoadSource::custom(windows)).load().unwrap();
    let (via_store, _) = Thicket::loader(LoadSource::store(&store_dir)).load().unwrap();
    assert_eq!(direct.perf_data(), via_store.perf_data());
    assert_eq!(direct.metadata(), via_store.metadata());
}

/// A custom source that yields borrowed profiles in one chunk.
struct Borrowed<'a>(Option<&'a [Profile]>);

impl ProfileSource for Borrowed<'_> {
    fn next_chunk(
        &mut self,
        _threads: Option<usize>,
        _strictness: Strictness,
    ) -> Result<Option<Cow<'_, [Profile]>>, ThicketError> {
        Ok(self.0.take().map(Cow::Borrowed))
    }

    fn meta_keys(&mut self) -> BTreeSet<String> {
        BTreeSet::new()
    }
}

#[test]
fn custom_source_adapters_match_the_fast_path() {
    let profiles: Vec<_> = (0..3u64)
        .map(|seed| {
            let mut cfg = thicket_perfsim::CpuRunConfig::quartz_default();
            cfg.seed = seed;
            simulate_cpu_run(&cfg)
        })
        .collect();
    let (fast, _) = Thicket::loader(&profiles).load().unwrap();

    let (via_slice, slice_report) = Thicket::loader(LoadSource::custom(Borrowed(Some(&profiles))))
        .load()
        .unwrap();
    assert_eq!(fast.perf_data(), via_slice.perf_data());
    assert_eq!(fast.metadata(), via_slice.metadata());
    assert!(slice_report.is_clean());

    let (via_owned, _) = Thicket::loader(profiles.clone()).load().unwrap();
    assert_eq!(fast.perf_data(), via_owned.perf_data());
    assert_eq!(fast.metadata(), via_owned.metadata());
}

// ---------------------------------------------------------------------
// Fault family: every TRACE corruption yields a typed diagnostic under
// lenient strictness and a typed error under fail-fast — never a panic.
// ---------------------------------------------------------------------

#[test]
fn torn_trace_keeps_closed_windows_and_reports() {
    let cfg = TraceConfig::quartz(2, 3, 5);
    let (dir, path) = emit_file(&cfg);
    let span = trace_span_ns(&path);
    // Tear near the end of the stream (the injector indexes its victim
    // line by `seed % events`), so earlier windows have already closed.
    inject(&dir, FaultKind::TornTrace, cfg.events_total() - 2).unwrap();

    // Fail-fast: a typed error naming the strictness, not a panic.
    let err = Thicket::loader(LoadSource::trace(&path))
        .strictness(Strictness::FailFast)
        .load()
        .unwrap_err();
    assert!(
        err.to_string().contains("fail-fast"),
        "unexpected fail-fast error: {err}"
    );

    // Lenient with windows: everything that closed before the tear
    // survives, and the tear itself is a typed torn-trace diagnostic.
    let windows = TraceSource::open(&path, Some(Duration::from_nanos(span / 20))).unwrap();
    let (tk, report) = Thicket::loader(LoadSource::custom(windows))
        .strictness(Strictness::Lenient)
        .load()
        .unwrap();
    assert!(!tk.metadata().is_empty());
    assert!(!report.is_clean());
    assert!(
        report.diagnostics.iter().any(|d| FaultKind::TornTrace.matches(&d.kind)),
        "no torn-trace diagnostic in: {}",
        report.summary()
    );
}

#[test]
fn shuffled_events_poison_one_rank_and_report() {
    let cfg = TraceConfig::quartz(3, 2, 6);
    let (dir, path) = emit_file(&cfg);
    inject(&dir, FaultKind::ShuffledEvents, 77).unwrap();

    let err = Thicket::loader(LoadSource::trace(&path))
        .strictness(Strictness::FailFast)
        .load()
        .unwrap_err();
    assert!(err.to_string().contains("fail-fast"));

    // Lenient: the regressed rank is dropped with a typed diagnostic;
    // the other ranks' profiles survive.
    let (tk, report) = Thicket::loader(LoadSource::trace(&path))
        .strictness(Strictness::Lenient)
        .load()
        .unwrap();
    assert!(tk.metadata().len() < 3, "the corrupted rank must be dropped");
    assert!(!tk.metadata().is_empty(), "healthy ranks must survive");
    assert!(
        report.diagnostics.iter().any(|d| FaultKind::ShuffledEvents.matches(&d.kind)),
        "no out-of-order diagnostic in: {}",
        report.summary()
    );
    assert_eq!(report.attempted - report.loaded, 1, "exactly one rank dropped");
}

#[test]
fn unbalanced_trace_drops_the_open_rank_and_reports() {
    let cfg = TraceConfig::quartz(3, 2, 8);
    let (dir, path) = emit_file(&cfg);
    inject(&dir, FaultKind::UnbalancedTrace, 13).unwrap();

    let err = Thicket::loader(LoadSource::trace(&path))
        .strictness(Strictness::FailFast)
        .load()
        .unwrap_err();
    assert!(err.to_string().contains("fail-fast"));

    let (tk, report) = Thicket::loader(LoadSource::trace(&path))
        .strictness(Strictness::Lenient)
        .load()
        .unwrap();
    assert!(tk.metadata().len() < 3, "the unbalanced rank must be dropped");
    assert!(
        report.diagnostics.iter().any(|d| FaultKind::UnbalancedTrace.matches(&d.kind)),
        "no unbalanced-stream diagnostic in: {}",
        report.summary()
    );
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chunk boundaries and thread counts are invisible: streaming a
    /// trace through any `chunk_events` at threads 1/2/8 yields a
    /// thicket bit-identical to the single-chunk whole-trace load.
    #[test]
    fn chunked_ingest_is_boundary_and_thread_invariant(
        seed in 0u64..1000,
        chunk in 1usize..96,
    ) {
        let cfg = TraceConfig::quartz(2, 1, seed);
        let (_dir, path) = emit_file(&cfg);
        let (whole, whole_report) =
            Thicket::loader(LoadSource::trace(&path)).load().unwrap();
        for threads in [1usize, 2, 8] {
            let (chunked, report) = Thicket::loader(LoadSource::custom(
                TraceSource::open(&path, None).unwrap().chunk_events(chunk),
            ))
            .threads(threads)
            .load()
            .unwrap();
            prop_assert_eq!(
                whole.perf_data(), chunked.perf_data(),
                "perf mismatch at chunk {} threads {}", chunk, threads
            );
            prop_assert_eq!(
                whole.metadata(), chunked.metadata(),
                "metadata mismatch at chunk {} threads {}", chunk, threads
            );
            prop_assert_eq!(whole_report.loaded, report.loaded);
        }
    }

    /// Corrupted streams never panic: for every trace fault kind and
    /// any seed, a lenient load either produces a thicket whose report
    /// carries a diagnostic matching the injected fault, or a typed
    /// zero-profile error — and a fail-fast load errors cleanly.
    #[test]
    fn trace_faults_never_panic(
        seed in 0u64..1000,
        kind_idx in 0usize..3,
        chunk in 1usize..64,
    ) {
        let kind = FaultKind::TRACE[kind_idx];
        let cfg = TraceConfig::quartz(2, 1, seed);
        let (dir, path) = emit_file(&cfg);
        inject(&dir, kind, seed).unwrap();

        prop_assert!(
            Thicket::loader(LoadSource::custom(TraceSource::open(&path, None).unwrap().chunk_events(chunk)))
                .strictness(Strictness::FailFast)
                .load()
                .is_err(),
            "fail-fast load of a corrupted trace must error"
        );

        match Thicket::loader(LoadSource::custom(TraceSource::open(&path, None).unwrap().chunk_events(chunk)))
            .strictness(Strictness::Lenient)
            .load()
        {
            Ok((_, report)) => prop_assert!(
                report.diagnostics.iter().any(|d| kind.matches(&d.kind)),
                "lenient load succeeded without a {:?} diagnostic: {}",
                kind, report.summary()
            ),
            // All profiles dropped (e.g. a tear before any window
            // closed): the typed zero-profile refusal, not a panic.
            Err(e) => prop_assert!(
                e.to_string().contains("zero profiles"),
                "unexpected lenient failure: {}", e
            ),
        }
    }
}
