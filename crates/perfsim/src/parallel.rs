//! Parallel fan-out over worker threads with deterministic output order
//! and panic isolation.
//!
//! The Figure 13 study alone is 560 profiles; assembling their rows
//! into a thicket, and reading them from disk, is embarrassingly
//! parallel, so this module fans work items out over crossbeam scoped
//! threads while keeping the output order deterministic (result `i`
//! always corresponds to input `i`, regardless of thread count or
//! scheduling).
//!
//! Every entry point routes through one panic-capturing core: a job that
//! panics is caught on its worker (`catch_unwind`) and surfaces as a
//! value, never as a cross-thread unwind. That closes the double-panic
//! abort the previous implementation had, where a worker panic unwound
//! through `std::thread::scope` while the caller's `expect` on the
//! result panicked a second time mid-unwind.
//!
//! Two variants share the core:
//!
//! * [`try_parallel_map`] — fallible jobs. The first failure *in item
//!   order* wins deterministically; remaining work is cancelled through
//!   an atomic flag so a 560-profile ingest does not grind through 500
//!   more profiles after profile 3 is found corrupt.
//! * [`parallel_map_catch`] — fallible jobs, **no cancellation**: every
//!   item runs to completion and the caller receives one
//!   `Result<R, JobFailure<E>>` per item. This is the substrate for
//!   lenient ingest, where per-item diagnostics must be complete and
//!   byte-identical across thread counts.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Why one work item failed: its job returned an error, or panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure<E> {
    /// The job returned `Err(E)`.
    Error(E),
    /// The job panicked; the payload's message, extracted on the worker.
    Panic(String),
}

impl<E: fmt::Display> fmt::Display for JobFailure<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailure::Error(e) => e.fmt(f),
            JobFailure::Panic(m) => write!(f, "worker panicked: {m}"),
        }
    }
}

/// The deterministic "first" failure of a [`try_parallel_map`] run: the
/// failing item with the lowest input index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError<E> {
    /// Input index of the failing item.
    pub index: usize,
    /// What went wrong.
    pub failure: JobFailure<E>,
}

impl<E: fmt::Display> fmt::Display for JobError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "item {}: {}", self.index, self.failure)
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for JobError<E> {}

/// Best-effort human-readable form of a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One slot of the shared output: what happened to item `i`.
enum Slot<R, E> {
    Done(R),
    Failed(E),
    Panicked(Box<dyn Any + Send>),
}

/// The shared core: run `job` over every item on `threads` workers,
/// catching panics on the worker. Work is handed out through an atomic
/// cursor (dynamic load balancing — items can be wildly uneven, e.g.
/// 10⁶- vs 10⁸-element simulated runs). When `cancel_on_failure` is set,
/// the first failure any worker *observes* stops further hand-outs;
/// items already picked up still run to completion, which is what makes
/// the lowest-indexed failure deterministic (see [`try_parallel_map`]).
fn run_jobs<T, R, E, F>(
    items: &[T],
    threads: usize,
    cancel_on_failure: bool,
    job: F,
) -> Vec<Slot<R, E>>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    let run_one = |item: &T| -> Slot<R, E> {
        match catch_unwind(AssertUnwindSafe(|| job(item))) {
            Ok(Ok(r)) => Slot::Done(r),
            Ok(Err(e)) => Slot::Failed(e),
            Err(payload) => Slot::Panicked(payload),
        }
    };
    if threads == 1 {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let slot = run_one(item);
            let failed = !matches!(slot, Slot::Done(_));
            out.push(slot);
            if failed && cancel_on_failure {
                break;
            }
        }
        return out;
    }

    let mut out: Vec<Option<Slot<R, E>>> = (0..items.len()).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let slots: Vec<parking_lot::Mutex<&mut Option<Slot<R, E>>>> =
        out.iter_mut().map(parking_lot::Mutex::new).collect();
    // The closure below never unwinds (the job runs under catch_unwind
    // and slot storage cannot panic), so the scope join cannot observe a
    // panicked child — the `expect` documents an impossibility instead
    // of doubling a real panic.
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                if cancel_on_failure && cancelled.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let slot = run_one(&items[i]);
                if !matches!(slot, Slot::Done(_)) {
                    cancelled.store(true, Ordering::Relaxed);
                }
                **slots[i].lock() = Some(slot);
            });
        }
    })
    .expect("workers never unwind: jobs run under catch_unwind");
    drop(slots);
    // Under cancellation trailing slots may be unfilled; the serial
    // fallback above produces the same shape (a prefix of filled slots).
    out.into_iter().flatten().collect()
}

/// Pick the deterministic first failure out of a slot vector: the failed
/// or panicked item with the lowest input index. `slots` may be shorter
/// than the input under cancellation; indices still line up because the
/// work cursor hands items out in input order.
fn first_failure<R, E>(slots: Vec<Slot<R, E>>) -> Result<Vec<R>, (usize, Slot<R, E>)> {
    // Scan for the minimum failing index first; only if none failed can
    // the slots be unwrapped wholesale.
    let mut failed_at: Option<usize> = None;
    for (i, slot) in slots.iter().enumerate() {
        if !matches!(slot, Slot::Done(_)) {
            failed_at = Some(i);
            break;
        }
    }
    match failed_at {
        None => Ok(slots
            .into_iter()
            .map(|s| match s {
                Slot::Done(r) => r,
                _ => unreachable!("scanned above"),
            })
            .collect()),
        Some(i) => {
            let slot = slots.into_iter().nth(i).expect("index in range");
            Err((i, slot))
        }
    }
}

/// Run a fallible `job` over every item on `threads` workers.
///
/// On success the output preserves order: `out[i] == job(&items[i])`.
/// On failure — a job returning `Err` *or panicking* — the failure of
/// the lowest-indexed failing item is returned, and the remaining
/// hand-outs are cancelled through an atomic flag. The winning failure
/// is deterministic for any thread count: the work cursor hands items
/// out in input order, so by the time any later item has been picked up,
/// every earlier item (including the lowest failing one) has been picked
/// up too and runs to completion.
pub fn try_parallel_map<T, R, E, F>(
    items: &[T],
    threads: usize,
    job: F,
) -> Result<Vec<R>, JobError<E>>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    first_failure(run_jobs(items, threads, true, job)).map_err(|(index, slot)| JobError {
        index,
        failure: match slot {
            Slot::Failed(e) => JobFailure::Error(e),
            Slot::Panicked(p) => JobFailure::Panic(panic_message(p.as_ref())),
            Slot::Done(_) => unreachable!("first_failure returns failures only"),
        },
    })
}

/// Run a fallible `job` over **every** item — no cancellation — and
/// return one result per item, order-preserving. Panics are captured per
/// item as [`JobFailure::Panic`]. This is the lenient-ingest substrate:
/// the caller sees the complete per-item health picture, identical for
/// any thread count.
pub fn parallel_map_catch<T, R, E, F>(
    items: &[T],
    threads: usize,
    job: F,
) -> Vec<Result<R, JobFailure<E>>>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    run_jobs(items, threads, false, job)
        .into_iter()
        .map(|slot| match slot {
            Slot::Done(r) => Ok(r),
            Slot::Failed(e) => Err(JobFailure::Error(e)),
            Slot::Panicked(p) => Err(JobFailure::Panic(panic_message(p.as_ref()))),
        })
        .collect()
}

/// A sensible worker count for `n` items: the machine's available
/// parallelism, capped by the item count (at least 1).
pub fn default_threads(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1))
}

/// A task [`contend`] runs: receives the shared stop flag (set once
/// every driver has finished) and returns its result.
pub type ContendTask<'env, R> = Box<dyn FnOnce(&AtomicBool) -> R + Send + 'env>;

/// One group's results from [`contend`]: per task, its return value or
/// the panic message it died with.
pub type ContendResults<R> = Vec<Result<R, String>>;

/// Run a live-contention scenario: `drivers` (finite work — e.g. an
/// appender committing N generations) race against `followers`
/// (open-ended work — e.g. readers looping until told to stop), all on
/// their own OS threads.
///
/// Every task gets the shared stop flag. Drivers usually ignore it;
/// followers should loop `while !stop.load(Ordering::Relaxed)`. The
/// flag is set (with `Release` ordering) after the last driver joins,
/// then the followers are joined — so followers always observe the
/// complete driver run, and the harness never hangs on an infinite
/// follower loop.
///
/// Panics are contained per task: each result is `Err(message)` if the
/// task panicked, so one reader blowing up surfaces as an assertable
/// failure instead of tearing down the harness mid-scenario.
pub fn contend<'env, R: Send + 'env>(
    drivers: Vec<ContendTask<'env, R>>,
    followers: Vec<ContendTask<'env, R>>,
) -> (ContendResults<R>, ContendResults<R>) {
    let stop = AtomicBool::new(false);
    crossbeam::thread::scope(|scope| {
        let follower_handles: Vec<_> = followers
            .into_iter()
            .map(|task| {
                let stop = &stop;
                scope.spawn(move |_| catch_unwind(AssertUnwindSafe(|| task(stop))))
            })
            .collect();
        let driver_handles: Vec<_> = drivers
            .into_iter()
            .map(|task| {
                let stop = &stop;
                scope.spawn(move |_| catch_unwind(AssertUnwindSafe(|| task(stop))))
            })
            .collect();
        let finish = |h: crossbeam::thread::ScopedJoinHandle<'_, Result<R, Box<dyn Any + Send>>>| {
            h.join()
                .expect("task runs under catch_unwind")
                .map_err(|p| panic_message(p.as_ref()))
        };
        let driver_results: Vec<_> = driver_handles.into_iter().map(finish).collect();
        stop.store(true, Ordering::Release);
        let follower_results: Vec<_> = follower_handles.into_iter().map(finish).collect();
        (driver_results, follower_results)
    })
    .expect("tasks run under catch_unwind")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contend_stops_followers_and_contains_panics() {
        use std::sync::atomic::AtomicU64;
        let driver_sum = AtomicU64::new(0);
        let follower_spins = AtomicU64::new(0);
        let drivers: Vec<ContendTask<'_, u64>> = (0..3u64)
            .map(|i| {
                let sum = &driver_sum;
                Box::new(move |_: &AtomicBool| {
                    sum.fetch_add(i + 1, Ordering::Relaxed);
                    i
                }) as ContendTask<'_, u64>
            })
            .collect();
        let followers: Vec<ContendTask<'_, u64>> = vec![
            Box::new(|stop: &AtomicBool| {
                let mut n = 0;
                while !stop.load(Ordering::Relaxed) {
                    follower_spins.fetch_add(1, Ordering::Relaxed);
                    n += 1;
                    std::thread::yield_now();
                }
                n
            }),
            Box::new(|_: &AtomicBool| panic!("reader exploded")),
        ];
        let (d, f) = contend(drivers, followers);
        assert_eq!(driver_sum.load(Ordering::Relaxed), 6);
        assert!(d.iter().all(|r| r.is_ok()));
        // The looping follower terminated (the harness doesn't hang)...
        assert!(f[0].is_ok());
        // ...and the panicking one surfaced as a message, not an abort.
        assert_eq!(f[1].as_ref().unwrap_err(), "reader exploded");
    }

    #[test]
    fn default_threads_bounds() {
        assert_eq!(default_threads(0), 1);
        assert_eq!(default_threads(1), 1);
        assert!(default_threads(1_000_000) >= 1);
    }

    #[test]
    fn try_parallel_map_success_matches_serial() {
        let items: Vec<u64> = (0..200).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 8] {
            let out = try_parallel_map(&items, threads, |x| Ok::<_, String>(x * 3)).unwrap();
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    #[test]
    fn try_parallel_map_first_error_is_lowest_index() {
        // Items 37 and 150 both fail; 37 must win for every thread count.
        let items: Vec<u64> = (0..200).collect();
        for threads in [1, 2, 3, 8, 32] {
            let err = try_parallel_map(&items, threads, |x| {
                if *x == 37 || *x == 150 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(*x)
                }
            })
            .unwrap_err();
            assert_eq!(err.index, 37, "threads={threads}");
            assert_eq!(err.failure, JobFailure::Error("bad 37".to_string()));
        }
    }

    #[test]
    fn try_parallel_map_captures_panics_as_errors() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 2, 8] {
            let err = try_parallel_map(&items, threads, |x| {
                if *x == 5 {
                    panic!("poisoned item {x}");
                }
                Ok::<_, String>(*x)
            })
            .unwrap_err();
            assert_eq!(err.index, 5, "threads={threads}");
            match err.failure {
                JobFailure::Panic(msg) => assert!(msg.contains("poisoned item 5"), "{msg}"),
                other => panic!("expected panic failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_parallel_map_panic_beats_later_error() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 2, 8] {
            let err = try_parallel_map(&items, threads, |x| match *x {
                3 => panic!("early panic"),
                10 => Err("later error".to_string()),
                _ => Ok(*x),
            })
            .unwrap_err();
            assert_eq!(err.index, 3, "threads={threads}");
            assert!(matches!(err.failure, JobFailure::Panic(_)));
        }
    }

    #[test]
    fn parallel_map_catch_reports_every_item() {
        let items: Vec<u64> = (0..100).collect();
        let expect = |i: u64| match i % 10 {
            3 => Err(JobFailure::Error(format!("err {i}"))),
            7 => Err(JobFailure::Panic(format!("panic {i}"))),
            _ => Ok(i * 2),
        };
        let serial: Vec<_> = items.iter().map(|i| expect(*i)).collect();
        for threads in [1, 2, 8] {
            let out = parallel_map_catch(&items, threads, |i| match i % 10 {
                3 => Err(format!("err {i}")),
                7 => panic!("panic {i}"),
                _ => Ok(i * 2),
            });
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    #[test]
    fn cancellation_stops_tail_work() {
        // After the failure at item 0 is observed, the cursor stops
        // handing out work: far fewer than all items run.
        let ran = AtomicUsize::new(0);
        let items: Vec<u64> = (0..100_000).collect();
        let err = try_parallel_map(&items, 4, |x| {
            ran.fetch_add(1, Ordering::Relaxed);
            if *x == 0 {
                Err("stop")
            } else {
                std::thread::sleep(std::time::Duration::from_micros(1));
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err.index, 0);
        assert!(
            ran.load(Ordering::Relaxed) < items.len() / 2,
            "cancellation should prevent most of the tail from running ({} ran)",
            ran.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn empty_and_oversubscribed_edge_cases() {
        assert!(try_parallel_map(&[] as &[u64], 8, |_| Ok::<_, ()>(0)).unwrap().is_empty());
        assert!(parallel_map_catch(&[] as &[u64], 8, |_| Ok::<_, ()>(0)).is_empty());
        let two = [1u64, 2];
        assert_eq!(
            try_parallel_map(&two, 64, |x| Ok::<_, ()>(*x)).unwrap(),
            vec![1, 2]
        );
    }
}
