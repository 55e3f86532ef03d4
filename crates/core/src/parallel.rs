//! Deterministic fan-out of independent simulation jobs across threads.
//!
//! Every sweep the paper's figures are built from is a grid of *independent*
//! scenario runs — each grid point owns its full `(protocol, clients, seed)`
//! configuration and its own derived RNG streams, so runs share no state.
//! That makes the whole grid embarrassingly parallel, **as long as results
//! are reassembled in a canonical order**: floating-point accumulation and
//! report rendering must see the same sequence regardless of which worker
//! finished first.
//!
//! [`run_indexed`] is that contract in one function: a self-scheduling
//! worker pool (scoped threads pulling indices off a shared atomic counter,
//! which load-balances like work stealing without the deques) whose output
//! vector is always in input order. `jobs == 1` bypasses the pool entirely
//! and runs the exact serial code path on the calling thread.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The outcome of [`run_indexed_partial`]: every completed result in its
/// canonical slot, plus the captured panic payloads of the tasks that blew
/// up. Completed work is never discarded — a panic at index 5 still leaves
/// indices 0–4 (and whatever else finished) in `results`.
#[derive(Debug)]
pub struct PartialResults<T> {
    /// `results[i]` holds task `i`'s value, or `None` if it panicked.
    pub results: Vec<Option<T>>,
    /// `(index, payload)` for every task that panicked, sorted by index.
    pub panics: Vec<(usize, Box<dyn Any + Send>)>,
}

/// Number of worker threads to use when the caller does not care: the
/// machine's available parallelism, or 1 if that cannot be determined.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a requested job count against a task count: `0` means "auto"
/// (available parallelism), and more workers than tasks are never spawned.
pub fn effective_jobs(requested: usize, tasks: usize) -> usize {
    let jobs = if requested == 0 {
        available_jobs()
    } else {
        requested
    };
    jobs.min(tasks).max(1)
}

/// Like [`run_indexed`], but a panicking task loses only its own slot:
/// every task still runs, completed results stay in canonical order, and
/// the panic payloads come back alongside them instead of unwinding the
/// pool. This is the substrate the sweep supervisor's `--keep-going`
/// policy is built on.
///
/// `jobs == 0` uses [`available_jobs`]; `jobs == 1` (or `tasks <= 1`) takes
/// the exact serial path with no threads, channels, or atomics.
pub fn run_indexed_partial<T, F>(jobs: usize, tasks: usize, run: F) -> PartialResults<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = effective_jobs(jobs, tasks);
    if jobs <= 1 {
        let mut results = Vec::with_capacity(tasks);
        let mut panics = Vec::new();
        for index in 0..tasks {
            match catch_unwind(AssertUnwindSafe(|| run(index))) {
                Ok(value) => results.push(Some(value)),
                Err(payload) => {
                    results.push(None);
                    panics.push((index, payload));
                }
            }
        }
        return PartialResults { results, panics };
    }

    // Self-scheduling pool: each worker claims the next unclaimed index, so
    // a slow grid point (say, 60 congested Reno clients) never blocks the
    // cheap ones queued behind it on a static partition. Each task runs
    // under `catch_unwind`, so a panic costs one slot, not the pool: the
    // worker keeps claiming and every other result survives.
    let next = AtomicUsize::new(0);
    type Slot<T> = (usize, Result<T, Box<dyn Any + Send>>);
    let (tx, rx) = mpsc::channel::<Slot<T>>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let run = &run;
            scope.spawn(move || {
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= tasks {
                        break;
                    }
                    // The receiver outlives every worker; send cannot fail.
                    let _ = tx.send((
                        index,
                        catch_unwind(AssertUnwindSafe(|| run(index))),
                    ));
                }
            });
        }
        // Scope joins the workers; the catch_unwind above means no join
        // can itself report a panic.
    });
    drop(tx);

    // All workers joined: the channel holds every outcome, in completion
    // order. Re-slot by index to restore canonical order.
    let mut results: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    let mut panics = Vec::new();
    for (index, outcome) in rx.try_iter() {
        debug_assert!(results[index].is_none(), "index {index} produced twice");
        match outcome {
            Ok(value) => results[index] = Some(value),
            Err(payload) => panics.push((index, payload)),
        }
    }
    panics.sort_by_key(|(index, _)| *index);
    PartialResults { results, panics }
}

/// Runs `run(0..tasks)` across `jobs` worker threads and returns the
/// results **in index order**, bit-identical to the serial loop
/// `(0..tasks).map(run).collect()` whatever the thread count.
///
/// `jobs == 0` uses [`available_jobs`]; `jobs == 1` (or `tasks <= 1`) takes
/// the exact serial path with no threads, channels, or atomics.
///
/// # Panics
///
/// Re-raises the lowest-index worker panic after every task has run (see
/// [`run_indexed_partial`] to keep the completed results instead).
pub fn run_indexed<T, F>(jobs: usize, tasks: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut partial = run_indexed_partial(jobs, tasks, run);
    if !partial.panics.is_empty() {
        std::panic::resume_unwind(partial.panics.remove(0).1);
    }
    partial
        .results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| unreachable!("worker never delivered index {i}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let serial = run_indexed(1, 100, |i| i * i);
        for jobs in [2, 3, 4, 8] {
            assert_eq!(run_indexed(jobs, 100, |i| i * i), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_jobs_means_auto() {
        assert_eq!(run_indexed(0, 10, |i| i + 1), (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_task_list_yields_empty_vec() {
        assert!(run_indexed(4, 0, |i| i).is_empty());
        assert!(run_indexed(1, 0, |i| i).is_empty());
    }

    #[test]
    fn effective_jobs_clamps_to_tasks() {
        assert_eq!(effective_jobs(8, 3), 3);
        assert_eq!(effective_jobs(1, 100), 1);
        assert_eq!(effective_jobs(0, 100), available_jobs().min(100));
        assert_eq!(effective_jobs(0, 0), 1);
    }

    #[test]
    fn results_keep_heavy_items_in_place() {
        // Uneven per-task cost must not reorder results.
        let out = run_indexed(4, 50, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn worker_panics_propagate() {
        run_indexed(2, 8, |i| {
            if i == 5 {
                panic!("deliberate");
            }
            i
        });
    }

    #[test]
    fn partial_results_survive_a_panic() {
        for jobs in [1, 2, 4] {
            let partial = run_indexed_partial(jobs, 8, |i| {
                if i == 5 {
                    panic!("deliberate");
                }
                i * 2
            });
            assert_eq!(partial.panics.len(), 1, "jobs={jobs}");
            assert_eq!(partial.panics[0].0, 5);
            for i in 0..8 {
                if i == 5 {
                    assert!(partial.results[i].is_none());
                } else {
                    assert_eq!(partial.results[i], Some(i * 2), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn partial_results_sort_multiple_panics_by_index() {
        let partial = run_indexed_partial(4, 20, |i| {
            if i % 6 == 3 {
                panic!("boom {i}");
            }
            i
        });
        let indices: Vec<usize> = partial.panics.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![3, 9, 15]);
        assert_eq!(
            partial.results.iter().filter(|s| s.is_some()).count(),
            17
        );
    }
}
