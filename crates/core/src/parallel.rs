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
//!
//! It serves the plain fan-outs: unsupervised sweeps, the GAIMD α sweep and
//! the sweep supervisor's store lookups. Supervised grids (typed failures,
//! budget retries, `--keep-going`/`--fail-fast`) run on the one claim pool
//! of [`crate::workers`] instead, in-process or on worker processes alike.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Runs `run(0..tasks)` across `jobs` worker threads and returns the
/// results **in index order**, bit-identical to the serial loop
/// `(0..tasks).map(run).collect()` whatever the thread count.
///
/// `jobs == 0` uses [`available_jobs`]; `jobs == 1` (or `tasks <= 1`) takes
/// the exact serial path on the calling thread, with no threads or atomics.
///
/// # Panics
///
/// Re-raises the lowest-index task panic. With more than one job every
/// task still runs first: a panic costs its own slot, not the pool.
pub fn run_indexed<T, F>(jobs: usize, tasks: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = effective_jobs(jobs, tasks);
    if jobs <= 1 {
        return (0..tasks).map(run).collect();
    }

    // Self-scheduling pool: each worker claims the next unclaimed index, so
    // a slow grid point (say, 60 congested Reno clients) never blocks the
    // cheap ones queued behind it on a static partition.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, std::thread::Result<T>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= tasks {
                            return mine;
                        }
                        mine.push((index, catch_unwind(AssertUnwindSafe(|| run(index)))));
                    }
                })
            })
            .collect();
        // Every task runs under `catch_unwind`, so no join reports a panic.
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    // Re-slot by index to restore canonical order; the first panic met is
    // then the lowest-index one.
    done.sort_unstable_by_key(|(index, _)| *index);
    done.into_iter()
        .map(|(_, outcome)| outcome.unwrap_or_else(|payload| resume_unwind(payload)))
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
    fn the_lowest_index_panic_is_reraised() {
        for jobs in [1, 4] {
            let payload = catch_unwind(|| {
                run_indexed(jobs, 20, |i| {
                    if i % 6 == 3 {
                        panic!("boom {i}");
                    }
                    i
                })
            })
            .expect_err("a task panicked");
            let message = payload.downcast_ref::<String>().expect("formatted payload");
            assert_eq!(message, "boom 3", "jobs={jobs}");
        }
    }
}
