//! Deterministic parallel sweep execution: a work-stealing job pool with
//! order-preserving results.
//!
//! # Why work stealing
//!
//! The experiment harness fans out *batches* of independent simulation
//! jobs whose durations differ by an order of magnitude (a pointer-chasing
//! `mcf` run costs far more cycles-per-op than `fma3d`, and Figure 13
//! mixes 2 KB and 8 MB PHT configurations in one sweep). A shared-counter
//! pool keeps cores busy but makes every *batch boundary* a barrier; the
//! harness previously paid that barrier once per figure panel and once per
//! sweep point. Here each worker owns a contiguous block of job indices in
//! a deque and steals from the *tail* of other workers' deques when its
//! own block drains, so a single large batch (every sweep point of every
//! figure at once) keeps all cores busy until the global tail.
//!
//! # Why it stays deterministic
//!
//! Jobs are pure functions of their index: nothing about scheduling leaks
//! into a job's inputs, every result lands in the slot of the index that
//! produced it, and panics are re-raised in job order. The determinism
//! suite pins the stronger end-to-end property (identical simulation
//! results at 1, 2, and 8 workers).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Worker count used by the `*_parallel` conveniences: the machine's
/// available parallelism, or 4 when that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Pops the next job index for worker `w`: its own deque's head first,
/// then the tail of the nearest non-empty victim. Returns `None` only
/// when every deque is empty — no new jobs are ever enqueued mid-run, so
/// that is a stable termination condition.
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    // A queue lock is only held across a pop, which cannot panic, so a
    // poisoned lock still guards coherent data; taking it anyway is sound.
    if let Some(i) = queues[w]
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .pop_front()
    {
        return Some(i);
    }
    for k in 1..queues.len() {
        let victim = (w + k) % queues.len();
        if let Some(i) = queues[victim]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop_back()
        {
            return Some(i);
        }
    }
    None
}

/// Runs jobs `0..n_jobs` on `threads` work-stealing workers and returns
/// `f(0), f(1), …` in index order regardless of which worker ran what.
///
/// Job indices are block-distributed: worker `w` seeds its deque with a
/// contiguous chunk and only steals (from the tail of another worker's
/// chunk) once its own is exhausted, so neighbouring jobs — which in the
/// experiment harness share benchmark state shapes — tend to stay on one
/// core.
///
/// A panic inside `f` does not abort the other jobs: every remaining job
/// still runs, and the first panic *in job order* is re-raised after all
/// workers have finished. Callers who need panics recorded rather than
/// propagated catch them inside `f`, as
/// [`crate::run_suite_parallel_with_threads`] does.
///
/// # Panics
///
/// Panics if `threads` is zero, or re-raises the first (in job order)
/// panic from `f` once every job has been processed.
pub fn run_jobs_stealing<T, F>(n_jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads > 0, "worker pool needs at least one thread");
    let workers = threads.min(n_jobs).max(1);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = n_jobs * w / workers;
            let hi = n_jobs * (w + 1) / workers;
            Mutex::new((lo..hi).collect())
        })
        .collect();
    let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n_jobs).map(|_| None).collect();
    let slot_cells: Vec<Mutex<&mut Option<std::thread::Result<T>>>> =
        slots.iter_mut().map(Mutex::new).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let slot_cells = &slot_cells;
            let f = &f;
            scope.spawn(move || {
                while let Some(i) = next_job(queues, w) {
                    let result = catch_unwind(AssertUnwindSafe(|| f(i)));
                    // A poisoned slot lock can only mean a panic between
                    // lock and store — the value is still absent and that
                    // iteration's panic is already recorded, so taking the
                    // lock anyway is sound.
                    **slot_cells[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
                }
            });
        }
    });
    drop(slot_cells);
    let mut out = Vec::with_capacity(n_jobs);
    let mut first_panic = None;
    for slot in slots {
        // tcp-lint: allow(panic-in-library) — every index is popped exactly once and its slot written before scope join
        match slot.expect("every job processed") {
            Ok(v) => out.push(v),
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_land_in_job_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8, 31] {
            let out = run_jobs_stealing(100, threads, |i| i * i);
            assert_eq!(
                out,
                (0..100).map(|i| i * i).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn skewed_job_sizes_complete_and_preserve_order() {
        // The first block is far heavier than the rest: with block
        // distribution, workers 1.. drain their chunks and must steal
        // from worker 0's tail to finish.
        let out = run_jobs_stealing(64, 8, |i| {
            let rounds = if i < 8 { 200_000u64 } else { 100 };
            (0..rounds).fold(i as u64, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        });
        let reference: Vec<u64> = (0..64)
            .map(|i| {
                let rounds = if i < 8 { 200_000u64 } else { 100 };
                (0..rounds).fold(i as u64, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
            })
            .collect();
        assert_eq!(out, reference);
    }

    #[test]
    fn every_job_executes_exactly_once() {
        let executions = AtomicUsize::new(0);
        let out = run_jobs_stealing(32, 4, |i| {
            executions.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 32);
        assert_eq!(executions.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let out: Vec<u32> = run_jobs_stealing(0, 4, |_| unreachable!("no jobs"));
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = run_jobs_stealing(1, 0, |i| i);
    }

    #[test]
    fn first_panic_in_job_order_wins_and_other_jobs_still_run() {
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_jobs_stealing(10, 4, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    panic!("boom-three");
                }
                if i == 7 {
                    panic!("boom-seven");
                }
                i
            })
        }));
        let payload = caught.expect_err("a job panicked");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("string payload");
        assert_eq!(msg, "boom-three", "earliest job's panic is re-raised");
        assert_eq!(ran.load(Ordering::Relaxed), 10, "no job was skipped");
    }
}
