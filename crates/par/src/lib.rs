//! Scoped std-thread job pool for the evaluation grid and functional
//! kernels.
//!
//! The offline build forbids third-party crates (no rayon), so this is a
//! deliberately small parallel layer on `std::thread::scope`:
//!
//! * **Chunked work queue** — jobs sit behind a mutex; idle workers pull
//!   the next one, so uneven cell costs (a 6144-token Pegasus-Arxiv cell
//!   next to a 512-token IMDb cell) load-balance automatically.
//! * **Deterministic result ordering** — results land in a slot indexed by
//!   submission order, so [`run`]`(1, jobs)` and [`run`]`(16, jobs)` return
//!   identical vectors and downstream JSON/CSV output is byte-identical.
//! * **Panic propagation** — a panicking job unwinds out of [`run`] on the
//!   caller's thread with the original payload (via `std::thread::scope`'s
//!   join semantics), never a silent hang or a lost result.
//! * **Thread-count control** — callers pass an explicit count (the
//!   `jobs` argument of `transpim_bench::run_grid`); [`max_threads`]
//!   resolves the default that `reproduce` and the row-parallel matmul use
//!   from `TRANSPIM_THREADS` or `available_parallelism()`.
//!
//! `threads == 1` (or a single job) runs inline on the caller's thread —
//! the serial path *is* the parallel path with no workers, which is what
//! makes the determinism guarantee trivial to audit.

use std::sync::{Mutex, PoisonError};

/// Default worker count: `TRANSPIM_THREADS` if set to a positive integer,
/// else [`std::thread::available_parallelism`], else 1.
pub fn max_threads() -> usize {
    threads_from(std::env::var("TRANSPIM_THREADS").ok().as_deref())
}

/// [`max_threads`] with the environment value passed explicitly (testable).
pub fn threads_from(env: Option<&str>) -> usize {
    if let Some(v) = env {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `jobs` on up to `threads` workers and return their results **in
/// submission order**.
///
/// Workers pull jobs from a shared queue (dynamic load balancing); each
/// result is stored by its submission index, so the output vector is
/// independent of scheduling. With `threads <= 1` or fewer than two jobs
/// everything runs inline on the caller's thread.
///
/// # Panics
///
/// Re-raises the panic of any panicking job after all workers have joined.
pub fn run<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let n = jobs.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }

    let queue = Mutex::new(jobs.into_iter().enumerate());
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    // A panicking sibling poisons the queue mutex mid-drain;
                    // recover the guard so the panic that reaches the caller
                    // is the job's own payload, not a PoisonError.
                    let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some((index, job)) = next else { break };
                    let value = job();
                    *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
                })
            })
            .collect();
        // Join explicitly and re-raise the original payload — letting the
        // scope do the join would replace it with "a scoped thread
        // panicked". All workers are joined before re-raising.
        let mut panic_payload = None;
        for worker in workers {
            if let Err(payload) = worker.join() {
                panic_payload.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("scope joined all workers, so every job ran")
        })
        .collect()
}

/// Apply `f` to contiguous mutable chunks of `data`, `chunk_len` elements
/// each (last chunk may be shorter), in parallel over the shared queue.
/// `f` receives the chunk's starting element index.
pub fn for_each_chunk_mut<T, F>(threads: usize, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let f = &f;
    let jobs: Vec<_> = data
        .chunks_mut(chunk_len)
        .enumerate()
        .map(|(i, chunk)| move || f(i * chunk_len, chunk))
        .collect();
    run(threads, jobs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_queue_returns_empty() {
        let jobs: Vec<fn() -> u32> = Vec::new();
        assert_eq!(run(8, jobs), Vec::<u32>::new());
    }

    #[test]
    fn single_job_runs_inline() {
        let caller = std::thread::current().id();
        let out = run(8, vec![move || std::thread::current().id() == caller]);
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn results_keep_submission_order() {
        // Jobs finish in scrambled wall-clock order; results must not.
        let jobs: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_micros((32 - i) * 50));
                    i * i
                }
            })
            .collect();
        let out = run(8, jobs);
        assert_eq!(out, (0..32u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let make = || (0..40u32).map(|i| move || i.wrapping_mul(2654435761)).collect::<Vec<_>>();
        assert_eq!(run(1, make()), run(8, make()));
    }

    #[test]
    fn panic_propagates_with_payload() {
        let result = std::panic::catch_unwind(|| {
            run(
                4,
                (0..8)
                    .map(|i| move || if i == 5 { panic!("job five failed") } else { i })
                    .collect::<Vec<_>>(),
            )
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("job five failed"), "unexpected payload: {msg}");
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..100).map(|_| || counter.fetch_add(1, Ordering::Relaxed)).collect();
        let out = run(7, jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        let mut seen: Vec<_> = out;
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 12 ")), 12);
        // Invalid or non-positive values fall back to machine parallelism.
        let fallback = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(threads_from(Some("0")), fallback);
        assert_eq!(threads_from(Some("lots")), fallback);
        assert_eq!(threads_from(None), fallback);
    }

    #[test]
    fn chunked_mutation_touches_every_element() {
        let mut data = vec![0u32; 103];
        for_each_chunk_mut(4, &mut data, 10, |start, chunk| {
            for (off, x) in chunk.iter_mut().enumerate() {
                *x = (start + off) as u32;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u32));
    }
}
