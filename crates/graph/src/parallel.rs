//! Work splitting over the host's cores: the one splitter behind the
//! edge-list reader, the index builders and batch queries.
//!
//! A caller either names a thread count (the builders in `reach-core`
//! take one, so tests can force a split on a tiny input) or asks
//! [`setup_threads`] for one, which gives each thread at least a
//! measured amount of work and keeps smaller passes inline on the
//! calling thread. Every split returns the same result at every
//! thread count; only wall-clock time changes.

use std::ops::Range;
use std::sync::OnceLock;

/// Units of work (input bytes, or vertices plus edges) each thread of
/// a set-up pass gets at least. Starting and joining one scoped thread
/// took 40–50 µs (median) on a shared 2-vCPU host, while an inline
/// pass over 64 K units — reading 64 KiB of edge list, or building
/// the CSR of a graph with n + m = 64 K — takes 0.4 ms or more there.
/// A thread with this much work saves several times its cost; one with
/// less has too little left to win.
const WORK_PER_THREAD: usize = 1 << 16;

/// The host's available parallelism, read once per process (the std
/// query reads cgroup files on every call).
pub fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The thread count a set-up pass over `work` units splits over: one
/// thread per 64 K units, up to [`host_threads`], so tiny graphs spawn
/// no thread and no thread gets less work than its start-up is worth.
pub fn setup_threads(work: usize) -> usize {
    host_threads().min(work / WORK_PER_THREAD).max(1)
}

/// Splits `0..total` into at most `threads` contiguous chunks of
/// near-equal length — the split [`map_chunks`] runs.
pub fn chunks(total: usize, threads: usize) -> Vec<Range<usize>> {
    let threads = threads.clamp(1, total.max(1));
    let per = total.div_ceil(threads);
    (0..total)
        .step_by(per.max(1))
        .map(|lo| lo..(lo + per).min(total))
        .collect()
}

/// Runs `work` on each of [`chunks`]`(total, threads)` and returns the
/// results in chunk order. A single chunk runs inline on the calling
/// thread; otherwise each chunk gets its own scoped thread. A panic in
/// a worker resumes on the caller.
pub fn map_chunks<T: Send>(
    total: usize,
    threads: usize,
    work: impl Fn(Range<usize>) -> T + Sync,
) -> Vec<T> {
    let ranges = chunks(total, threads);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(move || work(range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Runs `a` and `b` and returns both results: `b` on a scoped thread
/// of its own when `threads > 1`, both inline otherwise. A panic in
/// `b` resumes on the caller.
pub fn join<A, B: Send>(
    threads: usize,
    a: impl FnOnce() -> A,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    if threads <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let b = scope.spawn(b);
        let a = a();
        let b = b.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        (a, b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_everything() {
        for (total, threads) in [(10, 3), (1, 8), (0, 4), (16, 16), (7, 1)] {
            let ranges = chunks(total, threads);
            let covered: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(covered, total, "total={total} threads={threads}");
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "contiguous");
            }
        }
    }

    #[test]
    fn map_chunks_keeps_chunk_order_at_every_thread_count() {
        for threads in [1, 2, 3, 8] {
            let got: Vec<usize> = map_chunks(10, threads, |r| r.collect::<Vec<_>>())
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(got, (0..10).collect::<Vec<_>>(), "threads={threads}");
        }
        assert!(map_chunks(0, 4, |r| r.len()).is_empty());
    }

    #[test]
    fn one_chunk_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        assert_eq!(map_chunks(5, 1, |_| std::thread::current().id()), [caller]);
    }

    #[test]
    fn join_returns_both_results_in_order() {
        let caller = std::thread::current().id();
        for threads in [1, 2] {
            let (a, b) = join(threads, || 1, || 2);
            assert_eq!((a, b), (1, 2));
        }
        let (a, b) = join(
            1,
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!((a, b), (caller, caller));
        let (a, b) = join(
            2,
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!(a, caller);
        assert_ne!(b, caller);
    }

    #[test]
    fn small_passes_stay_inline() {
        assert_eq!(setup_threads(0), 1);
        assert_eq!(setup_threads(WORK_PER_THREAD - 1), 1);
        assert_eq!(setup_threads(WORK_PER_THREAD), 1);
        assert_eq!(setup_threads(2 * WORK_PER_THREAD - 1), 1);
        assert_eq!(setup_threads(2 * WORK_PER_THREAD), host_threads().min(2));
        assert_eq!(setup_threads(usize::MAX), host_threads());
    }
}
