//! Work splitting for parallel index construction and batch queries —
//! the survey's closing open challenge (§5: *"the parallel computation
//! of indexes (e.g., parallel 2-hop indexing \[22\]) is also worth
//! exploring"*).
//!
//! Three construction problems are embarrassingly parallel, and each
//! family's one builder splits its independent units with
//! [`map_chunks`]:
//!
//! * GRAIL's `k` labelings ([`crate::grail::GrailFilter::build`]) are
//!   independent random DFS runs, each seeded by `(seed, i)` alone;
//! * HL's per-landmark reach sets ([`crate::hl::Hl::build`]) are
//!   independent BFS pairs;
//! * TOL's canonical labels ([`crate::tol::Tol::build_with_order`]) are
//!   per-hop-local restricted closures (the same locality that enables
//!   its dynamic maintenance), so hop BFSs run concurrently and are
//!   merged in hop order — the simplest member of the design space
//!   that \[22\] explores for *pruned* labelings, where cross-hop
//!   pruning dependencies make parallelism hard.
//!
//! Every builder's output is identical at every thread count; only
//! wall-clock time changes.

use std::ops::Range;

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
/// results in chunk order. Used by the parallel builders and by
/// [`crate::query_engine::QueryEngine`]'s batch sharding. A single chunk runs inline on the calling
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
}
