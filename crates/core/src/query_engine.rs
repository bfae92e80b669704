//! Concurrent batch-query execution over any [`ReachIndex`].
//!
//! The survey's experiments measure per-query latency; real deployments
//! care about *throughput* — answering a large batch of `(s, t)` pairs
//! as fast as possible. [`QueryEngine`] shards a pair list into
//! contiguous chunks (via [`crate::parallel::map_chunks`], the same
//! splitter the parallel builders use), evaluates each chunk with
//! [`ReachIndex::query_batch`] on its own scoped thread, and scatters
//! the answers back to input positions — so results are in input order
//! and bit-identical for every thread count.
//!
//! This is what the `ReachIndex: Send + Sync` bound buys: one shared
//! `&dyn ReachIndex` serves all workers with no cloning and no waiting
//! (per-query scratch comes from each index's non-blocking
//! [`reach_graph::ScratchPool`]).

use crate::index::ReachIndex;
use crate::parallel::map_chunks;
use reach_graph::VertexId;

/// A batch-query executor with a fixed worker-thread count.
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine {
    threads: usize,
}

impl QueryEngine {
    /// An engine running batches on `threads` worker threads
    /// (`threads <= 1` evaluates on the calling thread).
    pub fn new(threads: usize) -> Self {
        QueryEngine {
            threads: threads.max(1),
        }
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Answers every pair, in input order.
    ///
    /// Output is identical to `index.query_batch(pairs)` — and
    /// therefore to the per-pair `index.query` loop — regardless of the
    /// thread count; only wall-clock time changes.
    ///
    /// Sharding is *locality-aware*: pair indices are sorted by source
    /// before being chunked, so all pairs sharing a source land in the
    /// same shard and the multi-source BFS override keeps its
    /// 64-sources-per-word packing instead of re-traversing the same
    /// source in every shard. Answers are
    /// scattered back to input positions, so the sort never shows in
    /// the output.
    pub fn run(&self, index: &dyn ReachIndex, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
        if self.threads <= 1 || pairs.len() < 2 {
            return index.query_batch(pairs);
        }
        let mut order: Vec<u32> = (0..pairs.len() as u32).collect();
        order.sort_by_key(|&i| pairs[i as usize].0 .0);
        // shards come back in chunk order, i.e. in `order`
        let shards = map_chunks(pairs.len(), self.threads, |range| {
            let shard: Vec<(VertexId, VertexId)> =
                order[range].iter().map(|&i| pairs[i as usize]).collect();
            index.query_batch(&shard)
        });
        let mut out = vec![false; pairs.len()];
        for (&i, answer) in order.iter().zip(shards.into_iter().flatten()) {
            out[i as usize] = answer;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{OnlineSearch, Strategy};
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reach_graph::generators::random_digraph;
    use std::sync::Arc;

    fn workload(n: u32, q: usize, rng: &mut SmallRng) -> Vec<(VertexId, VertexId)> {
        (0..q)
            .map(|_| {
                (
                    VertexId(rng.random_range(0..n)),
                    VertexId(rng.random_range(0..n)),
                )
            })
            .collect()
    }

    #[test]
    fn engine_matches_per_pair_queries() {
        let mut rng = SmallRng::seed_from_u64(401);
        let g = Arc::new(random_digraph(120, 360, &mut rng));
        let pairs = workload(120, 500, &mut rng);
        let idx = OnlineSearch::new(g.clone(), Strategy::Bfs);
        let tc = TransitiveClosure::build(&g);
        let got = QueryEngine::new(4).run(&idx, &pairs);
        for (i, &(s, t)) in pairs.iter().enumerate() {
            assert_eq!(got[i], tc.reaches(s, t), "pair {i}: {s:?}->{t:?}");
        }
    }

    #[test]
    fn output_is_identical_for_every_thread_count() {
        let mut rng = SmallRng::seed_from_u64(402);
        let g = Arc::new(random_digraph(90, 250, &mut rng));
        let pairs = workload(90, 333, &mut rng);
        let idx = OnlineSearch::new(g, Strategy::BiBfs);
        let reference = QueryEngine::new(1).run(&idx, &pairs);
        for threads in [2, 3, 4, 8, 16] {
            assert_eq!(
                QueryEngine::new(threads).run(&idx, &pairs),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn degenerate_batches() {
        let g = Arc::new(random_digraph(10, 20, &mut SmallRng::seed_from_u64(403)));
        let idx = OnlineSearch::new(g, Strategy::Dfs);
        let engine = QueryEngine::new(8);
        assert!(engine.run(&idx, &[]).is_empty());
        let one = [(VertexId(0), VertexId(0))];
        assert_eq!(engine.run(&idx, &one), vec![true]);
    }

    #[test]
    fn threads_zero_clamps_to_one() {
        assert_eq!(QueryEngine::new(0).threads(), 1);
    }
}
