//! Query-mix generation with a controlled reachable share.
//!
//! §5 of the survey argues that *"in real-world graphs there will be
//! many vertices s"* from which a target is unreachable, which is why
//! no-false-negative partial indexes win. The harness therefore
//! controls the positive (reachable) fraction of each query batch
//! explicitly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_graph::traverse::{bfs_reaches, VisitMap};
use reach_graph::{DiGraph, VertexId};

/// A batch of point queries with a known reachable share.
#[derive(Debug, Clone)]
pub struct QueryMix {
    /// `(source, target)` pairs, shuffled.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Number of reachable pairs in the batch.
    pub positives: usize,
}

/// A uniformly random pair of distinct vertices out of `n`.
pub fn random_pair(n: usize, rng: &mut SmallRng) -> (VertexId, VertexId) {
    let s = rng.random_range(0..n as u32);
    let t = rng.random_range(0..n as u32 - 1);
    (VertexId(s), VertexId(t + u32::from(t >= s)))
}

/// Samples `count` distinct-endpoint queries of which (approximately)
/// `positive_share` are reachable. Classification uses BFS, so this is
/// for setup, not timing. Gives up gracefully (returns fewer pairs) if
/// the graph cannot supply enough pairs of one kind.
pub fn query_mix(g: &DiGraph, count: usize, positive_share: f64, seed: u64) -> QueryMix {
    assert!((0.0..=1.0).contains(&positive_share));
    let n = g.num_vertices();
    assert!(n >= 2, "need at least two vertices");
    let want_pos = (count as f64 * positive_share).round() as usize;
    let want_neg = count - want_pos;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut visit = VisitMap::new(n);
    let mut pos = Vec::with_capacity(want_pos);
    let mut neg = Vec::with_capacity(want_neg);
    let budget = 200 * count + 10_000;
    for _ in 0..budget {
        if pos.len() >= want_pos && neg.len() >= want_neg {
            break;
        }
        let (s, t) = random_pair(n, &mut rng);
        if bfs_reaches(g, s, t, &mut visit) {
            if pos.len() < want_pos {
                pos.push((s, t));
            }
        } else if neg.len() < want_neg {
            neg.push((s, t));
        }
    }
    let positives = pos.len();
    let mut pairs = pos;
    pairs.extend(neg);
    // deterministic shuffle so positives and negatives interleave
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.random_range(0..=i));
    }
    QueryMix { pairs, positives }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Shape;

    #[test]
    fn respects_positive_share() {
        let g = Shape::Sparse.generate(300, 5);
        for share in [0.1, 0.5, 0.9] {
            let mix = query_mix(&g, 200, share, 11);
            assert_eq!(mix.pairs.len(), 200);
            let expected = (200.0 * share) as isize;
            assert!(
                (mix.positives as isize - expected).abs() <= 10,
                "share {share}: got {} positives",
                mix.positives
            );
        }
    }

    #[test]
    fn classification_is_correct() {
        let g = Shape::Cyclic.generate(150, 6);
        let mix = query_mix(&g, 100, 0.5, 3);
        let mut vm = VisitMap::new(g.num_vertices());
        let actual = mix
            .pairs
            .iter()
            .filter(|&&(s, t)| bfs_reaches(&g, s, t, &mut vm))
            .count();
        assert_eq!(actual, mix.positives);
    }

    #[test]
    fn no_reflexive_pairs() {
        let g = Shape::Dense.generate(100, 2);
        let mix = query_mix(&g, 150, 0.3, 9);
        assert!(mix.pairs.iter().all(|&(s, t)| s != t));
    }

    #[test]
    fn deterministic_under_seed() {
        let g = Shape::Sparse.generate(120, 4);
        let a = query_mix(&g, 80, 0.4, 42);
        let b = query_mix(&g, 80, 0.4, 42);
        assert_eq!(a.pairs, b.pairs);
    }
}
