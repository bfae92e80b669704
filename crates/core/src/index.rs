//! The common interface of plain reachability indexes, and the
//! classification metadata of the survey's Table 1.

use crate::audit::Violation;
use reach_graph::{DiGraph, VertexId};

/// The indexing framework a technique belongs to (Table 1, column
/// "Framework").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Framework {
    /// Materialized transitive closure (the naive baseline of §2.3).
    TransitiveClosure,
    /// Interval labeling over spanning trees with inheritance (§3.1).
    TreeCover,
    /// 2-hop labeling and its descendants (§3.2).
    TwoHop,
    /// Approximate transitive closure via order-preserving sketches (§3.3).
    ApproximateTc,
    /// Techniques outside the three main frameworks (§3.4).
    Other,
}

/// Whether queries are answered by index lookups alone (Table 1,
/// column "Index Type").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Completeness {
    /// Lookup-only: the index alone decides every query.
    Complete,
    /// The index is a filter; undecided queries fall back to guided
    /// graph traversal.
    Partial,
}

/// The input class an index assumes (Table 1, column "Input").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputClass {
    /// Directed acyclic graphs; general graphs go through SCC
    /// condensation first (see [`crate::general::Condensed`]).
    Dag,
    /// Arbitrary directed graphs.
    General,
}

/// Update support (Table 1, column "Dynamic").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dynamism {
    /// Rebuilt from scratch on change.
    Static,
    /// Supports edge insertions only (e.g. DBL).
    InsertOnly,
    /// Supports edge insertions and deletions (e.g. TOL, DAGGER).
    InsertDelete,
}

/// Static classification of an index — one row of the survey's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexMeta {
    /// Short technique name as used in the survey.
    pub name: &'static str,
    /// Citation tag in the survey's bibliography.
    pub citation: &'static str,
    /// Framework column.
    pub framework: Framework,
    /// Index-type column.
    pub completeness: Completeness,
    /// Input column.
    pub input: InputClass,
    /// Dynamic column.
    pub dynamism: Dynamism,
}

/// A plain reachability index: answers `Qr(s, t)` — "does a directed
/// path from `s` to `t` exist?" — exactly.
///
/// Partial indexes (in the survey's sense) still implement this trait:
/// their `query` combines index lookups with guided traversal via
/// [`crate::engine::GuidedSearch`], so every implementation is an
/// exact oracle. The partial/complete distinction is visible through
/// [`IndexMeta::completeness`] and through the [`ReachFilter`] trait.
///
/// Every index is `Send + Sync` (enforced here as supertraits): one
/// `Arc<dyn ReachIndex>` serves any number of request threads, which
/// is what the [`crate::query_engine::QueryEngine`] executor relies
/// on. Per-query scratch therefore lives in a non-blocking
/// [`reach_graph::ScratchPool`], never a `RefCell`.
pub trait ReachIndex: Send + Sync {
    /// Whether `t` is reachable from `s` (every vertex reaches itself).
    fn query(&self, s: VertexId, t: VertexId) -> bool;

    /// Answers a batch of pairs, in order.
    ///
    /// The default is the per-pair loop, which is also how guided
    /// search answers a batch (one lookup, then a pruned DFS, per
    /// pair). The online baselines override it with multi-source
    /// bit-parallel BFS. Overrides must return exactly what the
    /// per-pair loop would.
    fn query_batch(&self, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
        pairs.iter().map(|&(s, t)| self.query(s, t)).collect()
    }

    /// This technique's Table-1 classification.
    fn meta(&self) -> IndexMeta;

    /// Approximate heap footprint of the index structures in bytes,
    /// excluding the graph itself.
    fn size_bytes(&self) -> usize;

    /// Number of label entries / intervals / bitset words — the
    /// abstract "index size" measure the survey compares (e.g. total
    /// interval count for tree cover, Σ|Lin|+|Lout| for 2-hop).
    fn size_entries(&self) -> usize;

    /// Validates this index's structural invariants against the graph
    /// it was built on (interval nesting, 2-hop cover soundness and
    /// completeness, filter guarantees, ...), returning every
    /// violation found.
    ///
    /// `graph` must be the graph the index answers queries about
    /// (for [`crate::general::Condensed`] the *original* graph; the
    /// adapter hands its inner index the condensation DAG).  The
    /// default reports nothing; families with checkable structure
    /// override it.  Expensive checks are sampled, so a clean result
    /// is strong evidence, not proof — `reach verify` combines this
    /// with a differential pass for that reason.
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        let _ = graph;
        Vec::new()
    }
}

/// The answer of one index-lookup on a partial index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certainty {
    /// The lookup proves a path exists.
    Reachable,
    /// The lookup proves no path exists.
    Unreachable,
    /// The lookup is inconclusive; traversal must continue.
    Unknown,
}

/// What a partial index's lookups can guarantee — the distinction §5
/// of the survey builds its argument on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterGuarantees {
    /// The filter sometimes returns [`Certainty::Reachable`], and such
    /// answers are always correct (no false positives on the positive
    /// side).
    pub definite_positive: bool,
    /// The filter sometimes returns [`Certainty::Unreachable`], and
    /// such answers are always correct (no false negatives: if a pair
    /// is reachable the filter never says `Unreachable`).
    pub definite_negative: bool,
}

/// A partial index viewed as a pruning filter, in the sense of §3.3
/// and §5: a cheap per-pair lookup that is allowed to answer `Unknown`.
///
/// [`crate::engine::GuidedSearch`] lifts any filter into an exact
/// [`ReachIndex`] by running a DFS that (a) terminates immediately on a
/// `Reachable` verdict and (b) skips subtrees with an `Unreachable`
/// verdict — exactly the guided traversal the survey describes.
///
/// `Send + Sync` for the same reason as [`ReachIndex`]: lookups are
/// reads over frozen label tables, and the lifted oracle must be
/// shareable across query threads.
pub trait ReachFilter: Send + Sync {
    /// One index lookup for the pair `(s, t)`.
    fn certain(&self, s: VertexId, t: VertexId) -> Certainty;

    /// Which verdicts this filter can produce.
    fn guarantees(&self) -> FilterGuarantees;

    /// Approximate heap footprint of the filter in bytes.
    fn size_bytes(&self) -> usize;

    /// Abstract entry count (see [`ReachIndex::size_entries`]).
    fn size_entries(&self) -> usize;

    /// Validates the filter's label structure against the graph it
    /// was built on (see [`ReachIndex::check_invariants`]); the
    /// verdict-level guarantees are additionally probed by
    /// [`crate::engine::GuidedSearch`]'s own hook.
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        let _ = graph;
        Vec::new()
    }
}

impl<F: ReachFilter + ?Sized> ReachFilter for Box<F> {
    fn certain(&self, s: VertexId, t: VertexId) -> Certainty {
        (**self).certain(s, t)
    }
    fn guarantees(&self) -> FilterGuarantees {
        (**self).guarantees()
    }
    fn size_bytes(&self) -> usize {
        (**self).size_bytes()
    }
    fn size_entries(&self) -> usize {
        (**self).size_entries()
    }
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        (**self).check_invariants(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_is_plain_data() {
        let m = IndexMeta {
            name: "X",
            citation: "[0]",
            framework: Framework::TwoHop,
            completeness: Completeness::Complete,
            input: InputClass::Dag,
            dynamism: Dynamism::Static,
        };
        let copy = m;
        assert_eq!(copy, m);
        assert_eq!(copy.framework, Framework::TwoHop);
    }

    #[test]
    fn certainty_equality() {
        assert_ne!(Certainty::Reachable, Certainty::Unknown);
        assert_eq!(Certainty::Unreachable, Certainty::Unreachable);
    }
}
