//! The common interface of path-constrained reachability indexes and
//! the classification metadata of the survey's Table 2.

use reach_core::audit::Violation;
use reach_graph::{Label, LabelSet, LabeledGraph, VertexId};

pub use reach_core::index::{Completeness, Dynamism, InputClass};

/// The indexing framework of a path-constrained technique (Table 2,
/// column "Framework").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LcrFramework {
    /// Spanning-tree / interval-labeling extensions (§4.1.1).
    TreeCover,
    /// Generalized-transitive-closure materializations (§4.1.2).
    Gtc,
    /// 2-hop labelings enriched with label information (§4.1.3, §4.2).
    TwoHop,
}

/// The path-constraint class an index supports (Table 2, column
/// "Path Constraint").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintClass {
    /// `α = (l1 ∪ l2 ∪ …)*` — label-constrained reachability (LCR).
    Alternation,
    /// `α = (l1 · l2 · …)*` — recursive label-concatenated (RLC).
    Concatenation,
}

/// Static classification of a path-constrained index — one row of the
/// survey's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabeledIndexMeta {
    /// Technique name as used in the survey.
    pub name: &'static str,
    /// Citation tag in the survey's bibliography.
    pub citation: &'static str,
    /// Framework column.
    pub framework: LcrFramework,
    /// Path-constraint column.
    pub constraint: ConstraintClass,
    /// Index-type column.
    pub completeness: Completeness,
    /// Input column.
    pub input: InputClass,
    /// Dynamic column.
    pub dynamism: Dynamism,
}

/// An alternation-based (LCR) reachability index: answers
/// `Qr(s, t, (l1 ∪ l2 ∪ …)*)` where the alternation is given as the
/// [`LabelSet`] of permitted labels.
///
/// `Send + Sync` as supertraits, like the plain `ReachIndex`: labeled
/// indexes are shared across query threads too, so per-query scratch
/// lives in a non-blocking `ScratchPool`, never a `RefCell`.
pub trait LcrIndex: Send + Sync {
    /// Whether a path from `s` to `t` exists using only edges whose
    /// label lies in `allowed`. Every vertex reaches itself under any
    /// constraint (the empty path).
    fn query(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool;

    /// This technique's Table-2 classification.
    fn meta(&self) -> LabeledIndexMeta;

    /// Approximate heap footprint of the index structures in bytes.
    fn size_bytes(&self) -> usize;

    /// Abstract entry count (SPLS entries, GTC rows, …).
    fn size_entries(&self) -> usize;

    /// Checks the index's internal structural invariants against the
    /// graph it claims to cover, returning one [`Violation`] per
    /// broken rule. The default reports nothing; techniques with
    /// checkable structure (SPLS minimality, label-set monotonicity)
    /// override it. Behavioral correctness (answers vs an online BFS)
    /// is checked separately by [`crate::audit::audit_lcr_index`].
    fn check_invariants(&self, graph: &LabeledGraph) -> Vec<Violation> {
        let _ = graph;
        Vec::new()
    }
}

/// A concatenation-based (RLC) reachability index: answers
/// `Qr(s, t, (l1 · l2 · … · lk)*)` for concatenation units up to the
/// length the index was built for.
///
/// `Send + Sync` for the same reason as [`LcrIndex`].
pub trait RlcIndexApi: Send + Sync {
    /// Whether a path from `s` to `t` exists whose label sequence is a
    /// (possibly empty for `s == t`, otherwise one-or-more-fold)
    /// repetition of `unit`. Returns `None` if `unit` is longer than
    /// the index supports.
    fn try_query(&self, s: VertexId, t: VertexId, unit: &[Label]) -> Option<bool>;

    /// This technique's Table-2 classification.
    fn meta(&self) -> LabeledIndexMeta;

    /// Approximate heap footprint in bytes.
    fn size_bytes(&self) -> usize;

    /// Abstract entry count.
    fn size_entries(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_is_plain_data() {
        let m = LabeledIndexMeta {
            name: "X",
            citation: "[0]",
            framework: LcrFramework::TwoHop,
            constraint: ConstraintClass::Alternation,
            completeness: Completeness::Complete,
            input: InputClass::General,
            dynamism: Dynamism::Static,
        };
        assert_eq!(m, m);
        assert_ne!(ConstraintClass::Alternation, ConstraintClass::Concatenation);
    }
}
