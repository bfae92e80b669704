//! # reachability
//!
//! A library of reachability indexes on graphs — a full implementation
//! of the techniques surveyed in *An Overview of Reachability Indexes
//! on Graphs* (Zhang, Bonifati, Özsu; SIGMOD-Companion 2023).
//!
//! The workspace is organized along the survey's structure:
//!
//! * [`graph`] — the substrate: CSR digraphs, edge-labeled graphs,
//!   SCC condensation, traversal, generators, reductions, and the
//!   paper's Figure-1 fixtures;
//! * [`plain`] — plain reachability indexes (§3 / Table 1): the
//!   tree-cover, 2-hop, and approximate-TC families behind one
//!   [`plain::ReachIndex`] trait;
//! * [`labeled`] — path-constrained indexes (§4 / Table 2): the
//!   alternation (LCR) family behind [`labeled::LcrIndex`] and the
//!   concatenation (RLC) index [`labeled::rlc::RlcIndex`].
//!
//! One build path serves both registries: [`plain::PLAIN_REGISTRY`] and
//! [`labeled::LCR_REGISTRY`] are each a [`plain::Registry`], whose
//! `build` returns the index with its [`plain::BuildReport`].
//!
//! ## Quickstart
//!
//! ```
//! use reachability::prelude::*;
//!
//! // the survey's Figure 1(a)
//! let graph = reachability::graph::fixtures::figure1a();
//! let dag = Dag::new(graph).expect("Figure 1 is acyclic");
//!
//! // a complete index: query by lookup only
//! let tree_cover = reachability::plain::tree_cover::TreeCover::build(&dag);
//! assert!(tree_cover.query(fixtures::A, fixtures::G)); // Qr(A,G) = true
//!
//! // a partial index: no-false-negative filter + guided traversal
//! let grail = reachability::plain::grail::build_grail(&dag, 2, 42, 1);
//! assert!(grail.query(fixtures::A, fixtures::G));
//! assert!(!grail.query(fixtures::G, fixtures::A));
//!
//! // a label-constrained query on Figure 1(b):
//! // Qr(A, G, (friendOf ∪ follows)*) = false
//! let lg = reachability::graph::fixtures::figure1b();
//! let p2h = reachability::labeled::p2h::P2hPlus::build(&lg);
//! let constraint = LabelSet::from_labels([fixtures::FRIEND_OF, fixtures::FOLLOWS]);
//! assert!(!p2h.query(fixtures::A, fixtures::G, constraint));
//! ```

#![forbid(unsafe_code)]

/// Plain reachability indexes (re-export of `reach-core`).
pub use reach_core as plain;
/// The graph substrate (re-export of `reach-graph`).
pub use reach_graph as graph;
/// Path-constrained reachability indexes (re-export of `reach-labeled`).
pub use reach_labeled as labeled;

/// The types most programs need, in one import.
pub mod prelude {
    pub use reach_core::index::{
        Certainty, Completeness, Dynamism, FilterGuarantees, Framework, IndexMeta, InputClass,
        ReachFilter, ReachIndex,
    };
    pub use reach_core::{Condensed, GuidedSearch, TransitiveClosure};
    pub use reach_graph::fixtures;
    pub use reach_graph::{
        Condensation, Dag, DiGraph, DiGraphBuilder, GraphError, Label, LabelSet, LabeledGraph,
        LabeledGraphBuilder, VertexId,
    };
    pub use reach_labeled::{
        ConstraintClass, ConstraintKind, LabeledIndexMeta, LcrFramework, LcrIndex, SplsSet,
    };
}
