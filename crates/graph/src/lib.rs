//! # reach-graph
//!
//! Graph substrate for the `reachability` workspace: compact CSR
//! digraphs, edge-labeled graphs with bitset label sets, strongly
//! connected component condensation, topological utilities, online
//! traversal primitives, workload generators, graph reductions, and
//! the worked-example fixtures of the SIGMOD'23 survey
//! *An Overview of Reachability Indexes on Graphs* (Figure 1).
//!
//! Every reachability index in `reach-core` and `reach-labeled` is
//! built on the types in this crate. The representation choices follow
//! the survey's assumptions:
//!
//! * directed graphs, vertices identified by dense `u32` ids
//!   ([`VertexId`]);
//! * frozen compressed-sparse-row adjacency with both forward and
//!   reverse neighbor lists ([`DiGraph`]), because 2-hop style indexes
//!   run backward *and* forward BFSs;
//! * a checked acyclic wrapper ([`Dag`]) for the many indexes that
//!   assume DAG input (Table 1, "Input" column), plus Tarjan
//!   condensation ([`condense`]) for the standard general-graph
//!   reduction the survey describes in §3.1;
//! * edge labels from a small alphabet packed into a `u64` bitset
//!   ([`LabelSet`]), the representation implied by the
//!   sufficient-path-label-set machinery of §4.

#![forbid(unsafe_code)]

pub mod condense;
pub mod digraph;
pub mod edit;
pub mod error;
pub mod fixtures;
pub mod generators;
pub mod io;
pub mod labeled;
pub mod parallel;
pub mod prepare;
pub mod reduction;
pub mod scc;
pub mod scratch;
pub mod stats;
pub mod topo;
pub mod traverse;
pub mod vertex;

pub use condense::{Condensation, CondenseTiming};
pub use digraph::{Dag, DiGraph, DiGraphBuilder, Successors};
pub use edit::{EdgeEntry, EditGraph};
pub use error::GraphError;
pub use labeled::{Label, LabelSet, LabeledGraph, LabeledGraphBuilder};
pub use prepare::PreparedGraph;
pub use scc::SccDecomposition;
pub use scratch::{overflow_count as scratch_overflow_count, ScratchGuard, ScratchPool};
pub use traverse::VisitMap;
pub use vertex::VertexId;
