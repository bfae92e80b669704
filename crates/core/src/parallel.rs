//! Work splitting for parallel index construction and batch queries —
//! the survey's closing open challenge (§5: *"the parallel computation
//! of indexes (e.g., parallel 2-hop indexing \[22\]) is also worth
//! exploring"*).
//!
//! The splitter itself lives in [`reach_graph::parallel`], so the
//! edge-list reader and the CSR build share it with the builders; this
//! module re-exports it. Four construction problems split their
//! independent units with it:
//!
//! * GRAIL's `k` labelings ([`crate::grail::GrailFilter::build`]) are
//!   independent random DFS runs, each seeded by `(seed, i)` alone;
//! * BFL's `Lout` and `Lin` sweeps ([`crate::bfl::BflFilter::build`])
//!   read the DAG in opposite directions and share nothing;
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

pub use reach_graph::parallel::{chunks, host_threads, join, map_chunks, setup_threads};
