//! # reach-bench
//!
//! The experiment harness: everything needed to regenerate the
//! survey's Table 1, Table 2, Figure 1 worked examples, and the §5
//! qualitative claims, over synthetic workloads (see DESIGN.md §4 for
//! the experiment-by-experiment index).
//!
//! * [`workloads`] — the named graph shapes the comparisons run on;
//! * [`queries`] — query mixes with a controlled reachable share
//!   (§5's argument revolves around unreachable-heavy mixes);
//! * [`report`] — fixed-width table printing and wall-clock helpers;
//! * [`args`] — the one command-line parser, shared with `reach`.

#![forbid(unsafe_code)]

pub mod args;
pub mod queries;
pub mod report;
pub mod workloads;
