//! # reach-core
//!
//! Plain reachability indexes — a from-scratch implementation of every
//! technique family in Table 1 of *An Overview of Reachability Indexes
//! on Graphs* (Zhang, Bonifati, Özsu; SIGMOD-Companion 2023):
//!
//! * **tree-cover framework** (§3.1): [`tree_cover`], [`sspi`],
//!   [`dual_labeling`], [`gripp`], [`chain_cover`], [`grail`],
//!   [`ferrari`], [`dagger`];
//! * **2-hop framework** (§3.2): [`hop2`], [`pll`], [`tol`] (with the
//!   TFL and DL instantiations) over one [`hop_labels`] store, and
//!   [`dbl`], [`oreach`];
//! * **approximate transitive closure** (§3.3): [`ip`], [`bfl`];
//! * **other techniques** (§3.4): [`hl`], [`feline`], [`preach`];
//! * baselines (§2.3): [`online`] traversal and the materialized
//!   [`tc`] transitive closure.
//!
//! All indexes implement [`ReachIndex`]; partial indexes additionally
//! expose their lookup as a [`ReachFilter`] lifted to an exact oracle
//! by [`engine::GuidedSearch`]. DAG-only indexes compose with
//! [`general::Condensed`] for general graphs.

#![forbid(unsafe_code)]

pub mod audit;
pub mod bfl;
pub mod chain_cover;
pub mod dagger;
pub mod dbl;
pub mod dual_labeling;
pub mod engine;
pub mod feline;
pub mod ferrari;
pub mod general;
pub mod grail;
pub mod gripp;
pub mod hl;
pub mod hop2;
pub mod hop_labels;
pub mod index;
pub mod interval;
pub mod ip;
pub mod online;
pub mod oreach;
pub mod parallel;
pub mod pipeline;
pub mod pll;
pub mod preach;
pub mod query_engine;
pub mod service;
pub mod sspi;
pub mod tc;
pub mod tol;
pub mod tree_cover;

pub use audit::{audit_index, audit_plain, AuditConfig, AuditOutcome, Violation};
pub use engine::GuidedSearch;
pub use general::Condensed;
pub use index::{
    Certainty, Completeness, Dynamism, FilterGuarantees, Framework, IndexMeta, InputClass,
    ReachFilter, ReachIndex,
};
pub use pipeline::{BuildOpts, BuildReport, BuilderSpec, PlainSpec, UnknownIndex};
pub use query_engine::QueryEngine;
pub use service::IndexService;
pub use tc::TransitiveClosure;
