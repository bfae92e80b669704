//! # reach-labeled
//!
//! Path-constrained reachability indexes — a from-scratch
//! implementation of every technique in Table 2 of *An Overview of
//! Reachability Indexes on Graphs* (Zhang, Bonifati, Özsu;
//! SIGMOD-Companion 2023):
//!
//! * the constraint language of §2.2 ([`constraint`]: the
//!   `α ::= l | α·α | α∪α | α+ | α*` grammar, parser, classifier,
//!   label-set NFA) and the online baselines of §2.3 ([`online`]);
//! * the sufficient-path-label-set machinery of §4.1 ([`spls`]);
//! * **alternation-based (LCR) indexes**: Jin et al. [`jin`],
//!   Chen et al. [`chen`] (tree-cover family); Zou et al. [`zou`]
//!   and the full [`gtc`] baseline, the landmark index [`landmark`]
//!   (GTC family); P2H+ [`p2h`] and DLCR [`dlcr`] (2-hop family);
//! * the **concatenation-based (RLC) index** [`rlc`].
//!
//! Alternation indexes implement [`LcrIndex`] and are built through
//! [`LCR_REGISTRY`], the same `reach_core::pipeline::Registry` type as
//! the plain indexes, so each build comes with a
//! `reach_core::BuildReport`. The RLC index is the one concatenation
//! technique: [`rlc::RlcIndex`] answers through inherent methods.

#![forbid(unsafe_code)]

pub mod audit;
pub mod chen;
pub mod constraint;
pub mod dlcr;
mod forest;
pub mod gtc;
pub mod jin;
pub mod landmark;
pub mod lcr;
pub mod online;
pub mod p2h;
pub mod pipeline;
pub mod rlc;
pub mod rpq_index;
pub mod service;
pub mod spls;
pub mod witness;
pub mod zou;

pub use audit::{audit_lcr, audit_lcr_index};
pub use constraint::{parse, Ast, ConstraintKind, Nfa};
pub use lcr::{ConstraintClass, LabeledIndexMeta, LcrFramework, LcrIndex};
pub use pipeline::LCR_REGISTRY;
pub use service::LcrService;
pub use spls::SplsSet;
pub use witness::Witness;
