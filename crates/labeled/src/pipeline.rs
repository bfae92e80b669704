//! The labeled (LCR) side of the unified builder registry.
//!
//! Instantiates `reach-core`'s [`BuilderSpec`] with labeled-graph
//! input and Table-2 metadata, so the bench harness and CLI dispatch
//! plain and path-constrained techniques through one registry shape.

use crate::chen::ChenIndex;
use crate::dlcr::Dlcr;
use crate::gtc::GtcIndex;
use crate::jin::JinIndex;
use crate::landmark::LandmarkIndex;
use crate::lcr::{LabeledIndexMeta, LcrIndex};
use crate::p2h::P2hPlus;
use crate::zou::ZouIndex;
use reach_core::pipeline::{BuildOpts, BuilderSpec};
use reach_graph::LabeledGraph;
use std::fmt;
use std::sync::Arc;

/// The LCR instantiation of the registry entry type.
pub type LcrSpec = BuilderSpec<Arc<LabeledGraph>, dyn LcrIndex, LabeledIndexMeta>;

/// Every alternation-based (LCR) technique, in Table-2 order.
pub static LCR_REGISTRY: &[LcrSpec] = &[
    BuilderSpec {
        name: "Jin et al.",
        meta: crate::jin::META,
        feasible: |n, _| n <= 5_000,
        build: |g, _| Box::new(JinIndex::build(g)),
    },
    BuilderSpec {
        name: "Chen et al.",
        meta: crate::chen::META,
        feasible: |_, _| true,
        build: |g, _| Box::new(ChenIndex::build(g)),
    },
    BuilderSpec {
        name: "Zou et al.",
        meta: crate::zou::META,
        feasible: |n, _| n <= 2_000,
        build: |g, _| Box::new(ZouIndex::build(g)),
    },
    BuilderSpec {
        name: "Landmark index",
        meta: crate::landmark::META,
        feasible: |_, _| true,
        build: |g, o| Box::new(LandmarkIndex::build(Arc::clone(g), o.landmarks)),
    },
    BuilderSpec {
        name: "P2H+",
        meta: crate::p2h::META,
        feasible: |_, _| true,
        build: |g, _| Box::new(P2hPlus::build(g)),
    },
    BuilderSpec {
        name: "DLCR",
        meta: crate::dlcr::META,
        feasible: |_, _| true,
        build: |g, _| Box::new(Dlcr::build(g)),
    },
    BuilderSpec {
        name: "GTC",
        meta: crate::gtc::META,
        feasible: |n, _| n <= 2_000,
        build: |g, _| Box::new(GtcIndex::build(g)),
    },
];

/// Looks up an LCR registry entry by name.
pub fn lcr_spec(name: &str) -> Option<&'static LcrSpec> {
    LCR_REGISTRY.iter().find(|s| s.name == name)
}

/// Every LCR technique name, in Table-2 (registry) order.
pub fn lcr_names() -> Vec<&'static str> {
    LCR_REGISTRY.iter().map(|s| s.name).collect()
}

/// Whether building the named LCR index is practical at size `n`.
/// Unknown names are not feasible.
pub fn lcr_feasible(name: &str, n: usize) -> bool {
    lcr_spec(name).is_some_and(|s| (s.feasible)(n, 0))
}

/// The requested technique is not in the LCR registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownLcrIndex {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownLcrIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown LCR index {:?}", self.name)
    }
}

impl std::error::Error for UnknownLcrIndex {}

/// Builds the named LCR index.
pub fn build_lcr(
    name: &str,
    graph: &Arc<LabeledGraph>,
    opts: &BuildOpts,
) -> Result<Box<dyn LcrIndex>, UnknownLcrIndex> {
    let spec = lcr_spec(name).ok_or_else(|| UnknownLcrIndex { name: name.into() })?;
    Ok((spec.build)(graph, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Arc<LabeledGraph> {
        Arc::new(reach_graph::fixtures::figure1b())
    }

    #[test]
    fn registry_names_are_unique() {
        let names = lcr_names();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b, "duplicate LCR registry entry");
            }
        }
    }

    #[test]
    fn every_spec_meta_matches_built_index_name() {
        for spec in LCR_REGISTRY {
            assert_eq!(spec.meta.name, spec.name);
            let built = (spec.build)(&fig(), &BuildOpts::default());
            assert_eq!(built.meta(), spec.meta, "{}", spec.name);
        }
    }

    #[test]
    fn unknown_names_are_infeasible_and_a_typed_build_error() {
        assert!(!lcr_feasible("no such index", 10));
        assert!(lcr_spec("no such index").is_none());
        let Err(e) = build_lcr("no such index", &fig(), &BuildOpts::default()) else {
            panic!("an unknown name must not build");
        };
        assert_eq!(e.name, "no such index");
    }

    #[test]
    fn lcr_trait_objects_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn LcrIndex>();
        assert_send_sync::<Box<dyn LcrIndex>>();
        assert_send_sync::<dyn crate::lcr::RlcIndexApi>();
    }

    #[test]
    fn every_lcr_registry_index_is_shareable_across_threads() {
        use reach_graph::{LabelSet, VertexId};
        let g = fig();
        let opts = BuildOpts::default();
        let nl = g.num_labels();
        let queries: Vec<(VertexId, VertexId, LabelSet)> = g
            .vertices()
            .flat_map(|s| {
                (0..(1u64 << nl))
                    .map(move |mask| (s, VertexId(s.0.wrapping_mul(3) % 9), LabelSet(mask)))
            })
            .collect();
        for spec in LCR_REGISTRY {
            let idx = (spec.build)(&g, &opts);
            let expected: Vec<bool> = queries
                .iter()
                .map(|&(s, t, a)| idx.query(s, t, a))
                .collect();
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let idx = &idx;
                    let queries = &queries;
                    let expected = &expected;
                    scope.spawn(move || {
                        let got: Vec<bool> = queries
                            .iter()
                            .map(|&(s, t, a)| idx.query(s, t, a))
                            .collect();
                        assert_eq!(&got, expected, "{} diverged under sharing", spec.name);
                    });
                }
            });
        }
    }
}
