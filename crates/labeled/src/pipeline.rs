//! The labeled (LCR) side of the unified builder registry.
//!
//! Fills `reach-core`'s [`Registry`] with labeled-graph input and
//! Table-2 metadata, so the bench harness, CLI and server look up,
//! gate, build and report plain and path-constrained techniques
//! through one path: [`Registry::build`] returns each LCR index with
//! its [`BuildReport`](reach_core::BuildReport) too.

use crate::chen::ChenIndex;
use crate::dlcr::Dlcr;
use crate::gtc::GtcIndex;
use crate::jin::JinIndex;
use crate::landmark::LandmarkIndex;
use crate::lcr::{LabeledIndexMeta, LcrIndex};
use crate::p2h::P2hPlus;
use crate::zou::ZouIndex;
use reach_core::pipeline::{BuilderSpec, Registry};
use reach_graph::LabeledGraph;
use std::sync::Arc;

/// Every alternation-based (LCR) technique, in Table-2 order.
pub static LCR_REGISTRY: Registry<Arc<LabeledGraph>, dyn LcrIndex, LabeledIndexMeta> = Registry {
    kind: "LCR",
    size: |i| (i.size_bytes(), i.size_entries()),
    specs: &[
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
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use reach_core::pipeline::{BuildOpts, CondensationUse};

    fn fig() -> Arc<LabeledGraph> {
        Arc::new(reach_graph::fixtures::figure1b())
    }

    #[test]
    fn registry_names_are_unique() {
        let names = LCR_REGISTRY.names();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b, "duplicate LCR registry entry");
            }
        }
    }

    #[test]
    fn every_spec_meta_matches_built_index_name() {
        for spec in LCR_REGISTRY.specs {
            assert_eq!(spec.meta.name, spec.name);
            let built = (spec.build)(&fig(), &BuildOpts::default());
            assert_eq!(built.meta(), spec.meta, "{}", spec.name);
        }
    }

    #[test]
    fn names_are_disjoint_from_the_plain_registry() {
        // `/metrics` tells builds apart by their `index` label alone
        for name in LCR_REGISTRY.names() {
            assert!(reach_core::PLAIN_REGISTRY.spec(name).is_none(), "{name}");
        }
    }

    #[test]
    fn every_build_reports_its_size_and_no_condensation() {
        let g = fig();
        for name in LCR_REGISTRY.names() {
            let (idx, r) = LCR_REGISTRY.build(name, &g, &BuildOpts::default()).unwrap();
            assert_eq!(r.name, name);
            assert_eq!(r.condensation, CondensationUse::Unused, "{name}");
            assert_eq!(r.label, r.total, "{name}: all of the build is labeling");
            assert_eq!(
                (r.size_bytes, r.size_entries),
                (idx.size_bytes(), idx.size_entries())
            );
        }
    }

    #[test]
    fn unknown_names_are_infeasible_and_a_typed_build_error() {
        assert!(!LCR_REGISTRY.feasible("no such index", 10, 10));
        assert!(LCR_REGISTRY.spec("no such index").is_none());
        let Err(e) = LCR_REGISTRY.build("no such index", &fig(), &BuildOpts::default()) else {
            panic!("an unknown name must not build");
        };
        assert_eq!(e.to_string(), "unknown LCR index \"no such index\"");
    }

    #[test]
    fn lcr_trait_objects_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn LcrIndex>();
        assert_send_sync::<Box<dyn LcrIndex>>();
        assert_send_sync::<crate::rlc::RlcIndex>();
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
        for spec in LCR_REGISTRY.specs {
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
