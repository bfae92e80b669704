//! The unified build pipeline: a first-class builder registry over
//! shared [`PreparedGraph`] artifacts.
//!
//! §5 of the survey compares the whole taxonomy on construction cost.
//! To make that comparison honest (and cheap), every technique here is
//! registered as a [`BuilderSpec`] — name, native Table-1 metadata, a
//! feasibility gate, and a build function that consumes the shared
//! [`PreparedGraph`] — so a full sweep runs SCC condensation exactly
//! once per input graph, and the bench harness and CLI dispatch off
//! one table instead of two copies of a string match.
//!
//! Each build returns alongside the index a [`BuildReport`] with the
//! per-phase wall time (condense / order / label) and the index's
//! size, which the CLI `build` path and the bench report layer print.

use crate::bfl::build_bfl;
use crate::chain_cover::ChainCover;
use crate::dagger::DynamicGrail;
use crate::dbl::Dbl;
use crate::dual_labeling::DualLabeling;
use crate::feline::build_feline;
use crate::ferrari::build_ferrari;
use crate::general::Condensed;
use crate::grail::build_grail;
use crate::gripp::Gripp;
use crate::hl::Hl;
use crate::hop2::Hop2;
use crate::index::{IndexMeta, ReachIndex};
use crate::ip::build_ip;
use crate::online::{OnlineSearch, Strategy};
use crate::oreach::build_oreach;
use crate::parallel::host_threads;
use crate::pll::Pll;
use crate::preach::Preach;
use crate::sspi::TreeSspi;
use crate::tc::TransitiveClosure;
use crate::tol::{build_dl, build_tfl, OrderStrategy, Tol};
use crate::tree_cover::TreeCover;
use reach_graph::condense::CondenseTiming;
use reach_graph::PreparedGraph;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default parameters used when a technique needs one (GRAIL trees,
/// Ferrari budget, IP permutations, BFL bits, landmark counts).
/// The `sweep` report varies these; the tables use the defaults.
pub mod defaults {
    /// GRAIL / DAGGER labelings.
    pub const GRAIL_K: usize = 3;
    /// Ferrari per-vertex interval budget.
    pub const FERRARI_BUDGET: usize = 4;
    /// IP k-min-wise label size.
    pub const IP_K: usize = 8;
    /// BFL Bloom buckets.
    pub const BFL_BITS: usize = 256;
    /// O'Reach supportive vertices.
    pub const OREACH_K: usize = 16;
    /// HL / landmark-index landmarks.
    pub const LANDMARKS: usize = 16;
    /// Deterministic seed for randomized index construction.
    pub const SEED: u64 = 0xC0FFEE;
}

/// Tunable parameters threaded to every builder. The registry entries
/// read only the knobs they care about; [`BuildOpts::default`] is the
/// configuration every table in the harness uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildOpts {
    /// GRAIL / DAGGER labelings.
    pub grail_k: usize,
    /// Ferrari per-vertex interval budget.
    pub ferrari_budget: usize,
    /// IP k-min-wise label size.
    pub ip_k: usize,
    /// BFL Bloom buckets.
    pub bfl_bits: usize,
    /// O'Reach supportive vertices.
    pub oreach_k: usize,
    /// HL / landmark-index landmarks.
    pub landmarks: usize,
    /// Seed for randomized construction.
    pub seed: u64,
}

impl Default for BuildOpts {
    fn default() -> Self {
        BuildOpts {
            grail_k: defaults::GRAIL_K,
            ferrari_budget: defaults::FERRARI_BUDGET,
            ip_k: defaults::IP_K,
            bfl_bits: defaults::BFL_BITS,
            oreach_k: defaults::OREACH_K,
            landmarks: defaults::LANDMARKS,
            seed: defaults::SEED,
        }
    }
}

/// Per-build observability: phase wall times plus index size.
///
/// `condense` and `order` are charged only to the build that actually
/// forced the shared condensation; every later build on the same
/// [`PreparedGraph`] reports zero there, making the artifact sharing
/// visible in the output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildReport {
    /// Technique name (registry entry).
    pub name: &'static str,
    /// Tarjan SCC time charged to this build.
    pub condense: Duration,
    /// Condensed-DAG assembly + topological ordering time charged to
    /// this build.
    pub order: Duration,
    /// The technique's own labeling/indexing time.
    pub label: Duration,
    /// End-to-end build wall time.
    pub total: Duration,
    /// Approximate index heap footprint.
    pub size_bytes: usize,
    /// Number of label entries (technique-specific unit).
    pub size_entries: usize,
}

impl BuildReport {
    /// Whether this build reused a condensation computed by an earlier
    /// build on the same prepared graph.
    pub fn reused_condensation(&self) -> bool {
        self.condense.is_zero() && self.order.is_zero()
    }
}

/// One registry entry: everything the harness needs to list, gate, and
/// build a technique.
///
/// The type is generic so the same shape covers plain indexes
/// (`BuilderSpec<PreparedGraph, dyn ReachIndex>`, this crate) and the
/// labeled/LCR side (`reach-labeled` instantiates it with
/// `LabeledGraph` input and its own metadata type).
pub struct BuilderSpec<G: ?Sized, I: ?Sized, M = IndexMeta> {
    /// Technique name, unique within a registry, as used in the survey.
    pub name: &'static str,
    /// The technique's *native* Table-1/Table-2 classification — what
    /// the technique itself assumes, not what the adapted artifact
    /// accepts (e.g. GRAIL is natively DAG-input even though the
    /// registry lifts it to general graphs).
    pub meta: M,
    /// Whether building on `n` vertices / `m` edges is practical. The
    /// quadratic/greedy baselines bow out on large inputs, which is
    /// itself one of the survey's observations.
    pub feasible: fn(n: usize, m: usize) -> bool,
    /// Builds the index from the shared artifacts.
    pub build: fn(&G, &BuildOpts) -> Box<I>,
}

/// The plain-index instantiation used by this crate's registry.
pub type PlainSpec = BuilderSpec<PreparedGraph, dyn ReachIndex>;

/// Every plain technique, in Table-1 order. Builders that split work
/// (GRAIL, HL and the TOL family) get the host's core count and
/// produce the same index at every thread count. DAG-only techniques are
/// lifted to general graphs with [`Condensed`] over the prepared
/// graph's shared condensation, exactly as §3.1 prescribes.
pub static PLAIN_REGISTRY: &[PlainSpec] = &[
    BuilderSpec {
        name: "Tree cover",
        meta: crate::tree_cover::META,
        feasible: |_, _| true,
        build: |p, _| Box::new(Condensed::from_prepared(p, TreeCover::build)),
    },
    BuilderSpec {
        name: "Tree+SSPI",
        meta: crate::sspi::META,
        feasible: |_, _| true,
        build: |p, _| Box::new(Condensed::from_prepared(p, TreeSspi::build)),
    },
    BuilderSpec {
        name: "Dual labeling",
        meta: crate::dual_labeling::META,
        // the link table is quadratic in the non-tree edge count; the
        // technique targets almost-tree data (§3.1)
        feasible: |n, m| m.saturating_sub(n) <= 4_000,
        build: |p, _| Box::new(Condensed::from_prepared(p, DualLabeling::build)),
    },
    BuilderSpec {
        name: "GRIPP",
        meta: crate::gripp::META,
        feasible: |_, _| true,
        build: |p, _| Box::new(Gripp::build(p.graph())),
    },
    BuilderSpec {
        name: "Chain cover",
        meta: crate::chain_cover::META,
        feasible: |n, _| n <= 20_000,
        build: |p, _| Box::new(Condensed::from_prepared(p, ChainCover::build)),
    },
    BuilderSpec {
        name: "GRAIL",
        meta: crate::grail::META,
        feasible: |_, _| true,
        build: |p, o| {
            Box::new(Condensed::from_prepared(p, |dag| {
                build_grail(dag, o.grail_k, o.seed, host_threads())
            }))
        },
    },
    BuilderSpec {
        name: "Ferrari",
        meta: crate::ferrari::META,
        feasible: |_, _| true,
        build: |p, o| {
            Box::new(Condensed::from_prepared(p, |dag| {
                build_ferrari(dag, o.ferrari_budget)
            }))
        },
    },
    BuilderSpec {
        name: "DAGGER",
        meta: crate::dagger::META,
        feasible: |_, _| true,
        build: |p, o| {
            Box::new(Condensed::from_prepared(p, |dag| {
                DynamicGrail::build(dag, o.grail_k, o.seed)
            }))
        },
    },
    BuilderSpec {
        name: "2-Hop",
        meta: crate::hop2::META,
        feasible: |n, _| n <= 400,
        build: |p, _| Box::new(Hop2::build(p.graph())),
    },
    BuilderSpec {
        name: "PLL",
        meta: crate::pll::META,
        feasible: |_, _| true,
        build: |p, _| Box::new(Pll::build(p.graph())),
    },
    BuilderSpec {
        name: "TFL",
        meta: crate::tol::TFL_META,
        feasible: |_, _| true,
        build: |p, _| {
            Box::new(Condensed::from_prepared(p, |dag| {
                build_tfl(dag, host_threads())
            }))
        },
    },
    BuilderSpec {
        name: "DL",
        meta: crate::tol::DL_META,
        feasible: |_, _| true,
        build: |p, _| Box::new(build_dl(p.graph(), host_threads())),
    },
    BuilderSpec {
        name: "TOL",
        meta: crate::tol::TOL_META,
        feasible: |_, _| true,
        build: |p, _| {
            Box::new(Tol::build(
                p.graph(),
                OrderStrategy::DegreeDescending,
                host_threads(),
            ))
        },
    },
    BuilderSpec {
        name: "DBL",
        meta: crate::dbl::META,
        feasible: |_, _| true,
        build: |p, _| Box::new(Dbl::build(p.graph())),
    },
    BuilderSpec {
        name: "O'Reach",
        meta: crate::oreach::META,
        feasible: |_, _| true,
        build: |p, o| {
            Box::new(Condensed::from_prepared(p, |dag| {
                build_oreach(dag, o.oreach_k)
            }))
        },
    },
    BuilderSpec {
        name: "IP",
        meta: crate::ip::META,
        feasible: |_, _| true,
        build: |p, o| {
            Box::new(Condensed::from_prepared(p, |dag| {
                build_ip(dag, o.ip_k, o.seed)
            }))
        },
    },
    BuilderSpec {
        name: "BFL",
        meta: crate::bfl::META,
        feasible: |_, _| true,
        build: |p, o| {
            Box::new(Condensed::from_prepared(p, |dag| {
                build_bfl(dag, o.bfl_bits, o.seed)
            }))
        },
    },
    BuilderSpec {
        name: "HL",
        meta: crate::hl::META,
        feasible: |_, _| true,
        build: |p, o| {
            Box::new(Condensed::from_prepared(p, |dag| {
                Hl::build(dag, o.landmarks, host_threads())
            }))
        },
    },
    BuilderSpec {
        name: "Feline",
        meta: crate::feline::META,
        feasible: |_, _| true,
        build: |p, _| Box::new(Condensed::from_prepared(p, build_feline)),
    },
    BuilderSpec {
        name: "PReaCH",
        meta: crate::preach::META,
        feasible: |_, _| true,
        build: |p, _| Box::new(Condensed::from_prepared(p, Preach::build)),
    },
    BuilderSpec {
        name: "TC",
        meta: crate::tc::META,
        feasible: |n, _| n <= 20_000,
        build: |p, _| Box::new(TransitiveClosure::build(p.graph())),
    },
    BuilderSpec {
        name: "online-BFS",
        meta: crate::online::BFS_META,
        feasible: |_, _| true,
        build: |p, _| Box::new(OnlineSearch::new(Arc::clone(p.graph()), Strategy::Bfs)),
    },
    BuilderSpec {
        name: "online-DFS",
        meta: crate::online::DFS_META,
        feasible: |_, _| true,
        build: |p, _| Box::new(OnlineSearch::new(Arc::clone(p.graph()), Strategy::Dfs)),
    },
    BuilderSpec {
        name: "online-BiBFS",
        meta: crate::online::BIBFS_META,
        feasible: |_, _| true,
        build: |p, _| Box::new(OnlineSearch::new(Arc::clone(p.graph()), Strategy::BiBfs)),
    },
];

/// Looks up a plain registry entry by name.
pub fn plain_spec(name: &str) -> Option<&'static PlainSpec> {
    PLAIN_REGISTRY.iter().find(|s| s.name == name)
}

/// Every plain technique name, in Table-1 (registry) order.
pub fn plain_names() -> Vec<&'static str> {
    PLAIN_REGISTRY.iter().map(|s| s.name).collect()
}

/// Whether building `name` on a graph with `n` vertices and `m` edges
/// is practical. Unknown names are not feasible.
pub fn plain_feasible(name: &str, n: usize, m: usize) -> bool {
    plain_spec(name).is_some_and(|s| (s.feasible)(n, m))
}

/// The *native* classification of a plain technique (the paper's
/// Table-1 view). Panics on an unknown name.
pub fn plain_native_meta(name: &str) -> IndexMeta {
    let spec = plain_spec(name).unwrap_or_else(|| panic!("unknown plain index {name:?}"));
    spec.meta
}

/// The requested technique is not in the plain-index registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownIndex {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown plain index {:?}", self.name)
    }
}

impl std::error::Error for UnknownIndex {}

/// Builds the named plain index over shared prepared artifacts and
/// reports per-phase wall time and size.
///
/// Condense/order time is attributed to the build that actually forced
/// the shared condensation; builds that reuse it report zero for both
/// phases (see [`BuildReport::reused_condensation`]).
pub fn build_plain(
    name: &str,
    prepared: &PreparedGraph,
    opts: &BuildOpts,
) -> Result<(Box<dyn ReachIndex>, BuildReport), UnknownIndex> {
    let spec = plain_spec(name).ok_or_else(|| UnknownIndex { name: name.into() })?;
    let runs_before = prepared.condensation_runs();
    let start = Instant::now();
    let idx = (spec.build)(prepared, opts);
    let total = start.elapsed();
    let timing = if prepared.condensation_runs() > runs_before {
        prepared.condense_timing()
    } else {
        CondenseTiming::default()
    };
    let report = BuildReport {
        name: spec.name,
        condense: timing.scc,
        order: timing.assemble,
        label: total.saturating_sub(timing.total()),
        total,
        size_bytes: idx.size_bytes(),
        size_entries: idx.size_entries(),
    };
    Ok((idx, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_graph::{fixtures, DiGraph};

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let names = plain_names();
        assert!(!names.is_empty());
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b, "duplicate registry entry");
            }
        }
    }

    #[test]
    fn every_spec_meta_matches_built_index_name() {
        // the registry's metadata is what the built index reports, up to
        // the input class that the general-graph lift widens
        let prepared = PreparedGraph::new(fixtures::figure1a());
        for spec in PLAIN_REGISTRY {
            assert_eq!(spec.meta.name, spec.name);
            let built = (spec.build)(&prepared, &BuildOpts::default()).meta();
            assert_eq!(
                built,
                IndexMeta {
                    input: built.input,
                    ..spec.meta
                },
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn full_registry_sweep_condenses_exactly_once() {
        // figure-eight general graph: two 3-cycles bridged by an edge
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
        let prepared = PreparedGraph::new(g);
        let opts = BuildOpts::default();
        for spec in PLAIN_REGISTRY {
            if (spec.feasible)(prepared.num_vertices(), prepared.num_edges()) {
                let _ = (spec.build)(&prepared, &opts);
            }
        }
        assert_eq!(
            prepared.condensation_runs(),
            1,
            "a full sweep must run SCC condensation exactly once"
        );
    }

    #[test]
    fn reports_charge_condensation_to_the_first_build_only() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let prepared = PreparedGraph::new(g);
        let opts = BuildOpts::default();
        let (_, first) = build_plain("Tree cover", &prepared, &opts).unwrap();
        let (_, second) = build_plain("GRAIL", &prepared, &opts).unwrap();
        assert!(!first.reused_condensation());
        assert!(second.reused_condensation());
        assert!(second.total >= second.label);
    }

    #[test]
    fn unknown_names_are_infeasible_and_a_typed_build_error() {
        assert!(!plain_feasible("no such index", 10, 10));
        assert!(plain_spec("no such index").is_none());
        let prepared = PreparedGraph::new(fixtures::figure1a());
        let Err(e) = build_plain("no such index", &prepared, &BuildOpts::default()) else {
            panic!("an unknown name must not build");
        };
        assert_eq!(e.name, "no such index");
        assert_eq!(prepared.condensation_runs(), 0, "nothing was built");
    }

    #[test]
    fn index_trait_objects_are_send_sync() {
        // compile-time: the supertraits make every implementor — hence
        // every registry entry's Box<dyn ReachIndex> — shareable
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn ReachIndex>();
        assert_send_sync::<Box<dyn ReachIndex>>();
        assert_send_sync::<dyn crate::index::ReachFilter>();
    }

    #[test]
    fn every_registry_index_is_shareable_across_threads() {
        // runtime: one instance of each technique answers queries from
        // multiple threads concurrently, with verdicts matching the
        // single-threaded per-pair loop
        let g = DiGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (1, 6),
                (6, 7),
            ],
        );
        let prepared = PreparedGraph::new(g);
        let opts = BuildOpts::default();
        let pairs: Vec<(reach_graph::VertexId, reach_graph::VertexId)> = (0..8u32)
            .flat_map(|s| {
                (0..8u32).map(move |t| (reach_graph::VertexId(s), reach_graph::VertexId(t)))
            })
            .collect();
        for spec in PLAIN_REGISTRY {
            assert!(
                (spec.feasible)(prepared.num_vertices(), prepared.num_edges()),
                "{} should be feasible on a tiny graph",
                spec.name
            );
            let idx = (spec.build)(&prepared, &opts);
            let expected: Vec<bool> = pairs.iter().map(|&(s, t)| idx.query(s, t)).collect();
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let idx = &idx;
                    let pairs = &pairs;
                    let expected = &expected;
                    scope.spawn(move || {
                        for round in 0..8 {
                            let got = if round % 2 == 0 {
                                pairs.iter().map(|&(s, t)| idx.query(s, t)).collect()
                            } else {
                                idx.query_batch(pairs)
                            };
                            assert_eq!(&got, expected, "{} diverged under sharing", spec.name);
                        }
                    });
                }
            });
        }
    }
}
