//! The index-invariant audit subsystem.
//!
//! Every index family in the survey rests on a structural invariant —
//! tree-cover intervals must nest along edges, 2-hop covers must be
//! sound and complete, approximate-TC filters must never produce
//! false negatives.  This module gives those invariants a runtime
//! check: [`crate::ReachIndex::check_invariants`] (and the
//! [`crate::ReachFilter`] twin) let each family validate its own
//! labels, and [`audit_index`]/[`audit_plain`] wrap that structural
//! pass with a sampled differential against the BFS ground truth,
//! batch-vs-scalar consistency, and self-reachability probes.
//!
//! The CLI surfaces the whole thing as `reach verify --index
//! NAME|--all`; the differential property suite in
//! `tests/verify_differential.rs` runs it across the registry.

use crate::hop_labels::HopLabels;
use crate::index::ReachIndex;
use crate::pipeline::{BuildOpts, UnknownIndex, PLAIN_REGISTRY};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_graph::traverse::{self, VisitMap};
use reach_graph::{DiGraph, PreparedGraph, VertexId};
use std::fmt;

/// One invariant violation found by an audit. The audit API reports
/// all findings instead of stopping at the first, so a broken build
/// shows the blast radius at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Technique name (`IndexMeta::name`).
    pub index: &'static str,
    /// Short rule identifier, e.g. `"2hop-completeness"`.
    pub rule: &'static str,
    /// Human-readable description of the failing instance.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] {}", self.index, self.rule, self.detail)
    }
}

/// The `graph-mismatch` guard every structural audit runs first: labels
/// sized for `covered` vertices say nothing about a graph of another
/// size, and indexing it would panic. `what` names the sized part
/// (`"index"`, `"labeling 2"`, …). `None` when the sizes agree.
pub(crate) fn graph_mismatch(
    index: &'static str,
    what: &str,
    covered: usize,
    graph: &DiGraph,
) -> Option<Violation> {
    let n = graph.num_vertices();
    (covered != n).then(|| Violation {
        index,
        rule: "graph-mismatch",
        detail: format!("{what} covers {covered} vertices, graph has {n}"),
    })
}

/// Sampling parameters for an audit run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Query pairs drawn for the differential pass.
    pub pairs: usize,
    /// Seed for the pair sampler.
    pub seed: u64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            pairs: 1_000,
            seed: 0xA0D17,
        }
    }
}

/// The result of auditing one index.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// Technique name.
    pub name: &'static str,
    /// Differential pairs actually checked.
    pub pairs_checked: usize,
    /// Every violation found (empty = clean).
    pub violations: Vec<Violation>,
}

impl AuditOutcome {
    /// No violations of any kind.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Caps per finding category so a systematically broken index emits a
/// readable report, not one line per sampled pair.
pub const MAX_PER_RULE: usize = 5;

/// Counts the findings of one audit rule and keeps the details of only
/// the first [`MAX_PER_RULE`]; [`finish`](Self::finish) then notes how
/// many more there were.
#[derive(Debug)]
pub struct CappedRule {
    index: &'static str,
    rule: &'static str,
    count: usize,
}

impl CappedRule {
    /// No findings yet of `rule` against `index`.
    pub fn new(index: &'static str, rule: &'static str) -> Self {
        CappedRule {
            index,
            rule,
            count: 0,
        }
    }

    /// Counts one finding, recording `detail()` if it is among the first
    /// [`MAX_PER_RULE`].
    pub fn push(&mut self, out: &mut Vec<Violation>, detail: impl FnOnce() -> String) {
        self.push_as(self.rule, out, detail);
    }

    /// [`push`](Self::push) for a finding recorded under a rule of its
    /// own, for a cap that spans several rules.
    pub fn push_as(
        &mut self,
        rule: &'static str,
        out: &mut Vec<Violation>,
        detail: impl FnOnce() -> String,
    ) {
        self.count += 1;
        if self.count <= MAX_PER_RULE {
            out.push(Violation {
                index: self.index,
                rule,
                detail: detail(),
            });
        }
    }

    /// Notes the findings past the cap as one `... and N more {what}`
    /// line under the cap's own rule.
    pub fn finish(self, out: &mut Vec<Violation>, what: &str) {
        if self.count > MAX_PER_RULE {
            out.push(Violation {
                index: self.index,
                rule: self.rule,
                detail: format!("... and {} more {what}", self.count - MAX_PER_RULE),
            });
        }
    }
}

/// Audits a built index against `g`: sampled differential vs the
/// multi-source-BFS ground truth, `query_batch` vs scalar `query`
/// consistency, self-reachability, and the index's own structural
/// [`check_invariants`](ReachIndex::check_invariants) hook.
pub fn audit_index(idx: &dyn ReachIndex, g: &DiGraph, cfg: &AuditConfig) -> AuditOutcome {
    let name = idx.meta().name;
    let mut violations = Vec::new();
    let pairs = sample_pairs(g, cfg);

    // Differential: the index must agree with traversal on every
    // sampled pair. Soundness and completeness failures are reported
    // separately because they implicate different invariants.
    let truth = traverse::batch_reaches(g, &pairs);
    let scalar: Vec<bool> = pairs.iter().map(|&(s, t)| idx.query(s, t)).collect();
    let mut unsound = CappedRule::new(name, "differential-soundness");
    let mut incomplete = CappedRule::new(name, "differential-completeness");
    for (i, &(s, t)) in pairs.iter().enumerate() {
        if scalar[i] == truth[i] {
            continue;
        }
        if scalar[i] {
            unsound.push(&mut violations, || {
                format!("claims {s:?} reaches {t:?}, but no path exists")
            });
        } else {
            incomplete.push(&mut violations, || {
                format!("denies {s:?} reaches {t:?}, but a path exists")
            });
        }
    }
    unsound.finish(&mut violations, "such pairs");
    incomplete.finish(&mut violations, "such pairs");

    // Batch evaluation must return exactly what the per-pair loop does.
    let batch = idx.query_batch(&pairs);
    let mut batch_bad = CappedRule::new(name, "batch-consistency");
    for (i, &(s, t)) in pairs.iter().enumerate() {
        if batch[i] != scalar[i] {
            batch_bad.push(&mut violations, || {
                format!(
                    "query_batch says {} for {s:?}->{t:?}, scalar query says {}",
                    batch[i], scalar[i]
                )
            });
        }
    }
    batch_bad.finish(&mut violations, "such pairs");

    // Reflexivity: every vertex reaches itself.
    for v in sample_vertices(g.num_vertices(), 64) {
        if !idx.query(v, v) {
            violations.push(Violation {
                index: name,
                rule: "self-reachability",
                detail: format!("{v:?} does not reach itself"),
            });
        }
    }

    // Per-family structural invariants.
    violations.extend(idx.check_invariants(g));

    AuditOutcome {
        name,
        pairs_checked: pairs.len(),
        violations,
    }
}

/// Builds the named registry index over `prepared` and audits the
/// result.
pub fn audit_plain(
    name: &str,
    prepared: &PreparedGraph,
    opts: &BuildOpts,
    cfg: &AuditConfig,
) -> Result<AuditOutcome, UnknownIndex> {
    let (idx, _) = PLAIN_REGISTRY.build(name, prepared, opts)?;
    Ok(audit_index(idx.as_ref(), prepared.graph(), cfg))
}

/// Seeded pair sample: half uniform, half positives manufactured by
/// short random forward walks (uniform pairs on sparse graphs are
/// almost all unreachable, which would leave completeness untested).
fn sample_pairs(g: &DiGraph, cfg: &AuditConfig) -> Vec<(VertexId, VertexId)> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut pairs = Vec::with_capacity(cfg.pairs);
    while pairs.len() < cfg.pairs {
        let s = VertexId(rng.random_range(0..n as u32));
        if pairs.len() % 2 == 0 {
            pairs.push((s, VertexId(rng.random_range(0..n as u32))));
        } else {
            let mut cur = s;
            for _ in 0..rng.random_range(1..8usize) {
                let outs = g.out_neighbors(cur);
                if outs.is_empty() {
                    break;
                }
                cur = outs[rng.random_range(0..outs.len())];
            }
            pairs.push((s, cur));
        }
    }
    pairs
}

/// Up to `limit` vertices, evenly spaced so the sample is
/// deterministic and covers the id range. Public so the labeled
/// crate's audit can share the sampler.
pub fn sample_vertices(n: usize, limit: usize) -> Vec<VertexId> {
    if n == 0 || limit == 0 {
        return Vec::new();
    }
    let step = n.div_ceil(limit).max(1);
    (0..n).step_by(step).map(|i| VertexId(i as u32)).collect()
}

/// Membership row of `s`'s forward closure (including `s`).
pub(crate) fn closure_row(
    g: &DiGraph,
    s: VertexId,
    visit: &mut VisitMap,
    buf: &mut Vec<VertexId>,
) -> Vec<bool> {
    traverse::forward_closure_with(g, s, visit, buf);
    let mut row = vec![false; g.num_vertices()];
    for &v in buf.iter() {
        row[v.index()] = true;
    }
    row
}

/// Shared validator for the 2-hop family (2-Hop, PLL, TFL, DL, TOL),
/// run through [`HopLabels::check_cover`]:
/// labels must be strictly sorted, every hub entry must be *sound* (a
/// rank in `lout(x)` means `x` really reaches that hub; a rank in
/// `lin(x)` means the hub really reaches `x`), and the cover must be
/// *complete* (every reachable sampled pair is witnessed by a common
/// hub).
pub(crate) fn check_two_hop_cover(
    name: &'static str,
    g: &DiGraph,
    labels: &HopLabels<u32>,
    out: &mut Vec<Violation>,
) {
    let n = g.num_vertices();
    let mut visit = VisitMap::new(n);
    let mut buf = Vec::new();

    // Label order: the query's sorted-merge intersection requires
    // strictly ascending ranks.
    for x in g.vertices() {
        for (kind, label) in [("lout", labels.lout(x)), ("lin", labels.lin(x))] {
            if label.windows(2).any(|w| w[0] >= w[1]) {
                out.push(Violation {
                    index: name,
                    rule: "2hop-label-order",
                    detail: format!("{kind}({x:?}) is not strictly ascending: {label:?}"),
                });
            }
        }
    }

    // Soundness: audit a sample of hub ranks against the hubs' true
    // forward/backward closures.
    let mut unsound = CappedRule::new(name, "2hop-soundness");
    for r in sample_vertices(n, 48).iter().map(|v| v.0) {
        let hub = labels.order().vertex_at(r);
        let fwd = closure_row(g, hub, &mut visit, &mut buf);
        traverse::backward_closure_with(g, hub, &mut visit, &mut buf);
        let mut bwd = vec![false; n];
        for &v in &buf {
            bwd[v.index()] = true;
        }
        for x in g.vertices() {
            if labels.lin(x).binary_search(&r).is_ok() && !fwd[x.index()] {
                unsound.push(out, || {
                    format!(
                        "lin({x:?}) lists hub {hub:?} (rank {r}), but the hub does not reach {x:?}"
                    )
                });
            }
            if labels.lout(x).binary_search(&r).is_ok() && !bwd[x.index()] {
                unsound.push(out, || {
                    format!(
                        "lout({x:?}) lists hub {hub:?} (rank {r}), but {x:?} does not reach the hub"
                    )
                });
            }
        }
    }
    unsound.finish(out, "such pairs");

    // Completeness: from sampled sources, every truly reachable
    // target must be witnessed by a common hub.
    let mut incomplete = CappedRule::new(name, "2hop-completeness");
    for s in sample_vertices(n, 48) {
        let row = closure_row(g, s, &mut visit, &mut buf);
        for t in g.vertices() {
            if t == s || !row[t.index()] {
                continue;
            }
            if !labels.covers(s, t) {
                incomplete.push(out, || {
                    format!("{s:?} reaches {t:?} but no common hub witnesses it")
                });
            }
        }
    }
    incomplete.finish(out, "such pairs");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexMeta;
    use crate::index::{Completeness, Dynamism, Framework, InputClass};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::generators::random_digraph;
    use reach_graph::traverse::bfs_reaches;

    fn meta(name: &'static str) -> IndexMeta {
        IndexMeta {
            name,
            citation: "[-]",
            framework: Framework::Other,
            completeness: Completeness::Complete,
            input: InputClass::General,
            dynamism: Dynamism::Static,
        }
    }

    /// Ground truth with a lie: flips the verdict for one pair.
    struct OneLie {
        g: DiGraph,
        pair: (VertexId, VertexId),
    }

    impl ReachIndex for OneLie {
        fn query(&self, s: VertexId, t: VertexId) -> bool {
            let mut vm = VisitMap::new(self.g.num_vertices());
            let truth = bfs_reaches(&self.g, s, t, &mut vm);
            if (s, t) == self.pair {
                !truth
            } else {
                truth
            }
        }
        fn meta(&self) -> IndexMeta {
            meta("OneLie")
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn size_entries(&self) -> usize {
            0
        }
    }

    /// Correct scalar queries, broken batch override.
    struct BadBatch {
        g: DiGraph,
    }

    impl ReachIndex for BadBatch {
        fn query(&self, s: VertexId, t: VertexId) -> bool {
            let mut vm = VisitMap::new(self.g.num_vertices());
            bfs_reaches(&self.g, s, t, &mut vm)
        }
        fn query_batch(&self, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
            vec![false; pairs.len()]
        }
        fn meta(&self) -> IndexMeta {
            meta("BadBatch")
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn size_entries(&self) -> usize {
            0
        }
    }

    #[test]
    fn audit_catches_a_single_wrong_answer() {
        let mut rng = SmallRng::seed_from_u64(7);
        let g = random_digraph(30, 70, &mut rng);
        // lie about a self-pair so every sampler path can see it
        let idx = OneLie {
            g: g.clone(),
            pair: (VertexId(3), VertexId(3)),
        };
        let outcome = audit_index(&idx, &g, &AuditConfig::default());
        assert!(!outcome.is_clean());
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.rule == "self-reachability" || v.rule.starts_with("differential")));
    }

    #[test]
    fn audit_catches_batch_divergence() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = random_digraph(30, 70, &mut rng);
        let idx = BadBatch { g: g.clone() };
        let outcome = audit_index(&idx, &g, &AuditConfig::default());
        assert!(outcome
            .violations
            .iter()
            .any(|v| v.rule == "batch-consistency"));
    }

    #[test]
    fn every_registry_index_audits_clean_on_a_cyclic_graph() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = random_digraph(120, 320, &mut rng);
        let prepared = PreparedGraph::new(g);
        let opts = BuildOpts::default();
        let cfg = AuditConfig {
            pairs: 400,
            seed: 11,
        };
        for name in PLAIN_REGISTRY.names() {
            if !PLAIN_REGISTRY.feasible(name, prepared.num_vertices(), prepared.num_edges()) {
                continue;
            }
            let outcome = audit_plain(name, &prepared, &opts, &cfg).expect("registry name");
            assert!(
                outcome.is_clean(),
                "{name} violations: {:#?}",
                outcome.violations
            );
            assert_eq!(outcome.pairs_checked, 400);
        }
    }

    #[test]
    fn unknown_names_are_not_audited() {
        let prepared = PreparedGraph::new(DiGraph::from_edges(2, &[(0, 1)]));
        assert!(audit_plain(
            "no such index",
            &prepared,
            &BuildOpts::default(),
            &AuditConfig::default()
        )
        .is_err());
    }

    #[test]
    fn sample_vertices_is_bounded_and_in_range() {
        let vs = sample_vertices(1_000, 64);
        assert!(vs.len() <= 64 && !vs.is_empty());
        assert!(vs.iter().all(|v| v.index() < 1_000));
        assert!(sample_vertices(0, 64).is_empty());
        assert_eq!(sample_vertices(3, 64).len(), 3);
    }

    /// Every violation is a `graph-mismatch` under `name`; `None` when
    /// there are none.
    fn only_mismatches(name: &str, v: &[Violation]) -> Option<bool> {
        (!v.is_empty()).then(|| {
            v.iter()
                .all(|v| v.index == name && v.rule == "graph-mismatch")
        })
    }

    #[test]
    fn every_index_reports_a_graph_of_the_wrong_size() {
        let mut rng = SmallRng::seed_from_u64(9);
        let prepared = PreparedGraph::new(random_digraph(30, 70, &mut rng));
        // the registry indexes with no structural audit of their own
        let unaudited = ["GRIPP", "TC", "online-BFS", "online-DFS", "online-BiBFS"];
        for name in PLAIN_REGISTRY.names() {
            let (idx, _) = PLAIN_REGISTRY
                .build(name, &prepared, &BuildOpts::default())
                .unwrap();
            for n in [29, 31] {
                let v = idx.check_invariants(&DiGraph::from_edges(n, &[]));
                let expect = (!unaudited.contains(&name)).then_some(true);
                assert_eq!(
                    only_mismatches(name, &v),
                    expect,
                    "{name} at n = {n}: {v:?}"
                );
            }
        }
        // `Condensed` guards the registry's DAG indexes first; their own
        // guards face the condensation DAG
        let dag = prepared.condensation().dag();
        let opts = BuildOpts::default();
        let inner: [(&str, Box<dyn ReachIndex>); 5] = [
            (
                "Tree cover",
                Box::new(crate::tree_cover::TreeCover::build(dag)),
            ),
            (
                "Ferrari",
                Box::new(crate::ferrari::build_ferrari(dag, opts.ferrari_budget)),
            ),
            (
                "GRAIL",
                Box::new(crate::grail::build_grail(dag, opts.grail_k, opts.seed, 1)),
            ),
            ("HL", Box::new(crate::hl::Hl::build(dag, opts.landmarks, 1))),
            (
                "BFL",
                Box::new(crate::bfl::build_bfl(dag, opts.bfl_bits, opts.seed)),
            ),
        ];
        let n = dag.num_vertices();
        for (name, idx) in inner {
            for wrong in [n - 1, n + 1] {
                let v = idx.check_invariants(&DiGraph::from_edges(wrong, &[]));
                assert_eq!(only_mismatches(name, &v), Some(true), "{name}: {v:?}");
            }
        }
    }
}
