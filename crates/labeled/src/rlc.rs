//! The RLC index \[52\]: 2-hop labeling for recursive
//! label-concatenated queries `Qr(s, t, (l1·l2·…·lk)*)` (§4.2).
//!
//! The index is built for a maximum concatenation length `kmax` (the
//! survey: *"the concatenation length under the Kleene operator is
//! leveraged to guide the computation"*). For every unit `u` with
//! `|u| ≤ kmax`, entries record *phase-aligned repeats*:
//!
//! * `(h, u, p) ∈ Lout(s)` — an `s → h` path whose label sequence is
//!   `u^a · u[0..p]` (full repeats then the first `p` symbols);
//! * `(h, u, p) ∈ Lin(t)` — an `h → t` path matching `u` from phase
//!   `p` onward and ending on a unit boundary.
//!
//! A query joins on `(h, u, p)`: the concatenation is then a whole
//! number of repeats. Tracking the phase is what makes the entries
//! transitive — the survey's second RLC challenge (*"MRs do not
//! necessarily have the transitive property"*) — and bounding `|u|`
//! by `kmax` keeps the descriptor universe finite — the first
//! challenge (*"infinite MRs … as a result of directed cycles"*).
//! Hops label their priority-restricted closures (cf. [`crate::dlcr`]),
//! so the two-phase minimal-selection of the original paper is
//! replaced by a per-hop-local construction with the same
//! completeness guarantee.

use crate::lcr::{
    Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework,
};
use reach_core::hop_labels::{HopLabels, HopOrder};
use reach_graph::{Label, LabeledGraph, VertexId};
use std::fmt;

/// One RLC label entry: `(hop rank, unit id, phase)`.
type RlcEntry = (u32, u16, u8);

/// The largest unit universe [`RlcIndex::build`] accepts. Unit ids are
/// `u16`, and every unit costs one restricted BFS per hop and phase.
pub const MAX_UNITS: usize = 4096;

/// Why [`RlcIndex::build`] refused a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RlcBuildError {
    /// `kmax` was 0: there is no unit to index.
    ZeroKmax,
    /// `|L| + |L|² + … + |L|^kmax` exceeds [`MAX_UNITS`].
    UniverseTooLarge {
        /// The alphabet size `|L|`.
        labels: usize,
        /// The longest unit asked for.
        kmax: usize,
    },
}

impl fmt::Display for RlcBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RlcBuildError::ZeroKmax => write!(f, "RLC index needs kmax of at least 1"),
            RlcBuildError::UniverseTooLarge { labels, kmax } => write!(
                f,
                "unit universe too large: {labels} labels and units up to length {kmax} \
                 give more than {MAX_UNITS} units (reduce kmax or the alphabet)"
            ),
        }
    }
}

impl std::error::Error for RlcBuildError {}

/// `|L| + |L|² + … + |L|^kmax`, or `None` once it passes [`MAX_UNITS`]
/// (so no power is ever computed past the limit).
fn universe_size(num_labels: usize, kmax: usize) -> Option<usize> {
    let (mut total, mut power) = (0usize, 1usize);
    for _ in 0..kmax {
        power = power.saturating_mul(num_labels);
        total = total.saturating_add(power);
        if total > MAX_UNITS {
            return None;
        }
    }
    Some(total)
}

/// The RLC index.
///
/// ```
/// use reach_graph::{Label, LabeledGraph, VertexId};
/// use reach_labeled::rlc::RlcIndex;
///
/// // 0 -a-> 1 -b-> 2 -a-> 3 -b-> 4
/// let g = LabeledGraph::from_edges(5, 2, &[(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 4)]);
/// let idx = RlcIndex::build(&g, 2).unwrap();
/// let (a, b) = (Label(0), Label(1));
/// assert_eq!(idx.try_query(VertexId(0), VertexId(4), &[a, b]), Some(true));
/// assert_eq!(idx.try_query(VertexId(0), VertexId(3), &[a, b]), Some(false));
/// assert_eq!(idx.try_query(VertexId(0), VertexId(4), &[a, b, a]), None); // > kmax
/// ```
pub struct RlcIndex {
    /// all units of length `1..=kmax`, sorted for binary search
    units: Vec<Vec<Label>>,
    kmax: usize,
    labels: HopLabels<RlcEntry>,
}

fn enumerate_units(num_labels: usize, kmax: usize) -> Vec<Vec<Label>> {
    let mut units: Vec<Vec<Label>> = Vec::new();
    let mut frontier: Vec<Vec<Label>> = vec![Vec::new()];
    for _ in 0..kmax {
        let mut next = Vec::new();
        for seq in &frontier {
            for l in 0..num_labels {
                let mut s = seq.clone();
                s.push(Label(l as u8));
                next.push(s);
            }
        }
        units.extend(next.iter().cloned());
        frontier = next;
    }
    units.sort();
    units
}

impl RlcIndex {
    /// Builds the index for concatenation units up to length `kmax`.
    ///
    /// The unit universe has `|L| + |L|² + … + |L|^kmax` members; the
    /// constructor rejects configurations above [`MAX_UNITS`] before it
    /// enumerates any (the survey is explicit that RLC indexing cost is
    /// high — this implementation targets the small alphabets and short
    /// units of real queries).
    pub fn build(g: &LabeledGraph, kmax: usize) -> Result<Self, RlcBuildError> {
        if kmax == 0 {
            return Err(RlcBuildError::ZeroKmax);
        }
        if universe_size(g.num_labels(), kmax).is_none() {
            return Err(RlcBuildError::UniverseTooLarge {
                labels: g.num_labels(),
                kmax,
            });
        }
        let units = enumerate_units(g.num_labels(), kmax);
        let n = g.num_vertices();
        let mut idx = RlcIndex {
            units,
            kmax,
            labels: HopLabels::new(HopOrder::by_degree(n, |v| g.degree(v))),
        };
        let mut seen = vec![false; 0];
        for r in 0..n as u32 {
            for uid in 0..idx.units.len() {
                let unit = idx.units[uid].clone();
                for phase in 0..unit.len() as u8 {
                    for forward in [true, false] {
                        idx.hop_bfs(g, r, uid as u16, &unit, phase, forward, &mut seen);
                    }
                }
            }
        }
        idx.labels.sort_and_dedup();
        Ok(idx)
    }

    /// One phase-aligned restricted BFS for the hop `w` of rank `r`.
    ///
    /// Forward (`lin` entries, tag = start phase `p0`): states are
    /// `(x, q)` with a `w → x` path matching `u` from phase `p0` to
    /// phase `q`; an entry is recorded whenever `q == 0`.
    /// Backward (`lout` entries, tag = end phase `p0`): states are
    /// `(x, q)` with an `x → w` path matching `u` from phase `q` to
    /// phase `p0`; an entry is recorded whenever `q == 0`.
    #[allow(clippy::too_many_arguments)]
    fn hop_bfs(
        &mut self,
        g: &LabeledGraph,
        r: u32,
        uid: u16,
        unit: &[Label],
        p0: u8,
        forward: bool,
        seen: &mut Vec<bool>,
    ) {
        let w = self.labels.order().vertex_at(r);
        let n = g.num_vertices();
        let klen = unit.len();
        seen.clear();
        seen.resize(n * klen, false);
        let mut queue: Vec<(VertexId, u8)> = vec![(w, p0)];
        seen[w.index() * klen + p0 as usize] = true;
        let mut head = 0;
        while head < queue.len() {
            let (x, q) = queue[head];
            head += 1;
            if q == 0 {
                self.labels.list_mut(forward, x).push((r, uid, p0));
            }
            // interior restriction: only lower-priority vertices are
            // passed through
            if !self.labels.order().passes(r, x) {
                continue;
            }
            // forward, an edge reads unit[q] and moves to the next
            // phase; backward, it reads the previous phase's label
            let (want, nq) = if forward {
                (unit[q as usize], ((q as usize + 1) % klen) as u8)
            } else {
                let nq = (q as usize + klen - 1) % klen;
                (unit[nq], nq as u8)
            };
            for (y, l) in g.adjacent(x, forward) {
                if l == want && !seen[y.index() * klen + nq as usize] {
                    seen[y.index() * klen + nq as usize] = true;
                    queue.push((y, nq));
                }
            }
        }
    }

    /// The maximum supported unit length.
    pub fn kmax(&self) -> usize {
        self.kmax
    }

    fn unit_id(&self, unit: &[Label]) -> Option<u16> {
        self.units
            .binary_search_by(|u| u.as_slice().cmp(unit))
            .ok()
            .map(|i| i as u16)
    }

    /// Whether a path from `s` to `t` exists whose label sequence is a
    /// (possibly empty for `s == t`, otherwise one-or-more-fold)
    /// repetition of `unit`. Returns `None` if `unit` is longer than
    /// [`kmax`](Self::kmax).
    pub fn try_query(&self, s: VertexId, t: VertexId, unit: &[Label]) -> Option<bool> {
        assert!(!unit.is_empty(), "concatenation unit must be non-empty");
        if unit.len() > self.kmax {
            return None;
        }
        if s == t {
            return Some(true);
        }
        let uid = self.unit_id(unit)?;
        Some(self.labels.covers_unit(s, t, uid))
    }

    /// This technique's Table-2 classification.
    pub fn meta(&self) -> LabeledIndexMeta {
        LabeledIndexMeta {
            name: "RLC index",
            citation: "[52]",
            framework: LcrFramework::TwoHop,
            constraint: ConstraintClass::Concatenation,
            completeness: Completeness::Complete,
            input: InputClass::General,
            dynamism: Dynamism::Static,
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.labels.size_bytes()
    }

    /// Abstract entry count.
    pub fn size_entries(&self) -> usize {
        self.labels.size_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::rlc_bfs;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures::{self, B, FOLLOWS, FRIEND_OF, L, M, WORKS_FOR};
    use reach_graph::generators::{random_labeled_digraph, LabelDistribution};

    fn check_exact(g: &LabeledGraph, kmax: usize) {
        let idx = RlcIndex::build(g, kmax).unwrap();
        let units = enumerate_units(g.num_labels(), kmax);
        for unit in &units {
            for s in g.vertices() {
                for t in g.vertices() {
                    assert_eq!(
                        idx.try_query(s, t, unit),
                        Some(rlc_bfs(g, s, t, unit)),
                        "unit {unit:?} at {s:?}->{t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn papers_mr_example() {
        // Qr(L, B, (worksFor · friendOf)*) = true via the path
        // (L, worksFor, D, friendOf, H, worksFor, G, friendOf, B)
        let g = fixtures::figure1b();
        let idx = RlcIndex::build(&g, 2).unwrap();
        assert_eq!(idx.try_query(L, B, &[WORKS_FOR, FRIEND_OF]), Some(true));
        assert_eq!(idx.try_query(L, B, &[FRIEND_OF, WORKS_FOR]), Some(false));
        assert_eq!(idx.try_query(L, M, &[WORKS_FOR, WORKS_FOR]), Some(true));
        assert_eq!(idx.try_query(L, M, &[FOLLOWS, FOLLOWS]), Some(false));
    }

    #[test]
    fn exact_on_figure1() {
        check_exact(&fixtures::figure1b(), 2);
    }

    #[test]
    fn exact_on_random_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(271);
        for _ in 0..3 {
            let g = random_labeled_digraph(18, 55, 3, LabelDistribution::Uniform, &mut rng);
            check_exact(&g, 2);
        }
    }

    #[test]
    fn exact_with_kmax_three() {
        let mut rng = SmallRng::seed_from_u64(272);
        let g = random_labeled_digraph(12, 40, 2, LabelDistribution::Uniform, &mut rng);
        check_exact(&g, 3);
    }

    #[test]
    fn cycles_with_repeats_are_found() {
        // 0 -a-> 1 -b-> 0: (a·b)* loops arbitrarily
        let g = LabeledGraph::from_edges(2, 2, &[(0, 0, 1), (1, 1, 0)]);
        let idx = RlcIndex::build(&g, 2).unwrap();
        let (a, b) = (Label(0), Label(1));
        assert_eq!(idx.try_query(VertexId(0), VertexId(0), &[a, b]), Some(true));
        assert_eq!(idx.try_query(VertexId(1), VertexId(1), &[b, a]), Some(true));
        // 0 -> 1 needs a lone 'a': unit (a) matches, unit (a,b) cannot
        // end a full repeat at 1
        assert_eq!(idx.try_query(VertexId(0), VertexId(1), &[a]), Some(true));
        assert_eq!(
            idx.try_query(VertexId(0), VertexId(1), &[a, b]),
            Some(false)
        );
    }

    #[test]
    fn units_longer_than_kmax_are_rejected() {
        let g = fixtures::figure1b();
        let idx = RlcIndex::build(&g, 2).unwrap();
        assert_eq!(
            idx.try_query(L, B, &[WORKS_FOR, FRIEND_OF, WORKS_FOR]),
            None
        );
    }

    #[test]
    fn unit_enumeration_is_complete_and_sorted() {
        let units = enumerate_units(2, 2);
        assert_eq!(units.len(), 2 + 4);
        assert_eq!(universe_size(2, 2), Some(units.len()));
        assert!(units.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn oversized_configurations_are_rejected() {
        let g = random_labeled_digraph(
            5,
            10,
            16,
            LabelDistribution::Uniform,
            &mut SmallRng::seed_from_u64(1),
        );
        // 16 + 256 + 4096 units
        let err = RlcIndex::build(&g, 3).err();
        assert_eq!(
            err,
            Some(RlcBuildError::UniverseTooLarge {
                labels: 16,
                kmax: 3
            })
        );
        assert!(err
            .unwrap()
            .to_string()
            .starts_with("unit universe too large"));
        // a length no enumeration could hold is refused just as fast
        assert!(RlcIndex::build(&g, 1 << 20).is_err());
        assert_eq!(RlcIndex::build(&g, 0).err(), Some(RlcBuildError::ZeroKmax));
        assert_eq!(universe_size(2, 11), Some(4094));
        assert_eq!(universe_size(2, 12), None, "8190 units");
    }
}
