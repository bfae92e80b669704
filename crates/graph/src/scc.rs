//! Strongly connected components via iterative Tarjan.

use crate::digraph::DiGraph;
use crate::vertex::VertexId;

/// The result of an SCC decomposition.
///
/// Components are numbered `0..num_components` in **reverse topological
/// order of the condensation**: Tarjan pops a component only after all
/// components reachable from it, so if component `a` can reach
/// component `b` (with `a != b`) then `comp(a) > comp(b)`.
#[derive(Debug, Clone)]
pub struct SccDecomposition {
    comp_of: Vec<u32>,
    num_components: usize,
}

impl SccDecomposition {
    /// The component id of vertex `v`.
    #[inline]
    pub fn component_of(&self, v: VertexId) -> u32 {
        self.comp_of[v.index()]
    }

    /// The number of strongly connected components.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Whether `s` and `t` are in the same SCC (mutually reachable).
    #[inline]
    pub fn same_component(&self, s: VertexId, t: VertexId) -> bool {
        self.comp_of[s.index()] == self.comp_of[t.index()]
    }

    /// Component id per vertex, as a slice.
    pub fn components(&self) -> &[u32] {
        &self.comp_of
    }

    /// Groups vertices by component id.
    pub fn members(&self) -> Vec<Vec<VertexId>> {
        let mut groups = vec![Vec::new(); self.num_components];
        for (i, &c) in self.comp_of.iter().enumerate() {
            groups[c as usize].push(VertexId::new(i));
        }
        groups
    }
}

/// Computes the SCCs of `g` with an iterative Tarjan traversal
/// (explicit stack, so deep graphs cannot overflow the call stack).
///
/// This is Pearce's one-array form of Tarjan's algorithm: `rindex`
/// holds a visited vertex's DFS index, lowered in place to the
/// lowlink, until its component is popped, and then a component slot
/// counting down from `n`. Live indexes stay below every slot, so a
/// finished vertex never lowers a lowlink, and each edge reads one
/// array where the textbook form reads an index and an on-stack flag.
/// Components pop in the same order as in the textbook form; slot
/// `n - k` becomes component `k`.
pub fn tarjan_scc(g: &DiGraph) -> SccDecomposition {
    tarjan_with(g, |_| {})
}

/// A component at the moment Tarjan pops it: its members have just
/// taken its id, and every vertex they reach lies in it or in a
/// component popped before it.
pub(crate) struct Popped<'a> {
    id: u32,
    members: &'a [u32],
    rindex: &'a [u32],
    n: u32,
}

impl Popped<'_> {
    /// The component's id; components pop as `0, 1, 2, …`.
    #[inline]
    pub(crate) fn id(&self) -> u32 {
        self.id
    }

    /// The component's vertices.
    #[inline]
    pub(crate) fn members(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.members.iter().map(|&v| VertexId(v))
    }

    /// The component of `w`, which must lie in this component or in
    /// one popped before it (every out-neighbour of a member does).
    #[inline]
    pub(crate) fn component_of(&self, w: VertexId) -> u32 {
        self.n - self.rindex[w.index()]
    }
}

/// [`tarjan_scc`], calling `on_pop` once per component as it pops,
/// after its members have taken their component id.
pub(crate) fn tarjan_with(g: &DiGraph, mut on_pop: impl FnMut(Popped<'_>)) -> SccDecomposition {
    const UNVISITED: u32 = 0;
    let n = g.num_vertices();
    let n32 = u32::try_from(n).expect("vertex ids are u32");
    let mut rindex = vec![UNVISITED; n];
    // Visited vertices whose component is open, below the DFS path.
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 1u32;
    let mut slot = n32;

    // Each frame is (vertex, the rest of its out-neighbor list, whether
    // the vertex is still the root of its component).
    let mut call: Vec<(u32, &[VertexId], bool)> = Vec::new();

    for root in 0..n32 {
        if rindex[root as usize] != UNVISITED {
            continue;
        }
        rindex[root as usize] = next_index;
        next_index += 1;
        call.push((root, g.out_neighbors(VertexId(root)), true));

        while let Some((v, rest, is_root)) = call.last_mut() {
            let v = *v as usize;
            if let Some((&w, tail)) = rest.split_first() {
                *rest = tail;
                let w = w.index();
                if rindex[w] == UNVISITED {
                    rindex[w] = next_index;
                    next_index += 1;
                    call.push((w as u32, g.out_neighbors(VertexId::new(w)), true));
                } else if rindex[w] < rindex[v] {
                    rindex[v] = rindex[w];
                    *is_root = false;
                }
            } else {
                let is_root = *is_root;
                call.pop();
                if is_root {
                    // v roots a component: it and the open vertices
                    // above it on the stack take the next slot.
                    let root_index = rindex[v];
                    stack.push(v as u32);
                    let mut first = stack.len() - 1;
                    while first > 0 && rindex[stack[first - 1] as usize] >= root_index {
                        first -= 1;
                    }
                    for &w in &stack[first..] {
                        rindex[w as usize] = slot;
                    }
                    next_index -= (stack.len() - first) as u32;
                    on_pop(Popped {
                        id: n32 - slot,
                        members: &stack[first..],
                        rindex: &rindex,
                        n: n32,
                    });
                    stack.truncate(first);
                    slot -= 1;
                } else {
                    stack.push(v as u32);
                }
                if let Some((parent, _, parent_root)) = call.last_mut() {
                    let parent = *parent as usize;
                    if rindex[v] < rindex[parent] {
                        rindex[parent] = rindex[v];
                        *parent_root = false;
                    }
                }
            }
        }
    }

    for r in &mut rindex {
        *r = n32 - *r;
    }
    SccDecomposition {
        comp_of: rindex,
        num_components: (n32 - slot) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_in_a_dag() {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components(), 4);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(scc.same_component(u, v), u == v);
            }
        }
    }

    #[test]
    fn one_big_cycle() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components(), 1);
        assert!(scc.same_component(VertexId(0), VertexId(2)));
    }

    #[test]
    fn two_cycles_bridged() {
        // {0,1} -> {2,3}
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components(), 2);
        assert!(scc.same_component(VertexId(0), VertexId(1)));
        assert!(scc.same_component(VertexId(2), VertexId(3)));
        assert!(!scc.same_component(VertexId(0), VertexId(2)));
        // reverse topological numbering: source component gets the larger id
        assert!(scc.component_of(VertexId(0)) > scc.component_of(VertexId(2)));
    }

    #[test]
    fn component_ids_are_reverse_topological() {
        // chain of singleton components 0 -> 1 -> 2
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let scc = tarjan_scc(&g);
        assert!(scc.component_of(VertexId(0)) > scc.component_of(VertexId(1)));
        assert!(scc.component_of(VertexId(1)) > scc.component_of(VertexId(2)));
    }

    #[test]
    fn self_loop_is_its_own_component() {
        let g = DiGraph::from_edges(2, &[(0, 0), (0, 1)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components(), 2);
    }

    #[test]
    fn members_partition_vertices() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3)]);
        let scc = tarjan_scc(&g);
        let members = scc.members();
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
        for (cid, group) in members.iter().enumerate() {
            for &v in group {
                assert_eq!(scc.component_of(v), cid as u32);
            }
        }
    }

    /// Textbook recursive Tarjan: an index, a lowlink and an on-stack
    /// flag per vertex.
    fn textbook(g: &DiGraph) -> Vec<u32> {
        struct State {
            index: Vec<Option<u32>>,
            low: Vec<u32>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            comp: Vec<u32>,
            next: u32,
            comps: u32,
        }
        fn visit(g: &DiGraph, v: usize, st: &mut State) {
            st.index[v] = Some(st.next);
            st.low[v] = st.next;
            st.next += 1;
            st.stack.push(v);
            st.on_stack[v] = true;
            for &w in g.out_neighbors(VertexId::new(v)) {
                let w = w.index();
                match st.index[w] {
                    None => {
                        visit(g, w, st);
                        st.low[v] = st.low[v].min(st.low[w]);
                    }
                    Some(i) if st.on_stack[w] => st.low[v] = st.low[v].min(i),
                    Some(_) => {}
                }
            }
            if Some(st.low[v]) == st.index[v] {
                while let Some(w) = st.stack.pop() {
                    st.on_stack[w] = false;
                    st.comp[w] = st.comps;
                    if w == v {
                        break;
                    }
                }
                st.comps += 1;
            }
        }
        let n = g.num_vertices();
        let mut st = State {
            index: vec![None; n],
            low: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            comp: vec![0; n],
            next: 0,
            comps: 0,
        };
        for v in 0..n {
            if st.index[v].is_none() {
                visit(g, v, &mut st);
            }
        }
        st.comp
    }

    #[test]
    fn numbering_matches_the_textbook_algorithm() {
        use crate::generators::random_digraph;
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for (n, m) in [(2, 3), (10, 12), (40, 60), (60, 200), (200, 260)] {
            for _ in 0..20 {
                let g = random_digraph(n, m, &mut rng);
                let scc = tarjan_scc(&g);
                let expect = textbook(&g);
                assert_eq!(scc.components(), &expect[..], "n={n} m={m}");
                let comps = expect.iter().max().map_or(0, |&c| c as usize + 1);
                assert_eq!(scc.num_components(), comps);
            }
        }
    }

    #[test]
    fn deep_path_does_not_overflow() {
        // A long path exercises the explicit stack.
        let n = 200_000;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(n, &edges);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.num_components(), n);
    }
}
