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
pub fn tarjan_scc(g: &DiGraph) -> SccDecomposition {
    const UNVISITED: u32 = u32::MAX;
    const UNASSIGNED: u32 = u32::MAX;
    let n = g.num_vertices();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    // A visited vertex stays on the Tarjan stack until its component is
    // assigned, so `comp_of` doubles as the on-stack flag.
    let mut comp_of = vec![UNASSIGNED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut num_components = 0u32;

    // Each frame is (vertex, the rest of its out-neighbor list).
    let mut call: Vec<(u32, &[VertexId])> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        call.push((root, g.out_neighbors(VertexId(root))));

        while let Some((v, rest)) = call.last_mut() {
            let v = *v as usize;
            if let Some((&w, tail)) = rest.split_first() {
                *rest = tail;
                let w = w.index();
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    call.push((w as u32, g.out_neighbors(VertexId::new(w))));
                } else if comp_of[w] == UNASSIGNED {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    // v is the root of a component: pop it off the Tarjan stack.
                    while let Some(w) = stack.pop() {
                        comp_of[w as usize] = num_components;
                        if w as usize == v {
                            break;
                        }
                    }
                    num_components += 1;
                }
            }
        }
    }

    SccDecomposition {
        comp_of,
        num_components: num_components as usize,
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
