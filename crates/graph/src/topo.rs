//! Topological sorting and level utilities for DAGs.

use crate::digraph::{Dag, DiGraph};
use crate::vertex::VertexId;

/// Kahn's algorithm. Returns the vertices in a topological order, or
/// `None` if the graph contains a directed cycle.
///
/// Ties are broken by vertex id (a binary min-heap would give the
/// lexicographically smallest order; a plain FIFO is cheaper and any
/// valid order serves the indexes).
pub fn topological_sort(g: &DiGraph) -> Option<Vec<VertexId>> {
    let n = g.num_vertices();
    let mut in_deg: Vec<u32> = (0..n)
        .map(|v| g.in_degree(VertexId::new(v)) as u32)
        .collect();
    let mut queue: Vec<VertexId> = g.vertices().filter(|&v| in_deg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        order.push(u);
        for &v in g.out_neighbors(u) {
            in_deg[v.index()] -= 1;
            if in_deg[v.index()] == 0 {
                queue.push(v);
            }
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

/// Checks that `order` is a permutation of the vertices in which every
/// edge goes from an earlier to a later position.
pub fn is_topological_order(g: &DiGraph, order: &[VertexId]) -> bool {
    let n = g.num_vertices();
    if order.len() != n {
        return false;
    }
    let mut pos = vec![u32::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        if v.index() >= n || pos[v.index()] != u32::MAX {
            return false;
        }
        pos[v.index()] = i as u32;
    }
    g.edges().all(|(u, v)| pos[u.index()] < pos[v.index()])
}

/// Longest-path topological levels: sources get level 0, and every
/// other vertex gets `1 + max(level of in-neighbors)`.
///
/// Levels are the filter used by BFL, IP, and PReaCH: if
/// `level(s) >= level(t)` with `s != t` then `t` is unreachable from `s`.
/// Returns `None` on cyclic input.
pub fn topological_levels(g: &DiGraph) -> Option<Vec<u32>> {
    let order = topological_sort(g)?;
    let mut level = vec![0u32; g.num_vertices()];
    for &u in &order {
        for &v in g.out_neighbors(u) {
            level[v.index()] = level[v.index()].max(level[u.index()] + 1);
        }
    }
    Some(level)
}

/// Forward and backward longest-path levels of a DAG, read off its
/// stored topological order in two sweeps (no re-sort, no reverse copy).
///
/// The forward level is [`topological_levels`] of the graph; the
/// backward level is the same on the reversed graph (sinks get 0). BFL,
/// IP and PReaCH use both as negative filters: `s` cannot reach `t != s`
/// if `fwd(s) >= fwd(t)` or `bwd(s) <= bwd(t)`.
pub fn dag_levels(dag: &Dag) -> (Vec<u32>, Vec<u32>) {
    let n = dag.num_vertices();
    let mut fwd = vec![0u32; n];
    for &u in dag.topo_order() {
        let next = fwd[u.index()] + 1;
        for &v in dag.out_neighbors(u) {
            fwd[v.index()] = fwd[v.index()].max(next);
        }
    }
    let mut bwd = vec![0u32; n];
    for &u in dag.topo_order().iter().rev() {
        let next = bwd[u.index()] + 1;
        for &v in dag.in_neighbors(u) {
            bwd[v.index()] = bwd[v.index()].max(next);
        }
    }
    (fwd, bwd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn sorts_diamond() {
        let g = diamond();
        let order = topological_sort(&g).unwrap();
        assert!(is_topological_order(&g, &order));
    }

    #[test]
    fn detects_cycle() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(topological_sort(&g).is_none());
        assert!(topological_levels(&g).is_none());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g = DiGraph::from_edges(1, &[(0, 0)]);
        assert!(topological_sort(&g).is_none());
    }

    #[test]
    fn rejects_bad_orders() {
        let g = diamond();
        // wrong length
        assert!(!is_topological_order(&g, &[VertexId(0)]));
        // duplicate vertex
        assert!(!is_topological_order(
            &g,
            &[VertexId(0), VertexId(0), VertexId(1), VertexId(2)]
        ));
        // edge violation: 3 before 1
        assert!(!is_topological_order(
            &g,
            &[VertexId(0), VertexId(3), VertexId(1), VertexId(2)]
        ));
    }

    #[test]
    fn levels_are_longest_paths() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, plus shortcut 0 -> 3: level(3) must be 2.
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]);
        let level = topological_levels(&g).unwrap();
        assert_eq!(level, vec![0, 1, 1, 2]);
    }

    #[test]
    fn dag_levels_match_levels_of_graph_and_reverse() {
        let g = DiGraph::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (4, 3), (3, 5)]);
        let (fwd, bwd) = dag_levels(&Dag::new(g.clone()).unwrap());
        assert_eq!(Some(fwd), topological_levels(&g));
        assert_eq!(Some(bwd), topological_levels(&g.reverse()));
        // a condensation stores the reverse of its id order
        let c = crate::Condensation::new(&g);
        let (fwd, bwd) = dag_levels(c.dag());
        assert_eq!(Some(fwd), topological_levels(c.dag()));
        assert_eq!(Some(bwd), topological_levels(&c.dag().reverse()));
    }

    #[test]
    fn isolated_vertices_are_level_zero() {
        let g = DiGraph::from_edges(3, &[]);
        assert_eq!(topological_levels(&g).unwrap(), vec![0, 0, 0]);
    }
}
