//! Static routing — the NOAH ("NO Ad-Hoc routing") agent of the paper's
//! ns-2 setup. Routes are installed once from the flow paths and never
//! change, isolating the MAC-layer phenomena under study from routing
//! dynamics.

use ezflow_phy::Neighbors;

/// A static next-hop table.
///
/// Stored as per-node sorted `(final destination, next hop)` lists rather
/// than a `HashMap<(node, dst), next>`: lookups sit on the per-packet
/// forwarding path, nodes have at most a handful of destinations, and a
/// linear probe of a four-entry slice beats hashing a 16-byte key every
/// time. The node index itself is a direct array index.
#[derive(Debug, Default, Clone)]
pub struct StaticRouting {
    /// `by_node[node]` = sorted `(final destination, next hop)` pairs.
    by_node: Vec<Vec<(usize, usize)>>,
    /// Total installed entries across all nodes.
    entries: usize,
}

/// A hop [`StaticRouting::install_path`] refused: `node` already
/// routes toward `dst` via `installed`, and the path goes via `offered`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RouteConflict {
    pub(crate) node: usize,
    pub(crate) dst: usize,
    pub(crate) installed: usize,
    pub(crate) offered: usize,
}

impl StaticRouting {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs routes for every hop of `path` toward `path.last()`.
    ///
    /// Refuses the first hop whose node already routes that destination
    /// through another next hop — two flows to the same destination must
    /// share a suffix — and returns it; the hops before it stay installed.
    /// [`NetworkSpec::validate`](crate::builder::NetworkSpec::validate)
    /// reports a refusal as a spec error.
    pub(crate) fn install_path(&mut self, path: &[usize]) -> Result<(), RouteConflict> {
        assert!(path.len() >= 2, "a path needs at least two nodes");
        let dst = *path.last().expect("non-empty");
        for w in path.windows(2) {
            let (node, next) = (w[0], w[1]);
            if node >= self.by_node.len() {
                self.by_node.resize(node + 1, Vec::new());
            }
            let routes = &mut self.by_node[node];
            match routes.binary_search_by_key(&dst, |&(d, _)| d) {
                Ok(i) if routes[i].1 != next => {
                    return Err(RouteConflict {
                        node,
                        dst,
                        installed: routes[i].1,
                        offered: next,
                    })
                }
                Ok(_) => {}
                Err(i) => {
                    routes.insert(i, (dst, next));
                    self.entries += 1;
                }
            }
        }
        Ok(())
    }

    /// Next hop from `node` toward `final_dst`, if routed.
    pub fn next_hop(&self, node: usize, final_dst: usize) -> Option<usize> {
        let routes = self.by_node.get(node)?;
        routes
            .iter()
            .find(|&&(d, _)| d == final_dst)
            .map(|&(_, next)| next)
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True iff no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// Shortest-path trees toward the nearest gateway, computed over the
/// decode graph by multi-source BFS.
///
/// The scenario compiler (see [`crate::scenario`]) uses this to route
/// generated topologies: every node gets the gateway closest in hop
/// count, ties broken toward the lowest gateway id and then the lowest
/// parent id. Each node has exactly *one* parent, so every produced path
/// toward a gateway shares its suffix with every other path through the
/// same node — precisely the no-conflict invariant
/// `StaticRouting::install_path` checks.
#[derive(Debug, Clone)]
pub struct GatewayRoutes {
    /// `parent[v]` = next hop toward `v`'s gateway (`usize::MAX` at
    /// gateways and unreachable nodes).
    parent: Vec<usize>,
    /// Hop distance to the assigned gateway (`usize::MAX` if unreachable).
    dist: Vec<usize>,
}

impl GatewayRoutes {
    /// Runs the multi-source BFS. `adj` is the (symmetric) decode
    /// adjacency, `gateways` the drain set. Determinism: gateways are
    /// seeded in ascending id order and each adjacency row is ascending
    /// ([`Neighbors`]' invariant), so first-come-wins tie-breaking is a
    /// pure function of the graph.
    pub fn compute(adj: &Neighbors, gateways: &[usize]) -> Self {
        let n = adj.len();
        let mut parent = vec![usize::MAX; n];
        let mut dist = vec![usize::MAX; n];
        let mut sorted: Vec<usize> = gateways.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut frontier: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &g in &sorted {
            assert!(g < n, "gateway {g} out of bounds for {n} nodes");
            dist[g] = 0;
            frontier.push_back(g);
        }
        while let Some(v) = frontier.pop_front() {
            for &w in adj.row(v) {
                let w = w as usize;
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    parent[w] = v;
                    frontier.push_back(w);
                }
            }
        }
        GatewayRoutes { parent, dist }
    }

    /// The path from `src` to its assigned gateway (inclusive), or
    /// `None` if `src` cannot reach any gateway.
    pub fn path_from(&self, src: usize) -> Option<Vec<usize>> {
        if self.dist.get(src).copied().unwrap_or(usize::MAX) == usize::MAX {
            return None;
        }
        let mut path = vec![src];
        let mut v = src;
        while self.parent[v] != usize::MAX {
            v = self.parent[v];
            path.push(v);
        }
        Some(path)
    }

    /// Hop distance from `v` to its gateway (`None` if unreachable).
    pub fn dist(&self, v: usize) -> Option<usize> {
        match self.dist[v] {
            usize::MAX => None,
            d => Some(d),
        }
    }

    /// Nodes that cannot reach any gateway, ascending.
    pub fn unreachable(&self) -> Vec<usize> {
        (0..self.dist.len())
            .filter(|&v| self.dist[v] == usize::MAX)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn installs_chain() {
        let mut r = StaticRouting::new();
        r.install_path(&[0, 1, 2, 3]).unwrap();
        assert_eq!(r.next_hop(0, 3), Some(1));
        assert_eq!(r.next_hop(1, 3), Some(2));
        assert_eq!(r.next_hop(2, 3), Some(3));
        assert_eq!(r.next_hop(3, 3), None);
        assert_eq!(r.next_hop(0, 2), None, "routes are per final destination");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn merging_flows_share_suffix() {
        let mut r = StaticRouting::new();
        // Scenario 1: two branches merging at node 4 toward gateway 0.
        r.install_path(&[12, 10, 8, 6, 4, 3, 2, 1, 0]).unwrap();
        r.install_path(&[11, 9, 7, 5, 4, 3, 2, 1, 0]).unwrap();
        assert_eq!(r.next_hop(4, 0), Some(3));
        assert_eq!(r.next_hop(12, 0), Some(10));
    }

    #[test]
    fn conflicting_routes_are_refused() {
        let mut r = StaticRouting::new();
        r.install_path(&[0, 1, 3]).unwrap();
        let conflict = RouteConflict {
            node: 0,
            dst: 3,
            installed: 1,
            offered: 2,
        };
        assert_eq!(r.install_path(&[0, 2, 3]), Err(conflict));
        assert_eq!(r.next_hop(0, 3), Some(1), "the installed route stands");
    }

    #[test]
    fn successors_dedup_across_destinations() {
        let mut r = StaticRouting::new();
        r.install_path(&[0, 1, 2]).unwrap();
        r.install_path(&[0, 1, 3]).unwrap();
        assert_eq!(r.next_hop(0, 2), Some(1));
        assert_eq!(r.next_hop(0, 3), Some(1));
    }

    #[test]
    fn reinstalling_the_same_path_does_not_double_count() {
        let mut r = StaticRouting::new();
        r.install_path(&[0, 1, 2]).unwrap();
        r.install_path(&[0, 1, 2]).unwrap();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    /// Chain 0-1-2-3-4 plus a spur 5 hanging off node 2, node 6 isolated.
    fn spur_adj() -> Neighbors {
        Neighbors::from_rows(&[
            vec![1],
            vec![0, 2],
            vec![1, 3, 5],
            vec![2, 4],
            vec![3],
            vec![2],
            vec![],
        ])
    }

    #[test]
    fn gateway_routes_pick_nearest_gateway() {
        let g = GatewayRoutes::compute(&spur_adj(), &[0, 4]);
        assert_eq!(g.path_from(1), Some(vec![1, 0]));
        assert_eq!(g.path_from(3), Some(vec![3, 4]));
        assert_eq!(g.dist(0), Some(0));
        assert_eq!(
            g.path_from(0),
            Some(vec![0]),
            "gateways route to themselves"
        );
        assert_eq!(g.unreachable(), vec![6]);
        assert_eq!(g.path_from(6), None);
    }

    #[test]
    fn gateway_ties_break_to_lowest_gateway_id() {
        // Node 2 is 2 hops from both gateways; the BFS seeds gateways
        // ascending, so gateway 0's wavefront claims it first.
        let g = GatewayRoutes::compute(&spur_adj(), &[0, 4]);
        assert_eq!(g.path_from(2), Some(vec![2, 1, 0]));
        assert_eq!(g.path_from(5), Some(vec![5, 2, 1, 0]));
    }

    #[test]
    fn gateway_trees_install_without_conflicts() {
        // Unique parents ⇒ all root-ward paths share suffixes, so
        // every path installs into one StaticRouting without a conflict.
        let g = GatewayRoutes::compute(&spur_adj(), &[0, 4]);
        let mut r = StaticRouting::new();
        for v in 0..6 {
            let path = g.path_from(v).unwrap();
            if path.len() >= 2 {
                r.install_path(&path).unwrap();
            }
        }
        assert_eq!(r.next_hop(5, 0), Some(2));
    }

    #[test]
    fn gateway_routes_are_deterministic() {
        let a = GatewayRoutes::compute(&spur_adj(), &[4, 0]);
        let b = GatewayRoutes::compute(&spur_adj(), &[0, 4]);
        for v in 0..7 {
            assert_eq!(
                a.path_from(v),
                b.path_from(v),
                "gateway order is irrelevant"
            );
        }
    }
}
