//! Dinic's maximum-flow algorithm over integer capacities.
//!
//! MAP inference for the supermodular MLN model reduces to a
//! maximum-weight closure problem (see [`crate::infer`]), which is solved
//! by a single min-cut. Dinic's algorithm (BFS level graph + blocking
//! flows) runs in `O(V²E)` generally and much faster on the shallow,
//! sparse networks the closure reduction produces.
//!
//! Capacities are `i64` (fixed-point milli-weights), with
//! [`MaxFlow::INF`] for the closure's precedence edges.

/// A directed flow edge (paired with its reverse).
#[derive(Debug, Clone)]
struct Edge {
    to: u32,
    /// Remaining capacity.
    cap: i64,
    /// Index of the reverse edge in the global edge list.
    rev: u32,
}

/// Max-flow network and solver.
#[derive(Debug, Clone)]
pub struct MaxFlow {
    /// adjacency: node → indices into `edges`
    graph: Vec<Vec<u32>>,
    edges: Vec<Edge>,
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl MaxFlow {
    /// Effectively infinite capacity (room to sum without overflow).
    pub const INF: i64 = i64::MAX / 4;

    /// Network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Self {
            graph: vec![Vec::new(); n],
            edges: Vec::new(),
            level: vec![0; n],
            iter: vec![0; n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Add a directed edge `from → to` with capacity `cap ≥ 0`; returns
    /// the forward edge's id (usable with [`MaxFlow::set_cap`]).
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64) -> u32 {
        debug_assert!(cap >= 0, "negative capacity");
        let e1 = self.edges.len() as u32;
        let e2 = e1 + 1;
        self.edges.push(Edge {
            to: to as u32,
            cap,
            rev: e2,
        });
        self.edges.push(Edge {
            to: from as u32,
            cap: 0,
            rev: e1,
        });
        self.graph[from].push(e1);
        self.graph[to].push(e2);
        e1
    }

    /// Overwrite one edge's remaining capacity (used to arm/disarm
    /// pre-allocated probe edges without changing the graph shape).
    pub fn set_cap(&mut self, edge: u32, cap: i64) {
        self.edges[edge as usize].cap = cap;
    }

    /// Snapshot every edge's remaining capacity.
    pub fn snapshot_caps(&self) -> Vec<i64> {
        self.edges.iter().map(|e| e.cap).collect()
    }

    /// Restore a capacity snapshot (rolls back any flow pushed since).
    pub fn restore_caps(&mut self, caps: &[i64]) {
        debug_assert_eq!(caps.len(), self.edges.len());
        for (e, &c) in self.edges.iter_mut().zip(caps) {
            e.cap = c;
        }
    }

    fn bfs(&mut self, source: usize, sink: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut queue = std::collections::VecDeque::new();
        self.level[source] = 0;
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            for &ei in &self.graph[u] {
                let e = &self.edges[ei as usize];
                if e.cap > 0 && self.level[e.to as usize] < 0 {
                    self.level[e.to as usize] = self.level[u] + 1;
                    queue.push_back(e.to as usize);
                }
            }
        }
        self.level[sink] >= 0
    }

    fn dfs(&mut self, u: usize, sink: usize, pushed: i64) -> i64 {
        if u == sink {
            return pushed;
        }
        while self.iter[u] < self.graph[u].len() {
            let ei = self.graph[u][self.iter[u]] as usize;
            let (to, cap) = (self.edges[ei].to as usize, self.edges[ei].cap);
            if cap > 0 && self.level[to] == self.level[u] + 1 {
                let d = self.dfs(to, sink, pushed.min(cap));
                if d > 0 {
                    self.edges[ei].cap -= d;
                    let rev = self.edges[ei].rev as usize;
                    self.edges[rev].cap += d;
                    return d;
                }
            }
            self.iter[u] += 1;
        }
        0
    }

    /// Compute the maximum flow from `source` to `sink`.
    pub fn max_flow(&mut self, source: usize, sink: usize) -> i64 {
        let mut flow = 0i64;
        while self.bfs(source, sink) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(source, sink, Self::INF);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }

    /// After `max_flow`, the *maximal* source side of a minimum cut: the
    /// complement of the nodes that can reach `sink` in the residual
    /// graph. This realizes the "largest most-likely set" tie-break of
    /// Definition 5 when used for closure problems.
    pub fn max_source_side(&self, sink: usize) -> Vec<bool> {
        // `w` reaches the sink iff some residual edge `w → u` (the paired
        // reverse of an edge `u → w` in `graph[u]`) leads to a node `u`
        // that already does.
        let mut reaches = vec![false; self.graph.len()];
        let mut stack = vec![sink];
        reaches[sink] = true;
        while let Some(u) = stack.pop() {
            for &ei in &self.graph[u] {
                let Edge { to: w, rev, .. } = self.edges[ei as usize];
                if self.edges[rev as usize].cap > 0 && !reaches[w as usize] {
                    reaches[w as usize] = true;
                    stack.push(w as usize);
                }
            }
        }
        reaches.iter_mut().for_each(|r| *r = !*r);
        reaches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_two_path_network() {
        // s → a → t (cap 3), s → b → t (cap 2).
        let mut net = MaxFlow::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        net.add_edge(s, a, 3);
        net.add_edge(a, t, 3);
        net.add_edge(s, b, 2);
        net.add_edge(b, t, 2);
        assert_eq!(net.max_flow(s, t), 5);
    }

    #[test]
    fn bottleneck_limits_flow() {
        // s → a (10), a → b (1), b → t (10).
        let mut net = MaxFlow::new(4);
        net.add_edge(0, 1, 10);
        net.add_edge(1, 2, 1);
        net.add_edge(2, 3, 10);
        assert_eq!(net.max_flow(0, 3), 1);
    }

    #[test]
    fn classic_crlf_network() {
        // A standard 6-node example with answer 23.
        let mut net = MaxFlow::new(6);
        let edges = [
            (0, 1, 16),
            (0, 2, 13),
            (1, 2, 10),
            (2, 1, 4),
            (1, 3, 12),
            (3, 2, 9),
            (2, 4, 14),
            (4, 3, 7),
            (3, 5, 20),
            (4, 5, 4),
        ];
        for (u, v, c) in edges {
            net.add_edge(u, v, c);
        }
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn disconnected_sink_has_zero_flow() {
        let mut net = MaxFlow::new(3);
        net.add_edge(0, 1, 5);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn min_and_max_cut_sides_bracket_ties() {
        // s → a (1), a → t (1), plus isolated node b connected to t with 0
        // demand: b can go on either side; the maximal side includes it.
        let mut net = MaxFlow::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        net.add_edge(s, a, 1);
        net.add_edge(a, t, 1);
        net.add_edge(b, t, 0); // zero-capacity edge: no residual to t
        let _ = net.max_flow(s, t);
        let max_side = net.max_source_side(t);
        assert!(max_side[b]);
        // A valid cut: s on the source side, t on the sink side.
        assert!(max_side[s] && !max_side[t]);
    }

    #[test]
    fn large_capacities_do_not_overflow() {
        let mut net = MaxFlow::new(3);
        net.add_edge(0, 1, MaxFlow::INF);
        net.add_edge(1, 2, MaxFlow::INF);
        assert_eq!(net.max_flow(0, 2), MaxFlow::INF);
    }
}
