//! Instrumented h-hop neighborhood scanning.
//!
//! This is the single hot loop shared by every algorithm in the
//! suite. The scanner reuses its buffers and
//! [`lona_graph::traversal::EpochSet`] across calls, and counts *edge
//! accesses* — the cost unit of the paper's analysis ("the number of
//! edges to be accessed could be around `m^h · |V|`").
//!
//! ## Canonical accumulation order
//!
//! Each BFS ply is split into two passes: **discovery** (walk the
//! frontier's adjacency rows, dedup against the epoch set) and
//! **accumulation** (a tight gather loop over the newly-visited ids,
//! *sorted ascending*). The sort makes the f64 summation order a
//! function of the visited *set* per depth — ascending id within each
//! depth — instead of an accident of adjacency layout. That is what
//! keeps serial results reproducible: the scan accumulates
//! depth-major, ascending-id within depth. It also turns the hot loop
//! into a `&[u32]` gather over `&[f64]`, which the compiler can
//! vectorize without caring how the ids were produced.

use lona_graph::traversal::EpochSet;
use lona_graph::{CsrView, NodeId};

/// Outcome of one neighborhood scan.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ScanResult {
    /// `|S_h(u)|` — distinct proper neighbors found.
    pub count: usize,
    /// Accumulated score mass over `S_h(u)` (distance-weighted for the
    /// weighted scan).
    pub mass: f64,
    /// Plain (unweighted) score mass over `S_h(u)`. Equal to `mass`
    /// for [`NeighborhoodScanner::sum_scan`]; the weighted scan tracks
    /// it separately because Eq. 1 bounds operate on plain sums.
    pub raw_mass: f64,
    /// Adjacency entries touched during the expansion.
    pub edges: u64,
}

/// Reusable, allocation-free h-hop scanner.
#[derive(Clone, Debug)]
pub struct NeighborhoodScanner {
    visited: EpochSet,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl NeighborhoodScanner {
    /// Create a scanner for graphs of up to `n` nodes.
    pub fn new(n: usize) -> Self {
        NeighborhoodScanner {
            visited: EpochSet::new(n),
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Reset the epoch set and seed the frontier with `u`.
    #[inline]
    fn seed(&mut self, u: NodeId) {
        self.visited.clear();
        self.visited.insert(u.0);
        self.frontier.clear();
        self.frontier.push(u.0);
    }

    /// One BFS ply: expand the frontier's adjacency rows into the set
    /// of newly-visited nodes, sorted ascending, and make that set
    /// the new frontier. Returns the adjacency entries touched.
    ///
    /// The ascending sort is the canonical-accumulation contract (see
    /// the module docs): callers gather scores over the returned
    /// frontier in a separate tight loop, so the f64 summation order
    /// per depth depends only on the visited set, not on adjacency
    /// layout.
    #[inline]
    fn discover(&mut self, g: CsrView<'_>) -> u64 {
        let mut edges = 0u64;
        self.next.clear();
        for &x in &self.frontier {
            let nbrs = g.neighbors(NodeId(x));
            edges += nbrs.len() as u64;
            for &v in nbrs {
                if self.visited.insert(v.0) {
                    self.next.push(v.0);
                }
            }
        }
        self.next.sort_unstable();
        std::mem::swap(&mut self.frontier, &mut self.next);
        edges
    }

    /// Sum `scores` over `S_h(u)`.
    pub fn sum_scan(&mut self, g: CsrView<'_>, u: NodeId, h: u32, scores: &[f64]) -> ScanResult {
        let mut res = ScanResult::default();
        self.seed(u);
        for _ in 0..h {
            if self.frontier.is_empty() {
                break;
            }
            res.edges += self.discover(g);
            res.count += self.frontier.len();
            // Tight gather over this depth's sorted ids.
            let mut mass = 0.0;
            for &v in &self.frontier {
                mass += scores[v as usize];
            }
            res.mass += mass;
        }
        res.raw_mass = res.mass;
        res
    }

    /// Sum `scores[v] / dist(u, v)` over `S_h(u)` (footnote 1's
    /// inverse-distance connection strength).
    pub fn distance_weighted_scan(
        &mut self,
        g: CsrView<'_>,
        u: NodeId,
        h: u32,
        scores: &[f64],
    ) -> ScanResult {
        let mut res = ScanResult::default();
        self.seed(u);
        for depth in 1..=h {
            if self.frontier.is_empty() {
                break;
            }
            let inv = 1.0 / depth as f64;
            res.edges += self.discover(g);
            res.count += self.frontier.len();
            let mut raw = 0.0;
            for &v in &self.frontier {
                raw += scores[v as usize];
            }
            res.mass += raw * inv;
            res.raw_mass += raw;
        }
        res
    }

    /// Max of `scores` over `S_h(u)` (reported in `mass`; `raw_mass`
    /// carries the plain sum so SUM-based bounds stay available).
    pub fn max_scan(&mut self, g: CsrView<'_>, u: NodeId, h: u32, scores: &[f64]) -> ScanResult {
        let mut res = ScanResult::default();
        self.seed(u);
        for _ in 0..h {
            if self.frontier.is_empty() {
                break;
            }
            res.edges += self.discover(g);
            res.count += self.frontier.len();
            let mut raw = 0.0;
            for &v in &self.frontier {
                let f = scores[v as usize];
                res.mass = res.mass.max(f);
                raw += f;
            }
            res.raw_mass += raw;
        }
        res
    }

    /// Depth-aware visit of `S_h(u)`: `f(v, dist)` with `dist` the
    /// 1-based hop distance. Returns `(|S_h(u)|, edges touched)`;
    /// used by the distance-weighted backward distribution.
    pub fn for_each_depth(
        &mut self,
        g: CsrView<'_>,
        u: NodeId,
        h: u32,
        mut f: impl FnMut(u32, u32),
    ) -> (usize, u64) {
        let mut count = 0usize;
        let mut edges = 0u64;
        self.seed(u);
        for depth in 1..=h {
            if self.frontier.is_empty() {
                break;
            }
            edges += self.discover(g);
            count += self.frontier.len();
            // Callbacks fire in the canonical order too (ascending id
            // within each depth), so distributions accumulate in a
            // fixed order too.
            for &v in &self.frontier {
                f(v, depth);
            }
        }
        (count, edges)
    }

    /// Visit each member of `S_h(u)` (backward distribution). Returns
    /// `(|S_h(u)|, edges touched)`.
    pub fn for_each(
        &mut self,
        g: CsrView<'_>,
        u: NodeId,
        h: u32,
        mut f: impl FnMut(u32),
    ) -> (usize, u64) {
        let mut count = 0usize;
        let mut edges = 0u64;
        self.seed(u);
        for _ in 0..h {
            if self.frontier.is_empty() {
                break;
            }
            edges += self.discover(g);
            count += self.frontier.len();
            for &v in &self.frontier {
                f(v);
            }
        }
        (count, edges)
    }

    /// `|S_h(u)|` plus the edge count of the expansion.
    pub fn size_scan(&mut self, g: CsrView<'_>, u: NodeId, h: u32) -> (usize, u64) {
        self.for_each(g, u, h, |_| {})
    }

    /// Mark `S_h(u)` in this scanner's visited set and return
    /// `|S_h(u)|`. The marks stay valid until the next scan and can be
    /// probed with [`NeighborhoodScanner::marked`]; the differential
    /// index builder uses this for its intersection counting.
    pub fn mark(&mut self, g: CsrView<'_>, u: NodeId, h: u32) -> usize {
        let (count, _) = self.for_each(g, u, h, |_| {});
        // `for_each` marked u too; unmark so probes see S(u) exactly.
        self.visited.remove(u.0);
        count
    }

    /// Whether `v` was marked by the last [`NeighborhoodScanner::mark`].
    #[inline]
    pub fn marked(&self, v: NodeId) -> bool {
        self.visited.contains(v.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lona_graph::{CsrGraph, GraphBuilder};

    fn sample() -> CsrGraph {
        // 0-1-2-3 path + 1-4
        GraphBuilder::undirected()
            .extend_edges([(0, 1), (1, 2), (2, 3), (1, 4)])
            .build()
            .unwrap()
    }

    #[test]
    fn sum_scan_counts_and_mass() {
        let g = sample();
        let scores = vec![0.1, 0.2, 0.3, 0.4, 0.5];
        let mut s = NeighborhoodScanner::new(g.num_nodes());
        let r = s.sum_scan(g.view(), NodeId(0), 2, &scores);
        // S_2(0) = {1, 2, 4}
        assert_eq!(r.count, 3);
        assert!((r.mass - (0.2 + 0.3 + 0.5)).abs() < 1e-12);
        // edges: deg(0)=1 at level 1; deg(1)=3 at level 2
        assert_eq!(r.edges, 4);
    }

    #[test]
    fn distance_weighted_scan_divides_by_depth() {
        let g = sample();
        let scores = vec![1.0; 5];
        let mut s = NeighborhoodScanner::new(g.num_nodes());
        let r = s.distance_weighted_scan(g.view(), NodeId(0), 2, &scores);
        // node 1 at depth 1 (1.0), nodes 2 and 4 at depth 2 (0.5 each)
        assert!((r.mass - 2.0).abs() < 1e-12);
    }

    #[test]
    fn for_each_visits_neighborhood() {
        let g = sample();
        let mut s = NeighborhoodScanner::new(g.num_nodes());
        let mut seen = vec![];
        let (count, _) = s.for_each(g.view(), NodeId(3), 2, |v| seen.push(v));
        seen.sort_unstable();
        assert_eq!(count, 2);
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn mark_and_probe() {
        let g = sample();
        let mut s = NeighborhoodScanner::new(g.num_nodes());
        let n = s.mark(g.view(), NodeId(0), 2);
        assert_eq!(n, 3);
        assert!(s.marked(NodeId(1)));
        assert!(s.marked(NodeId(2)));
        assert!(s.marked(NodeId(4)));
        assert!(!s.marked(NodeId(0)), "source must not be marked");
        assert!(!s.marked(NodeId(3)));
    }

    #[test]
    fn scan_resets_between_calls() {
        let g = sample();
        let scores = vec![1.0; 5];
        let mut s = NeighborhoodScanner::new(g.num_nodes());
        let a = s.sum_scan(g.view(), NodeId(0), 2, &scores);
        let _ = s.sum_scan(g.view(), NodeId(3), 1, &scores);
        let a2 = s.sum_scan(g.view(), NodeId(0), 2, &scores);
        assert_eq!(a, a2);
    }

    #[test]
    fn zero_hop_scan_is_empty() {
        let g = sample();
        let mut s = NeighborhoodScanner::new(g.num_nodes());
        let r = s.sum_scan(g.view(), NodeId(1), 0, &[0.0; 5]);
        assert_eq!(r, ScanResult::default());
    }
}
