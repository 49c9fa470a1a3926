//! Delta overlay over an immutable CSR base.
//!
//! Every ROADMAP scenario assumes the graph mutates, yet [`CsrGraph`]
//! and the compiled container are write-once. [`OverlayGraph`] closes
//! that gap: it wraps an immutable base — the in-RAM [`CsrGraph`], a
//! memory-mapped [`crate::CsrGraphMmap`], or anything else
//! implementing [`GraphStore`] — plus a score-override map, applies
//! each [`GraphDelta`] to an owned CSR, and re-exposes the current
//! graph through the same [`GraphStore`] trait. The query algorithms,
//! the planner and the sharded engine all read through
//! [`CsrView`](crate::CsrView) slices, so they run on an overlay
//! unchanged and at full speed: queries never pay a per-edge lookup.
//!
//! An apply **splices** the current CSR instead of rebuilding it. Only
//! the endpoints of changed edges have changed rows, so the new arrays
//! are the old ones with each run of untouched rows copied whole (one
//! `extend_from_slice`, offsets shifted by the net growth so far) and
//! each touched row merged with its few edits, weights alongside. The
//! graph's edges are never re-sorted and no builder runs: besides that
//! copy, the work is the delta's own. The previous CSR is moved out as [`AppliedDelta::old`]
//! for index repair to walk the *old* h-hop neighborhoods; only the
//! first apply over a borrowed or mapped base copies it. The expensive
//! part of an update is index maintenance, which `lona-core`'s delta
//! repair limits to the ≤h-hop dirty region around mutated endpoints.
//!
//! ## Semantics
//!
//! * The node set is **fixed** at the base's `num_nodes`; deltas may
//!   only rewire edges among existing nodes. Out-of-range endpoints
//!   are rejected with [`GraphError::NodeOutOfRange`].
//! * Within one [`GraphDelta`], deletes apply before inserts, so a
//!   delete+insert pair re-weights an edge.
//! * Inserting an edge that is already live is a no-op (the existing
//!   weight wins, matching [`GraphBuilder`](crate::GraphBuilder)'s first-weight-wins rule,
//!   which also picks between two inserts of one edge in a delta);
//!   deleting an absent edge is a no-op.
//! * The graph stays unweighted until an applied insert carries a
//!   weight other than `1.0`; from then on it stores weights (`1.0`
//!   for every earlier edge), so it is byte-identical to a
//!   [`GraphBuilder`](crate::GraphBuilder) graph of the same edges built weighted exactly
//!   then.
//! * Self-loop mutations are rejected with [`GraphError::SelfLoop`]
//!   (the paper's networks are simple graphs); self-loops already in
//!   the base are kept.
//! * [`OverlayGraph::apply`] is atomic: a rejected delta leaves the
//!   overlay untouched.
//! * Score overrides follow `ScoreVec` semantics: NaN becomes 0 and
//!   values clamp into `[0, 1]`.

use std::collections::{BTreeMap, BTreeSet};

use crate::csr::{CsrGraph, CsrView};
use crate::error::GraphError;
use crate::node::NodeId;
use crate::store::GraphStore;
use crate::Result;

/// A batch of graph mutations: edge inserts, edge deletes and
/// relevance-score overrides, applied atomically by
/// [`OverlayGraph::apply`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphDelta {
    /// Edges to insert, with weights (`1.0` for unweighted edges).
    pub inserts: Vec<(u32, u32, f32)>,
    /// Edges to delete.
    pub deletes: Vec<(u32, u32)>,
    /// Per-node relevance-score overrides.
    pub score_overrides: Vec<(u32, f64)>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the delta contains no operations.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty() && self.score_overrides.is_empty()
    }

    /// Total number of operations.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len() + self.score_overrides.len()
    }

    /// Stage an unweighted edge insert.
    pub fn insert(mut self, u: u32, v: u32) -> Self {
        self.inserts.push((u, v, 1.0));
        self
    }

    /// Stage a weighted edge insert.
    pub fn insert_weighted(mut self, u: u32, v: u32, w: f32) -> Self {
        self.inserts.push((u, v, w));
        self
    }

    /// Stage an edge delete.
    pub fn delete(mut self, u: u32, v: u32) -> Self {
        self.deletes.push((u, v));
        self
    }

    /// Stage a relevance-score override.
    pub fn override_score(mut self, u: u32, score: f64) -> Self {
        self.score_overrides.push((u, score));
        self
    }

    /// Parse the text delta format:
    ///
    /// ```text
    /// # comments and blank lines are skipped
    /// add 3 17        # insert edge (weight 1.0)
    /// add 3 18 0.5    # insert weighted edge
    /// del 0 9         # delete edge
    /// score 17 0.85   # override node 17's relevance score
    /// ```
    ///
    /// Endpoint range is checked later, at apply time, against the
    /// target graph; this parser rejects malformed lines, non-finite
    /// weights and out-of-`[0, 1]` scores with 1-based line numbers.
    pub fn parse_str(text: &str) -> Result<Self> {
        let mut delta = GraphDelta::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let t = raw.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let mut tok = t.split_whitespace();
            let op = tok.next().expect("non-empty line has a first token");
            let bad = |msg: String| GraphError::Parse { line, msg };
            let node = |what: &str, tok: &mut dyn Iterator<Item = &str>| -> Result<u32> {
                let s = tok
                    .next()
                    .ok_or_else(|| bad_parse(line, format!("missing {what}")))?;
                s.parse::<u32>()
                    .map_err(|_| bad_parse(line, format!("bad {what} {s:?}")))
            };
            match op {
                "add" => {
                    let u = node("source id", &mut tok)?;
                    let v = node("target id", &mut tok)?;
                    let w = match tok.next() {
                        None => 1.0f32,
                        Some(s) => {
                            let w = s
                                .parse::<f32>()
                                .map_err(|_| bad(format!("bad weight {s:?}")))?;
                            if !w.is_finite() {
                                return Err(bad(format!("weight {s:?} is not finite")));
                            }
                            w
                        }
                    };
                    delta.inserts.push((u, v, w));
                }
                "del" => {
                    let u = node("source id", &mut tok)?;
                    let v = node("target id", &mut tok)?;
                    delta.deletes.push((u, v));
                }
                "score" => {
                    let u = node("node id", &mut tok)?;
                    let s = tok.next().ok_or_else(|| bad("missing score".into()))?;
                    let x = s
                        .parse::<f64>()
                        .map_err(|_| bad(format!("bad score {s:?}")))?;
                    if !(0.0..=1.0).contains(&x) {
                        return Err(bad(format!("score {x} outside [0, 1]")));
                    }
                    delta.score_overrides.push((u, x));
                }
                other => {
                    return Err(bad(format!(
                        "unknown delta op {other:?} (expected add/del/score)"
                    )));
                }
            }
            if let Some(extra) = tok.next() {
                return Err(GraphError::Parse {
                    line,
                    msg: format!("trailing token {extra:?}"),
                });
            }
        }
        Ok(delta)
    }
}

fn bad_parse(line: usize, msg: String) -> GraphError {
    GraphError::Parse { line, msg }
}

/// What [`OverlayGraph::apply`] actually changed.
///
/// `old` carries the pre-delta graph whenever edges changed — exactly
/// what index delta-repair needs to walk the *old* h-hop
/// neighborhoods of the touched endpoints. It is the overlay's
/// previous CSR, moved out rather than copied (only the first apply
/// over a borrowed or mapped base copies the base). Score-only deltas
/// leave it `None` (indexes are score-independent, nothing to
/// repair).
#[derive(Debug)]
pub struct AppliedDelta {
    /// The graph as it was before this delta, if any edge changed.
    pub old: Option<CsrGraph>,
    /// Endpoints of edges that actually changed, sorted and unique.
    pub touched: Vec<NodeId>,
    /// Edges inserted (no-op inserts excluded).
    pub inserted: u64,
    /// Edges deleted (no-op deletes excluded).
    pub deleted: u64,
    /// Score overrides recorded.
    pub scores_overridden: u64,
}

/// A mutable delta overlay over an immutable base graph.
///
/// The semantics are spelled out in the module docs above. The
/// overlay serves the base itself until the first delta that changes
/// an edge, and from then on an owned CSR that each apply splices;
/// [`GraphStore::csr`] always returns the current graph, so query
/// code is oblivious to the layering.
pub struct OverlayGraph<B> {
    base: B,
    /// The current graph once an apply changed an edge.
    current: Option<CsrGraph>,
    /// Per-node relevance-score overrides (clamped into `[0, 1]`).
    score_overrides: BTreeMap<u32, f64>,
}

impl<B: GraphStore> OverlayGraph<B> {
    /// Wrap a base graph. Until the first effective mutation the
    /// overlay is a zero-cost passthrough: [`GraphStore::csr`] returns
    /// the base's own view, no copy.
    pub fn new(base: B) -> Self {
        OverlayGraph {
            base,
            current: None,
            score_overrides: BTreeMap::new(),
        }
    }

    /// Number of nodes (fixed for the overlay's lifetime).
    pub fn num_nodes(&self) -> usize {
        self.csr().num_nodes()
    }

    /// Iterate the current score overrides.
    pub fn score_overrides(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.score_overrides.iter().map(|(&u, &s)| (u, s))
    }

    /// Apply a delta atomically: validate every operation first, then
    /// splice the effective edge changes into a new CSR, and report
    /// what changed (with the pre-delta graph for index repair).
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<AppliedDelta> {
        let g = self.csr();
        let n = g.num_nodes() as u32;
        let check = |u: u32, v: u32| -> Result<()> {
            for e in [u, v] {
                if e >= n {
                    return Err(GraphError::NodeOutOfRange {
                        node: e,
                        num_nodes: n,
                    });
                }
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            Ok(())
        };
        for &(u, v, _) in &delta.inserts {
            check(u, v)?;
        }
        for &(u, v) in &delta.deletes {
            check(u, v)?;
        }
        for &(u, _) in &delta.score_overrides {
            if u >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: u,
                    num_nodes: n,
                });
            }
        }

        // The effective operations against the current graph (see
        // module docs): deletes of live edges, then inserts of edges
        // not live after them, the first weight winning.
        let directed = g.is_directed();
        let canon = |u: u32, v: u32| if !directed && u > v { (v, u) } else { (u, v) };
        let live = |e: (u32, u32)| g.has_edge(NodeId(e.0), NodeId(e.1));
        let mut deleted = BTreeSet::new();
        for &(u, v) in &delta.deletes {
            let e = canon(u, v);
            if live(e) {
                deleted.insert(e);
            }
        }
        let mut inserted = BTreeMap::new();
        for &(u, v, w) in &delta.inserts {
            let e = canon(u, v);
            if !live(e) || deleted.contains(&e) {
                inserted.entry(e).or_insert(w);
            }
        }

        let old = if deleted.is_empty() && inserted.is_empty() {
            None
        } else {
            let next = splice(g, &deleted, &inserted)?;
            Some(match self.current.replace(next) {
                Some(old) => old,
                None => copy_view(self.base.csr()),
            })
        };
        let mut touched: Vec<NodeId> = deleted
            .iter()
            .chain(inserted.keys())
            .flat_map(|&(u, v)| [NodeId(u), NodeId(v)])
            .collect();
        touched.sort_unstable();
        touched.dedup();

        let mut scores_overridden = 0u64;
        for &(u, s) in &delta.score_overrides {
            // ScoreVec semantics: NaN means "not relevant".
            let s = if s.is_nan() { 0.0 } else { s.clamp(0.0, 1.0) };
            self.score_overrides.insert(u, s);
            scores_overridden += 1;
        }

        Ok(AppliedDelta {
            old,
            touched,
            inserted: inserted.len() as u64,
            deleted: deleted.len() as u64,
            scores_overridden,
        })
    }

    /// A no-op kept for source compatibility: every apply already
    /// leaves one plain CSR behind, so there is nothing to fold.
    pub fn compact(&mut self) {}

    /// Consume the overlay, returning the current graph as an owned
    /// CSR (for re-compilation or writing out).
    pub fn into_graph(self) -> CsrGraph {
        match self.current {
            Some(g) => g,
            None => copy_view(self.base.csr()),
        }
    }
}

impl<B: GraphStore> GraphStore for OverlayGraph<B> {
    fn csr(&self) -> CsrView<'_> {
        match &self.current {
            Some(g) => g.view(),
            None => self.base.csr(),
        }
    }
}

/// Splice effective edge changes into a copy of `g`: each run of
/// untouched rows is copied whole with its offsets shifted, and each
/// touched row is merged with its sorted edits. `deleted` holds live
/// edges to remove and `inserted` edges to add with their weights; an
/// edge in both keeps its slot and takes the new weight. Edges are
/// canonical (`(min, max)` when undirected) and never self-loops.
fn splice(
    g: CsrView<'_>,
    deleted: &BTreeSet<(u32, u32)>,
    inserted: &BTreeMap<(u32, u32), f32>,
) -> Result<CsrGraph> {
    let directed = g.is_directed();
    let per_edge = if directed { 1 } else { 2 };
    let entries = g.num_adjacency_entries() + per_edge * inserted.len() - per_edge * deleted.len();
    if entries > u32::MAX as usize {
        return Err(GraphError::TooManyEdges(entries));
    }
    let weighted = g.has_weights() || inserted.values().any(|&w| w != 1.0);

    // One edit per changed adjacency entry, sorted by (row, target):
    // `None` removes the entry, `Some(w)` adds it or sets its weight.
    let mut edits: Vec<(u32, NodeId, Option<f32>)> = Vec::new();
    let mut edit = |(u, v): (u32, u32), w: Option<f32>| {
        edits.push((u, NodeId(v), w));
        if !directed {
            edits.push((v, NodeId(u), w));
        }
    };
    for &e in deleted.iter().filter(|e| !inserted.contains_key(e)) {
        edit(e, None);
    }
    for (&e, &w) in inserted {
        edit(e, Some(w));
    }
    edits.sort_unstable_by_key(|&(u, v, _)| (u, v));

    let (offsets, targets) = (g.offsets(), g.targets());
    let n = g.num_nodes();
    let mut new_offsets = Vec::with_capacity(n + 1);
    new_offsets.push(0u32);
    let mut new_targets = Vec::with_capacity(entries);
    let mut new_weights = weighted.then(|| Vec::with_capacity(entries));
    let mut pending = edits.as_slice();
    let mut row = 0;
    while row < n {
        // Copy the untouched rows up to the next edited one whole.
        let next = pending.first().map_or(n, |e| e.0 as usize);
        if next > row {
            let (lo, hi) = (offsets[row] as usize, offsets[next] as usize);
            // Wrapping arithmetic: the shift may be negative, and every
            // shifted offset fits in u32 (checked above).
            let shift = (new_targets.len() as u32).wrapping_sub(lo as u32);
            new_offsets.extend(
                offsets[row + 1..=next]
                    .iter()
                    .map(|&o| o.wrapping_add(shift)),
            );
            copy_entries(g, lo..hi, &mut new_targets, &mut new_weights);
            row = next;
            continue;
        }
        // Merge the edited row: old entries up to each edit's target,
        // then the edit itself.
        let count = pending.iter().take_while(|e| e.0 as usize == row).count();
        let (mine, rest) = pending.split_at(count);
        pending = rest;
        let (mut at, hi) = (offsets[row] as usize, offsets[row + 1] as usize);
        for &(_, t, w) in mine {
            let pos = at + targets[at..hi].partition_point(|&x| x < t);
            copy_entries(g, at..pos, &mut new_targets, &mut new_weights);
            at = pos;
            if at < hi && targets[at] == t {
                at += 1;
            } else {
                debug_assert!(w.is_some(), "deleting an absent entry");
            }
            if let Some(w) = w {
                new_targets.push(t);
                if let Some(ws) = &mut new_weights {
                    ws.push(w);
                }
            }
        }
        copy_entries(g, at..hi, &mut new_targets, &mut new_weights);
        new_offsets.push(new_targets.len() as u32);
        row += 1;
    }
    debug_assert_eq!(new_targets.len(), entries);
    Ok(CsrGraph::from_parts(
        new_offsets,
        new_targets,
        new_weights,
        g.num_edges() + inserted.len() - deleted.len(),
        directed,
    ))
}

/// Append `g`'s adjacency entries `range`, with their weights when
/// `weights` is kept (`1.0` where `g` stores none).
fn copy_entries(
    g: CsrView<'_>,
    range: std::ops::Range<usize>,
    targets: &mut Vec<NodeId>,
    weights: &mut Option<Vec<f32>>,
) {
    if let Some(w) = weights {
        match g.weights() {
            Some(old) => w.extend_from_slice(&old[range.clone()]),
            None => w.resize(w.len() + range.len(), 1.0),
        }
    }
    targets.extend_from_slice(&g.targets()[range]);
}

/// Owned deep copy of a view (the overlay needs the pre-delta graph to
/// outlive the mutation).
fn copy_view(v: CsrView<'_>) -> CsrGraph {
    CsrGraph::from_parts(
        v.offsets().to_vec(),
        v.targets().to_vec(),
        v.weights().map(|w| w.to_vec()),
        v.num_edges(),
        v.is_directed(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn base() -> CsrGraph {
        // 0-1, 1-2, 2-0 triangle, plus 2-3 tail and isolated 4.
        GraphBuilder::undirected()
            .with_num_nodes(5)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 0)
            .add_edge(2, 3)
            .build()
            .unwrap()
    }

    fn edge_set(v: CsrView<'_>) -> Vec<(u32, u32, u32)> {
        v.edges().map(|(u, w, x)| (u.0, w.0, x.to_bits())).collect()
    }

    /// Whether the overlay still serves the base's own arrays.
    fn serves_base(o: &OverlayGraph<&CsrGraph>, g: &CsrGraph) -> bool {
        std::ptr::eq(o.csr().targets(), g.view().targets())
    }

    #[test]
    fn passthrough_before_first_mutation() {
        let g = base();
        let o = OverlayGraph::new(&g);
        assert_eq!(edge_set(o.csr()), edge_set(g.view()));
        assert!(serves_base(&o, &g));
        assert_eq!(o.num_nodes(), 5);
    }

    #[test]
    fn insert_and_delete_match_rebuilt_reference() {
        let g = base();
        let mut o = OverlayGraph::new(&g);
        let d = GraphDelta::new().insert(3, 4).delete(0, 1).delete(1, 2);
        let applied = o.apply(&d).unwrap();
        assert_eq!(applied.inserted, 1);
        assert_eq!(applied.deleted, 2);
        assert_eq!(
            applied.touched,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        assert_eq!(edge_set(applied.old.unwrap().view()), edge_set(g.view()));

        let want = GraphBuilder::undirected()
            .with_num_nodes(5)
            .add_edge(2, 0)
            .add_edge(2, 3)
            .add_edge(3, 4)
            .build()
            .unwrap();
        assert_eq!(edge_set(o.csr()), edge_set(want.view()));
        assert!(!o.csr().has_weights());
    }

    #[test]
    fn noop_operations_touch_nothing() {
        let g = base();
        let mut o = OverlayGraph::new(&g);
        // Edge (0,1) exists; edge (0,3) does not.
        let d = GraphDelta::new().insert(1, 0).delete(0, 3);
        let applied = o.apply(&d).unwrap();
        assert_eq!(applied.inserted + applied.deleted, 0);
        assert!(applied.old.is_none());
        assert!(applied.touched.is_empty());
        assert!(serves_base(&o, &g));
        assert_eq!(edge_set(o.csr()), edge_set(g.view()));
    }

    #[test]
    fn delete_of_logged_insert_cancels_it() {
        let g = base();
        let mut o = OverlayGraph::new(&g);
        o.apply(&GraphDelta::new().insert(0, 4)).unwrap();
        assert!(o.csr().has_edge(NodeId(0), NodeId(4)));
        let applied = o.apply(&GraphDelta::new().delete(4, 0)).unwrap();
        assert_eq!(applied.deleted, 1);
        assert!(!o.csr().has_edge(NodeId(0), NodeId(4)));
        assert_eq!(edge_set(o.csr()), edge_set(g.view()));
        assert_eq!(o.csr().offsets(), g.view().offsets());
    }

    #[test]
    fn delete_then_reinsert_takes_new_weight() {
        let g = GraphBuilder::undirected()
            .add_weighted_edge(0, 1, 2.0)
            .add_weighted_edge(1, 2, 3.0)
            .build()
            .unwrap();
        let mut o = OverlayGraph::new(&g);
        let d = GraphDelta::new().delete(0, 1).insert_weighted(0, 1, 9.0);
        let applied = o.apply(&d).unwrap();
        assert_eq!((applied.deleted, applied.inserted), (1, 1));
        assert_eq!(o.csr().edge_weight(NodeId(0), NodeId(1)), Some(9.0));
        assert_eq!(o.csr().edge_weight(NodeId(1), NodeId(2)), Some(3.0));
    }

    #[test]
    fn first_weighted_insert_makes_the_graph_weighted_for_good() {
        let g = base();
        let mut o = OverlayGraph::new(&g);
        // Inserting at the default weight keeps the graph unweighted.
        o.apply(&GraphDelta::new().insert(3, 4)).unwrap();
        assert!(!o.csr().has_weights());
        o.apply(&GraphDelta::new().insert_weighted(0, 4, 2.5))
            .unwrap();
        assert!(o.csr().has_weights());
        assert_eq!(o.csr().edge_weight(NodeId(4), NodeId(0)), Some(2.5));
        assert_eq!(o.csr().edge_weight(NodeId(1), NodeId(2)), Some(1.0));
        // Deleting that edge again leaves the weights in place.
        o.apply(&GraphDelta::new().delete(0, 4)).unwrap();
        assert!(o.csr().has_weights());
        let want = GraphBuilder::undirected()
            .with_num_nodes(5)
            .add_weighted_edge(0, 1, 1.0)
            .add_weighted_edge(1, 2, 1.0)
            .add_weighted_edge(2, 0, 1.0)
            .add_weighted_edge(2, 3, 1.0)
            .add_weighted_edge(3, 4, 1.0)
            .build()
            .unwrap();
        assert_eq!(o.csr().offsets(), want.view().offsets());
        assert_eq!(o.csr().targets(), want.view().targets());
        assert_eq!(o.csr().weights(), want.view().weights());
    }

    #[test]
    fn insert_of_live_edge_keeps_existing_weight() {
        let g = GraphBuilder::undirected()
            .add_weighted_edge(0, 1, 2.0)
            .build()
            .unwrap();
        let mut o = OverlayGraph::new(&g);
        o.apply(&GraphDelta::new().insert_weighted(1, 0, 7.0))
            .unwrap();
        assert_eq!(o.csr().edge_weight(NodeId(0), NodeId(1)), Some(2.0));
    }

    #[test]
    fn rejected_delta_leaves_overlay_untouched() {
        let g = base();
        let mut o = OverlayGraph::new(&g);
        let err = o
            .apply(&GraphDelta::new().insert(0, 4).insert(1, 99))
            .unwrap_err();
        assert!(matches!(
            err,
            GraphError::NodeOutOfRange {
                node: 99,
                num_nodes: 5
            }
        ));
        assert!(serves_base(&o, &g));
        assert_eq!(edge_set(o.csr()), edge_set(g.view()));

        let err = o.apply(&GraphDelta::new().delete(3, 3)).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop(3)));
        let err = o
            .apply(&GraphDelta::new().override_score(5, 0.5))
            .unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, .. }));
    }

    #[test]
    fn score_overrides_clamp_and_accumulate() {
        let g = base();
        let mut o = OverlayGraph::new(&g);
        let d = GraphDelta::new()
            .override_score(0, 0.25)
            .override_score(1, 7.0)
            .override_score(2, f64::NAN);
        let applied = o.apply(&d).unwrap();
        assert_eq!(applied.scores_overridden, 3);
        assert!(applied.old.is_none());
        let got: Vec<_> = o.score_overrides().collect();
        assert_eq!(got, vec![(0, 0.25), (1, 1.0), (2, 0.0)]);
        // Later overrides win.
        o.apply(&GraphDelta::new().override_score(0, 0.75)).unwrap();
        assert_eq!(o.score_overrides().next(), Some((0, 0.75)));
    }

    #[test]
    fn compact_folds_logs_and_further_deltas_stack() {
        let g = base();
        let mut o = OverlayGraph::new(&g);
        let first = o
            .apply(&GraphDelta::new().insert(3, 4).delete(0, 1))
            .unwrap();
        // The first apply over a borrowed base copies it.
        assert_eq!(edge_set(first.old.unwrap().view()), edge_set(g.view()));
        let before = edge_set(o.csr());
        let arrays = o.csr().targets().as_ptr();
        o.compact();
        assert_eq!(edge_set(o.csr()), before);
        assert_eq!(o.csr().targets().as_ptr(), arrays, "compact is a no-op");
        // Later deltas stack, and each moves the previous CSR out as
        // `old` instead of copying it.
        let second = o.apply(&GraphDelta::new().insert(0, 1)).unwrap();
        assert_eq!(second.old.unwrap().view().targets().as_ptr(), arrays);
        assert!(o.csr().has_edge(NodeId(0), NodeId(1)));
        assert!(o.csr().has_edge(NodeId(3), NodeId(4)));
        o.compact();
        o.compact(); // idempotent
        assert!(o.csr().has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn into_graph_returns_compacted_owned_graph() {
        let g = base();
        let mut o = OverlayGraph::new(&g);
        o.apply(&GraphDelta::new().insert(3, 4)).unwrap();
        let folded = o.into_graph();
        assert!(folded.has_edge(NodeId(3), NodeId(4)));
        assert_eq!(folded.num_edges(), 5);
        // Clean overlay: an owned copy of the base.
        let clean = OverlayGraph::new(&g).into_graph();
        assert_eq!(edge_set(clean.view()), edge_set(g.view()));
    }

    #[test]
    fn directed_overlay_keeps_arc_orientation() {
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .build()
            .unwrap();
        let mut o = OverlayGraph::new(&g);
        // Deleting the reverse arc is a no-op; deleting the arc works.
        let applied = o.apply(&GraphDelta::new().delete(1, 0)).unwrap();
        assert_eq!(applied.deleted, 0);
        let applied = o
            .apply(&GraphDelta::new().delete(0, 1).insert(2, 0))
            .unwrap();
        assert_eq!((applied.deleted, applied.inserted), (1, 1));
        assert!(!o.csr().has_edge(NodeId(0), NodeId(1)));
        assert!(o.csr().has_edge(NodeId(2), NodeId(0)));
        assert!(!o.csr().has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn parse_accepts_the_documented_format() {
        let d = GraphDelta::parse_str(
            "# a comment\n\nadd 3 17\nadd 3 18 0.5\ndel 0 9\nscore 17 0.85\n",
        )
        .unwrap();
        assert_eq!(d.inserts, vec![(3, 17, 1.0), (3, 18, 0.5)]);
        assert_eq!(d.deletes, vec![(0, 9)]);
        assert_eq!(d.score_overrides, vec![(17, 0.85)]);
        assert_eq!(d.len(), 4);
        assert!(GraphDelta::parse_str("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_hostile_lines_with_line_numbers() {
        for (text, want_line) in [
            ("frob 1 2", 1),
            ("add 1", 1),
            ("\nadd 1 x", 2),
            ("del 1 2 3", 1),
            ("add 1 2 nan", 1),
            ("score 1 1.5", 1),
            ("score 1 oops", 1),
            ("add 1 2 1.0 extra", 1),
        ] {
            match GraphDelta::parse_str(text) {
                Err(GraphError::Parse { line, .. }) => {
                    assert_eq!(line, want_line, "wrong line for {text:?}")
                }
                other => panic!("{text:?} parsed as {other:?}"),
            }
        }
    }
}
