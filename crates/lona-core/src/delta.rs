//! Incremental index maintenance for graph deltas.
//!
//! The paper's own locality argument makes delta maintenance cheap:
//! every index entry is a function of an h-hop neighborhood, so an
//! edge mutation `(u, v)` can only perturb
//!
//! * `N(w)` (the [`SizeIndex`]) for `w` within `h` hops of `u` or `v`,
//! * `delta(y − x)` (the [`DiffIndex`]) for adjacency entries whose
//!   endpoint neighborhoods overlap that region,
//!
//! in the *old* graph or the *new* one — a deleted edge shrinks
//! neighborhoods that only the old graph can enumerate, an inserted
//! edge grows neighborhoods that only the new graph reaches. The
//! **dirty region** is therefore the union of h-hop balls around the
//! touched endpoints in both graphs; everything outside it is copied
//! from the existing index. A clean node was not touched, so its CSR
//! row is byte-identical in the old and new graph, and its
//! [`DiffIndex`] entries move as one slice from the old row range to
//! the new one.
//!
//! [`repair_engine_state`] repairs the [`SizeIndex`] at once (AVG
//! serving reads it) and **defers** the [`DiffIndex`] repair until a
//! plan first reads the index, through
//! [`EngineState::prepare_diff_index`]: only LONA-Forward does, so a
//! stream of updates between inline-source queries never pays for it.
//! A deferred repair keeps the index as of its last repair, that
//! graph's row offsets, and the OR of every dirty set since. It is
//! exact across any number of deltas: if a node's h-ball differs
//! between the last repaired graph `G₀` and the current `Gₖ`, it
//! changed in some step, so the node is in that step's dirty set; a
//! node clean in every step keeps its row and its ball, so its `G₀`
//! entries hold at `G₀`'s offsets.
//!
//! The repair is serial and deterministic. Its output is bit-identical
//! to a from-scratch [`SizeIndex::build`] / [`DiffIndex::build`]
//! (property-tested in `tests/update_props.rs`), and the work done is
//! reported through [`RepairStats`] — deterministic counters, not wall
//! clock, so CI can gate the savings exactly even on a 1-core
//! container.
//!
//! Entry point: [`repair_engine_state`] takes the pre-delta graph
//! (carried by [`AppliedDelta::old`]), the post-delta graph, and a
//! warm [`EngineState`], and returns a state whose indexes match the
//! new graph with [`EngineState::index_builds`] still reading 0.

use lona_graph::{CsrView, NodeId};
use lona_relevance::ScoreVec;

use crate::engine::EngineState;
use crate::index::{DiffIndex, SizeIndex};
use crate::neighborhood::NeighborhoodScanner;

pub use lona_graph::{AppliedDelta, GraphDelta, OverlayGraph};

/// Deterministic counters for one index repair.
///
/// These gate CI instead of wall-clock time: on a localized delta,
/// `entries_repaired` must be strictly smaller than the full-rebuild
/// entry count and `rebuild_avoided_units` strictly positive —
/// properties of the graph and the delta, not of the machine. Every
/// index unit lands in exactly one of the last three counters, so for
/// a state holding both indexes `entries_repaired +
/// rebuild_avoided_units + deferred_units` is the node count plus the
/// adjacency-entry count.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Nodes inside the dirty region (h-hop balls around touched
    /// endpoints, old and new graph united).
    pub dirty_nodes: u64,
    /// Index entries recomputed by the repair: the dirty
    /// [`SizeIndex`] slots.
    pub entries_repaired: u64,
    /// Index entries a full rebuild would have recomputed but the
    /// repair copied: the clean size slots.
    pub rebuild_avoided_units: u64,
    /// Index entries whose repair waits until a plan first reads
    /// them: every [`DiffIndex`] slot of the new graph, when the state
    /// holds one or has its repair pending.
    pub deferred_units: u64,
}

impl RepairStats {
    /// Accumulate another repair's counters (one server update repairs
    /// every warm hop radius).
    pub fn merge(&mut self, other: &RepairStats) {
        self.dirty_nodes += other.dirty_nodes;
        self.entries_repaired += other.entries_repaired;
        self.rebuild_avoided_units += other.rebuild_avoided_units;
        self.deferred_units += other.deferred_units;
    }
}

/// A [`DiffIndex`] repair deferred until a plan first reads the index
/// (see the module docs for why finishing it is exact).
#[derive(Debug)]
pub(crate) struct DeferredDiff {
    /// The index as of its last repair.
    index: DiffIndex,
    /// That graph's row offsets.
    offsets: Vec<u32>,
    /// The OR of every dirty set since.
    dirty: Vec<bool>,
}

impl DeferredDiff {
    /// Defer the repair of `index`, which covers the graph with row
    /// offsets `offsets`, across one delta with dirty set `dirty`.
    pub(crate) fn new(index: DiffIndex, offsets: &[u32], dirty: Vec<bool>) -> Self {
        DeferredDiff {
            index,
            offsets: offsets.to_vec(),
            dirty,
        }
    }

    /// Fold one more delta's dirty set in.
    pub(crate) fn extend(&mut self, dirty: &[bool]) {
        assert_eq!(self.dirty.len(), dirty.len(), "delta changed the node set");
        for (acc, &d) in self.dirty.iter_mut().zip(dirty) {
            *acc |= d;
        }
    }

    /// Finish the repair on the current graph `g`, whose size index
    /// `sizes` is already repaired.
    pub(crate) fn finish(self, g: CsrView<'_>, sizes: &SizeIndex) -> DiffIndex {
        repair_diff_index(&self.offsets, g, sizes, &self.index, &self.dirty).0
    }
}

/// Mark the ≤`hops`-hop dirty region around `touched` endpoints: the
/// union of the h-hop balls (including the centers) in the old and the
/// new graph. Returns one flag per node.
pub fn dirty_region(
    old: CsrView<'_>,
    new: CsrView<'_>,
    touched: &[NodeId],
    hops: u32,
) -> Vec<bool> {
    let n = new.num_nodes();
    assert_eq!(old.num_nodes(), n, "delta must not change the node set");
    let mut dirty = vec![false; n];
    let mut scanner = NeighborhoodScanner::new(n);
    for &t in touched {
        dirty[t.index()] = true;
        for g in [old, new] {
            scanner.for_each(g, t, hops, |w| dirty[w as usize] = true);
        }
    }
    dirty
}

/// Repair a [`SizeIndex`] onto the new graph: recompute `N(w)` for
/// dirty `w`, copy every clean slot. Returns the repaired index and
/// the number of recomputed entries.
pub fn repair_size_index(
    new: CsrView<'_>,
    old_index: &SizeIndex,
    dirty: &[bool],
) -> (SizeIndex, u64) {
    let n = new.num_nodes();
    assert_eq!(old_index.len(), n, "size index covers a different graph");
    assert_eq!(dirty.len(), n, "dirty flags cover a different graph");
    let hops = old_index.hops();
    let mut sizes = old_index.as_slice().to_vec();
    let mut scanner = NeighborhoodScanner::new(n);
    let mut repaired = 0u64;
    for (w, slot) in sizes.iter_mut().enumerate() {
        if dirty[w] {
            let (count, _) = scanner.size_scan(new, NodeId(w as u32), hops);
            *slot = count as u32;
            repaired += 1;
        }
    }
    (SizeIndex::from_owned(hops, sizes), repaired)
}

/// Repair a [`DiffIndex`] onto the new graph, given the old graph's
/// row offsets and the already repaired [`SizeIndex`].
///
/// A clean node's row is byte-identical in both graphs, so its
/// entries are a slice copy from its old row range to its new one
/// (one copy per run of consecutive clean rows). The recompute pass
/// then overwrites every entry with a dirty endpoint — an entry
/// between two clean nodes survived the delta with both endpoint
/// neighborhoods intact. It mirrors [`DiffIndex::build`]'s per-edge
/// intersection counting (one `S(u)` marking serves both directions
/// of each undirected edge), restricted to dirty pairs. Returns the
/// repaired index and the number of recomputed slots.
pub fn repair_diff_index(
    old_offsets: &[u32],
    new_g: CsrView<'_>,
    new_sizes: &SizeIndex,
    old_diff: &DiffIndex,
    dirty: &[bool],
) -> (DiffIndex, u64) {
    let n = new_g.num_nodes();
    assert!(
        !new_g.is_directed(),
        "the differential index requires an undirected graph"
    );
    assert_eq!(new_sizes.len(), n, "size index covers a different graph");
    assert_eq!(dirty.len(), n, "dirty flags cover a different graph");
    assert_eq!(
        old_offsets.len(),
        n + 1,
        "old offsets cover a different graph"
    );
    assert_eq!(
        old_diff.len(),
        old_offsets[n] as usize,
        "diff index covers a different graph"
    );
    assert_eq!(old_diff.hops(), new_sizes.hops(), "index radii disagree");
    let hops = new_sizes.hops();

    // Copy pass, in runs of rows that are all clean or all dirty. A
    // clean row keeps its length, so a clean run moves as one slice
    // from its old offset to its new one; a dirty run is zeroed for
    // the recompute pass to fill.
    let (old, new_offsets) = (old_diff.as_slice(), new_g.offsets());
    let mut deltas = Vec::with_capacity(new_g.num_adjacency_entries());
    let mut row = 0;
    while row < n {
        let run = dirty[row..].iter().position(|&d| d != dirty[row]);
        let end = run.map_or(n, |len| row + len);
        let (lo, hi) = (new_offsets[row] as usize, new_offsets[end] as usize);
        if dirty[row] {
            deltas.resize(hi, 0);
        } else {
            let from = old_offsets[row] as usize;
            deltas.extend_from_slice(&old[from..from + (hi - lo)]);
        }
        row = end;
    }

    // Recompute pass: every entry with a dirty endpoint, via the
    // build's lower-endpoint-owns-both-directions scheme. Only a dirty
    // node, or a lower neighbor of one, owns such an entry.
    let mut owners = Vec::new();
    for u in new_g.nodes().filter(|u| dirty[u.index()]) {
        owners.push(u);
        owners.extend(new_g.neighbors(u).iter().filter(|v| v.0 < u.0));
    }
    owners.sort_unstable();
    owners.dedup();
    let mut marker = NeighborhoodScanner::new(n);
    let mut expander = NeighborhoodScanner::new(n);
    let mut repaired = 0u64;
    for u in owners {
        let u_dirty = dirty[u.index()];
        if !new_g
            .neighbors(u)
            .iter()
            .any(|&v| v.0 >= u.0 && (u_dirty || dirty[v.index()]))
        {
            continue;
        }
        let n_u = new_sizes.get(u) as u32;
        marker.mark(new_g, u, hops);
        let u_range = new_g.adjacency_range(u);
        for (i, &v) in new_g.neighbors(u).iter().enumerate() {
            if v.0 < u.0 || !(u_dirty || dirty[v.index()]) {
                continue;
            }
            let mut inter = 0u32;
            expander.for_each(new_g, v, hops, |w| {
                if marker.marked(NodeId(w)) {
                    inter += 1;
                }
            });
            let n_v = new_sizes.get(v) as u32;
            debug_assert!(inter <= n_v && inter <= n_u);
            deltas[u_range.start + i] = n_v - inter;
            let back = new_g
                .adjacency_index(v, u)
                .expect("undirected edge must exist both ways");
            deltas[back] = n_u - inter;
            repaired += if u == v { 1 } else { 2 };
        }
    }

    (DiffIndex::from_owned(hops, deltas), repaired)
}

/// Repair a warm [`EngineState`] across a graph delta.
///
/// `old` / `new` are the pre- and post-delta graphs (the overlay's
/// [`AppliedDelta::old`] carries the former); `touched` the endpoints
/// of changed edges. The size index is repaired at once; the
/// differential index, if the state holds one, gets a deferred repair
/// (or its pending one absorbs this delta), finished when
/// [`EngineState::prepare_diff_index`] first runs on the new graph.
/// A bare state passes through untouched, and the returned state
/// reads [`EngineState::index_builds`] `== 0`: repair is an install,
/// not a build.
pub fn repair_engine_state(
    old: CsrView<'_>,
    new: CsrView<'_>,
    touched: &[NodeId],
    state: EngineState,
) -> (EngineState, RepairStats) {
    let (Some(size), false) = (state.size_index(), touched.is_empty()) else {
        return (state, RepairStats::default());
    };
    let n = new.num_nodes() as u64;
    let dirty = dirty_region(old, new, touched, size.hops());
    let dirty_nodes = dirty.iter().filter(|&&d| d).count() as u64;
    let (new_size, size_repaired) = repair_size_index(new, size, &dirty);
    let state = state.after_delta(new_size, old.offsets(), dirty);
    let deferred_units = if state.diff_repair_pending() {
        new.num_adjacency_entries() as u64
    } else {
        0
    };
    let stats = RepairStats {
        dirty_nodes,
        entries_repaired: size_repaired,
        rebuild_avoided_units: n - size_repaired,
        deferred_units,
    };
    (state, stats)
}

/// Apply score overrides (e.g. [`OverlayGraph::score_overrides`]) on
/// top of a base [`ScoreVec`]. Values follow `ScoreVec` semantics:
/// NaN becomes 0, everything clamps into `[0, 1]`.
///
/// # Panics
/// Panics if an override's node id is out of range (the overlay
/// validated them on apply).
pub fn apply_score_overrides(
    base: &ScoreVec,
    overrides: impl IntoIterator<Item = (u32, f64)>,
) -> ScoreVec {
    let mut scores = base.as_slice().to_vec();
    for (u, s) in overrides {
        scores[u as usize] = s;
    }
    ScoreVec::new(scores)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use lona_graph::{CsrGraph, GraphBuilder, GraphStore};

    /// Ring of `n` nodes with a few long chords — big enough that a
    /// one-edge delta leaves most of the graph clean at h=2.
    fn ring_with_chords(n: u32) -> CsrGraph {
        let mut b = GraphBuilder::undirected();
        for i in 0..n {
            b.push_edge(i, (i + 1) % n);
        }
        b.push_edge(0, n / 2);
        b.push_edge(n / 4, 3 * n / 4);
        b.build().unwrap()
    }

    fn apply(g: &CsrGraph, d: &GraphDelta) -> (CsrGraph, AppliedDelta) {
        let mut o = OverlayGraph::new(g);
        let applied = o.apply(d).unwrap();
        (o.into_graph(), applied)
    }

    #[test]
    fn repaired_size_index_matches_rebuild() {
        let g = ring_with_chords(32);
        let d = GraphDelta::new().insert(3, 9).delete(0, 16);
        let (new_g, applied) = apply(&g, &d);
        for h in 1..=3 {
            let old_idx = SizeIndex::build(g.view(), h);
            let dirty = dirty_region(g.view(), new_g.view(), &applied.touched, h);
            let (repaired, count) = repair_size_index(new_g.view(), &old_idx, &dirty);
            assert_eq!(repaired, SizeIndex::build(new_g.view(), h), "h={h}");
            assert!(count > 0 && count < 32, "h={h} repaired {count}");
        }
    }

    #[test]
    fn repaired_diff_index_matches_rebuild() {
        let g = ring_with_chords(32);
        let d = GraphDelta::new().insert(5, 20).delete(8, 9);
        let (new_g, applied) = apply(&g, &d);
        for h in 1..=2 {
            let old_sizes = SizeIndex::build(g.view(), h);
            let old_diff = DiffIndex::build(g.view(), h, &old_sizes);
            let dirty = dirty_region(g.view(), new_g.view(), &applied.touched, h);
            let (new_sizes, _) = repair_size_index(new_g.view(), &old_sizes, &dirty);
            let (repaired, slots) = repair_diff_index(
                g.view().offsets(),
                new_g.view(),
                &new_sizes,
                &old_diff,
                &dirty,
            );
            assert_eq!(
                repaired,
                DiffIndex::build(new_g.view(), h, &new_sizes),
                "h={h}"
            );
            assert!(slots > 0 && (slots as usize) < new_g.num_adjacency_entries());
        }
    }

    #[test]
    fn deletion_dirt_is_found_via_the_old_graph() {
        // A bridge deletion: the severed side is reachable from the
        // touched endpoints only through the *old* graph.
        let g = GraphBuilder::undirected()
            .extend_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
            .build()
            .unwrap();
        let d = GraphDelta::new().delete(2, 3);
        let (new_g, applied) = apply(&g, &d);
        let h = 3;
        let old_idx = SizeIndex::build(g.view(), h);
        let dirty = dirty_region(g.view(), new_g.view(), &applied.touched, h);
        // Node 5 is 3 hops from endpoint 2 in the old graph and
        // unreachable in the new one; it must still be dirty.
        assert!(dirty[5]);
        let (repaired, _) = repair_size_index(new_g.view(), &old_idx, &dirty);
        assert_eq!(repaired, SizeIndex::build(new_g.view(), h));
    }

    #[test]
    fn repair_engine_state_keeps_builds_at_zero() {
        let g = ring_with_chords(64);
        let h = 2;
        let mut state = EngineState::new();
        state.prepare_diff_index(g.view(), h);
        assert_eq!(state.index_builds(), 2);

        let d = GraphDelta::new().insert(10, 40).delete(20, 21);
        let (new_g, applied) = apply(&g, &d);
        let (mut state, stats) =
            repair_engine_state(g.view(), new_g.view(), &applied.touched, state);
        assert_eq!(state.index_builds(), 0, "repair is an install, not a build");
        assert_eq!(
            state.size_index().unwrap(),
            &SizeIndex::build(new_g.view(), h)
        );
        // The differential repair waits for its first reader, which
        // finishes it for free.
        assert!(state.diff_index().is_none());
        assert_eq!(state.prepare_diff_index(new_g.view(), h), Duration::ZERO);
        assert_eq!(state.index_builds(), 0);
        assert_eq!(
            state.diff_index().unwrap(),
            &DiffIndex::build(new_g.view(), h, state.size_index().unwrap())
        );

        let full_units = (new_g.num_nodes() + new_g.num_adjacency_entries()) as u64;
        assert!(stats.dirty_nodes > 0);
        assert!(stats.rebuild_avoided_units > 0);
        assert!(
            stats.entries_repaired < full_units,
            "localized delta must repair fewer entries ({}) than a full rebuild ({full_units})",
            stats.entries_repaired
        );
        assert_eq!(stats.deferred_units, new_g.num_adjacency_entries() as u64);
        assert_eq!(
            stats.entries_repaired + stats.rebuild_avoided_units + stats.deferred_units,
            full_units
        );
    }

    #[test]
    fn deferred_repair_spans_several_deltas() {
        let g = ring_with_chords(64);
        let h = 2;
        let mut state = EngineState::new();
        state.prepare_diff_index(g.view(), h);
        let mut overlay = OverlayGraph::new(&g);
        for d in [
            GraphDelta::new().insert(10, 40).delete(20, 21),
            GraphDelta::new().delete(10, 40).insert(50, 3),
            GraphDelta::new().insert(20, 21),
        ] {
            let applied = overlay.apply(&d).unwrap();
            let old = applied.old.unwrap();
            let (next, stats) =
                repair_engine_state(old.view(), overlay.csr(), &applied.touched, state);
            state = next;
            assert_eq!(
                stats.deferred_units,
                overlay.csr().num_adjacency_entries() as u64
            );
        }
        assert!(state.diff_index().is_none());
        assert_eq!(state.prepare_diff_index(overlay.csr(), h), Duration::ZERO);
        assert_eq!(state.index_builds(), 0);
        let fresh = SizeIndex::build(overlay.csr(), h);
        assert_eq!(state.size_index().unwrap(), &fresh);
        assert_eq!(
            state.diff_index().unwrap(),
            &DiffIndex::build(overlay.csr(), h, &fresh)
        );
    }

    #[test]
    fn size_only_state_defers_nothing() {
        let g = ring_with_chords(32);
        let mut state = EngineState::new();
        state.prepare_size_index(g.view(), 2);
        let (new_g, applied) = apply(&g, &GraphDelta::new().insert(3, 9));
        let (mut state, stats) =
            repair_engine_state(g.view(), new_g.view(), &applied.touched, state);
        assert_eq!(stats.deferred_units, 0);
        assert_eq!(
            stats.entries_repaired + stats.rebuild_avoided_units,
            new_g.num_nodes() as u64
        );
        // A later reader of the differential index builds it.
        state.prepare_diff_index(new_g.view(), 2);
        assert_eq!(state.index_builds(), 1);
    }

    #[test]
    fn bare_state_and_empty_delta_pass_through() {
        let g = ring_with_chords(16);
        let (state, stats) = repair_engine_state(g.view(), g.view(), &[], EngineState::new());
        assert!(state.size_index().is_none());
        assert_eq!(stats, RepairStats::default());

        let mut warm = EngineState::new();
        warm.prepare_size_index(g.view(), 2);
        let (warm, stats) = repair_engine_state(g.view(), g.view(), &[], warm);
        assert_eq!(stats, RepairStats::default());
        // Untouched state keeps its history.
        assert_eq!(warm.index_builds(), 1);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = RepairStats {
            dirty_nodes: 1,
            entries_repaired: 2,
            rebuild_avoided_units: 3,
            deferred_units: 4,
        };
        a.merge(&RepairStats {
            dirty_nodes: 10,
            entries_repaired: 20,
            rebuild_avoided_units: 30,
            deferred_units: 40,
        });
        assert_eq!(a.dirty_nodes, 11);
        assert_eq!(a.entries_repaired, 22);
        assert_eq!(a.rebuild_avoided_units, 33);
        assert_eq!(a.deferred_units, 44);
    }

    #[test]
    fn score_overrides_apply_with_clamping() {
        let base = ScoreVec::new(vec![0.1, 0.2, 0.3]);
        let s = apply_score_overrides(&base, [(1, 0.9), (2, 7.0), (0, f64::NAN)]);
        assert_eq!(s.as_slice(), &[0.0, 0.9, 1.0]);
    }
}
