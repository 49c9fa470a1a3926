//! The compiled graph+index container (`lona compile`).
//!
//! A compiled file packs everything a warm engine needs — CSR arrays,
//! optional edge weights, optional reverse CSR (directed graphs),
//! optional score vector, and per-hop-radius Size/Diff indexes — into
//! one little-endian, section-addressed container that can be memory
//! mapped and queried with **zero parses and zero index builds**.
//!
//! Since the `--order` work the container can also carry a node
//! [`Permutation`]: the graph, scores, and indexes are packed in a
//! cache-friendly renumbering (degree or BFS order) and a `Perm`
//! section records `new_to_old` so results can be mapped back to
//! original ids at query time. Natural-order files emit no `Perm`
//! section, so the format is unchanged for them and every pre-`--order`
//! container keeps loading (and reads as natural order).
//!
//! ## Layout (version 1, magic `LONACPK1`)
//!
//! ```text
//! 0      8      12      16
//! ┌──────┬──────┬───────┬──────────────────────┬─────────────────┐
//! │magic │ ver  │ count │ section table        │ section data …  │
//! │ 8 B  │ u32  │ u32   │ count × 32 B entries │ (8-aligned)     │
//! └──────┴──────┴───────┴──────────────────────┴─────────────────┘
//! entry: { kind u32, aux u32, offset u64, byte_len u64, fnv1a u64 }
//! ```
//!
//! Every multi-byte field is little-endian. Section payloads start at
//! 8-byte-aligned offsets (zero-padded), so a `u32`/`f64` view over
//! the raw bytes is always aligned. `aux` carries the hop radius for
//! index sections and is zero elsewhere.
//!
//! ## Validation order
//!
//! The loader never trusts a byte it has not bounds-checked:
//!
//! 1. header + section table ranges against the file length;
//! 2. every section range against the file length, then its FNV-1a 64
//!    checksum;
//! 3. meta cross-checks (element counts, flags vs present sections);
//! 4. CSR structural invariants ([`CsrGraphMmap::from_sections`]);
//! 5. score range scan ([`ScoreVec::from_mapped`]) and index length
//!    cross-checks.
//!
//! Any failure is a [`GraphError::BadSnapshot`] — hostile files are
//! rejected with an error, never a panic or an out-of-range read.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use lona_graph::order::{reorder, NodeOrder, Permutation};
use lona_graph::{CsrGraphMmap, CsrView, GraphError, GraphStore, MapSlice, Mmap, NodeId};
use lona_relevance::ScoreVec;

use crate::engine::EngineState;
use crate::index::{DiffIndex, SizeIndex};
use crate::locality::permute_scores;

/// File magic: "LONA ComPacK v1".
pub const MAGIC: &[u8; 8] = b"LONACPK1";
/// Container format version.
pub const VERSION: u32 = 1;

/// Section kinds. `Meta` is mandatory and unique; the CSR pair
/// (`Offsets`, `Targets`) is mandatory; everything else is optional.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u32)]
enum SectionKind {
    Meta = 1,
    Offsets = 2,
    Targets = 3,
    Weights = 4,
    RevOffsets = 5,
    RevTargets = 6,
    Scores = 7,
    SizeIdx = 8,
    DiffIdx = 9,
    /// Node renumbering applied to every other section: the payload is
    /// `new_to_old` as u32s, `aux` is the [`NodeOrder`] code. Absent on
    /// natural-order files.
    Perm = 10,
}

impl SectionKind {
    fn from_u32(v: u32) -> Option<Self> {
        use SectionKind::*;
        Some(match v {
            1 => Meta,
            2 => Offsets,
            3 => Targets,
            4 => Weights,
            5 => RevOffsets,
            6 => RevTargets,
            7 => Scores,
            8 => SizeIdx,
            9 => DiffIdx,
            10 => Perm,
            _ => return None,
        })
    }
}

/// Meta section payload: four u64 words.
const META_LEN: usize = 32;
/// Meta flags.
const FLAG_DIRECTED: u64 = 1;
const FLAG_WEIGHTS: u64 = 1 << 1;
const FLAG_SCORES: u64 = 1 << 2;

/// FNV-1a 64 over a byte slice — tiny, dependency-free, and plenty to
/// catch truncation and bit rot (the threat model for integrity;
/// *structural* hostility is handled by the validation passes).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn bad(msg: impl Into<String>) -> GraphError {
    GraphError::BadSnapshot(msg.into())
}

// ---------------------------------------------------------------- writer

/// What to pack. The writer builds any requested index itself; the
/// compile cost is the point — it is paid once, offline.
pub struct CompileSpec<'a> {
    /// The graph to pack.
    pub graph: CsrView<'a>,
    /// Score vector to embed (validated to `[0, 1]` by construction).
    pub scores: Option<&'a ScoreVec>,
    /// Hop radii to pre-build indexes for (deduplicated, ascending).
    pub hops: &'a [u32],
    /// Also build differential indexes (undirected graphs only;
    /// ignored — not an error — on directed graphs, which cannot
    /// carry one).
    pub with_diff: bool,
    /// Node order to pack the container in. Anything but
    /// [`NodeOrder::Natural`] renumbers the graph (and permutes the
    /// scores, and builds the indexes on the renumbered view) and
    /// records the permutation in a `Perm` section.
    pub order: NodeOrder,
}

struct SectionBuf {
    kind: SectionKind,
    aux: u32,
    payload: Vec<u8>,
}

fn u32s_to_bytes(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for &v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Reverse (incoming) adjacency of a directed graph. Rows come out
/// strictly sorted because sources are visited in ascending order and
/// the forward CSR holds no duplicate edges.
fn reverse_csr(g: CsrView<'_>) -> (Vec<u32>, Vec<u32>) {
    let n = g.num_nodes();
    let mut counts = vec![0u32; n + 1];
    for u in g.nodes() {
        for &v in g.neighbors(u) {
            counts[v.index() + 1] += 1;
        }
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts;
    let mut cursor = offsets.clone();
    let mut targets = vec![0u32; g.num_adjacency_entries()];
    for u in g.nodes() {
        for &v in g.neighbors(u) {
            let slot = &mut cursor[v.index()];
            targets[*slot as usize] = u.0;
            *slot += 1;
        }
    }
    (offsets, targets)
}

/// Serialize `spec` into the compiled container format.
pub fn compile_to_vec(spec: &CompileSpec<'_>) -> Result<Vec<u8>, GraphError> {
    let g = spec.graph;
    // Offsets (and reverse_csr's in-degree accumulators) are u32: the
    // builder already enforces this bound, but make it explicit here so
    // a future graph source cannot silently wrap the packed arrays.
    if u32::try_from(g.num_adjacency_entries()).is_err() {
        return Err(bad(format!(
            "adjacency length {} exceeds the u32 offset space",
            g.num_adjacency_entries()
        )));
    }
    if let Some(s) = spec.scores {
        if s.len() != g.num_nodes() {
            return Err(bad(format!(
                "score vector covers {} nodes but the graph has {}",
                s.len(),
                g.num_nodes()
            )));
        }
    }
    let mut hops: Vec<u32> = spec.hops.to_vec();
    hops.sort_unstable();
    hops.dedup();
    if hops.contains(&0) {
        return Err(bad("hop radius 0 cannot be indexed"));
    }

    // Renumber before packing: the container stores the *reordered*
    // graph/scores, the indexes are built on the reordered view, and
    // the Perm section is what lets readers translate back.
    let reordered: Option<(lona_graph::CsrGraph, Option<ScoreVec>, Permutation)> =
        if spec.order == NodeOrder::Natural {
            None
        } else {
            let perm = spec.order.compute(spec.graph);
            let rg = reorder(spec.graph, &perm);
            let rs = spec.scores.map(|s| permute_scores(&perm, s));
            Some((rg, rs, perm))
        };
    let (g, packed_scores): (CsrView<'_>, Option<&ScoreVec>) = match &reordered {
        Some((rg, rs, _)) => (rg.view(), rs.as_ref()),
        None => (g, spec.scores),
    };

    let mut sections: Vec<SectionBuf> = Vec::new();

    let mut flags = 0u64;
    if g.is_directed() {
        flags |= FLAG_DIRECTED;
    }
    if g.has_weights() {
        flags |= FLAG_WEIGHTS;
    }
    if packed_scores.is_some() {
        flags |= FLAG_SCORES;
    }
    let mut meta = Vec::with_capacity(META_LEN);
    meta.extend_from_slice(&(g.num_nodes() as u64).to_le_bytes());
    meta.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
    meta.extend_from_slice(&flags.to_le_bytes());
    meta.extend_from_slice(&0u64.to_le_bytes()); // reserved
    sections.push(SectionBuf {
        kind: SectionKind::Meta,
        aux: 0,
        payload: meta,
    });

    sections.push(SectionBuf {
        kind: SectionKind::Offsets,
        aux: 0,
        payload: u32s_to_bytes(g.offsets()),
    });
    sections.push(SectionBuf {
        kind: SectionKind::Targets,
        aux: 0,
        payload: {
            let mut out = Vec::with_capacity(g.targets().len() * 4);
            for t in g.targets() {
                out.extend_from_slice(&t.0.to_le_bytes());
            }
            out
        },
    });
    if let Some(w) = g.weights() {
        let mut out = Vec::with_capacity(w.len() * 4);
        for v in w {
            out.extend_from_slice(&v.to_le_bytes());
        }
        sections.push(SectionBuf {
            kind: SectionKind::Weights,
            aux: 0,
            payload: out,
        });
    }
    if g.is_directed() {
        let (ro, rt) = reverse_csr(g);
        sections.push(SectionBuf {
            kind: SectionKind::RevOffsets,
            aux: 0,
            payload: u32s_to_bytes(&ro),
        });
        sections.push(SectionBuf {
            kind: SectionKind::RevTargets,
            aux: 0,
            payload: u32s_to_bytes(&rt),
        });
    }
    if let Some(s) = packed_scores {
        let mut out = Vec::with_capacity(s.len() * 8);
        for v in s.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        sections.push(SectionBuf {
            kind: SectionKind::Scores,
            aux: 0,
            payload: out,
        });
    }
    if let Some((_, _, perm)) = &reordered {
        sections.push(SectionBuf {
            kind: SectionKind::Perm,
            aux: spec.order.code(),
            payload: u32s_to_bytes(perm.new_to_old()),
        });
    }

    for &h in &hops {
        let sizes = SizeIndex::build(g, h);
        sections.push(SectionBuf {
            kind: SectionKind::SizeIdx,
            aux: h,
            payload: u32s_to_bytes(sizes.as_slice()),
        });
        if spec.with_diff && !g.is_directed() {
            let diffs = DiffIndex::build(g, h, &sizes);
            sections.push(SectionBuf {
                kind: SectionKind::DiffIdx,
                aux: h,
                payload: u32s_to_bytes(diffs.as_slice()),
            });
        }
    }

    // Assemble: header, table, then 8-aligned payloads.
    let table_end = 16 + 32 * sections.len();
    let mut offset = table_end.next_multiple_of(8);
    let mut entries = Vec::with_capacity(sections.len());
    for s in &sections {
        entries.push((s.kind as u32, s.aux, offset as u64, s.payload.len() as u64));
        offset = (offset + s.payload.len()).next_multiple_of(8);
    }

    let mut out = Vec::with_capacity(offset);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for ((kind, aux, off, len), s) in entries.iter().zip(&sections) {
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&aux.to_le_bytes());
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&fnv1a(&s.payload).to_le_bytes());
    }
    for ((_, _, off, _), s) in entries.iter().zip(sections.iter()) {
        out.resize(*off as usize, 0);
        out.extend_from_slice(&s.payload);
    }
    out.resize(offset, 0);
    Ok(out)
}

/// Compile straight to a file.
pub fn compile_to_file(spec: &CompileSpec<'_>, path: &Path) -> Result<(), GraphError> {
    let bytes = compile_to_vec(spec)?;
    let mut f = File::create(path).map_err(GraphError::Io)?;
    f.write_all(&bytes).map_err(GraphError::Io)?;
    Ok(())
}

// ---------------------------------------------------------------- loader

struct RawSection {
    kind: SectionKind,
    aux: u32,
    offset: usize,
    byte_len: usize,
}

/// A loaded compiled file: the mapped graph plus whatever scores and
/// warm indexes it carries. Everything is zero-copy — `load` maps the
/// file, validates, and hands out views; no array is ever parsed or
/// rebuilt.
pub struct CompiledGraph {
    graph: CsrGraphMmap,
    scores: Option<ScoreVec>,
    indexes: BTreeMap<u32, (SizeIndex, Option<DiffIndex>)>,
    order: NodeOrder,
    permutation: Option<Permutation>,
}

impl CompiledGraph {
    /// Map `path` and validate the container.
    pub fn load(path: &Path) -> Result<Self, GraphError> {
        let file = File::open(path).map_err(GraphError::Io)?;
        // Safe per the Mmap contract: the file is opened read-only and
        // compiled files are write-once artifacts; every byte read
        // through the map is bounds-checked below before use.
        let map = unsafe { Mmap::map(&file) }.map_err(GraphError::Io)?;
        Self::from_map(Arc::new(map))
    }

    /// Validate an in-memory container (used by tests and the
    /// proptest corruption suite; same code path as [`Self::load`]).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, GraphError> {
        Self::from_map(Arc::new(Mmap::from_vec(bytes)))
    }

    fn from_map(buf: Arc<Mmap>) -> Result<Self, GraphError> {
        // 1. Header.
        if buf.len() < 16 {
            return Err(bad(format!(
                "file too short for header: {} bytes",
                buf.len()
            )));
        }
        if &buf[..8] != MAGIC {
            return Err(bad("bad magic (not a compiled LONA file)"));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(bad(format!(
                "unsupported container version {version} (this build reads {VERSION})"
            )));
        }
        let count = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        let table_end = count
            .checked_mul(32)
            .and_then(|t| t.checked_add(16))
            .ok_or_else(|| bad("section count overflows"))?;
        if table_end > buf.len() {
            return Err(bad(format!(
                "section table needs {table_end} bytes but the file has {}",
                buf.len()
            )));
        }

        // 2. Section table: bounds, then checksums.
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let e = &buf[16 + 32 * i..16 + 32 * (i + 1)];
            let kind_raw = u32::from_le_bytes(e[0..4].try_into().unwrap());
            let kind = SectionKind::from_u32(kind_raw)
                .ok_or_else(|| bad(format!("section {i}: unknown kind {kind_raw}")))?;
            let aux = u32::from_le_bytes(e[4..8].try_into().unwrap());
            let offset = u64::from_le_bytes(e[8..16].try_into().unwrap());
            let byte_len = u64::from_le_bytes(e[16..24].try_into().unwrap());
            let checksum = u64::from_le_bytes(e[24..32].try_into().unwrap());
            let offset = usize::try_from(offset)
                .map_err(|_| bad(format!("section {i}: offset overflows usize")))?;
            let byte_len = usize::try_from(byte_len)
                .map_err(|_| bad(format!("section {i}: length overflows usize")))?;
            let end = offset
                .checked_add(byte_len)
                .ok_or_else(|| bad(format!("section {i}: range overflows")))?;
            if end > buf.len() {
                return Err(bad(format!(
                    "section {i} ({kind:?}): [{offset}, {end}) exceeds file length {}",
                    buf.len()
                )));
            }
            if fnv1a(&buf[offset..end]) != checksum {
                return Err(bad(format!("section {i} ({kind:?}): checksum mismatch")));
            }
            sections.push(RawSection {
                kind,
                aux,
                offset,
                byte_len,
            });
        }

        // 3. Meta cross-checks.
        let find_unique = |kind: SectionKind| -> Result<Option<&RawSection>, GraphError> {
            let mut found = None;
            for s in &sections {
                if s.kind == kind {
                    if found.is_some() {
                        return Err(bad(format!("duplicate {kind:?} section")));
                    }
                    found = Some(s);
                }
            }
            Ok(found)
        };
        let meta = find_unique(SectionKind::Meta)?.ok_or_else(|| bad("missing Meta section"))?;
        if meta.byte_len != META_LEN {
            return Err(bad(format!(
                "Meta section is {} bytes, expected {META_LEN}",
                meta.byte_len
            )));
        }
        let m = &buf[meta.offset..meta.offset + META_LEN];
        let num_nodes = u64::from_le_bytes(m[0..8].try_into().unwrap());
        let num_edges = u64::from_le_bytes(m[8..16].try_into().unwrap());
        let flags = u64::from_le_bytes(m[16..24].try_into().unwrap());
        let num_nodes =
            usize::try_from(num_nodes).map_err(|_| bad("node count overflows usize"))?;
        let num_edges =
            usize::try_from(num_edges).map_err(|_| bad("edge count overflows usize"))?;
        if num_nodes >= u32::MAX as usize {
            return Err(bad(format!(
                "node count {num_nodes} exceeds the u32 id space"
            )));
        }
        let directed = flags & FLAG_DIRECTED != 0;

        let elems = |s: &RawSection, elem: usize, what: &str| -> Result<usize, GraphError> {
            if !s.byte_len.is_multiple_of(elem) {
                return Err(bad(format!(
                    "{what} section length {} is not a multiple of {elem}",
                    s.byte_len
                )));
            }
            Ok(s.byte_len / elem)
        };

        let offsets_sec =
            find_unique(SectionKind::Offsets)?.ok_or_else(|| bad("missing Offsets section"))?;
        let targets_sec =
            find_unique(SectionKind::Targets)?.ok_or_else(|| bad("missing Targets section"))?;
        let n_offsets = elems(offsets_sec, 4, "Offsets")?;
        let n_targets = elems(targets_sec, 4, "Targets")?;
        if n_offsets != num_nodes + 1 {
            return Err(bad(format!(
                "Offsets has {n_offsets} entries, expected {} for {num_nodes} nodes",
                num_nodes + 1
            )));
        }
        let offsets = MapSlice::<u32>::new(buf.clone(), offsets_sec.offset, n_offsets)?;
        let targets = MapSlice::<NodeId>::new(buf.clone(), targets_sec.offset, n_targets)?;

        let weights = match find_unique(SectionKind::Weights)? {
            Some(s) => {
                if flags & FLAG_WEIGHTS == 0 {
                    return Err(bad("Weights section present but meta flag unset"));
                }
                Some(MapSlice::<f32>::new(
                    buf.clone(),
                    s.offset,
                    elems(s, 4, "Weights")?,
                )?)
            }
            None if flags & FLAG_WEIGHTS != 0 => {
                return Err(bad("meta declares weights but the section is missing"))
            }
            None => None,
        };

        let reverse = match (
            find_unique(SectionKind::RevOffsets)?,
            find_unique(SectionKind::RevTargets)?,
        ) {
            (Some(ro), Some(rt)) => Some((
                MapSlice::<u32>::new(buf.clone(), ro.offset, elems(ro, 4, "RevOffsets")?)?,
                MapSlice::<NodeId>::new(buf.clone(), rt.offset, elems(rt, 4, "RevTargets")?)?,
            )),
            (None, None) => None,
            _ => return Err(bad("reverse CSR sections must come in pairs")),
        };

        // 4. CSR structural invariants.
        let graph =
            CsrGraphMmap::from_sections(offsets, targets, weights, reverse, num_edges, directed)?;
        if graph.num_nodes() != num_nodes {
            return Err(bad("meta node count does not match the CSR arrays"));
        }

        // 5. Scores and indexes.
        let scores = match find_unique(SectionKind::Scores)? {
            Some(s) => {
                if flags & FLAG_SCORES == 0 {
                    return Err(bad("Scores section present but meta flag unset"));
                }
                let len = elems(s, 8, "Scores")?;
                if len != num_nodes {
                    return Err(bad(format!(
                        "Scores covers {len} nodes but the graph has {num_nodes}"
                    )));
                }
                Some(ScoreVec::from_mapped(MapSlice::<f64>::new(
                    buf.clone(),
                    s.offset,
                    len,
                )?)?)
            }
            None if flags & FLAG_SCORES != 0 => {
                return Err(bad("meta declares scores but the section is missing"))
            }
            None => None,
        };

        let (order, permutation) = match find_unique(SectionKind::Perm)? {
            Some(s) => {
                let order = NodeOrder::from_code(s.aux).ok_or_else(|| {
                    bad(format!("Perm section with unknown order code {}", s.aux))
                })?;
                if order == NodeOrder::Natural {
                    return Err(bad("natural order never carries a Perm section"));
                }
                let len = elems(s, 4, "Perm")?;
                if len != num_nodes {
                    return Err(bad(format!(
                        "Perm covers {len} nodes but the graph has {num_nodes}"
                    )));
                }
                // The permutation is tiny next to the graph, so copy it
                // out of the map; `from_new_to_old` rejects any payload
                // that is not a bijection on [0, n).
                let slice = MapSlice::<u32>::new(buf.clone(), s.offset, len)?;
                let perm = Permutation::from_new_to_old(slice.as_slice().to_vec())?;
                (order, Some(perm))
            }
            None => (NodeOrder::Natural, None),
        };

        let adjacency = graph.csr().num_adjacency_entries();
        let mut indexes: BTreeMap<u32, (SizeIndex, Option<DiffIndex>)> = BTreeMap::new();
        for s in sections.iter().filter(|s| s.kind == SectionKind::SizeIdx) {
            let h = s.aux;
            if h == 0 {
                return Err(bad("SizeIdx section with hop radius 0"));
            }
            let len = elems(s, 4, "SizeIdx")?;
            if len != num_nodes {
                return Err(bad(format!(
                    "SizeIdx(h={h}) covers {len} nodes but the graph has {num_nodes}"
                )));
            }
            let slice = MapSlice::<u32>::new(buf.clone(), s.offset, len)?;
            if indexes
                .insert(h, (SizeIndex::from_mapped(h, slice), None))
                .is_some()
            {
                return Err(bad(format!("duplicate SizeIdx section for h={h}")));
            }
        }
        for s in sections.iter().filter(|s| s.kind == SectionKind::DiffIdx) {
            let h = s.aux;
            if directed {
                return Err(bad("DiffIdx section on a directed graph"));
            }
            let len = elems(s, 4, "DiffIdx")?;
            if len != adjacency {
                return Err(bad(format!(
                    "DiffIdx(h={h}) has {len} entries but the adjacency array has {adjacency}"
                )));
            }
            let slice = MapSlice::<u32>::new(buf.clone(), s.offset, len)?;
            match indexes.get_mut(&h) {
                Some((_, diff @ None)) => *diff = Some(DiffIndex::from_mapped(h, slice)),
                Some(_) => return Err(bad(format!("duplicate DiffIdx section for h={h}"))),
                // Eq. 1 needs N(v) alongside delta, so a diff index
                // without its size index is unusable — reject.
                None => {
                    return Err(bad(format!(
                        "DiffIdx(h={h}) present without a matching SizeIdx"
                    )))
                }
            }
        }

        Ok(CompiledGraph {
            graph,
            scores,
            indexes,
            order,
            permutation,
        })
    }

    /// The mapped graph.
    pub fn graph(&self) -> &CsrGraphMmap {
        &self.graph
    }

    /// The embedded score vector, if the file carries one. In the id
    /// space of the packed graph — already permuted on `--order` files.
    pub fn scores(&self) -> Option<&ScoreVec> {
        self.scores.as_ref()
    }

    /// The node order the container's arrays are numbered in.
    /// [`NodeOrder::Natural`] for every pre-`--order` file.
    pub fn order(&self) -> NodeOrder {
        self.order
    }

    /// The stored permutation (packed id ↔ original id), when the file
    /// was compiled with `--order`. Callers must map external scores
    /// *in* ([`crate::locality::permute_scores`]) and ranked entries
    /// *out* ([`crate::locality::map_entries_to_original`]).
    pub fn permutation(&self) -> Option<&Permutation> {
        self.permutation.as_ref()
    }

    /// Hop radii with pre-built indexes, ascending.
    pub fn hops_list(&self) -> Vec<u32> {
        self.indexes.keys().copied().collect()
    }

    /// A warm [`EngineState`] for `hops`, if the file carries indexes
    /// at that radius. Cheap: mapped index handles share the mapping.
    pub fn engine_state(&self, hops: u32) -> Option<EngineState> {
        let (size, diff) = self.indexes.get(&hops)?;
        Some(EngineState::from_indexes(Some(size.clone()), diff.clone()))
    }

    /// Warm states for every packed radius — what `lona serve
    /// --compiled` seeds its batcher with.
    pub fn warm_states(&self) -> BTreeMap<u32, EngineState> {
        self.indexes
            .keys()
            .map(|&h| (h, self.engine_state(h).unwrap()))
            .collect()
    }
}

impl GraphStore for CompiledGraph {
    fn csr(&self) -> CsrView<'_> {
        self.graph.csr()
    }
}

impl std::fmt::Debug for CompiledGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledGraph")
            .field("num_nodes", &self.graph.num_nodes())
            .field("num_edges", &self.graph.num_edges())
            .field("has_scores", &self.scores.is_some())
            .field("hops", &self.hops_list())
            .field("order", &self.order)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lona_graph::{GraphBuilder, GraphStore};

    fn sample() -> lona_graph::CsrGraph {
        GraphBuilder::undirected()
            .extend_edges([(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (0, 5), (4, 5)])
            .build()
            .unwrap()
    }

    fn compile(g: &lona_graph::CsrGraph, scores: Option<&ScoreVec>, hops: &[u32]) -> Vec<u8> {
        compile_to_vec(&CompileSpec {
            graph: g.view(),
            scores,
            hops,
            with_diff: true,
            order: NodeOrder::Natural,
        })
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_graph_scores_and_indexes() {
        let empty = GraphBuilder::undirected()
            .with_num_nodes(0)
            .build()
            .unwrap();
        for g in [sample(), empty] {
            let scores = ScoreVec::from_fn(g.num_nodes(), |u| (u.0 % 3) as f64 / 2.0);
            let bytes = compile(&g, Some(&scores), &[1, 2]);
            let c = CompiledGraph::from_bytes(bytes).unwrap();

            assert_eq!(c.graph().num_nodes(), g.num_nodes());
            assert_eq!(c.graph().num_edges(), g.num_edges());
            let mv = c.graph().csr();
            for u in g.view().nodes() {
                assert_eq!(mv.neighbors(u), g.neighbors(u));
            }
            assert_eq!(c.scores().unwrap().as_slice(), scores.as_slice());
            assert_eq!(c.hops_list(), vec![1, 2]);

            for h in [1u32, 2] {
                let state = c.engine_state(h).unwrap();
                let want_size = SizeIndex::build(g.view(), h);
                assert_eq!(state.size_index().unwrap(), &want_size);
                let want_diff = DiffIndex::build(g.view(), h, &want_size);
                assert_eq!(state.diff_index().unwrap(), &want_diff);
                assert_eq!(state.index_builds(), 0);
            }
            assert!(c.engine_state(3).is_none());
        }
    }

    #[test]
    fn directed_graph_packs_reverse_csr_and_no_diff() {
        let unweighted = GraphBuilder::directed()
            .extend_edges([(0, 1), (0, 2), (1, 2), (2, 0)])
            .build()
            .unwrap();
        let weighted = GraphBuilder::directed()
            .add_weighted_edge(0, 1, 0.25)
            .add_weighted_edge(2, 0, -1.5)
            .build()
            .unwrap();
        // (graph, a node, that node's incoming neighbours)
        for (g, v, incoming) in [
            (unweighted, NodeId(2), [NodeId(0), NodeId(1)].as_slice()),
            (weighted, NodeId(0), [NodeId(2)].as_slice()),
        ] {
            let bytes = compile_to_vec(&CompileSpec {
                graph: g.view(),
                scores: None,
                hops: &[2],
                with_diff: true, // ignored on directed graphs
                order: NodeOrder::Natural,
            })
            .unwrap();
            let c = CompiledGraph::from_bytes(bytes).unwrap();
            assert!(c.graph().is_directed());
            let mv = c.graph().csr();
            for u in g.view().nodes() {
                assert_eq!(mv.neighbors(u), g.neighbors(u));
                assert_eq!(mv.neighbor_weights(u), g.neighbor_weights(u));
            }
            let rev = c
                .graph()
                .reverse_csr()
                .expect("directed pack carries reverse CSR");
            assert_eq!(rev.neighbors(v), incoming);
            let (size, diff) = (
                c.engine_state(2).unwrap().size_index().is_some(),
                c.engine_state(2).unwrap().diff_index().is_some(),
            );
            assert!(size && !diff);
        }
    }

    #[test]
    fn truncation_at_every_prefix_is_rejected_without_panic() {
        let g = sample();
        let bytes = compile(&g, None, &[2]);
        for len in 0..bytes.len() {
            let r = CompiledGraph::from_bytes(bytes[..len].to_vec());
            assert!(r.is_err(), "prefix of {len} bytes was accepted");
        }
        assert!(CompiledGraph::from_bytes(bytes).is_ok());
    }

    #[test]
    fn header_and_checksum_corruption_rejected() {
        let g = sample();
        let scores = ScoreVec::from_fn(g.num_nodes(), |_| 0.5);
        let base = compile(&g, Some(&scores), &[2]);

        // Magic.
        let mut b = base.clone();
        b[0] ^= 0xff;
        assert!(CompiledGraph::from_bytes(b).is_err());
        // Version.
        let mut b = base.clone();
        b[8] = 99;
        assert!(CompiledGraph::from_bytes(b).is_err());
        // Absurd section count.
        let mut b = base.clone();
        b[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(CompiledGraph::from_bytes(b).is_err());
        // One flipped payload bit → checksum mismatch.
        let mut b = base.clone();
        let last = b.len() - 1;
        b[last] ^= 0x01;
        assert!(CompiledGraph::from_bytes(b).is_err());
    }

    /// Patch the first section of `kind` through `patch` and forge its
    /// checksum, so only the *structural* validation passes — not the
    /// integrity check — can catch the corruption.
    fn forge_section(bytes: &mut [u8], kind: SectionKind, patch: impl FnOnce(&mut [u8])) {
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        for i in 0..count {
            let e = 16 + 32 * i;
            if u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == kind as u32 {
                let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
                let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
                patch(&mut bytes[off..off + len]);
                let sum = fnv1a(&bytes[off..off + len]);
                bytes[e + 24..e + 32].copy_from_slice(&sum.to_le_bytes());
                return;
            }
        }
        panic!("no {kind:?} section in the container");
    }

    #[test]
    fn forged_out_of_range_interior_offset_rejected() {
        // Regression: an interior offset past the adjacency length with
        // a valid checksum used to panic in structural validation
        // instead of rejecting. The final offset is left intact so the
        // adjacency-length check cannot catch it first.
        let g = sample();
        let mut bytes = compile(&g, None, &[2]);
        forge_section(&mut bytes, SectionKind::Offsets, |p| {
            p[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        assert!(CompiledGraph::from_bytes(bytes).is_err());
    }

    #[test]
    fn forged_reverse_offsets_rejected() {
        // Same hostile shape against the reverse CSR of a directed
        // pack — validation is shared, but gate it explicitly.
        let g = GraphBuilder::directed()
            .extend_edges([(0, 1), (0, 2), (1, 2), (2, 0)])
            .build()
            .unwrap();
        let mut bytes = compile_to_vec(&CompileSpec {
            graph: g.view(),
            scores: None,
            hops: &[],
            with_diff: false,
            order: NodeOrder::Natural,
        })
        .unwrap();
        forge_section(&mut bytes, SectionKind::RevOffsets, |p| {
            p[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        assert!(CompiledGraph::from_bytes(bytes).is_err());
    }

    #[test]
    fn forged_meta_edge_count_rejected() {
        // A meta section that understates (or overstates) the edge
        // count must fail the exact adjacency cross-check even though
        // its checksum validates.
        let g = sample();
        let base = compile(&g, None, &[2]);
        for lie in [0u64, 1, g.num_edges() as u64 - 1, g.num_edges() as u64 + 1] {
            let mut bytes = base.clone();
            forge_section(&mut bytes, SectionKind::Meta, |p| {
                p[8..16].copy_from_slice(&lie.to_le_bytes());
            });
            assert!(
                CompiledGraph::from_bytes(bytes).is_err(),
                "forged edge count {lie} was accepted"
            );
        }
    }

    #[test]
    fn file_round_trip() {
        let g = sample();
        let dir = std::env::temp_dir().join(format!("lona-compiled-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.lona");
        compile_to_file(
            &CompileSpec {
                graph: g.view(),
                scores: None,
                hops: &[2],
                with_diff: true,
                order: NodeOrder::Natural,
            },
            &path,
        )
        .unwrap();
        let c = CompiledGraph::load(&path).unwrap();
        assert_eq!(c.graph().num_nodes(), g.num_nodes());
        std::fs::remove_file(&path).unwrap();
    }

    fn compile_ordered(g: &lona_graph::CsrGraph, order: NodeOrder) -> Vec<u8> {
        let scores = ScoreVec::from_fn(g.num_nodes(), |u| (u.0 % 4) as f64 / 3.0);
        compile_to_vec(&CompileSpec {
            graph: g.view(),
            scores: Some(&scores),
            hops: &[2],
            with_diff: true,
            order,
        })
        .unwrap()
    }

    #[test]
    fn ordered_pack_round_trips_permutation_and_permuted_scores() {
        let g = sample();
        let scores = ScoreVec::from_fn(g.num_nodes(), |u| (u.0 % 4) as f64 / 3.0);
        for order in [NodeOrder::Degree, NodeOrder::Bfs] {
            let c = CompiledGraph::from_bytes(compile_ordered(&g, order)).unwrap();
            assert_eq!(c.order(), order);
            let perm = c.permutation().expect("ordered pack carries a Perm");
            assert_eq!(perm.len(), g.num_nodes());
            // Packed graph is the reordered graph, scores moved along.
            let (want, want_perm) = g.reordered(order);
            assert_eq!(perm.new_to_old(), want_perm.new_to_old());
            let mv = c.graph().csr();
            for u in want.view().nodes() {
                assert_eq!(mv.neighbors(u), want.neighbors(u));
            }
            for new in 0..g.num_nodes() as u32 {
                let old = perm.to_old(NodeId(new));
                assert_eq!(
                    c.scores().unwrap().get(NodeId(new)).to_bits(),
                    scores.get(old).to_bits()
                );
            }
            // Indexes were built on the reordered view.
            let state = c.engine_state(2).unwrap();
            assert_eq!(
                state.size_index().unwrap(),
                &SizeIndex::build(want.view(), 2)
            );
            assert_eq!(state.index_builds(), 0);
        }
    }

    #[test]
    fn natural_pack_carries_no_perm_section() {
        let g = sample();
        let bytes = compile_ordered(&g, NodeOrder::Natural);
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        for i in 0..count {
            let e = 16 + 32 * i;
            let kind = u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap());
            assert_ne!(kind, SectionKind::Perm as u32, "natural pack wrote a Perm");
        }
        let c = CompiledGraph::from_bytes(bytes).unwrap();
        assert_eq!(c.order(), NodeOrder::Natural);
        assert!(c.permutation().is_none());
    }

    #[test]
    fn hostile_perm_payload_rejected() {
        let g = sample();
        let base = compile_ordered(&g, NodeOrder::Degree);

        // Duplicate entry → not a bijection.
        let mut b = base.clone();
        forge_section(&mut b, SectionKind::Perm, |p| {
            let first: [u8; 4] = p[0..4].try_into().unwrap();
            p[4..8].copy_from_slice(&first);
        });
        assert!(CompiledGraph::from_bytes(b).is_err());

        // Out-of-range entry.
        let mut b = base.clone();
        forge_section(&mut b, SectionKind::Perm, |p| {
            p[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        assert!(CompiledGraph::from_bytes(b).is_err());

        // Unknown order code in aux (aux sits in the table, outside
        // the payload checksum).
        let mut b = base.clone();
        let count = u32::from_le_bytes(b[12..16].try_into().unwrap()) as usize;
        for i in 0..count {
            let e = 16 + 32 * i;
            if u32::from_le_bytes(b[e..e + 4].try_into().unwrap()) == SectionKind::Perm as u32 {
                b[e + 4..e + 8].copy_from_slice(&99u32.to_le_bytes());
            }
        }
        assert!(CompiledGraph::from_bytes(b).is_err());
    }

    #[test]
    fn empty_and_garbage_files_rejected() {
        assert!(CompiledGraph::from_bytes(Vec::new()).is_err());
        assert!(CompiledGraph::from_bytes(vec![0u8; 64]).is_err());
        assert!(CompiledGraph::from_bytes(b"LONACPK1garbagegarbagegarbage!!!".to_vec()).is_err());
    }
}
