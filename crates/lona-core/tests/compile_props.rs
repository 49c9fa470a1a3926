//! Property tests for the compiled container: compile→load→query is
//! bit-identical to the in-RAM path on random graphs, and hostile
//! bytes — truncations, corrupted headers, flipped payload bits,
//! misaligned section lengths, arbitrary mutations — are rejected
//! with an error (or, for bytes outside any checksummed region,
//! loaded to the same answers), never a panic or an over-read.

use proptest::prelude::*;

use lona_core::{
    compile_to_vec, Aggregate, Algorithm, CompileSpec, CompiledGraph, LonaEngine, TopKQuery,
};
use lona_graph::{CsrGraph, GraphBuilder, GraphStore, NodeOrder};
use lona_relevance::ScoreVec;

#[derive(Debug, Clone)]
struct Case {
    g: CsrGraph,
    scores: ScoreVec,
    h: u32,
    k: usize,
    aggregate: Aggregate,
}

fn arb_aggregate() -> impl Strategy<Value = Aggregate> {
    prop_oneof![
        Just(Aggregate::Sum),
        Just(Aggregate::Avg),
        Just(Aggregate::DistanceWeightedSum),
        Just(Aggregate::Max)
    ]
}

/// Random undirected graphs — the regime where every index (size and
/// differential) exists, so the compiled file carries them all.
fn arb_case() -> impl Strategy<Value = Case> {
    (3u32..24, 0usize..60)
        .prop_flat_map(|(n, m)| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), m),
                proptest::collection::vec(0.0f64..=1.0, n as usize),
                1u32..4,
                1usize..8,
                arb_aggregate(),
            )
        })
        .prop_map(|(n, edges, scores, h, k, aggregate)| {
            let scores: Vec<f64> = scores
                .into_iter()
                .enumerate()
                .map(|(i, s)| if i % 3 == 0 { s } else { 0.0 })
                .collect();
            Case {
                g: GraphBuilder::undirected()
                    .with_num_nodes(n)
                    .extend_edges(edges)
                    .build()
                    .unwrap(),
                scores: ScoreVec::new(scores),
                h,
                k,
                aggregate,
            }
        })
}

/// FNV-1a 64 — mirrors the container's section checksum so tests can
/// forge a valid checksum over corrupted bytes and force the loader's
/// *structural* validation (not the integrity check) to stand alone.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Overwrite one u32 in the payload of the first section of `kind`
/// (1 = Meta, 2 = Offsets, 3 = Targets, …) and re-forge the section
/// checksum. Returns false if the container has no such section or
/// its payload is empty (a zero-edge graph's Targets section).
fn forge_u32(bytes: &mut [u8], kind: u32, elem: usize, val: u32) -> bool {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    for i in 0..count {
        let e = 16 + 32 * i;
        if u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == kind {
            let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
            if len < 4 {
                return false;
            }
            let at = off + (elem % (len / 4)) * 4;
            bytes[at..at + 4].copy_from_slice(&val.to_le_bytes());
            let sum = fnv1a(&bytes[off..off + len]);
            bytes[e + 24..e + 32].copy_from_slice(&sum.to_le_bytes());
            return true;
        }
    }
    false
}

fn compile_case(case: &Case) -> Vec<u8> {
    compile_to_vec(&CompileSpec {
        graph: case.g.view(),
        scores: Some(&case.scores),
        hops: &[case.h],
        with_diff: true,
        order: NodeOrder::Natural,
    })
    .unwrap()
}

/// Top-k entries as bit patterns, so -0.0/0.0 and every rounding
/// artifact must agree exactly — not just within a tolerance.
fn run_bits(
    engine: &mut LonaEngine<'_>,
    alg: &Algorithm,
    case: &Case,
    scores: &ScoreVec,
) -> Vec<(u32, u64)> {
    let query = TopKQuery::new(case.k, case.aggregate);
    let result = engine.run(alg, &query, scores);
    result
        .entries
        .iter()
        .map(|&(u, v)| (u.0, v.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// compile → from_bytes returns the graph row for row, and queries
    /// answer bit-identically to the in-RAM graph under every
    /// sequential algorithm, with zero index builds on the mapped engine.
    #[test]
    fn compiled_queries_are_bit_identical(case in arb_case()) {
        let bytes = compile_case(&case);
        let c = CompiledGraph::from_bytes(bytes).unwrap();
        let view = c.csr();
        prop_assert_eq!(view.num_nodes(), case.g.num_nodes());
        prop_assert_eq!(view.num_edges(), case.g.num_edges());
        for u in case.g.nodes() {
            prop_assert_eq!(view.neighbors(u), case.g.neighbors(u));
        }
        prop_assert_eq!(c.scores().unwrap().as_slice(), case.scores.as_slice());

        let mut ram = LonaEngine::new(&case.g, case.h);
        let state = c.engine_state(case.h).expect("packed radius");
        let mut mapped = LonaEngine::from_state(&c, case.h, state);

        for alg in [Algorithm::Base, Algorithm::forward(), Algorithm::backward()] {
            let want = run_bits(&mut ram, &alg, &case, &case.scores);
            let got = run_bits(&mut mapped, &alg, &case, c.scores().unwrap());
            prop_assert_eq!(&want, &got, "algorithm {:?} diverged", alg);
        }
        prop_assert_eq!(mapped.state().index_builds(), 0);
    }

    /// Every strict prefix of a compiled file is rejected with an
    /// error — never a panic, never a bogus accept.
    #[test]
    fn every_truncation_is_rejected(case in arb_case(), frac in 0.0f64..1.0) {
        let bytes = compile_case(&case);
        let cut = ((bytes.len() as f64) * frac) as usize; // < len
        prop_assert!(CompiledGraph::from_bytes(bytes[..cut].to_vec()).is_err());
    }

    /// Any change to the magic or version bytes fails the load.
    #[test]
    fn corrupted_magic_or_version_is_rejected(
        case in arb_case(),
        byte in 0usize..12,
        delta in 1u8..=255,
    ) {
        let mut bytes = compile_case(&case);
        bytes[byte] = bytes[byte].wrapping_add(delta);
        prop_assert!(CompiledGraph::from_bytes(bytes).is_err());
    }

    /// Flipping any bit inside a section payload trips that section's
    /// checksum. Payloads start right after the 32-byte-per-entry
    /// table; the last byte of the file that is *not* alignment
    /// padding is inside the final payload, so probe near both ends.
    #[test]
    fn flipped_payload_bits_are_rejected(case in arb_case(), bit in 0u8..8) {
        let mut bytes = compile_case(&case);
        // The Meta payload is the first section: 32 bytes at the first
        // 8-aligned offset past the table. Its checksum must catch a
        // single flipped bit.
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let meta_off = (16 + 32 * count).next_multiple_of(8);
        bytes[meta_off] ^= 1 << bit;
        prop_assert!(CompiledGraph::from_bytes(bytes).is_err());
    }

    /// Making any section's length odd (not a multiple of its element
    /// size) is rejected — the checksum re-scan over the shifted range
    /// fails first, and even a forged checksum would then hit the
    /// element-size check. Never a panic, never an unaligned view.
    #[test]
    fn misaligned_section_lengths_are_rejected(case in arb_case(), idx in 0usize..16) {
        let mut bytes = compile_case(&case);
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let entry = 16 + 32 * (idx % count);
        // byte_len lives at entry+16; +1 misaligns every kind (element
        // sizes are 4, 8 or the fixed 32-byte meta).
        let len = u64::from_le_bytes(bytes[entry + 16..entry + 24].try_into().unwrap());
        bytes[entry + 16..entry + 24].copy_from_slice(&(len + 1).to_le_bytes());
        prop_assert!(CompiledGraph::from_bytes(bytes).is_err());
    }

    /// Arbitrary single-byte mutations anywhere in the file never
    /// panic and never over-read: the loader either rejects the bytes
    /// or — when the mutation lands in unchecksummed alignment padding
    /// or reshapes the container into something still self-consistent
    /// — yields a graph it can query without fault.
    #[test]
    fn arbitrary_mutation_never_panics(
        case in arb_case(),
        pos_frac in 0.0f64..1.0,
        delta in 1u8..=255,
    ) {
        let mut bytes = compile_case(&case);
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] = bytes[pos].wrapping_add(delta);
        if let Ok(c) = CompiledGraph::from_bytes(bytes) {
            // Accepted: exercise the mapped views end to end.
            let view = c.csr();
            for u in view.nodes() {
                let _ = view.neighbors(u);
            }
            for h in c.hops_list() {
                let _ = c.engine_state(h);
            }
        }
    }

    /// Structural corruption with a *forged* checksum — an arbitrary
    /// u32 planted anywhere in the Offsets, Targets, or Meta payload —
    /// never panics and never over-reads: the structural validation
    /// passes must stand on their own once the integrity check is
    /// sidestepped. Covers the non-monotone / out-of-range interior
    /// offset shape (e.g. [0, 10, 2] over 2 targets) that slipped past
    /// the pairwise monotone check and panicked the row slice.
    #[test]
    fn forged_checksum_corruption_never_panics(
        case in arb_case(),
        kind in prop_oneof![Just(1u32), Just(2), Just(3)],
        elem in 0usize..64,
        val in 0u32..u32::MAX,
    ) {
        let mut bytes = compile_case(&case);
        if !forge_u32(&mut bytes, kind, elem, val) {
            return Ok(()); // zero-edge graph: no Targets payload to forge
        }
        if let Ok(c) = CompiledGraph::from_bytes(bytes) {
            // Accepted means the planted value happened to keep every
            // invariant — exercise the views to prove it.
            let view = c.csr();
            for u in view.nodes() {
                let _ = view.neighbors(u);
            }
            for h in c.hops_list() {
                let _ = c.engine_state(h);
            }
        }
    }

    /// The specific reported repro, scaled to random graphs: bound an
    /// interior offset past the adjacency length while leaving the
    /// final offset intact, forge the checksum — must reject with an
    /// error, never panic.
    #[test]
    fn forged_oversized_offset_is_rejected(case in arb_case(), elem in 0usize..64) {
        let mut bytes = compile_case(&case);
        // An offset past the adjacency length fails whichever slot it
        // lands on: slot 0 breaks offsets[0] == 0, the final slot
        // breaks the adjacency-length match, and an interior slot must
        // trip the bound check *before* any row slice is formed.
        let oversized = case.g.view().num_adjacency_entries() as u32 + 7;
        if !forge_u32(&mut bytes, 2, elem, oversized) {
            return Ok(());
        }
        prop_assert!(
            CompiledGraph::from_bytes(bytes).is_err(),
            "oversized offset accepted"
        );
    }

    /// Zero-length and junk buffers of any size are rejected cleanly.
    #[test]
    fn junk_buffers_are_rejected(junk in proptest::collection::vec(0u8..=255, 0..256)) {
        // All-random bytes essentially never form a valid magic; if
        // they do start with it, the rest still has to validate.
        if junk.len() < 16 || &junk[..8] != lona_core::compiled::MAGIC {
            prop_assert!(CompiledGraph::from_bytes(junk).is_err());
        }
    }
}
