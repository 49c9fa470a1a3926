//! Shared parallel-execution primitives.
//!
//! Every multi-threaded code path in the engine — the index builders
//! and the worker loops of Base, LONA-Forward and LONA-Backward — is
//! built from the three primitives here:
//!
//! * [`resolve_threads`] — one policy for turning a requested worker
//!   count (0 = one per core) into an actual one;
//! * [`ChunkCursor`] — an atomic work-stealing cursor handing out
//!   contiguous index ranges, so skewed per-item cost (hub nodes!)
//!   cannot leave a statically-partitioned worker holding the bag;
//! * [`SharedThreshold`] — a monotonically-rising `f64` lower bound
//!   shared across workers, the shared-memory form of the threshold
//!   algorithm's `topklbound` (Fagin et al.). Workers prune against
//!   it and raise it as their private top-k heaps fill.
//!
//! Soundness of sharing the threshold: the value only ever rises
//! ([`SharedThreshold::raise`] is a compare-and-swap max), so a worker
//! reading a stale value prunes *less* than it could, never more —
//! staleness is conservative, and no lock is needed (DESIGN.md §7).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Resolve a requested worker count against the work available.
///
/// `requested == 0` means one worker per core (the CLI's
/// `--threads 0`); any other value is taken
/// verbatim. The result is clamped to `[1, work_items]` so no worker
/// can ever start with nothing to do.
pub fn resolve_threads(requested: usize, work_items: usize) -> usize {
    let threads = if requested == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        requested
    };
    threads.clamp(1, work_items.max(1))
}

/// An atomic cursor over `0..items`, handing out disjoint contiguous
/// chunks to whichever worker asks next.
///
/// Chunks are claimed with one `fetch_add`, so stealing costs a single
/// atomic RMW per chunk regardless of worker count, and every index is
/// handed out exactly once.
#[derive(Debug)]
pub struct ChunkCursor {
    next: AtomicUsize,
    items: usize,
    chunk: usize,
}

impl ChunkCursor {
    /// Cursor over `0..items` with a chunk size balancing steal
    /// overhead against load balance: ~8 chunks per worker, at least 1
    /// item and at most 4096 per chunk.
    pub fn new(items: usize, threads: usize) -> Self {
        let chunk = (items / (threads.max(1) * 8)).clamp(1, 4096);
        Self::with_chunk(items, chunk)
    }

    /// Cursor over `0..items` with an explicit chunk size (≥ 1).
    /// Small chunks propagate a [`SharedThreshold`] faster; large ones
    /// amortize the claim better.
    pub fn with_chunk(items: usize, chunk: usize) -> Self {
        ChunkCursor {
            next: AtomicUsize::new(0),
            items,
            chunk: chunk.max(1),
        }
    }

    /// Claim the next chunk, or `None` when the range is exhausted.
    pub fn next(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.items {
            return None;
        }
        Some(start..(start + self.chunk).min(self.items))
    }
}

/// A monotonically-rising lower bound shared across workers.
///
/// Stored as the bit pattern of an `f64` in an `AtomicU64`; updates go
/// through a compare-and-swap loop that only ever replaces a value
/// with a strictly larger one, so concurrent raises cannot lose the
/// maximum and readers can use `Relaxed` loads: any value they see is
/// a *past* (hence smaller-or-equal) threshold, and pruning against a
/// lower threshold is always sound.
#[derive(Debug)]
pub struct SharedThreshold {
    bits: AtomicU64,
}

impl SharedThreshold {
    /// A threshold starting at `-∞` (no pruning power).
    pub fn new() -> Self {
        SharedThreshold {
            bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// The current bound. Never decreases over the cursor's lifetime.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Raise the bound to at least `value` (no-op if already higher).
    #[inline]
    pub fn raise(&self, value: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        while value > f64::from_bits(current) {
            match self.bits.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }
}

impl Default for SharedThreshold {
    fn default() -> Self {
        Self::new()
    }
}

/// Run `threads` scoped workers and collect their results in worker
/// order. With a single worker the closure runs on the calling thread
/// (no spawn cost, and one-worker runs stay debuggable).
pub fn run_workers<T, F>(threads: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 {
        return vec![worker(0)];
    }
    let mut out = Vec::with_capacity(threads);
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let worker = &worker;
                scope.spawn(move |_| worker(t))
            })
            .collect();
        for h in handles {
            out.push(h.join().expect("exec worker panicked"));
        }
    })
    .expect("exec scope failed");
    out
}

/// Evaluate `f(i)` for every `i` in `0..items` across `threads`
/// workers (work-stealing chunks) and collect the results in index
/// order. The single-worker path runs on the calling thread with no
/// cursor, so `map_indexed(1, ..)` is exactly a sequential loop —
/// the batch layer relies on this for its determinism guarantee.
pub fn map_indexed<T, F>(threads: usize, items: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads, items);
    if threads <= 1 {
        return (0..items).map(f).collect();
    }
    let cursor = ChunkCursor::new(items, threads);
    let parts = run_workers(threads, |_| {
        let mut out = Vec::new();
        while let Some(range) = cursor.next() {
            for i in range {
                out.push((i, f(i)));
            }
        }
        out
    });
    let mut slots: Vec<Option<T>> = (0..items).map(|_| None).collect();
    for (i, value) in parts.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("map_indexed covered every index"))
        .collect()
}

/// Split `data` into `threads` contiguous slices and hand each to a
/// worker as `worker(offset, slice)`. Used by builders that fill a
/// pre-sized output buffer in place (e.g. the size index).
pub fn partition_mut<T, F>(data: &mut [T], threads: usize, worker: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    let threads = resolve_threads(threads, n);
    if threads <= 1 {
        worker(0, data);
        return;
    }
    let chunk = n.div_ceil(threads);
    crossbeam::scope(|scope| {
        for (t, slice) in data.chunks_mut(chunk).enumerate() {
            let worker = &worker;
            scope.spawn(move |_| worker(t * chunk, slice));
        }
    })
    .expect("exec partition scope failed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn resolve_threads_policy() {
        assert_eq!(resolve_threads(4, 100), 4);
        assert_eq!(resolve_threads(4, 2), 2); // clamped to work
        assert_eq!(resolve_threads(1, 0), 1); // never zero
        assert!(resolve_threads(0, 1_000_000) >= 1); // 0 = per-core
    }

    #[test]
    fn cursor_covers_every_index_once() {
        let cursor = ChunkCursor::with_chunk(1003, 17);
        let mut seen = vec![false; 1003];
        while let Some(r) = cursor.next() {
            for i in r {
                assert!(!seen[i], "index {i} handed out twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "cursor skipped indexes");
    }

    #[test]
    fn cursor_is_disjoint_across_workers() {
        let cursor = ChunkCursor::new(10_000, 4);
        let claimed = AtomicUsize::new(0);
        let counts = run_workers(4, |_| {
            let mut local = 0usize;
            while let Some(r) = cursor.next() {
                local += r.len();
            }
            claimed.fetch_add(local, Ordering::Relaxed);
            local
        });
        assert_eq!(claimed.load(Ordering::Relaxed), 10_000);
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn empty_cursor_yields_nothing() {
        assert!(ChunkCursor::new(0, 4).next().is_none());
    }

    #[test]
    fn threshold_only_rises() {
        let t = SharedThreshold::new();
        assert_eq!(t.get(), f64::NEG_INFINITY);
        t.raise(1.5);
        assert_eq!(t.get(), 1.5);
        t.raise(0.5); // lower: ignored
        assert_eq!(t.get(), 1.5);
        t.raise(2.0);
        assert_eq!(t.get(), 2.0);
    }

    #[test]
    fn threshold_handles_negatives() {
        // f64 bit patterns do not order like floats for negatives; the
        // CAS loop must compare as floats.
        let t = SharedThreshold::new();
        t.raise(-3.0);
        assert_eq!(t.get(), -3.0);
        t.raise(-1.0);
        assert_eq!(t.get(), -1.0);
        t.raise(-2.0);
        assert_eq!(t.get(), -1.0);
    }

    #[test]
    fn concurrent_raise_keeps_max() {
        let t = SharedThreshold::new();
        run_workers(4, |w| {
            for i in 0..1000 {
                t.raise((w * 1000 + i) as f64);
            }
        });
        assert_eq!(t.get(), 3999.0);
    }

    #[test]
    fn partition_mut_fills_everything() {
        let mut data = vec![0usize; 777];
        partition_mut(&mut data, 4, |offset, slice| {
            for (i, slot) in slice.iter_mut().enumerate() {
                *slot = offset + i + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i + 1);
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        for threads in [1, 2, 4] {
            let got = map_indexed(threads, 97, |i| i * 3);
            assert_eq!(got, (0..97).map(|i| i * 3).collect::<Vec<_>>(), "{threads}");
        }
        assert!(map_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn run_workers_orders_results() {
        assert_eq!(run_workers(3, |t| t * 10), vec![0, 10, 20]);
        assert_eq!(run_workers(1, |t| t), vec![0]);
    }
}
