//! Helpers shared by the integration tests.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use lona::prelude::QueryStats;

/// A fresh temp dir, unique to this call — pid plus a process-wide
/// counter, since the tests of one binary run concurrently — and
/// removed with its contents on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create `<temp>/<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic work units of one run: every adjacency entry touched
/// plus every node visited by any phase. Exactly reproducible for a
/// fixed seed, unlike wall time, so work budgets can gate CI.
pub fn work_units(stats: &QueryStats) -> u64 {
    stats.edges_traversed
        + (stats.nodes_evaluated + stats.nodes_pruned + stats.nodes_distributed) as u64
}
