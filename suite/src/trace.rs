//! Spans recorded in memory by the traced run and written out as JSON
//! lines when it ends. Spans come from the benchmark's own side of each
//! layer boundary: around its calls into the program's public
//! functions, and rebuilt from the nanosecond fields the server returns
//! in every reply.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::quote;

#[derive(Debug)]
pub struct Span {
    pub name: String,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span store. When off, every call is a no-op returning id 0.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the trace epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; ids start at 1.
    pub fn span(
        &mut self,
        name: &str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            request,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: u64) -> u64 {
        let now = self.ns(Instant::now());
        self.span(name, parent, 0, now, now)
    }

    pub fn end(&mut self, id: u64) {
        if id > 0 {
            let now = self.ns(Instant::now());
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Run `f` inside a span and return its result and wall time.
    pub fn time<T>(&mut self, name: &str, parent: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.begin(name, parent);
        let t = Instant::now();
        let out = f();
        let took = t.elapsed();
        self.end(id);
        (out, took)
    }

    /// Each span's self time: its duration minus the part of it that
    /// its children cover. Indexed by span id − 1.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Write one span per line: name, span id, parent id, request id,
    /// start and end in ns from the epoch, and self time.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let self_ns = self.self_ns();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":{},\"span\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                quote(&s.name),
                i + 1,
                s.parent,
                s.request,
                s.start_ns,
                s.end_ns,
                self_ns[i]
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.span("root", 0, 1, 0, 100);
        t.span("a", root, 1, 10, 40);
        t.span("b", root, 1, 30, 50);
        t.span("c", root, 1, 90, 120);
        assert_eq!(t.self_ns()[0], 100 - 40 - 10);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, 0, 0, 1), 0);
    }
}
