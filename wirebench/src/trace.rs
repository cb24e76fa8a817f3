//! In-memory span recorder for traced runs.
//!
//! A span is `(name, start, end, parent, request id)`, timed from the
//! benchmark's own code around calls into the program's public functions.
//! Each client thread records into its own [`Recorder`]; the recorders are
//! merged and written out as TSV when the run ends. [`self_times`] turns
//! the tree into per-span self time: a span's duration minus the part of
//! it its children cover, with overlapping children counted once.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
    /// Request id the span belongs to (0 = none).
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Appends `other`'s spans, re-pointing their parents.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".into());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the union
/// of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_exactly() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: the shared 20..30 counts once.
            span("b", 20, 50, Some(0)),
            // Runs past the parent's end: only 90..100 is covered.
            span("c", 90, 120, Some(0)),
            span("leaf", 25, 27, Some(2)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - (40 + 10));
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 30 - 2);
        assert_eq!(st[3], 30);
        assert_eq!(st[4], 2);
    }

    #[test]
    fn merge_repoints_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.spans.push(span("x", 0, 5, None));
        let mut b = Recorder::new(epoch);
        b.spans.push(span("y", 0, 9, None));
        b.spans.push(span("z", 1, 2, Some(0)));
        a.merge(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(self_times(&a.spans), vec![5, 8, 1]);
    }
}
