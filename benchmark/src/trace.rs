//! In-memory spans, recorded from the harness's side of each layer
//! boundary and written out once the run ends.
//!
//! Spans *inside* the program are a later change. Until then a "child" is a
//! separately timed call into the inner layer's public function with the
//! same input, re-based onto its parent's start so the file nests; a
//! layer's self time is its span minus the part its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one request share this id.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a top-level span of `request`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (SpanId, R) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (self.record(name, start, end, None, request), out)
    }

    /// Times `f` — a separate call into an inner layer — and records it as
    /// a child of `parent`, re-based to start where the parent started.
    pub fn time_child<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> (SpanId, R) {
        let start = self.now_ns();
        let out = f();
        let took = self.now_ns() - start;
        let (base, request) = (self.spans[parent].start_ns, self.spans[parent].request);
        (
            self.record(name, base, base + took, Some(parent), request),
            out,
        )
    }

    /// Median duration (µs) of the spans called `name`; NaN if none.
    pub fn median_us(&self, name: &str) -> f64 {
        crate::stats::median(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e3)
                .collect(),
        )
    }

    /// Median self time (µs) of the spans called `name`; NaN if none.
    pub fn median_self_us(&self, name: &str) -> f64 {
        let selfs = self_times_ns(&self.spans);
        crate::stats::median(
            self.spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == name)
                .map(|(_, &ns)| ns as f64 / 1e3)
                .collect(),
        )
    }

    /// Renders up to `cap` spans of each name as a JSON array (the
    /// per-request load spans would otherwise run to tens of megabytes).
    pub fn to_json(&self, cap: usize) -> String {
        let mut seen: Vec<(&'static str, usize)> = Vec::new();
        let mut out = String::from("[\n");
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate() {
            let n = match seen.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, n)) => n,
                None => {
                    seen.push((s.name, 0));
                    &mut seen.last_mut().expect("just pushed").1
                }
            };
            *n += 1;
            if *n > cap {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are merged, and
/// anything a child covers outside the parent is ignored).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut frontier = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(frontier);
                if hi > lo {
                    covered += hi - lo;
                    frontier = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0, 100, None),    // 0: two children, one grandchild
            span(10, 40, Some(0)), // 1
            span(50, 70, Some(0)), // 2
            span(15, 25, Some(1)), // 3: only counts against span 1
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span(100, 200, None),
            span(100, 160, Some(0)),
            span(140, 180, Some(0)), // overlaps the first by 20
            span(190, 260, Some(0)), // hangs 60 past the parent
        ];
        // Covered: [100,180) ∪ [190,200) = 90.
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn rebased_children_nest_under_their_parent() {
        let mut t = Tracer::new();
        let (parent, ()) = t.time("outer", 9, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let (child, ()) = t.time_child("inner", parent, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert_eq!(t.spans[child].start_ns, t.spans[parent].start_ns);
        assert_eq!(t.spans[child].request, 9);
        let selfs = self_times_ns(&t.spans);
        assert!(selfs[parent] < t.spans[parent].duration_ns());
        assert!(t.to_json(10).contains("\"name\":\"inner\""));
    }
}
