//! Spans around the calls into each layer.
//!
//! The traced run wraps every call into a public function of the stack
//! in a span: name, start, end, the span that caused it, and the
//! workload.  Spans live in a vector allocated before the run and are
//! written out when the benchmark ends, so tracing costs two clock reads
//! and one push per call.  With tracing off, [`Tracer::span`] is a plain
//! call: end-to-end metrics always come from such a run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, the layer being the crate that does the work.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<u32>,
    /// Index of the workload in `WORKLOADS`.
    pub workload: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// One thread's span recorder.  Not shared between threads: a workload
/// that measures from two threads gives each its own tracer and merges
/// the spans afterwards.
pub struct Tracer {
    epoch: Instant,
    workload: u32,
    inner: Option<RefCell<Inner>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            workload: 0,
            inner: None,
        }
    }

    /// A recording tracer with room for `capacity` spans; once full,
    /// later spans are not kept (their calls still run): the vector
    /// never grows while something is being timed.
    pub fn on(workload: u32, capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            workload,
            inner: Some(RefCell::new(Inner {
                spans: Vec::with_capacity(capacity),
                open: Vec::with_capacity(16),
            })),
        }
    }

    /// Run `f` inside a span named `name`, nested under whichever span
    /// of this tracer is open.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(cell) = &self.inner else {
            return f();
        };
        let id = {
            let mut t = cell.borrow_mut();
            if t.spans.len() == t.spans.capacity() {
                None
            } else {
                let id = t.spans.len() as u32;
                let parent = t.open.last().copied();
                t.spans.push(Span {
                    name,
                    start_ns: self.epoch.elapsed().as_nanos() as u64,
                    end_ns: 0,
                    parent,
                    workload: self.workload,
                });
                t.open.push(id);
                Some(id)
            }
        };
        let out = f();
        if let Some(id) = id {
            let end = self.epoch.elapsed().as_nanos() as u64;
            let mut t = cell.borrow_mut();
            t.spans[id as usize].end_ns = end;
            t.open.pop();
        }
        out
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |c| c.borrow().spans.clone())
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (overlapping children, as two
/// threads produce, are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: total nanoseconds, self nanoseconds, and count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.total_ns += s.duration_ns();
        e.self_ns += own;
        e.count += 1;
    }
    out
}

/// Chrome trace events (`chrome://tracing`, Perfetto): one complete
/// event per span, `pid` the workload and `tid` the recording thread.
pub fn chrome_events(spans: &[Span], tid: u32, workload_name: &str) -> Vec<String> {
    spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": {}, \"tid\": {}}}",
                crate::json::quote(s.name),
                crate::json::quote(workload_name),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.workload,
                tid
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            workload: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("pass", 0, 100, None),     // 0
            span("parse", 10, 30, Some(0)), // 1: sibling
            span("lower", 40, 90, Some(0)), // 2: sibling with a child
            span("opt", 50, 70, Some(2)),   // 3: nested
            span("other-root", 200, 250, None),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20, 50]);
        let t = totals_by_name(&spans);
        assert_eq!(
            t["pass"],
            NameTotal {
                total_ns: 100,
                self_ns: 30,
                count: 1
            }
        );
        assert_eq!(t["lower"].self_ns, 30);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = vec![
            span("window", 100, 200, None),
            span("a", 110, 160, Some(0)),
            span("b", 150, 190, Some(0)), // overlaps `a` by 10
            span("c", 195, 260, Some(0)), // runs past the parent's end
            span("d", 120, 130, Some(0)), // inside `a`
        ];
        // Covered: [110,190) = 80 and [195,200) = 5.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn tracer_nests_and_stops_at_capacity() {
        let t = Tracer::on(3, 2);
        let v = t.span("outer", || t.span("inner", || t.span("lost", || 7)));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].workload, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        // A later root span is not parented to a closed one.
        let t = Tracer::on(0, 8);
        t.span("a", || ());
        t.span("b", || ());
        assert_eq!(t.spans()[1].parent, None);

        let off = Tracer::off();
        assert_eq!(off.span("x", || 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_events_are_json() {
        let ev = chrome_events(&[span("exec.run_steady", 1500, 4500, None)], 1, "fir-vm");
        let v = crate::json::parse(&ev[0]).unwrap();
        assert_eq!(v.get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(v.get("ts").and_then(|p| p.as_f64()), Some(1.5));
        assert_eq!(v.get("dur").and_then(|p| p.as_f64()), Some(3.0));
    }
}
