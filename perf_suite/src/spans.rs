//! The harness's own span recorder. Every call the benchmark makes into a
//! layer's public function during a traced run is one span, held in memory
//! and written out when the run ends. Spans inside the program are a later
//! change; these are taken from outside, around the calls.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call. `parent` indexes the merged span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Shared by the spans of one client operation.
    pub op_id: u64,
}

/// Handle of a span opened on a [`SpanLog`]; meaningless on a disabled log.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// A single thread's span buffer. One per client thread, merged at the end,
/// so recording takes no lock. A disabled log records nothing and costs one
/// branch per call, which lets the untraced and traced arms share code.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose timestamps count from `epoch` (shared by all threads of a
    /// run so merged spans are on one clock).
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        SpanLog {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op_id: u64) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            op_id,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span opened by [`SpanLog::begin`].
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id.0].end_ns = self.now_ns();
        }
    }

    /// Records `f` as a leaf span under `parent`.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op_id);
        let out = f();
        self.end(id);
        out
    }

    /// Appends this log's spans to `merged`, re-basing parent indices.
    pub fn append_to(self, merged: &mut Vec<Span>) {
        let base = merged.len();
        merged.extend(self.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Concatenates per-thread logs.
    pub fn merge(logs: Vec<SpanLog>) -> Vec<Span> {
        let mut merged = Vec::new();
        for log in logs {
            log.append_to(&mut merged);
        }
        merged
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once, and a
/// child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(frontier);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: how many, their summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Totals by span name, the table a reader starts from.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.end_ns - span.start_ns;
        entry.self_ns += self_ns;
    }
    out
}

/// The trace file's content: the by-name summary followed by every span.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let summary: Vec<Value> = totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| {
            json!({
                "name": name,
                "count": t.count,
                "total_ms": t.total_ns as f64 / 1e6,
                "self_ms": t.self_ns as f64 / 1e6,
            })
        })
        .collect();
    let rows: Vec<Value> = spans
        .iter()
        .map(|s| {
            json!({
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent.map(|p| p as u64),
                "op_id": s.op_id,
            })
        })
        .collect();
    json!({ "workload": workload, "summary": summary, "spans": rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 ns: the union of the two covers 10..60.
            span("b", 30, 60, Some(0)),
            // Sticks out of the parent: only 90..100 counts.
            span("c", 90, 130, Some(0)),
            // A grandchild reduces `a`, not `op`.
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 40, 10]);
    }

    #[test]
    fn self_times_sum_to_the_root_when_children_nest() {
        let spans = vec![
            span("op", 0, 1000, None),
            span("call", 100, 900, Some(0)),
            span("verify", 900, 950, Some(0)),
        ];
        let selves = self_times(&spans);
        assert_eq!(selves.iter().sum::<u64>(), 1000);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["op"].self_ns, 150);
        assert_eq!(totals["call"].total_ns, 800);
    }

    #[test]
    fn merge_rebases_parents_and_disabled_logs_stay_empty() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, true);
        let op = a.begin("op", None, 7);
        a.leaf("call", Some(op), 7, || ());
        a.end(op);
        let mut b = SpanLog::new(epoch, true);
        let op_b = b.begin("op", None, 8);
        b.leaf("call", Some(op_b), 8, || ());
        b.end(op_b);
        let mut off = SpanLog::new(epoch, false);
        let op_off = off.begin("op", None, 9);
        assert_eq!(off.leaf("call", Some(op_off), 9, || 5), 5);
        off.end(op_off);

        let merged = SpanLog::merge(vec![a, off, b]);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[1].parent, Some(0));
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(merged[3].op_id, 8);
        assert!(merged.iter().all(|s| s.end_ns >= s.start_ns));
        let file = to_json("w", &merged);
        assert_eq!(file.get("spans").unwrap().as_array().unwrap().len(), 4);
    }
}
