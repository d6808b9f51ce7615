//! Spans around every call into a layer, recorded from the harness's
//! side of the boundary and kept in memory until the benchmark ends.

use std::time::Instant;

use ezflow_sim::JsonValue;

/// One timed interval: `workload > rep > point > phase`, plus the
/// engine's per-handler totals as children of `run`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index into the recorder's span list.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Phase or container name.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans (a tree, through an open-span stack) and the flat list
/// of timed segments the stitched minimum is taken over.
pub struct Recorder {
    epoch: Instant,
    /// Every span opened so far, closed or not, in opening order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Segment durations, nanoseconds, in execution order.
    pub segs: Vec<u64>,
    /// The phase name of each segment, parallel to `segs`.
    pub seg_names: Vec<&'static str>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            segs: Vec::new(),
            seg_names: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.into(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one segment named `phase`, without a span of its own
    /// (the caller's open span covers it).
    pub fn segment<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.segs.push(t0.elapsed().as_nanos() as u64);
        self.seg_names.push(phase);
        out
    }

    /// Times `f` as one segment *and* one span, both named `phase`.
    pub fn phase<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(phase);
        let out = self.segment(phase, f);
        self.close(id);
        out
    }

    /// Adds closed child spans under `parent`, laid end to end from its
    /// start — how the engine's per-handler totals (durations without
    /// positions) enter the tree.
    pub fn add_children(&mut self, parent: usize, children: &[(&str, u64)]) {
        let mut at = self.spans[parent].start_ns;
        for &(name, dur) in children {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: Some(parent),
                name: name.to_string(),
                start_ns: at,
                end_ns: at + dur,
            });
            at += dur;
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Each span's self time: its duration minus what its direct children
/// cover (saturating, so children that overrun their parent show as zero
/// self time and are caught by the caller's own check).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// One JSONL line per span.
pub fn spans_jsonl(workload: &str, rep: usize, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let rec = JsonValue::obj(vec![
            ("workload", JsonValue::str(workload)),
            ("rep", rep.into()),
            ("id", s.id.into()),
            (
                "parent",
                s.parent.map(JsonValue::from).unwrap_or(JsonValue::Null),
            ),
            ("name", JsonValue::str(&s.name)),
            ("start_ns", s.start_ns.into()),
            ("end_ns", s.end_ns.into()),
            ("self_ns", own_ns.into()),
        ]);
        out.push_str(&rec.to_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 60, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![20, 40, 10, 30]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(own.iter().sum::<u64>(), spans[0].dur_ns());
    }

    #[test]
    fn recorder_nests_spans_and_keeps_segments_in_order() {
        let mut rec = Recorder::new();
        let rep = rec.open("rep");
        rec.phase("parse", || ());
        let run = rec.open("run");
        rec.segment("run", || ());
        rec.segment("run", || ());
        rec.close(run);
        rec.add_children(run, &[("tx_end", 0)]);
        rec.close(rep);
        assert_eq!(rec.seg_names, vec!["parse", "run", "run"]);
        let names: Vec<_> = rec.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["rep", "parse", "run", "tx_end"]);
        assert_eq!(rec.spans[1].parent, Some(rep));
        assert_eq!(rec.spans[3].parent, Some(run));
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(spans_jsonl("w", 0, &rec.spans).lines().count(), 4);
    }
}
