//! Spans recorded from the benchmark's own files, around the calls into
//! each layer; kept in memory, written as Chrome trace events at exit.
//!
//! Two kinds of span. A *measured* span brackets a call this benchmark
//! makes (an op, a harness call, a layer probe). A *replayed* span lays a
//! duration the program reported (`Plan::phase_timings`,
//! `Plan::refine_seconds`, ...) inside the measured span of the call that
//! reported it, in pipeline order; its exact position is not known from
//! outside, its length is. Spans inside the crates are a later change.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// The op this span belongs to; probes share one pseudo-op id.
    pub op: usize,
    pub start_us: f64,
    pub end_us: f64,
    pub replayed: bool,
    /// Counts attached at the same boundary.
    pub counts: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        op: usize,
        (start_us, end_us): (f64, f64),
        replayed: bool,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            op,
            start_us,
            end_us,
            replayed,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Open a measured span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>, op: usize) -> usize {
        let now = self.now_us();
        self.push(name, parent, op, (now, now), false)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// A measured span whose bounds were taken elsewhere (microseconds
    /// on this tracer's clock).
    pub fn measured(&mut self, name: &str, parent: usize, start_us: f64, end_us: f64) -> usize {
        let op = self.spans[parent].op;
        self.push(name, Some(parent), op, (start_us, end_us), false)
    }

    /// Lay a reported duration inside `parent`, starting at `*cursor_us`
    /// (advanced past it), clipped to the parent's interval.
    pub fn replay(&mut self, name: &str, parent: usize, cursor_us: &mut f64, seconds: f64) {
        if seconds <= 0.0 {
            return;
        }
        let (p_start, p_end, op) = {
            let p = &self.spans[parent];
            (p.start_us, p.end_us, p.op)
        };
        let start = cursor_us.clamp(p_start, p_end);
        let end = (start + seconds * 1e6).min(p_end);
        *cursor_us = end;
        self.push(name, Some(parent), op, (start, end), true);
    }

    pub fn count(&mut self, id: usize, name: &'static str, value: f64) {
        self.spans[id].counts.push((name, value));
    }

    pub fn duration_s(&self, id: usize) -> f64 {
        (self.spans[id].end_us - self.spans[id].start_us) / 1e6
    }

    /// Seconds of `id` covered by its direct children.
    pub fn children_s(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.end_us - s.start_us) / 1e6)
            .sum()
    }

    /// Share of span `id` its leaf descendants account for — the layer
    /// spans; `planner.*` leaves are left out, because they are the
    /// remainders (launch, assembly) that no layer reported.
    pub fn coverage(&self, id: usize) -> f64 {
        let total = self.duration_s(id);
        if total <= 0.0 {
            return 0.0;
        }
        let mut is_parent = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                is_parent[p] = true;
            }
        }
        let mut covered = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if i == id || is_parent[i] || s.name.starts_with("planner.") {
                continue;
            }
            let mut up = s.parent;
            while let Some(p) = up {
                if p == id {
                    covered += (s.end_us - s.start_us) / 1e6;
                    break;
                }
                up = self.spans[p].parent;
            }
        }
        covered / total
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span; `args` carries id, parent, op, self time
    /// (span minus children), whether the span is replayed, and counts.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            let dur = span.end_us - span.start_us;
            let self_us = dur - self.children_s(id) * 1e6;
            let _ = write!(
                s,
                "{}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {id}, \
                 \"parent\": {}, \"op\": {}, \"self_us\": {:.3}, \"replayed\": {}",
                if id > 0 { ",\n" } else { "" },
                span.name,
                workload,
                span.start_us,
                dur,
                span.op,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.op,
                self_us,
                span.replayed,
            );
            for (name, value) in &span.counts {
                let _ = write!(s, ", \"{name}\": {value}");
            }
            s.push_str("}}");
        }
        s.push_str("\n]}\n");
        s
    }
}
