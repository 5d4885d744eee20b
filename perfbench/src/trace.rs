//! In-memory spans around every call the benchmark makes into a layer,
//! written out when the run ends. Spans are recorded from the
//! benchmark's own code only; the simulator is not instrumented beyond
//! its existing per-stage profile, whose samples are nested under the
//! `sim.run_checked` span of the cell they came from.

use crate::host::CpuTime;
use std::time::Instant;
use ubrc_stats::Json;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer operation, e.g. `isa.assemble` or `sim.stage.issue`.
    pub name: String,
    /// What the operation ran on: a program or cell label. Spans of one
    /// cell share it.
    pub subject: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Wall nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Wall nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Process CPU seconds spent inside the span (`None` for stage
    /// samples, which the simulator times in wall nanoseconds only).
    pub cpu_s: Option<f64>,
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, CpuTime)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` about `subject`; spans opened
    /// inside `f` become its children.
    pub fn span<T>(&mut self, name: &str, subject: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            subject: subject.to_string(),
            parent: self.open.last().map(|&(p, _)| p),
            start_ns: self.now_ns(),
            end_ns: 0,
            cpu_s: None,
        });
        self.open.push((id, CpuTime::now()));
        let out = f(self);
        let (closed, cpu_start) = self.open.pop().expect("span stack balanced");
        debug_assert_eq!(closed, id);
        let cpu = CpuTime::now().since(cpu_start).total();
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.cpu_s = Some(cpu);
        out
    }

    /// Nests a simulator stage profile, given as `(stage, wall
    /// nanoseconds)` samples, under span `parent`: one child per stage,
    /// laid end to end from the parent's start.
    pub fn nest_profile(
        &mut self,
        parent: usize,
        stages: impl IntoIterator<Item = (&'static str, u64)>,
    ) {
        let mut at = self.spans[parent].start_ns;
        let subject = self.spans[parent].subject.clone();
        for (stage, nanos) in stages {
            self.spans.push(Span {
                name: format!("sim.stage.{stage}"),
                subject: subject.clone(),
                parent: Some(parent),
                start_ns: at,
                end_ns: at + nanos,
                cpu_s: None,
            });
            at += nanos;
        }
    }

    /// Index of the most recently recorded span.
    pub fn last(&self) -> Option<usize> {
        self.spans.len().checked_sub(1)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of CPU seconds over spans named `name`.
    pub fn cpu_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.cpu_s)
            .sum()
    }

    /// Self time of span `id` in wall nanoseconds: its duration minus
    /// the part its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let covered: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| {
                c.end_ns
                    .min(span.end_ns)
                    .saturating_sub(c.start_ns.max(span.start_ns))
            })
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(covered)
    }

    /// Self time summed per span name, in first-seen order.
    pub fn self_ns_by_name(&self) -> Vec<(&str, u64)> {
        let mut out: Vec<(&str, u64)> = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            let ns = self.self_ns(id);
            match out.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, total)) => *total += ns,
                None => out.push((&span.name, ns)),
            }
        }
        out
    }

    /// The spans and per-name self times as one JSON document.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::from(s.name.as_str())),
                ("subject", Json::from(s.subject.as_str())),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("cpu_s", s.cpu_s.map_or(Json::Null, Json::from)),
            ])
        });
        let self_times = self
            .self_ns_by_name()
            .into_iter()
            .map(|(name, ns)| Json::obj([("name", Json::from(name)), ("self_ns", Json::from(ns))]));
        Json::obj([
            ("spans", Json::arr(spans)),
            ("self_ns", Json::arr(self_times)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", "x", |t| {
            t.span("inner", "x", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let inner = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(t.self_ns(0), spans[0].end_ns - spans[0].start_ns - inner);
        assert!(t.to_json().to_string().contains("\"self_ns\""));
    }
}
