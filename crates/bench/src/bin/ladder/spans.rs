//! In-memory spans recorded by the benchmark's own code around each
//! public call into a layer. A disabled recorder reads no clock and
//! allocates nothing, so the measured pass runs the same code as the
//! traced pass with tracing off.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One recorded interval. `start_s`/`end_s` are seconds since the
/// recorder was created; `id` and `parent` number the spans of one
/// repetition, and `rep`, set by whoever gathers several repetitions'
/// spans, is the repetition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub rep: u32,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span named `name` under the span that is open now; close it
    /// with [`Recorder::end`]. `None` when recording is off.
    pub fn begin(&mut self, name: &str) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            rep: 0,
            name: name.to_string(),
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span [`Recorder::begin`] returned (the innermost open one).
    pub fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
            self.spans[id as usize].end_s = self.t0.elapsed().as_secs_f64();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// Total duration of the spans called `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .sum()
}

/// A span's duration minus the part its direct children cover.
pub fn self_time_s(spans: &[Span], id: u32) -> f64 {
    let own = spans
        .iter()
        .find(|s| s.id == id)
        .map_or(0.0, Span::duration_s);
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_s)
        .sum();
    own - children
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_s: f64, end_s: f64) -> Span {
        Span {
            id,
            parent,
            rep: 0,
            name: format!("s{id}"),
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 4.0),
            span(2, Some(0), 5.0, 9.0),
            span(3, Some(2), 6.0, 8.0),
        ];
        assert_eq!(self_time_s(&spans, 0), 3.0);
        assert_eq!(self_time_s(&spans, 2), 2.0);
        assert_eq!(self_time_s(&spans, 3), 2.0);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        let outer = rec.begin("outer");
        let v = rec.span("inner", || 42);
        rec.end(outer);
        assert_eq!(v, 42);
        let spans = rec.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.end_s >= s.start_s));
        assert!(spans[0].duration_s() >= spans[1].duration_s());

        let mut off = Recorder::new(false);
        assert_eq!(off.begin("x"), None);
        assert_eq!(off.span("y", || 1), 1);
        assert!(off.finish().is_empty());
    }
}
