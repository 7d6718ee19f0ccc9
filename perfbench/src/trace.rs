//! The benchmark's own span recorder.
//!
//! Spans are recorded around each call the benchmark makes into a layer
//! of the program, on the calling thread, with wall-clock time. The
//! program's observability stays wall-clock-free; everything here lives
//! in the benchmark. Spans stay in memory and are written out once, when
//! the run ends.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request id: the index of the queue the span served.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans when enabled; a disabled tracer only runs the
/// closure, so untraced runs pay no clock reads for it.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            enabled: false,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus the part its children cover. Children
    /// run one after another on this thread, so they never overlap.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.ms();
            }
        }
        own
    }

    /// Durations of the spans named `name`, in milliseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// All spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, (span, own)) in self.spans.iter().zip(self.self_ms()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ms\":{own}}}",
                span.name, span.req, span.start_ns, span.end_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.set_enabled(true);
        tracer.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        let own = tracer.self_ms();
        assert!(own[1] >= 5.0);
        assert!(own[0] >= 0.0 && own[0] < spans[0].ms());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(Instant::now());
        let v = tracer.span("x", 0, |_| 3);
        assert_eq!(v, 3);
        assert!(tracer.spans().is_empty());
    }
}
