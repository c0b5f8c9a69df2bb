//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span is `{name, start, end, parent, request}`; spans of one request
//! share `request`.  Spans stay in memory until the run ends and are then
//! written as one JSON document.  A span's self time is its duration minus
//! the durations of its children; the layer of a span is its name up to the
//! first `.`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer` or `layer.entry`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u32,
}

impl Span {
    /// `end - start`, in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u32, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request });
        self.spans.len() - 1
    }

    /// Closes the span `index` opened.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(name, request, parent);
        let value = f();
        self.close(index);
        value
    }

    /// Self time of every span, in ns: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut times: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                times[parent] = times[parent].saturating_sub(span.duration());
            }
        }
        times
    }

    /// Self time per request, in ns, summed over its spans.
    pub fn self_by_request(&self) -> BTreeMap<u32, u64> {
        let mut sums = BTreeMap::new();
        for (span, time) in self.spans.iter().zip(self.self_times()) {
            *sums.entry(span.request).or_insert(0) += time;
        }
        sums
    }

    /// Busy time per layer: the sum of its spans' self times, in ns.
    pub fn busy(&self) -> BTreeMap<&'static str, u64> {
        let mut busy = BTreeMap::new();
        for (span, time) in self.spans.iter().zip(self.self_times()) {
            *busy.entry(span.layer()).or_insert(0) += time;
        }
        busy
    }

    /// Duration of the most recently opened span, in ns.
    pub fn last_ns(&self) -> f64 {
        self.spans.last().map_or(0.0, |span| span.duration() as f64)
    }

    /// Median self time of the spans called `name`, in µs (`0` if none).
    pub fn p50_us(&self, name: &str) -> f64 {
        let times = self.self_times();
        let samples: Vec<f64> = self
            .spans
            .iter()
            .zip(times)
            .filter(|(span, _)| span.name == name)
            .map(|(_, time)| time as f64 / 1e3)
            .collect();
        median(&samples)
    }

    /// Every span as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start, span.end, span.request
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_roots() {
        let mut tracer = Tracer::default();
        for request in 0..3 {
            let root = tracer.open("request", request, None);
            tracer
                .span("a.x", request, Some(root), || std::hint::black_box((0..1000).sum::<u64>()));
            tracer.span("b", request, Some(root), || std::hint::black_box((0..500).sum::<u64>()));
            tracer.close(root);
        }
        let roots: u64 =
            tracer.spans.iter().filter(|s| s.parent.is_none()).map(Span::duration).sum();
        let selves: u64 = tracer.self_times().iter().sum();
        assert_eq!(selves, roots, "self times partition the root spans exactly");
        assert_eq!(tracer.self_by_request().len(), 3);
        let busy = tracer.busy();
        assert!(busy.contains_key("a") && busy.contains_key("request"));
        assert_eq!(tracer.last_ns(), tracer.spans[8].duration() as f64);
        assert!(ilogic_core::json::Json::parse(&tracer.to_json()).is_ok());
    }
}
