//! Spans of the traced run, recorded from the benchmark's side of each
//! call into a layer. Kept in memory; written as a Chrome trace-event file
//! (`chrome://tracing`, Perfetto) when the benchmark ends.

use std::collections::BTreeMap;
use std::time::Instant;

use sparker_profiles::JsonValue;

use crate::outcome::{number, object, text};

struct Span {
    layer: &'static str,
    name: &'static str,
    /// The workload whose traced run made the call.
    lane: usize,
    /// Nanoseconds since the tracer was made.
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that was open when this one began.
    parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    lanes: Vec<String>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// An open span; hand it back to [`Tracer::end`].
pub struct Open(usize);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            lanes: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Start the lane of `workload`; later spans belong to it.
    pub fn lane(&mut self, workload: &str) {
        self.lanes.push(workload.to_string());
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        let index = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            lane: self.lanes.len().saturating_sub(1),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        Open(index)
    }

    /// Close `span` (spans close innermost first) and return its duration in
    /// seconds.
    pub fn end(&mut self, span: Open) -> f64 {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        let s = &mut self.spans[span.0];
        s.end_ns = now;
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Time one call into a layer.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        call: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(layer, name);
        let out = call();
        (out, self.end(open))
    }

    /// Chrome trace-event JSON: one process per workload lane, one complete
    /// ("X") event per span, carrying its parent and its self time (duration
    /// minus the part its child spans cover).
    pub fn to_chrome_json(&self) -> String {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut events = Vec::with_capacity(self.spans.len() + self.lanes.len());
        for (pid, lane) in self.lanes.iter().enumerate() {
            events.push(object([
                ("name", text("process_name")),
                ("ph", text("M")),
                ("pid", number(pid as f64)),
                ("args", object([("name", text(lane.as_str()))])),
            ]));
        }
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let us = |ns: u64| number(ns as f64 / 1e3);
            let mut args = BTreeMap::new();
            args.insert("id".to_string(), number(i as f64));
            args.insert("self_us".to_string(), us(dur.saturating_sub(covered[i])));
            if let Some(p) = s.parent {
                args.insert("parent".to_string(), number(p as f64));
            }
            if let Some(lane) = self.lanes.get(s.lane) {
                args.insert("workload".to_string(), text(lane.as_str()));
            }
            events.push(object([
                ("name", text(format!("{}.{}", s.layer, s.name))),
                ("cat", text(s.layer)),
                ("ph", text("X")),
                ("ts", us(s.start_ns)),
                ("dur", us(dur)),
                ("pid", number(s.lane as f64)),
                ("tid", number(0.0)),
                ("args", JsonValue::Object(args)),
            ]));
        }
        object([("traceEvents", JsonValue::Array(events))]).to_string()
    }
}
