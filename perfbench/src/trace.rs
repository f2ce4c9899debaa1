//! Spans for the traced mode: name, layer, start, end and parent of
//! each call the benchmark makes into a layer, kept in memory and
//! written out when the run ends.

use cobra_util::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// The layers spans are attributed to (crate names in `README.md`).
pub const LAYERS: [&str; 6] = ["graph", "rand", "process", "mc", "campaign", "serve"];

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Recorder (thread) the span came from; parents are per recorder.
    pub track: usize,
}

/// One thread's span recorder. Spans nest: the innermost open span is
/// the parent of the next one entered.
pub struct Spans {
    origin: Instant,
    track: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(origin: Instant, track: usize) -> Spans {
        Spans {
            origin,
            track,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::exit`].
    pub fn enter(&mut self, layer: &'static str, name: impl Into<String>) -> usize {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            track: self.track,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records an already-finished span under `parent` (a trial whose
    /// end the benchmark observed through a sink); returns its index.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: String,
        start: Instant,
        end: Instant,
        parent: usize,
    ) -> usize {
        let to_ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            layer,
            name,
            start_ns: to_ns(start),
            end_ns: to_ns(end),
            parent: Some(parent),
            track: self.track,
        });
        self.spans.len() - 1
    }

    pub fn duration_s(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Spans) {
        assert!(other.open.is_empty(), "absorbed recorder has open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the time its direct children cover (children of one span run on
    /// its thread, one after another, so they never overlap).
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        assert!(self.open.is_empty(), "self time needs every span closed");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.get_mut(s.layer).expect("known layer") += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON line to stderr, then the per-layer
    /// self times.
    pub fn write_out(&self) {
        use std::io::Write;
        let mut err = std::io::stderr().lock();
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::Object(vec![
                ("span".into(), Json::Int(i as i128)),
                ("layer".into(), Json::Str(s.layer.into())),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_ns".into(), Json::Int(s.start_ns as i128)),
                ("end_ns".into(), Json::Int(s.end_ns as i128)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i128)),
                ),
                ("track".into(), Json::Int(s.track as i128)),
            ]);
            let _ = writeln!(err, "{}", line.to_string_compact());
        }
        for (layer, ms) in self.self_ms() {
            let _ = writeln!(err, "perfbench: self time {layer:<8} {ms:>12.3} ms");
        }
    }

    /// Writes the spans out and stores the span count and per-layer
    /// self times as metrics.
    pub fn finish(&self, out: &mut crate::bench::Outcome) {
        self.write_out();
        out.set("trace.spans", self.spans.len() as f64);
        for (layer, ms) in self.self_ms() {
            out.set(&format!("self_ms.{layer}"), ms);
        }
    }
}
