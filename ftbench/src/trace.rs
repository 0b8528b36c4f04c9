//! The traced run's span log: name, start, end, parent and trace id for
//! every call the benchmark makes into a layer. Spans stay in memory and
//! are written out once, when the run ends.

use ftrepair_telemetry::SpanRecord;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id (ids start at 1, 0 = none).
    pub fn record(
        &mut self,
        name: &str,
        parent: u64,
        trace: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, trace, name: name.to_string(), start_ns, end_ns });
        id
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: u64, trace: u64) -> u64 {
        let now = Instant::now();
        self.record(name, parent, trace, now, now)
    }

    pub fn close(&mut self, id: u64) {
        let end = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, parent: u64, trace: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, trace, start, Instant::now());
        out
    }

    /// Adopt the spans a program `Telemetry` handle recorded (its epoch was
    /// `epoch`), renamed under `prefix`, with their roots under `parent`.
    pub fn absorb(
        &mut self,
        recs: &[SpanRecord],
        epoch: Instant,
        parent: u64,
        trace: u64,
        prefix: &str,
    ) {
        let base = self.ns(epoch);
        let mut ids: HashMap<u64, u64> = HashMap::new();
        let mut recs: Vec<&SpanRecord> = recs.iter().collect();
        recs.sort_by_key(|r| (r.start_ns, std::cmp::Reverse(r.dur_ns)));
        for r in recs {
            let id = self.spans.len() as u64 + 1;
            ids.insert(r.id, id);
            let p = ids.get(&r.parent).copied().unwrap_or(parent);
            self.spans.push(Span {
                id,
                parent: p,
                trace,
                name: format!("{prefix}{}", r.name),
                start_ns: base + r.start_ns,
                end_ns: base + r.start_ns + r.dur_ns,
            });
        }
    }

    pub fn get(&self, id: u64) -> &Span {
        &self.spans[id as usize - 1]
    }

    /// Per span name: summed duration (`inclusive`) and summed self time
    /// (duration minus the part its children cover) over one trace.
    pub fn layer_times(&self, trace: u64) -> BTreeMap<String, (f64, f64)> {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.trace == trace && s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.trace == trace) {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name.clone()).or_default();
            e.0 += dur as f64 * 1e-9;
            e.1 += own as f64 * 1e-9;
        }
        out
    }

    /// The log as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"trace\": \"{:016x}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )
            .expect("String write");
        }
        out
    }
}
