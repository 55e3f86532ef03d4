//! In-memory spans recorded by the traced run around each public call the
//! benchmark makes. A span has a name, start, end, parent span and the
//! grid point it serves; the set is written out as JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub point: Option<usize>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span id 0 is the implicit root.
pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so nested calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        point: Option<usize>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            point,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// Self time per layer in seconds: each span's duration minus the part
    /// its children cover, summed by layer (the name up to the first '.').
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut child_s: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            *child_s.entry(s.parent).or_default() += s.dur_s();
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            let own = (s.dur_s() - child_s.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
            *out.entry(layer).or_default() += own;
        }
        out
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let point = s.point.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"point\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, point
            );
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}
