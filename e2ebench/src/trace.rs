//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around the calls it
//! makes into each layer's public functions; nothing inside the program
//! is instrumented. A span has a name, its layer, a start and an end on
//! the host clock, the span that enclosed it, and the id of the request
//! it served (`0` for work that serves no single request). A disabled
//! recorder does nothing but test one flag per call, so the untraced run
//! and the traced run drive the program through the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span is charged to: the crate whose public function the
/// span encloses (`Decision` is `ewc-core`'s decision engine, reported
/// apart from the frontend/backend RPC path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `ewc-load`: arrival generation.
    Load,
    /// `ewc-exec`: executor and event queue.
    Exec,
    /// `ewc-core`: frontend, channel, backend admission and queue.
    Core,
    /// `ewc-core`: the decision engine.
    Decision,
    /// `ewc-gpu`: device and cohort engine.
    Gpu,
    /// `ewc-workloads`: functional kernel bodies and `build_args`.
    Workloads,
    /// `ewc-cpu`: the CPU simulator.
    Cpu,
    /// `ewc-energy`: power integration.
    Energy,
    /// `ewc-fleet`: placement.
    Fleet,
    /// `ewc-telemetry`: exporters.
    Telemetry,
}

impl Layer {
    /// Metric-name prefix of the layer.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Load => "load",
            Layer::Exec => "exec",
            Layer::Core => "core",
            Layer::Decision => "decision",
            Layer::Gpu => "gpu",
            Layer::Workloads => "workloads",
            Layer::Cpu => "cpu",
            Layer::Energy => "energy",
            Layer::Fleet => "fleet",
            Layer::Telemetry => "telemetry",
        }
    }
}

/// Index of "no parent".
const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Call name, e.g. `launch_with`.
    pub name: &'static str,
    /// Layer the call belongs to.
    pub layer: Layer,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    /// Request id shared by every span of one request (`0`: none).
    pub req: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle returned by [`Tracer::begin`], consumed by [`Tracer::end`].
#[must_use]
pub struct Open(u32);

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
}

impl Tracer {
    /// A recorder that records nothing (the untraced run).
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Self::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Set the request id stamped on spans opened from now on.
    #[inline]
    pub fn set_req(&mut self, req: u64) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `at` on this recorder's clock, ns since its epoch.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span; it encloses every span opened before its [`end`](Self::end).
    #[inline]
    pub fn begin(&mut self, layer: Layer, name: &'static str) -> Open {
        if !self.enabled {
            return Open(ROOT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            req: self.req,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close the span `open` (spans close innermost first).
    #[inline]
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Time `f` as one span.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(layer, name);
        let r = f();
        self.end(open);
        r
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time, seconds: duration minus the children's.
    pub fn self_times_s(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 * 1e-9)
            .collect()
    }

    /// Self time summed per layer, seconds.
    pub fn layer_self_s(&self) -> BTreeMap<Layer, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_s()) {
            *out.entry(s.layer).or_insert(0.0) += t;
        }
        out
    }

    /// Total duration of the spans named `name` in `layer`, seconds.
    pub fn total_s(&self, layer: Layer, name: &str) -> f64 {
        self.matching(layer, name).map(|s| s.dur_s()).sum()
    }

    /// Number of spans named `name` in `layer`.
    pub fn count(&self, layer: Layer, name: &str) -> u64 {
        self.matching(layer, name).count() as u64
    }

    /// Durations of the spans named `name` in `layer`, seconds.
    pub fn durations_s(&self, layer: Layer, name: &str) -> Vec<f64> {
        self.matching(layer, name).map(|s| s.dur_s()).collect()
    }

    fn matching<'a>(&'a self, layer: Layer, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.name == name)
    }

    /// The spans as JSON lines: `{"id","name","layer","start_ns","end_ns","parent","req"}`
    /// (`parent` is `null` for a top-level span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name,
                s.layer.label(),
                s.start_ns,
                s.end_ns,
                s.req
            );
        }
        out
    }
}

/// Nearest-rank percentile of `v` (sorted in place); `0.0` when empty.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `v` (sorted in place); `0.0` when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ids_follow_the_request() {
        let mut t = Tracer::on();
        t.set_req(7);
        let outer = t.begin(Layer::Exec, "step");
        let inner = t.begin(Layer::Core, "launch_with");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert!(spans.iter().all(|s| s.req == 7));
        let self_s = t.self_times_s();
        assert!(self_s[0] < spans[0].dur_s());
        assert!((self_s[0] + self_s[1] - spans[0].dur_s()).abs() < 1e-9);
        assert!(t.to_jsonl().lines().count() == 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let x = t.time(Layer::Load, "gap", || 3);
        assert_eq!(x, 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut v, 50.0), 3.0);
        assert_eq!(percentile(&mut v, 99.0), 5.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
