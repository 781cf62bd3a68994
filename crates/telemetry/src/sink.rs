//! The [`TelemetrySink`] handle and its collected snapshot.
//!
//! A sink is either disabled (the default — every call returns after one
//! `Option` check, no allocation, no locking) or enabled, in which case it
//! wraps a mutex-protected collector shared by every clone.  Frontend
//! threads, the backend thread and the GPU simulator all hold clones of
//! the same sink; at shutdown a [`TelemetrySnapshot`] is taken and handed
//! to the exporters.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use ewc_exec::VirtualClock;

use crate::audit::DecisionRecord;
use crate::metrics::MetricsRegistry;
use crate::span::{SpanBuilder, SpanRecord};

#[derive(Debug, Default)]
struct Collector {
    next_span_id: u64,
    spans: Vec<SpanRecord>,
    metrics: MetricsRegistry,
    series: BTreeMap<String, Vec<(f64, f64)>>,
    audit: Vec<DecisionRecord>,
}

/// Cheaply clonable telemetry handle; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<Mutex<Collector>>>,
    /// Present in virtual-time span mode: the executor clock the
    /// recording components align their timelines to.
    clock: Option<VirtualClock>,
}

impl TelemetrySink {
    /// A sink that records nothing.  Equivalent to `TelemetrySink::default()`.
    pub fn disabled() -> Self {
        Self {
            inner: None,
            clock: None,
        }
    }

    /// A sink that collects everything recorded through any clone.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Collector::default()))),
            clock: None,
        }
    }

    /// A sink in **virtual-time span mode**: collects everything, and
    /// carries the executor clock recording components should drive
    /// their timelines from. The backend adopts this clock as its host
    /// clock and is stepped in-process by its callers, so batch
    /// boundaries follow call order (instead of OS-timing-dependent
    /// burst boundaries), which makes two identical runs produce
    /// byte-identical Chrome-trace exports. The default
    /// [`TelemetrySink::enabled`] mode keeps the burst behaviour of a
    /// live daemon thread.
    pub fn enabled_virtual(clock: VirtualClock) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Collector::default()))),
            clock: Some(clock),
        }
    }

    /// A sink that records **nothing** but still carries the executor
    /// clock: the backend adopts the clock and the deterministic
    /// in-process stepping of virtual-time span mode, without
    /// paying for collection. The open-loop load harness runs its
    /// non-telemetry scenarios in this mode so same-seed storms replay
    /// bit-identically.
    pub fn disabled_virtual(clock: VirtualClock) -> Self {
        Self {
            inner: None,
            clock: Some(clock),
        }
    }

    /// The executor clock, in virtual-time span mode; `None` in the
    /// default mode.
    pub fn virtual_clock(&self) -> Option<&VirtualClock> {
        self.clock.as_ref()
    }

    /// Whether this sink records anything.  Instrumented code may use this
    /// to skip building expensive attributes when telemetry is off.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts building a completed span on track `(process, lane)` covering
    /// simulated time `[start_s, end_s]`.  Call `.emit()` to record it.
    pub fn span(
        &self,
        process: &str,
        lane: &str,
        name: &str,
        start_s: f64,
        end_s: f64,
    ) -> SpanBuilder<'_> {
        SpanBuilder {
            sink: self,
            record: SpanRecord {
                id: 0,
                parent: None,
                name: name.to_string(),
                process: process.to_string(),
                lane: lane.to_string(),
                start_s,
                end_s,
                attrs: Vec::new(),
            },
        }
    }

    pub(crate) fn commit_span(&self, mut record: SpanRecord) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let mut c = inner.lock().expect("telemetry sink lock poisoned");
        c.next_span_id += 1;
        record.id = c.next_span_id;
        let id = record.id;
        c.spans.push(record);
        Some(id)
    }

    /// Adds `delta` to a named counter.
    pub fn counter_add(&self, name: &str, delta: f64) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .expect("telemetry sink lock poisoned")
                .metrics
                .counter_add(name, delta);
        }
    }

    /// Sets a named gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .expect("telemetry sink lock poisoned")
                .metrics
                .gauge_set(name, value);
        }
    }

    /// Records a sample into a named histogram.
    pub fn histogram_record(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .expect("telemetry sink lock poisoned")
                .metrics
                .histogram_record(name, value);
        }
    }

    /// Appends a `(time_s, value)` sample to a named time series (exported
    /// as Chrome counter events — e.g. instantaneous power draw in watts).
    pub fn series_sample(&self, name: &str, time_s: f64, value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .expect("telemetry sink lock poisoned")
                .series
                .entry(name.to_string())
                .or_default()
                .push((time_s, value));
        }
    }

    /// Records one decision-engine verdict.
    pub fn audit(&self, record: DecisionRecord) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .expect("telemetry sink lock poisoned")
                .audit
                .push(record);
        }
    }

    /// Copies out everything collected so far, or `None` if disabled.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        let inner = self.inner.as_ref()?;
        let c = inner.lock().expect("telemetry sink lock poisoned");
        let mut spans = c.spans.clone();
        // Stable order: by start time, then id — concurrent emitters may
        // interleave arbitrarily, exporters want chronological output.
        spans.sort_by(|a, b| {
            a.start_s
                .partial_cmp(&b.start_s)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.id.cmp(&b.id))
        });
        Some(TelemetrySnapshot {
            spans,
            metrics: c.metrics.clone(),
            series: c.series.clone(),
            audit: c.audit.clone(),
        })
    }
}

/// An owned copy of everything a sink collected.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// All spans, sorted by simulated start time.
    pub spans: Vec<SpanRecord>,
    /// Counters, gauges and histograms.
    pub metrics: MetricsRegistry,
    /// Named `(time_s, value)` series, e.g. power samples.
    pub series: BTreeMap<String, Vec<(f64, f64)>>,
    /// Decision audit log in emission order.
    pub audit: Vec<DecisionRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::Verdict;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        let id = sink.span("host", "backend", "rpc", 0.0, 1.0).emit();
        assert_eq!(id, None);
        sink.counter_add("x", 1.0);
        sink.histogram_record("h", 0.5);
        sink.series_sample("p", 0.0, 100.0);
        assert!(sink.snapshot().is_none());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!TelemetrySink::default().is_enabled());
    }

    #[test]
    fn spans_nest_and_sort_by_simulated_time() {
        let sink = TelemetrySink::enabled();
        // Emit out of chronological order, as concurrent components would.
        let parent = sink
            .span("host", "backend", "request", 1.0, 5.0)
            .attr("ctx", 3)
            .emit();
        let late = sink
            .span("host", "backend", "launch", 3.0, 5.0)
            .parent(parent);
        let early = sink
            .span("host", "backend", "staging", 1.0, 2.0)
            .parent(parent);
        let early_id = early.emit().unwrap();
        let late_id = late.emit().unwrap();
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.spans.len(), 3);
        // Chronological, ties broken by id.
        assert_eq!(snap.spans[0].name, "request");
        assert_eq!(snap.spans[1].name, "staging");
        assert_eq!(snap.spans[2].name, "launch");
        assert_eq!(snap.spans[1].id, early_id);
        assert_eq!(snap.spans[2].id, late_id);
        assert_eq!(snap.spans[1].parent, parent);
        assert_eq!(snap.spans[2].parent, parent);
        assert_eq!(
            snap.spans[0].attrs,
            vec![("ctx".to_string(), "3".to_string())]
        );
        assert!((snap.spans[0].duration_s() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn clones_share_one_collector() {
        let sink = TelemetrySink::enabled();
        let clone = sink.clone();
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = sink.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    s.counter_add("ops", 1.0);
                    s.span(
                        "host",
                        &format!("worker{t}"),
                        "op",
                        i as f64,
                        i as f64 + 0.5,
                    )
                    .emit();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = clone.snapshot().unwrap();
        assert_eq!(snap.metrics.counter("ops"), 400.0);
        assert_eq!(snap.spans.len(), 400);
        // Ids are unique.
        let mut ids: Vec<u64> = snap.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }

    #[test]
    fn audit_and_series_round_trip() {
        let sink = TelemetrySink::enabled();
        sink.series_sample("power_w", 0.0, 180.0);
        sink.series_sample("power_w", 0.1, 260.0);
        sink.audit(DecisionRecord {
            time_s: 0.05,
            kernels: vec!["aes".into(), "search".into()],
            verdict: Verdict::Consolidate,
            consolidated: Some((1.0, 10.0)),
            serial: Some((1.4, 16.0)),
            cpu: None,
            reason: "consolidated energy wins".into(),
        });
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.series["power_w"].len(), 2);
        assert_eq!(snap.audit.len(), 1);
        assert_eq!(snap.audit[0].verdict.label(), "consolidate");
        assert_eq!(snap.audit[0].chosen(), Some((1.0, 10.0)));
    }
}
