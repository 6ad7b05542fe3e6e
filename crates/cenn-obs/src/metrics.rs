//! A process-wide live metrics registry: named monotonic counters,
//! gauges, and log2 [`LatencyHistogram`]s behind one cloneable hub.
//!
//! The service layers (`cenn-serve`, the streamed engine, the guard
//! runtime) account their work here so a *running* process can be
//! queried — over the `Stats` frame or a Prometheus scrape — instead of
//! replaying event logs post-mortem.
//!
//! # Recording model
//!
//! Registration is explicit and cheap: [`MetricsHub::counter`] /
//! [`gauge`](MetricsHub::gauge) / [`histogram`](MetricsHub::histogram)
//! intern a name once and hand back a copyable id that indexes straight
//! into the registry's backing vectors. Single increments lock the hub
//! mutex briefly (uncontended at per-request cadence); hot loops batch
//! instead through [`LocalCounters`] — a plain delta buffer owned by one
//! worker, in the style of [`crate::SpanRing`]: lock-free by ownership,
//! drained into the hub after the barrier with one lock.
//!
//! # Determinism contract
//!
//! Counters and gauges carry exact event counts (frames, sessions,
//! spilled bytes), so for a deterministic workload a snapshot taken at a
//! quiescent point is identical for any worker count. Histograms bin
//! wall-clock latencies; [`MetricsSnapshot::canonical`] keeps their exact
//! observation counts and zeroes every nanosecond-derived field, giving
//! the byte-reproducible form the golden fixtures pin.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::schema::{Event, MetricSample};
use crate::trace::LatencyHistogram;
use crate::RecorderHandle;

/// Version of the snapshot layout carried by the serve `Stats` frame.
pub const STATS_VERSION: u16 = 1;

/// Id of a registered counter (an index into the hub's counter table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(usize);

/// Id of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaugeId(usize);

/// Id of a registered latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistogramId(usize);

/// The backing store: named instruments in registration order plus a
/// name index so re-registering a name returns the existing id.
#[derive(Debug, Default)]
struct Registry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    hists: Vec<(String, LatencyHistogram)>,
    counter_ids: BTreeMap<String, usize>,
    gauge_ids: BTreeMap<String, usize>,
    hist_ids: BTreeMap<String, usize>,
}

/// A cloneable, shareable handle to a metrics registry — the metrics
/// analogue of [`crate::TraceHandle`]. Clones share the registry.
#[derive(Clone, Default)]
pub struct MetricsHub {
    inner: Arc<Mutex<Registry>>,
}

/// The process-wide hub: everything that is not handed a private hub
/// (tests needing isolation) accounts here.
pub fn global() -> &'static MetricsHub {
    static GLOBAL: OnceLock<MetricsHub> = OnceLock::new();
    GLOBAL.get_or_init(MetricsHub::new)
}

impl MetricsHub {
    /// A fresh, empty, private registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.inner.lock().expect("metrics registry poisoned")
    }

    /// Registers (or finds) a monotonic counter. Names are dotted paths
    /// (`"serve.frames_in_total"`); registration is idempotent.
    pub fn counter(&self, name: &str) -> CounterId {
        let reg = &mut *self.lock();
        CounterId(intern(&mut reg.counters, &mut reg.counter_ids, name))
    }

    /// Registers (or finds) a gauge.
    pub fn gauge(&self, name: &str) -> GaugeId {
        let reg = &mut *self.lock();
        GaugeId(intern(&mut reg.gauges, &mut reg.gauge_ids, name))
    }

    /// Registers (or finds) a latency histogram.
    pub fn histogram(&self, name: &str) -> HistogramId {
        let reg = &mut *self.lock();
        HistogramId(intern(&mut reg.hists, &mut reg.hist_ids, name))
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn inc(&self, id: CounterId, n: u64) {
        self.lock().counters[id.0].1 += n;
    }

    /// Convenience: register-and-increment by name (request-cadence
    /// paths where keeping an id around is not worth it).
    pub fn inc_name(&self, name: &str, n: u64) {
        let id = self.counter(name);
        self.inc(id, n);
    }

    /// Sets a gauge to an absolute value.
    #[inline]
    pub fn gauge_set(&self, id: GaugeId, value: i64) {
        self.lock().gauges[id.0].1 = value;
    }

    /// Adds a (possibly negative) delta to a gauge.
    #[inline]
    pub fn gauge_add(&self, id: GaugeId, delta: i64) {
        self.lock().gauges[id.0].1 += delta;
    }

    /// Raises a gauge to `value` if it is below it (high-water marks).
    #[inline]
    pub fn gauge_max(&self, id: GaugeId, value: i64) {
        let mut reg = self.lock();
        let g = &mut reg.gauges[id.0].1;
        *g = (*g).max(value);
    }

    /// Records one duration into a histogram.
    #[inline]
    pub fn observe(&self, id: HistogramId, nanos: u64) {
        self.lock().hists[id.0].1.record(nanos);
    }

    /// A fresh [`LocalCounters`] delta buffer covering every counter
    /// registered so far.
    pub fn local_counters(&self) -> LocalCounters {
        LocalCounters {
            deltas: vec![0; self.lock().counters.len()],
        }
    }

    /// Merges (and clears) a worker's local deltas — one lock total.
    pub fn drain_local(&self, local: &mut LocalCounters) {
        let mut reg = self.lock();
        for (i, d) in local.deltas.iter_mut().enumerate() {
            if *d > 0 {
                reg.counters[i].1 += *d;
                *d = 0;
            }
        }
    }

    /// A point-in-time copy of every instrument, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let reg = self.lock();
        let mut counters: Vec<(String, u64)> = reg.counters.clone();
        counters.sort();
        let mut gauges: Vec<(String, i64)> = reg.gauges.clone();
        gauges.sort();
        let mut hists: Vec<(String, HistogramSnapshot)> = reg
            .hists
            .iter()
            .map(|(name, h)| {
                let [p50_nanos, p90_nanos, p99_nanos] = h.reported_quantiles();
                (
                    name.clone(),
                    HistogramSnapshot {
                        count: h.count(),
                        sum_nanos: h.sum_nanos(),
                        p50_nanos,
                        p90_nanos,
                        p99_nanos,
                        max_nanos: h.max_nanos(),
                    },
                )
            })
            .collect();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            hists,
        }
    }
}

/// The index of `name` in `slots`, registering it with a default value
/// on first use.
fn intern<T: Default>(
    slots: &mut Vec<(String, T)>,
    ids: &mut BTreeMap<String, usize>,
    name: &str,
) -> usize {
    if let Some(&i) = ids.get(name) {
        return i;
    }
    slots.push((name.to_string(), T::default()));
    ids.insert(name.to_string(), slots.len() - 1);
    slots.len() - 1
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.lock();
        f.debug_struct("MetricsHub")
            .field("counters", &reg.counters.len())
            .field("gauges", &reg.gauges.len())
            .field("histograms", &reg.hists.len())
            .finish()
    }
}

/// A per-worker counter delta buffer: owned by exactly one worker while
/// it runs (no lock, no atomics), merged into the hub afterwards with
/// [`MetricsHub::drain_local`]. Counters registered after creation are
/// ignored by this buffer — create it after registration settles.
#[derive(Debug, Clone, Default)]
pub struct LocalCounters {
    deltas: Vec<u64>,
}

impl LocalCounters {
    /// Adds `n` to the local delta for a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        if let Some(d) = self.deltas.get_mut(id.0) {
            *d += n;
        }
    }

    /// Sum of buffered deltas (diagnostic).
    pub fn pending(&self) -> u64 {
        self.deltas.iter().sum()
    }
}

/// Point-in-time quantile summary of one latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded — exact, kept by canonical mode.
    pub count: u64,
    /// Sum of observed nanos (zeroed by canonical mode).
    pub sum_nanos: u64,
    /// p50 upper bound (zeroed by canonical mode).
    pub p50_nanos: u64,
    /// p90 upper bound (zeroed by canonical mode).
    pub p90_nanos: u64,
    /// p99 upper bound (zeroed by canonical mode).
    pub p99_nanos: u64,
    /// Exact max observation (zeroed by canonical mode).
    pub max_nanos: u64,
}

/// A point-in-time copy of a registry: sorted name/value pairs per
/// instrument kind. This is what the serve `Stats` frame carries and
/// what the Prometheus endpoint renders.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` for every histogram, sorted by name.
    pub hists: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The deterministic form: exact counts stay, every wall-clock
    /// nanosecond field zeroes. Byte-identical across reruns and worker
    /// counts for a deterministic workload.
    pub fn canonical(&self) -> MetricsSnapshot {
        let mut s = self.clone();
        for (_, h) in &mut s.hists {
            *h = HistogramSnapshot {
                count: h.count,
                ..HistogramSnapshot::default()
            };
        }
        s
    }

    /// One schema-v1 `metric` event per instrument, counters first, then
    /// gauges, then histograms (each sorted by name).
    pub fn to_events(&self) -> Vec<Event> {
        let sample = |name: &str, kind: &str, value: i64, h: &HistogramSnapshot| {
            Event::Metric(MetricSample {
                name: name.to_string(),
                kind: kind.to_string(),
                value,
                count: h.count,
                p50_nanos: h.p50_nanos,
                p99_nanos: h.p99_nanos,
            })
        };
        let none = HistogramSnapshot::default();
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| sample(name, "counter", *v as i64, &none));
        let gauges = self
            .gauges
            .iter()
            .map(|(name, v)| sample(name, "gauge", *v, &none));
        let hists = self
            .hists
            .iter()
            .map(|(name, h)| sample(name, "histogram", h.sum_nanos as i64, h));
        counters.chain(gauges).chain(hists).collect()
    }

    /// The snapshot as JSONL `metric` events (one per line, trailing
    /// newline) — the golden-fixture serialization.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.to_events() {
            out.push_str(&ev.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters and gauges as single samples,
    /// histograms as summaries with `quantile` labels. Metric names are
    /// prefixed `cenn_` and sanitized to `[a-zA-Z0-9_]`.
    pub fn prometheus_text(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 5);
            out.push_str("cenn_");
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            out
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.hists {
            let n = sanitize(name);
            out.push_str(&format!(
                "# TYPE {n} summary\n\
                 {n}{{quantile=\"0.5\"}} {}\n\
                 {n}{{quantile=\"0.9\"}} {}\n\
                 {n}{{quantile=\"0.99\"}} {}\n\
                 {n}_sum {}\n\
                 {n}_count {}\n",
                h.p50_nanos, h.p90_nanos, h.p99_nanos, h.sum_nanos, h.count
            ));
        }
        out
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram summary by name.
    pub fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Emits the snapshot's `metric` events through a recorder. No-op
    /// when the recorder is disabled.
    pub fn record(&self, recorder: &RecorderHandle) {
        if !recorder.enabled() {
            return;
        }
        for ev in self.to_events() {
            recorder.record(&ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_jsonl_line;

    #[test]
    fn registration_is_idempotent_and_ids_are_stable() {
        let hub = MetricsHub::new();
        let a = hub.counter("serve.frames_in_total");
        let b = hub.counter("serve.frames_in_total");
        assert_eq!(a, b);
        let g = hub.gauge("serve.sessions_active");
        hub.inc(a, 3);
        hub.gauge_set(g, 2);
        hub.gauge_add(g, -1);
        let snap = hub.snapshot();
        assert_eq!(snap.counter("serve.frames_in_total"), Some(3));
        assert_eq!(snap.gauge("serve.sessions_active"), Some(1));
        assert_eq!(snap.counter("nope"), None);
    }

    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        let hub = MetricsHub::new();
        let g = hub.gauge("stream.peak_resident_bytes");
        hub.gauge_max(g, 100);
        hub.gauge_max(g, 40);
        assert_eq!(
            hub.snapshot().gauge("stream.peak_resident_bytes"),
            Some(100)
        );
    }

    #[test]
    fn local_counters_batch_and_drain_once() {
        let hub = MetricsHub::new();
        let a = hub.counter("a");
        let b = hub.counter("b");
        let mut local = hub.local_counters();
        for _ in 0..10 {
            local.inc(a, 1);
        }
        local.inc(b, 5);
        assert_eq!(local.pending(), 15);
        assert_eq!(hub.snapshot().counter("a"), Some(0), "not merged yet");
        hub.drain_local(&mut local);
        assert_eq!(local.pending(), 0);
        let snap = hub.snapshot();
        assert_eq!(snap.counter("a"), Some(10));
        assert_eq!(snap.counter("b"), Some(5));
        // Draining again is a no-op.
        hub.drain_local(&mut local);
        assert_eq!(hub.snapshot().counter("a"), Some(10));
    }

    #[test]
    fn snapshot_sorts_names_and_canonical_zeroes_wall_clock() {
        let hub = MetricsHub::new();
        hub.inc_name("z.last", 1);
        hub.inc_name("a.first", 2);
        let h = hub.histogram("serve.quantum_nanos");
        hub.observe(h, 1000);
        hub.observe(h, 2000);
        let snap = hub.snapshot();
        assert_eq!(snap.counters[0].0, "a.first");
        assert_eq!(snap.counters[1].0, "z.last");
        let hs = snap.hist("serve.quantum_nanos").unwrap();
        assert_eq!(hs.count, 2);
        assert_eq!(hs.sum_nanos, 3000);
        assert!(hs.p50_nanos > 0 && hs.p99_nanos >= hs.p50_nanos);
        let canon = snap.canonical();
        let ch = canon.hist("serve.quantum_nanos").unwrap();
        assert_eq!(ch.count, 2, "exact counts survive");
        assert_eq!(
            (
                ch.sum_nanos,
                ch.p50_nanos,
                ch.p90_nanos,
                ch.p99_nanos,
                ch.max_nanos
            ),
            (0, 0, 0, 0, 0),
            "wall clock zeroed"
        );
        assert_eq!(canon.counter("a.first"), Some(2), "counters untouched");
    }

    #[test]
    fn jsonl_lines_validate_against_the_schema() {
        let hub = MetricsHub::new();
        hub.inc_name("serve.frames_in_total", 7);
        let g = hub.gauge("serve.queue_depth");
        hub.gauge_set(g, 3);
        let h = hub.histogram("serve.quantum_nanos");
        hub.observe(h, 512);
        let jsonl = hub.snapshot().canonical().to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            validate_jsonl_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(jsonl.contains("\"kind\":\"counter\""));
        assert!(jsonl.contains("\"kind\":\"gauge\""));
        assert!(jsonl.contains("\"kind\":\"histogram\""));
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let hub = MetricsHub::new();
        hub.inc_name("serve.frames_in_total", 7);
        let g = hub.gauge("serve.queue-depth");
        hub.gauge_set(g, -2);
        let h = hub.histogram("serve.quantum_nanos");
        hub.observe(h, 512);
        let text = hub.snapshot().prometheus_text();
        assert!(text.contains("# TYPE cenn_serve_frames_in_total counter\n"));
        assert!(text.contains("cenn_serve_frames_in_total 7\n"));
        assert!(
            text.contains("cenn_serve_queue_depth -2\n"),
            "dashes and dots sanitize to underscores: {text}"
        );
        assert!(text.contains("# TYPE cenn_serve_quantum_nanos summary\n"));
        assert!(text.contains("cenn_serve_quantum_nanos{quantile=\"0.5\"}"));
        assert!(text.contains("cenn_serve_quantum_nanos_count 1\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty());
            value.parse::<f64>().expect("numeric sample value");
        }
    }

    #[test]
    fn merges_from_clones_are_order_independent() {
        // Two hubs, the same deltas applied in opposite drain order.
        let run = |reverse: bool| {
            let hub = MetricsHub::new();
            let a = hub.counter("a");
            let b = hub.counter("b");
            let mut l1 = hub.local_counters();
            let mut l2 = hub.local_counters();
            l1.inc(a, 3);
            l1.inc(b, 1);
            l2.inc(a, 4);
            if reverse {
                hub.drain_local(&mut l2);
                hub.drain_local(&mut l1);
            } else {
                hub.drain_local(&mut l1);
                hub.drain_local(&mut l2);
            }
            hub.snapshot()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn global_hub_is_shared() {
        let g = global();
        let id = g.counter("test.global_smoke");
        g.inc(id, 1);
        assert!(global().snapshot().counter("test.global_smoke").unwrap() >= 1);
    }
}
