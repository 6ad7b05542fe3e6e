//! Span-level tracing: phase-attributed latency measurement for the
//! solver's hot loops.
//!
//! The hierarchy is run → sweep → shard → phase. Phases are the fixed
//! taxonomy in [`Phase`]; every simulator (fixed, float, guarded) emits
//! the same six names so profiles are comparable across backends.
//!
//! # Recording model
//!
//! The hot path must not contend on a lock, so spans are recorded into
//! per-shard [`SpanRing`] buffers that are *owned* by the worker sweeping
//! that shard — lock-free by construction, no atomics, no `unsafe`. After
//! the sweep barrier the driving thread drains every ring, in shard
//! order, into the shared [`TraceCollector`] (one short uncontended lock
//! per sweep). Because rings drain in shard order and spans are recorded
//! per shard, the *counts* per phase are identical for any worker-thread
//! count; only the wall-clock durations vary.
//!
//! Draining feeds three consumers:
//!
//! 1. per-phase log-bucketed [`LatencyHistogram`]s (p50/p90/p99/max,
//!    mergeable across shards and runs);
//! 2. additive [`crate::SpanSummary`] events in the v1 JSONL schema
//!    (canonical mode zeroes every wall-clock-derived field, exact span
//!    counts stay byte-reproducible);
//! 3. optional retained spans for Chrome trace-event JSON export
//!    ([`TraceCollector::chrome_trace_json`]) — load the file in
//!    `chrome://tracing` or Perfetto.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::recorder::RecorderHandle;
use crate::schema::{Event, SpanSummary};

/// Number of phases in the fixed taxonomy.
pub const N_PHASES: usize = 6;

/// Number of log2-width latency buckets a [`LatencyHistogram`] keeps.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The fixed span taxonomy. Every instrumented simulator attributes its
/// time to these six phases, so phase breakdowns are comparable across
/// the fixed-point, float, and guarded backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The LUT hierarchy's tag walk (L1 → L2 → DRAM) that counts hits
    /// and misses.
    LutLookup,
    /// Template evaluation: the dynamic weights' values (the TUM's, in
    /// fixed point), boundary resolution, and the MAC chain.
    TemplateApply,
    /// The state-update pass (Euler/Heun MAC integration).
    Integrate,
    /// Copies between sweeps and windows: an algebraic layer's staged
    /// rows into the states, and a streamed window's fill.
    HaloSync,
    /// LUT integrity scrubbing (`cenn-guard`).
    Scrub,
    /// Checkpoint capture and rollback restore (`cenn-guard`).
    Checkpoint,
}

impl Phase {
    /// All phases, in the stable serialization order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::LutLookup,
        Phase::TemplateApply,
        Phase::Integrate,
        Phase::HaloSync,
        Phase::Scrub,
        Phase::Checkpoint,
    ];

    /// Stable serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::LutLookup => "lut_lookup",
            Phase::TemplateApply => "template_apply",
            Phase::Integrate => "integrate",
            Phase::HaloSync => "halo_sync",
            Phase::Scrub => "scrub",
            Phase::Checkpoint => "checkpoint",
        }
    }

    /// Index into phase-ordered arrays (the position in [`Phase::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::LutLookup => 0,
            Phase::TemplateApply => 1,
            Phase::Integrate => 2,
            Phase::HaloSync => 3,
            Phase::Scrub => 4,
            Phase::Checkpoint => 5,
        }
    }

    /// Parses a stable name back to the phase.
    pub fn parse(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.as_str() == name)
    }
}

/// One measured span: a phase on a track (shard id, or 0 for driver-level
/// work), with start and duration in nanoseconds relative to the
/// collector's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The phase this time is attributed to.
    pub phase: Phase,
    /// Track the span ran on (shard id for sweep phases, 0 otherwise).
    pub track: u32,
    /// Start, nanos since the collector epoch.
    pub start_nanos: u64,
    /// Duration in nanos.
    pub dur_nanos: u64,
}

/// A fixed-capacity span ring owned by one sweep worker.
///
/// The ring is lock-free by ownership: exactly one worker pushes into it
/// during a sweep, and the driving thread drains it after the barrier.
/// On overflow the oldest span is overwritten and counted in
/// [`dropped`](Self::dropped) — with the capacity the simulators
/// pre-size (spans per sweep are known statically) overflow never
/// happens, which keeps span counts deterministic.
///
/// [`SpanRing::disabled`] never allocates and [`push`](Self::push) on it
/// is a single predictable branch, so carrying a disabled ring through
/// the hot loop is free.
#[derive(Debug, Clone, Default)]
pub struct SpanRing {
    spans: Vec<Span>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl SpanRing {
    /// A ring holding up to `capacity` spans (allocated eagerly so pushes
    /// never allocate).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — use [`SpanRing::disabled`] for the
    /// no-op ring.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "use SpanRing::disabled() for capacity 0");
        Self {
            spans: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// The no-op ring: holds nothing, allocates nothing, every push is a
    /// single branch. The disabled hot path carries this.
    #[inline]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// `true` if the ring accepts spans.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records a span; overwrites the oldest (and counts a drop) when
    /// full, does nothing when disabled.
    #[inline]
    pub fn push(&mut self, span: Span) {
        if self.capacity == 0 {
            return;
        }
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.spans[self.head] = span;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Spans currently buffered.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the buffered spans (capacity is kept, so the ring can be
    /// reused without reallocating).
    pub fn drain(&mut self) -> std::vec::Drain<'_, Span> {
        self.head = 0;
        self.spans.drain(..)
    }
}

/// A log2-bucketed latency histogram: bucket `i` counts durations whose
/// bit length is `i` (bucket 0 holds exact zeros), so 64 buckets cover
/// the full `u64` nanosecond range with ~2× resolution.
///
/// Histograms are mergeable: [`merge`](Self::merge) adds counts
/// bucket-wise, so per-shard histograms combine into per-run ones without
/// losing anything the buckets can express. [`quantile`](Self::quantile)
/// reports the *upper bound* of the bucket the quantile falls in (a
/// guaranteed upper bound on the true value), and
/// [`reported_quantiles`](Self::reported_quantiles) caps those bounds at
/// the exact [`max_nanos`](Self::max_nanos).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    total: u64,
    sum_nanos: u64,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; HISTOGRAM_BUCKETS],
            total: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }

    /// The bucket a duration falls into: its bit length, clamped to the
    /// top bucket.
    #[inline]
    pub fn bucket_of(nanos: u64) -> usize {
        ((64 - nanos.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of a bucket (`0` for bucket 0, `2^i − 1`
    /// otherwise, saturating at the top).
    pub fn bucket_bound(bucket: usize) -> u64 {
        match bucket {
            0 => 0,
            b if b >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
            b => (1u64 << b) - 1,
        }
    }

    /// Records one duration.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::bucket_of(nanos)] += 1;
        self.total += 1;
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Adds another histogram bucket-wise: counts add exactly, the sum
    /// and max combine, and for any quantile `q` the merged value is
    /// bounded by the two inputs' values for the same `q`.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Recorded durations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of recorded durations (saturating).
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// Exact maximum recorded duration.
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// The raw per-bucket counts.
    pub fn counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Bucket counts with trailing zero buckets trimmed — the compact
    /// form [`crate::SpanSummary`] serializes.
    pub fn trimmed_counts(&self) -> Vec<u64> {
        let last = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        self.counts[..last].to_vec()
    }

    /// Upper bound of the `q`-quantile (`0 ≤ q ≤ 1`): the bucket bound of
    /// the first bucket whose cumulative count reaches `q · count`. Zero
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let need = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= need {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// The p50, p90 and p99 that summaries report: each quantile's bucket
    /// bound capped at the exact max. They are still upper bounds on the
    /// true quantiles, monotone, and never above the largest duration
    /// recorded.
    pub fn reported_quantiles(&self) -> [u64; 3] {
        [0.50, 0.90, 0.99].map(|q| self.quantile(q).min(self.max_nanos))
    }
}

/// One correlation mark: the span of servicing one client request,
/// tagged with the request's correlation id so a Chrome trace joins the
/// request to the sweep-phase spans it scheduled. Marks are recorded by
/// the service layer (one per executed quantum), not by the hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrMark {
    /// Client-generated correlation id (the proto-v2 request id).
    pub corr: u64,
    /// Track the work ran on (worker index, or session id).
    pub track: u32,
    /// Start, nanos since the collector epoch.
    pub start_nanos: u64,
    /// Duration in nanos.
    pub dur_nanos: u64,
}

/// The shared aggregation point spans drain into: per-phase histograms,
/// counts, and (optionally) retained spans for Chrome trace export.
#[derive(Debug, Clone)]
pub struct TraceCollector {
    epoch: Instant,
    hists: [LatencyHistogram; N_PHASES],
    spans: Vec<Span>,
    marks: Vec<CorrMark>,
    keep_spans: bool,
    max_spans: usize,
    spans_dropped: u64,
    ring_dropped: u64,
}

/// Default cap on retained spans for Chrome export (drops beyond it are
/// counted, histograms keep everything).
pub const DEFAULT_MAX_SPANS: usize = 1 << 20;

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCollector {
    /// A collector that aggregates histograms *and* retains spans for
    /// Chrome trace export (bounded by [`DEFAULT_MAX_SPANS`]).
    pub fn new() -> Self {
        Self::with_span_cap(DEFAULT_MAX_SPANS)
    }

    /// A collector that only aggregates histograms (no span retention —
    /// the cheap mode for long runs that don't export a trace).
    pub fn histograms_only() -> Self {
        Self::with_span_cap(0)
    }

    /// A collector retaining at most `max_spans` spans for export.
    pub fn with_span_cap(max_spans: usize) -> Self {
        Self {
            epoch: Instant::now(),
            hists: std::array::from_fn(|_| LatencyHistogram::new()),
            spans: Vec::new(),
            marks: Vec::new(),
            keep_spans: max_spans > 0,
            max_spans,
            spans_dropped: 0,
            ring_dropped: 0,
        }
    }

    /// The instant all span timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Aggregates one span.
    pub fn sink_span(&mut self, span: Span) {
        self.hists[span.phase.index()].record(span.dur_nanos);
        if self.keep_spans {
            if self.spans.len() < self.max_spans {
                self.spans.push(span);
            } else {
                self.spans_dropped += 1;
            }
        }
    }

    /// Drains a worker ring into the collector (also accumulates the
    /// ring's drop counter).
    pub fn sink_ring(&mut self, ring: &mut SpanRing) {
        self.ring_dropped += std::mem::take(&mut ring.dropped);
        for span in ring.drain() {
            self.sink_span(span);
        }
    }

    /// The histogram of one phase.
    pub fn phase_histogram(&self, phase: Phase) -> &LatencyHistogram {
        &self.hists[phase.index()]
    }

    /// Spans recorded for a phase.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.hists[phase.index()].count()
    }

    /// Total nanos attributed to a phase.
    pub fn phase_total_nanos(&self, phase: Phase) -> u64 {
        self.hists[phase.index()].sum_nanos()
    }

    /// Sum of all phases' attributed nanos.
    pub fn total_nanos(&self) -> u64 {
        Phase::ALL.iter().map(|&p| self.phase_total_nanos(p)).sum()
    }

    /// Spans dropped anywhere (ring overwrites + retention cap).
    pub fn dropped(&self) -> u64 {
        self.spans_dropped + self.ring_dropped
    }

    /// The retained spans (empty in histogram-only mode).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records one correlation mark (kept even in histogram-only mode —
    /// marks arrive at request cadence, not from the hot loops, and are
    /// bounded by the same retention cap when one is set).
    pub fn sink_mark(&mut self, mark: CorrMark) {
        if self.max_spans == 0 || self.marks.len() < self.max_spans {
            self.marks.push(mark);
        } else {
            self.spans_dropped += 1;
        }
    }

    /// The retained correlation marks.
    pub fn marks(&self) -> &[CorrMark] {
        &self.marks
    }

    /// One [`SpanSummary`] per phase that recorded at least one span, in
    /// [`Phase::ALL`] order — the payloads of the `span_summary` events.
    pub fn summaries(&self) -> Vec<SpanSummary> {
        Phase::ALL
            .iter()
            .filter(|&&p| self.phase_count(p) > 0)
            .map(|&p| {
                let h = self.phase_histogram(p);
                let [p50_nanos, p90_nanos, p99_nanos] = h.reported_quantiles();
                SpanSummary {
                    phase: p.as_str().to_string(),
                    count: h.count(),
                    total_nanos: h.sum_nanos(),
                    p50_nanos,
                    p90_nanos,
                    p99_nanos,
                    max_nanos: h.max_nanos(),
                    buckets: h.trimmed_counts(),
                }
            })
            .collect()
    }

    /// Serializes the retained spans as Chrome trace-event JSON
    /// (`"X"` complete events; `tid` is the track/shard). Load the
    /// result in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + (self.spans.len() + self.marks.len()) * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for s in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"cenn\",\"ph\":\"X\",\"pid\":0,\
                 \"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                s.phase.as_str(),
                s.track,
                s.start_nanos as f64 / 1e3,
                s.dur_nanos as f64 / 1e3,
            ));
        }
        for m in &self.marks {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"request\",\"cat\":\"cenn-corr\",\"ph\":\"X\",\"pid\":0,\
                 \"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"corr\":{}}}}}",
                m.track,
                m.start_nanos as f64 / 1e3,
                m.dur_nanos as f64 / 1e3,
                m.corr,
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Writes the Chrome trace to a file.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(self.chrome_trace_json().as_bytes())?;
        f.flush()
    }
}

/// A cloneable, shareable handle to a [`TraceCollector`] — the tracing
/// analogue of [`RecorderHandle`]. Simulators embed `Option<TraceHandle>`
/// (`None` keeps the hot path untouched); the mutex is locked only at
/// drain points on the driving thread, never inside sweep workers.
#[derive(Clone)]
pub struct TraceHandle {
    inner: Arc<Mutex<TraceCollector>>,
    epoch: Instant,
}

impl TraceHandle {
    /// Wraps a collector.
    pub fn new(collector: TraceCollector) -> Self {
        let epoch = collector.epoch();
        Self {
            inner: Arc::new(Mutex::new(collector)),
            epoch,
        }
    }

    /// A handle around [`TraceCollector::new`] (histograms + retained
    /// spans for Chrome export).
    pub fn full() -> Self {
        Self::new(TraceCollector::new())
    }

    /// A handle around [`TraceCollector::histograms_only`].
    pub fn histograms_only() -> Self {
        Self::new(TraceCollector::histograms_only())
    }

    /// The epoch spans are timed against. Copied out of the collector so
    /// workers never lock to compute a timestamp.
    #[inline]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanos elapsed since the epoch.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one driver-level span (scrub, checkpoint, integrate):
    /// locks once, so only call this at per-sweep/per-action cadence.
    pub fn record(&self, phase: Phase, track: u32, start_nanos: u64, dur_nanos: u64) {
        self.inner
            .lock()
            .expect("trace collector poisoned")
            .sink_span(Span {
                phase,
                track,
                start_nanos,
                dur_nanos,
            });
    }

    /// Records a span of `phase` on `track` from `t0` until now and
    /// returns its duration in nanos — the span clock for work timed on
    /// the driving thread.
    pub fn record_since(&self, phase: Phase, track: u32, t0: Instant) -> u64 {
        let dur_nanos = t0.elapsed().as_nanos() as u64;
        let start_nanos = t0.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.record(phase, track, start_nanos, dur_nanos);
        dur_nanos
    }

    /// Records one correlation mark (see [`TraceCollector::sink_mark`]).
    pub fn mark(&self, corr: u64, track: u32, start_nanos: u64, dur_nanos: u64) {
        self.inner
            .lock()
            .expect("trace collector poisoned")
            .sink_mark(CorrMark {
                corr,
                track,
                start_nanos,
                dur_nanos,
            });
    }

    /// Drains one worker ring (one lock).
    pub fn sink_ring(&self, ring: &mut SpanRing) {
        self.inner
            .lock()
            .expect("trace collector poisoned")
            .sink_ring(ring);
    }

    /// Runs `f` against the collector.
    pub fn with<T>(&self, f: impl FnOnce(&mut TraceCollector) -> T) -> T {
        f(&mut self.inner.lock().expect("trace collector poisoned"))
    }

    /// Per-phase summaries (see [`TraceCollector::summaries`]).
    pub fn summaries(&self) -> Vec<SpanSummary> {
        self.with(|c| c.summaries())
    }

    /// Emits one `span_summary` event per active phase through a
    /// recorder. No-op when the recorder is disabled.
    pub fn record_summaries(&self, recorder: &RecorderHandle) {
        if !recorder.enabled() {
            return;
        }
        for s in self.summaries() {
            recorder.record(&Event::SpanSummary(s));
        }
    }

    /// The Chrome trace-event JSON of the retained spans.
    pub fn chrome_trace_json(&self) -> String {
        self.with(|c| c.chrome_trace_json())
    }

    /// Writes the Chrome trace to a file.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.with(|c| c.write_chrome_trace(path))
    }
}

/// Runs `f` inside a span of `phase` on track 0 when a tracer is
/// attached, and calls it directly otherwise. For phases that run on the
/// driving thread, so spans go straight to the collector.
pub fn timed<T>(tracer: Option<&TraceHandle>, phase: Phase, f: impl FnOnce() -> T) -> T {
    let Some(tracer) = tracer else {
        return f();
    };
    let t0 = Instant::now();
    let out = f();
    tracer.record_since(phase, 0, t0);
    out
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: Phase, track: u32, start: u64, dur: u64) -> Span {
        Span {
            phase,
            track,
            start_nanos: start,
            dur_nanos: dur,
        }
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::parse(p.as_str()), Some(p));
            assert_eq!(Phase::ALL[p.index()], p);
        }
        assert_eq!(Phase::parse("nope"), None);
    }

    #[test]
    fn ring_buffers_and_overwrites_oldest() {
        let mut ring = SpanRing::new(2);
        ring.push(span(Phase::Scrub, 0, 0, 1));
        ring.push(span(Phase::Scrub, 0, 0, 2));
        ring.push(span(Phase::Scrub, 0, 0, 3));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 1);
        let durs: Vec<u64> = ring.drain().map(|s| s.dur_nanos).collect();
        assert!(durs.contains(&3), "newest span survives: {durs:?}");
        assert!(ring.is_empty());
    }

    #[test]
    fn disabled_ring_is_a_no_op() {
        let mut ring = SpanRing::disabled();
        assert!(!ring.is_enabled());
        ring.push(span(Phase::Scrub, 0, 0, 1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0, "disabled pushes are not drops");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_bound(0), 0);
        assert_eq!(LatencyHistogram::bucket_bound(10), 1023);
        assert_eq!(
            LatencyHistogram::bucket_bound(HISTOGRAM_BUCKETS - 1),
            u64::MAX
        );
    }

    #[test]
    fn histogram_quantiles_upper_bound_the_data() {
        let mut h = LatencyHistogram::new();
        for d in [10u64, 20, 30, 40, 1000] {
            h.record(d);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_nanos(), 1100);
        assert_eq!(h.max_nanos(), 1000);
        assert!(h.quantile(0.5) >= 20, "p50 bound: {}", h.quantile(0.5));
        assert!(h.quantile(0.5) < 1000, "p50 below the outlier");
        assert!(h.quantile(1.0) >= 1000);
        assert_eq!(LatencyHistogram::new().quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_adds_counts_and_bounds_quantiles() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for d in [1u64, 1024] {
            a.record(d);
        }
        for d in [16u64, 16, 16] {
            b.record(d);
        }
        let (qa, qb) = (a.quantile(0.5), b.quantile(0.5));
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 5);
        assert_eq!(m.sum_nanos(), a.sum_nanos() + b.sum_nanos());
        assert_eq!(m.max_nanos(), 1024);
        let qm = m.quantile(0.5);
        assert!(qm >= qa.min(qb) && qm <= qa.max(qb), "{qa} {qb} {qm}");
        for (i, &c) in m.counts().iter().enumerate() {
            assert_eq!(c, a.counts()[i] + b.counts()[i]);
        }
    }

    #[test]
    fn trimmed_counts_round_trip_totals() {
        let mut h = LatencyHistogram::new();
        for d in [0u64, 3, 3, 900] {
            h.record(d);
        }
        let t = h.trimmed_counts();
        assert_eq!(t.len(), LatencyHistogram::bucket_of(900) + 1);
        assert_eq!(t.iter().sum::<u64>(), h.count());
        assert!(LatencyHistogram::new().trimmed_counts().is_empty());
    }

    #[test]
    fn collector_aggregates_rings_per_phase() {
        let mut c = TraceCollector::new();
        let mut ring = SpanRing::new(8);
        ring.push(span(Phase::TemplateApply, 3, 0, 100));
        ring.push(span(Phase::LutLookup, 3, 0, 40));
        ring.push(span(Phase::TemplateApply, 3, 200, 120));
        c.sink_ring(&mut ring);
        assert!(ring.is_empty(), "ring drained");
        assert_eq!(c.phase_count(Phase::TemplateApply), 2);
        assert_eq!(c.phase_total_nanos(Phase::TemplateApply), 220);
        assert_eq!(c.phase_count(Phase::LutLookup), 1);
        assert_eq!(c.total_nanos(), 260);
        assert_eq!(c.spans().len(), 3, "spans retained for export");
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn histogram_only_collector_retains_nothing() {
        let mut c = TraceCollector::histograms_only();
        c.sink_span(span(Phase::Scrub, 0, 0, 50));
        assert_eq!(c.phase_count(Phase::Scrub), 1);
        assert!(c.spans().is_empty());
        assert_eq!(c.dropped(), 0, "cap disabled, nothing counted as drop");
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let mut c = TraceCollector::with_span_cap(1);
        c.sink_span(span(Phase::Scrub, 0, 0, 1));
        c.sink_span(span(Phase::Scrub, 0, 10, 2));
        assert_eq!(c.spans().len(), 1);
        assert_eq!(c.dropped(), 1);
        assert_eq!(c.phase_count(Phase::Scrub), 2, "histogram keeps both");
    }

    #[test]
    fn summaries_cover_active_phases_in_order() {
        let mut c = TraceCollector::new();
        c.sink_span(span(Phase::Integrate, 0, 0, 10));
        c.sink_span(span(Phase::TemplateApply, 1, 0, 30));
        let s = c.summaries();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].phase, "template_apply", "Phase::ALL order");
        assert_eq!(s[1].phase, "integrate");
        assert_eq!(s[0].count, 1);
        assert_eq!(s[0].total_nanos, 30);
        assert!(s[0].p50_nanos <= s[0].p90_nanos);
        assert!(s[0].p99_nanos >= s[0].p90_nanos);
        assert_eq!(s[0].p99_nanos, 30, "capped at the max, not the bound 31");
        assert_eq!(s[0].buckets.iter().sum::<u64>(), s[0].count);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut c = TraceCollector::new();
        c.sink_span(span(Phase::TemplateApply, 2, 1500, 2500));
        c.sink_span(span(Phase::HaloSync, 0, 4000, 100));
        let json = c.chrome_trace_json();
        let doc = crate::json::parse(&json).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(crate::JsonValue::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").and_then(crate::JsonValue::as_str),
            Some("template_apply")
        );
        assert_eq!(
            events[0].get("ph").and_then(crate::JsonValue::as_str),
            Some("X")
        );
        assert_eq!(
            events[0].get("ts").and_then(crate::JsonValue::as_f64),
            Some(1.5),
            "microsecond timestamps"
        );
        assert_eq!(
            events[1].get("tid").and_then(crate::JsonValue::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn correlation_marks_export_with_corr_args() {
        let mut c = TraceCollector::histograms_only();
        c.sink_mark(CorrMark {
            corr: (7u64 << 32) | 3,
            track: 1,
            start_nanos: 2000,
            dur_nanos: 500,
        });
        assert_eq!(c.marks().len(), 1);
        let json = c.chrome_trace_json();
        let doc = crate::json::parse(&json).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(crate::JsonValue::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("name").and_then(crate::JsonValue::as_str),
            Some("request")
        );
        let corr = events[0]
            .get("args")
            .and_then(|a| a.get("corr"))
            .and_then(crate::JsonValue::as_f64)
            .expect("corr arg");
        assert_eq!(corr as u64, (7u64 << 32) | 3);
    }

    #[test]
    fn handle_records_and_summarizes() {
        let h = TraceHandle::full();
        h.record(Phase::Scrub, 0, 0, 500);
        let mut ring = SpanRing::new(4);
        ring.push(span(Phase::Checkpoint, 0, 100, 50));
        h.sink_ring(&mut ring);
        let s = h.summaries();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].phase, "scrub");
        assert_eq!(s[1].phase, "checkpoint");
        assert!(h.chrome_trace_json().contains("\"scrub\""));
    }

    #[test]
    fn handle_clones_share_the_collector() {
        let h = TraceHandle::histograms_only();
        let h2 = h.clone();
        h.record(Phase::Integrate, 0, 0, 10);
        h2.record(Phase::Integrate, 0, 20, 30);
        assert_eq!(h.with(|c| c.phase_count(Phase::Integrate)), 2);
        assert_eq!(h.epoch(), h2.epoch());
    }

    #[test]
    fn record_summaries_feeds_recorder() {
        let h = TraceHandle::histograms_only();
        h.record(Phase::TemplateApply, 0, 0, 64);
        let (rec, reader) = RecorderHandle::in_memory(false);
        h.record_summaries(&rec);
        let events = reader.lock().unwrap().events().to_vec();
        assert_eq!(events.len(), 1);
        let Event::SpanSummary(s) = &events[0] else {
            panic!("span_summary expected");
        };
        assert_eq!(s.phase, "template_apply");
        assert_eq!(s.count, 1);
        // Disabled recorders see nothing.
        let null = RecorderHandle::new(crate::NullRecorder);
        h.record_summaries(&null);
    }
}
