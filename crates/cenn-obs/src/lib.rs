//! Structured observability for the CeNN solver workspace.
//!
//! The paper's evaluation is built on *measured internals* — LUT hierarchy
//! miss rates (Fig. 12), PE-array dataflow traffic and energy (Fig. 8,
//! Tables 1–2), and memory behaviour under HMC (Fig. 14). This crate gives
//! every layer of the workspace one shared way to report those quantities:
//!
//! * a typed, versioned **event schema** ([`StepMetrics`],
//!   [`LutLevelMetrics`], [`SweepTiming`], [`MemTraffic`], [`RunSummary`])
//!   — see [`SCHEMA_VERSION`];
//! * a zero-cost-when-disabled [`Recorder`] trait with [`NullRecorder`],
//!   [`InMemoryRecorder`], and streaming [`JsonlSink`] / [`CsvSink`]
//!   implementations;
//! * a cloneable [`RecorderHandle`] that simulators embed so attaching a
//!   recorder never changes their `Clone`/`Debug` surface;
//! * a span-level **tracing layer** ([`trace`]) — per-phase latency
//!   histograms fed by lock-free per-shard rings, additive
//!   [`SpanSummary`] events, and Chrome trace-event export.
//!
//! # Determinism contract
//!
//! Events split into *counter* fields (accesses, hits, cells, residuals —
//! all derived from fixed-point state and therefore bit-identical for any
//! worker-thread count) and *wall-clock* fields (`total_nanos`, per-sweep
//! nanos). [`Event::canonical`] zeroes the wall-clock fields; a canonical
//! event stream is byte-for-byte reproducible across runs, thread counts,
//! and machines, which is what the golden-fixture tests and CI pin.
//!
//! # Example
//!
//! ```
//! use cenn_obs::{Event, InMemoryRecorder, Recorder, RunSummary};
//!
//! let mut rec = InMemoryRecorder::new();
//! rec.record(&Event::RunSummary(RunSummary::default()));
//! assert_eq!(rec.events().len(), 1);
//! assert!(rec.summary().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
pub mod metrics;
mod recorder;
mod schema;
mod sink;
pub mod trace;

pub use json::{parse as parse_json, parse_object_keys, JsonValue};
pub use metrics::{
    CounterId, GaugeId, HistogramId, HistogramSnapshot, LocalCounters, MetricsHub, MetricsSnapshot,
    STATS_VERSION,
};
pub use recorder::{InMemoryRecorder, NullRecorder, Recorder, RecorderHandle};
pub use schema::{
    known_keys, validate_jsonl_line, Event, GuardEvent, LutLevel, LutLevelMetrics, MemTraffic,
    MetricSample, RunSummary, SchemaError, SessionEvent, SpanSummary, StepMetrics, SweepTiming,
    SCHEMA_VERSION,
};
pub use sink::{CsvSink, JsonlSink, CSV_HEADER};
pub use trace::{CorrMark, LatencyHistogram, Phase, Span, SpanRing, TraceCollector, TraceHandle};
