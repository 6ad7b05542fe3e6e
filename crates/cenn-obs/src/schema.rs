//! The typed, versioned metric-event schema.
//!
//! Every event serializes to one JSONL object with a **fixed key order**
//! and an explicit `"schema"` version. The key sets below are frozen per
//! schema version: adding, removing, or renaming a field requires bumping
//! [`SCHEMA_VERSION`] (the golden schema test enforces this).

use crate::json::{self, JsonValue};

/// Version stamped into every serialized event. Bump when an event's
/// field set changes incompatibly (a removed, renamed, or reordered
/// field); purely additive deterministic fields may extend a version's
/// key list. [`known_keys`] reads each kind's keys off its one field
/// list, and the committed fixtures freeze them across versions.
pub const SCHEMA_VERSION: u32 = 1;

/// Wall-clock nanos of one named sweep inside a step (e.g. `dynamic`,
/// `update`, `algebraic:0`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepTiming {
    /// Sweep label, stable across runs.
    pub label: String,
    /// Wall-clock nanoseconds (zeroed by [`Event::canonical`]).
    pub nanos: u64,
}

/// Which LUT hierarchy level a metrics row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LutLevel {
    /// Per-PE private L1 LUTs.
    #[default]
    L1,
    /// Shared per-group L2 LUTs.
    L2,
    /// Off-chip DRAM tables.
    Dram,
}

impl LutLevel {
    /// Stable serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::L1 => "l1",
            Self::L2 => "l2",
            Self::Dram => "dram",
        }
    }
}

/// Hit/miss/insert accounting for one LUT hierarchy level.
///
/// *Hits* are look-ups satisfied at the level, *misses* are look-ups that
/// had to go deeper, *inserts* are entries written into the level on the
/// refill path (for DRAM, the burst points streamed out). All three are
/// exact counters — deterministic for any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LutLevelMetrics {
    /// The hierarchy level.
    pub level: LutLevel,
    /// Look-ups satisfied at this level.
    pub hits: u64,
    /// Look-ups that missed and went deeper.
    pub misses: u64,
    /// Entries installed into this level on refill.
    pub inserts: u64,
}

/// Per-step metrics emitted by the functional simulators.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepMetrics {
    /// Step index after execution (first step is 1).
    pub step: u64,
    /// Simulated time after the step.
    pub time: f64,
    /// Worker threads the sweep ran on.
    pub threads: u64,
    /// Cell evaluations performed (cells × layer sweeps).
    pub cells: u64,
    /// Wall-clock nanos for the whole step (zeroed by
    /// [`Event::canonical`]).
    pub total_nanos: u64,
    /// Max-norm of the state change the step applied (`max |Δx|` over
    /// dynamic layers) — an exact fixed-point-derived quantity.
    pub residual: f64,
    /// Per-sweep wall-clock breakdown, in execution order.
    pub sweeps: Vec<SweepTiming>,
    /// Per-hierarchy-level LUT traffic of this step (L1, L2, DRAM).
    pub lut: Vec<LutLevelMetrics>,
    /// Per-shard LUT accesses issued this step (index = shard id).
    pub shards: Vec<u64>,
}

/// Memory-system / architecture counters for one estimated step: DRAM
/// traffic, cycle split, bank traffic under the OS dataflow, and energy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MemTraffic {
    /// What this row describes (memory name, dataflow scheme, …).
    pub label: String,
    /// Base convolution cycles per step.
    pub conv_cycles: f64,
    /// Expected LUT-miss stall cycles per step.
    pub stall_cycles: f64,
    /// DRAM bytes moved per step (prefetch + writeback + LUT bursts).
    pub dram_bytes: f64,
    /// Of `dram_bytes`, the state bytes re-read because sub-block halos
    /// overlap: cells fetched by more than one resident tile window.
    pub halo_bytes: f64,
    /// Global-buffer primary-bank reads per step.
    pub primary_reads: u64,
    /// Global-buffer support-bank reads per step.
    pub support_reads: u64,
    /// PE-to-PE register moves per step (the reuse the dataflow buys).
    pub reg_moves: u64,
    /// Bank writebacks per step.
    pub writebacks: u64,
    /// Energy per step in joules.
    pub energy_j: f64,
    /// Peak bytes of simulation state resident in memory at once. For the
    /// cycle model this is the estimated on-chip working set; for the
    /// streamed out-of-core engine it is the measured window footprint.
    pub resident_bytes: u64,
    /// Cumulative bytes spilled to disk by out-of-core execution (0 for
    /// fully resident runs and for pure cycle-model estimates).
    pub spill_bytes: u64,
}

/// End-of-run aggregate: totals plus the derived miss rates the paper
/// feeds into its cycle model.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Steps executed.
    pub steps: u64,
    /// Simulated end time.
    pub time: f64,
    /// Worker threads configured at the end of the run.
    pub threads: u64,
    /// Total cell evaluations across the run.
    pub cells: u64,
    /// Total wall-clock nanos across steps (zeroed by
    /// [`Event::canonical`]).
    pub total_nanos: u64,
    /// Total LUT look-ups issued.
    pub accesses: u64,
    /// Measured `mr_L1` (Fig. 12).
    pub mr_l1: f64,
    /// Measured `mr_L2` (Fig. 12).
    pub mr_l2: f64,
    /// Combined miss rate `mr_L1 · mr_L2` (eqs. 11–12).
    pub mr_combined: f64,
    /// Residual of the final step.
    pub residual: f64,
    /// Cumulative per-hierarchy-level LUT accounting (L1, L2, DRAM).
    pub lut: Vec<LutLevelMetrics>,
    /// Peak bytes of simulation state resident in memory at once —
    /// geometry-derived and deterministic, so canonical mode keeps it.
    /// In-core runs report their full state-slab footprint; streamed
    /// runs report the largest resident window.
    pub peak_resident_bytes: u64,
    /// Cumulative bytes spilled to the chunk spool across the run (0 for
    /// in-core runs) — deterministic, kept by canonical mode.
    pub spill_bytes: u64,
    /// Fidelity of the per-level LUT hit/miss counters above:
    /// `"exact"` (bit-identical to the serial in-core sweep) or
    /// `"totals-only"` (streamed runs with several LUT-bearing layers
    /// preserve access totals but not the hit/miss split — the windowed
    /// interleaving differs; see `cenn_core::stream`).
    pub lut_counters: String,
}

impl Default for RunSummary {
    fn default() -> Self {
        Self {
            steps: 0,
            time: 0.0,
            threads: 0,
            cells: 0,
            total_nanos: 0,
            accesses: 0,
            mr_l1: 0.0,
            mr_l2: 0.0,
            mr_combined: 0.0,
            residual: 0.0,
            lut: Vec::new(),
            peak_resident_bytes: 0,
            spill_bytes: 0,
            lut_counters: "exact".into(),
        }
    }
}

/// One fault-tolerance action taken by the guard runtime (`cenn-guard`):
/// a detection, a scrub repair, a checkpoint, a rollback, ….
///
/// Guard events carry no wall-clock or thread fields, so they are
/// canonical as-is — the stream-identity test compares them byte-for-byte
/// between `threads=1` and `threads=N`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GuardEvent {
    /// Step index the action happened at (steps executed so far).
    pub step: u64,
    /// Stable action discriminator (`"fault_injected"`, `"scrub_repair"`,
    /// `"checkpoint"`, `"rollback"`, `"divergence"`, …).
    pub kind: String,
    /// Human-readable detail (target coordinates, bound that tripped, …).
    pub detail: String,
    /// Action-specific count (entries repaired, faults applied,
    /// checkpoint step rolled back to, …).
    pub count: u64,
    /// Action-specific measurement (the residual or saturation fraction
    /// that tripped a bound; 0 when not applicable).
    pub value: f64,
}

/// One lifecycle action of a hosted solver session (`cenn-serve`): a
/// submit, a completed step batch, a suspend-to-disk, a resume, a digest,
/// or a close.
///
/// Session events carry no wall-clock or thread fields, so they are
/// canonical as-is — per-session streams are byte-reproducible for any
/// server worker count (each session is stepped by one worker at a time
/// and its lifecycle is serialized by its connection).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionEvent {
    /// Server-assigned session id.
    pub session: u64,
    /// The session's step counter when the action completed.
    pub step: u64,
    /// Stable action discriminator. Lifecycle kinds: `"submitted"`,
    /// `"stepped"`, `"suspended"`, `"resumed"`, `"digest"`, `"closed"`.
    /// Crash-safety kinds (same schema, new values — canonical streams
    /// stay byte-reproducible): `"recovered"` (session rehydrated from
    /// the spool manifest after a restart), `"quarantined"` (its
    /// checkpoint failed validation and was moved aside), `"shed"` /
    /// `"shed-recovered"` (the server entered / left load-shedding).
    pub kind: String,
    /// The dynamical system the session runs (e.g. `"fisher"`).
    pub system: String,
    /// Human-readable detail (grid shape, checkpoint file name, digest
    /// hex, …). Must stay environment-independent in canonical streams.
    pub detail: String,
    /// Action-specific count (steps executed in a batch, spikes fired,
    /// the end-state digest value, …).
    pub count: u64,
    /// Request-scoped correlation id: the client-generated proto-v2
    /// request id of the frame that triggered this action (0 for
    /// server-initiated actions such as restart recovery). Client ids
    /// are deterministic per connection, so canonical streams keep it —
    /// the key that joins a `session` line to its spans and retries.
    pub corr: u64,
}

/// Per-phase span aggregate from the tracing layer (`cenn_obs::trace`):
/// the count, total, log-bucketed latency quantiles, and raw histogram
/// buckets of one [`crate::trace::Phase`] over a run.
///
/// `phase` and `count` are exact (spans are recorded per shard, so the
/// count is deterministic for any worker-thread count); everything else
/// is wall-clock-derived and zeroed by [`Event::canonical`] — including
/// `buckets`, which bin durations and therefore vary run to run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanSummary {
    /// Stable phase name (`lut_lookup`, `template_apply`, `integrate`,
    /// `halo_sync`, `scrub`, `checkpoint`).
    pub phase: String,
    /// Spans recorded — exact, thread-count independent.
    pub count: u64,
    /// Sum of span durations in nanos (zeroed by canonical mode).
    pub total_nanos: u64,
    /// p50 upper bound in nanos (zeroed by canonical mode).
    pub p50_nanos: u64,
    /// p90 upper bound in nanos (zeroed by canonical mode).
    pub p90_nanos: u64,
    /// p99 upper bound in nanos (zeroed by canonical mode).
    pub p99_nanos: u64,
    /// Exact max span duration in nanos (zeroed by canonical mode).
    pub max_nanos: u64,
    /// Log2 bucket counts, trailing zeros trimmed (emptied by canonical
    /// mode). When present, the counts sum to `count`.
    pub buckets: Vec<u64>,
}

/// One live-telemetry instrument sample (`cenn_obs::metrics`): a named
/// counter, gauge, or latency-histogram summary from a registry
/// snapshot.
///
/// `name`, `kind`, and the exact observation `count` are deterministic;
/// for histograms the `value` (the nanosecond sum) and the quantile
/// fields are wall-clock-derived and zeroed by [`Event::canonical`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricSample {
    /// Dotted instrument name (`"serve.frames_in_total"`).
    pub name: String,
    /// Instrument kind: `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: String,
    /// Counter/gauge value; for histograms the nanosecond sum (zeroed by
    /// canonical mode — it is wall-clock-derived).
    pub value: i64,
    /// Histogram observation count — exact, kept by canonical mode (0
    /// for counters and gauges).
    pub count: u64,
    /// Histogram p50 upper bound in nanos (zeroed by canonical mode).
    pub p50_nanos: u64,
    /// Histogram p99 upper bound in nanos (zeroed by canonical mode).
    pub p99_nanos: u64,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Per-step functional-simulator metrics.
    Step(StepMetrics),
    /// Architecture / memory-system counters.
    MemTraffic(MemTraffic),
    /// End-of-run aggregate.
    RunSummary(RunSummary),
    /// Fault-tolerance runtime action.
    Guard(GuardEvent),
    /// Per-phase span aggregate from the tracing layer.
    SpanSummary(SpanSummary),
    /// Solver-service session lifecycle action.
    Session(SessionEvent),
    /// Live-telemetry instrument sample from a metrics-registry
    /// snapshot.
    Metric(MetricSample),
}

impl Event {
    /// The stable `"event"` discriminator this event serializes under.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Step(_) => "step",
            Self::MemTraffic(_) => "mem_traffic",
            Self::RunSummary(_) => "run_summary",
            Self::Guard(_) => "guard",
            Self::SpanSummary(_) => "span_summary",
            Self::Session(_) => "session",
            Self::Metric(_) => "metric",
        }
    }

    /// A copy with every environment-dependent field zeroed: wall-clock
    /// nanos and the configured thread count. Canonical events are
    /// byte-for-byte reproducible across runs, machines, and thread
    /// counts; golden fixtures and the determinism tests compare
    /// canonical streams.
    pub fn canonical(&self) -> Event {
        match self {
            Self::Step(s) => {
                let mut s = s.clone();
                s.total_nanos = 0;
                s.threads = 0;
                for sweep in &mut s.sweeps {
                    sweep.nanos = 0;
                }
                Self::Step(s)
            }
            Self::MemTraffic(m) => Self::MemTraffic(m.clone()),
            Self::RunSummary(r) => {
                let mut r = r.clone();
                r.total_nanos = 0;
                r.threads = 0;
                Self::RunSummary(r)
            }
            Self::Guard(g) => Self::Guard(g.clone()),
            Self::SpanSummary(s) => {
                // Everything wall-clock-derived goes; the span count is
                // exact and stays.
                let mut s = s.clone();
                s.total_nanos = 0;
                s.p50_nanos = 0;
                s.p90_nanos = 0;
                s.p99_nanos = 0;
                s.max_nanos = 0;
                s.buckets.clear();
                Self::SpanSummary(s)
            }
            // Like guard events, session events carry only exact,
            // environment-independent fields.
            Self::Session(s) => Self::Session(s.clone()),
            Self::Metric(m) => {
                // Counters and gauges are exact; histogram quantiles and
                // the nanosecond sum are wall clock.
                let mut m = m.clone();
                m.p50_nanos = 0;
                m.p99_nanos = 0;
                if m.kind == "histogram" {
                    m.value = 0;
                }
                Self::Metric(m)
            }
        }
    }

    /// Serializes the event to its single-line JSON form (no trailing
    /// newline), with the fixed schema-versioned key order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(192);
        json::object(&mut out, self.fields());
        out
    }

    /// Every serialized field, in order: the `event` discriminator, the
    /// `schema` version, then the kind's own fields. This is the one
    /// statement of each event's layout; the JSONL writer, the CSV sink
    /// and [`known_keys`] all read it.
    pub(crate) fn fields(&self) -> Vec<(&'static str, FieldValue<'_>)> {
        use FieldValue::{Ints, Lut, Str, Sweeps, F64, I64, U64};
        let mut out = vec![
            ("event", Str(self.name())),
            ("schema", U64(SCHEMA_VERSION.into())),
        ];
        out.extend(match self {
            Self::Step(s) => vec![
                ("step", U64(s.step)),
                ("time", F64(s.time)),
                ("threads", U64(s.threads)),
                ("cells", U64(s.cells)),
                ("total_nanos", U64(s.total_nanos)),
                ("residual", F64(s.residual)),
                ("sweeps", Sweeps(&s.sweeps)),
                ("lut", Lut(&s.lut)),
                ("shards", Ints(&s.shards)),
            ],
            Self::MemTraffic(m) => vec![
                ("label", Str(&m.label)),
                ("conv_cycles", F64(m.conv_cycles)),
                ("stall_cycles", F64(m.stall_cycles)),
                ("dram_bytes", F64(m.dram_bytes)),
                ("halo_bytes", F64(m.halo_bytes)),
                ("primary_reads", U64(m.primary_reads)),
                ("support_reads", U64(m.support_reads)),
                ("reg_moves", U64(m.reg_moves)),
                ("writebacks", U64(m.writebacks)),
                ("energy_j", F64(m.energy_j)),
                ("resident_bytes", U64(m.resident_bytes)),
                ("spill_bytes", U64(m.spill_bytes)),
            ],
            Self::RunSummary(r) => vec![
                ("steps", U64(r.steps)),
                ("time", F64(r.time)),
                ("threads", U64(r.threads)),
                ("cells", U64(r.cells)),
                ("total_nanos", U64(r.total_nanos)),
                ("accesses", U64(r.accesses)),
                ("mr_l1", F64(r.mr_l1)),
                ("mr_l2", F64(r.mr_l2)),
                ("mr_combined", F64(r.mr_combined)),
                ("residual", F64(r.residual)),
                ("lut", Lut(&r.lut)),
                ("peak_resident_bytes", U64(r.peak_resident_bytes)),
                ("spill_bytes", U64(r.spill_bytes)),
                ("lut_counters", Str(&r.lut_counters)),
            ],
            Self::Guard(g) => vec![
                ("step", U64(g.step)),
                ("kind", Str(&g.kind)),
                ("detail", Str(&g.detail)),
                ("count", U64(g.count)),
                ("value", F64(g.value)),
            ],
            Self::SpanSummary(s) => vec![
                ("phase", Str(&s.phase)),
                ("count", U64(s.count)),
                ("total_nanos", U64(s.total_nanos)),
                ("p50_nanos", U64(s.p50_nanos)),
                ("p90_nanos", U64(s.p90_nanos)),
                ("p99_nanos", U64(s.p99_nanos)),
                ("max_nanos", U64(s.max_nanos)),
                ("buckets", Ints(&s.buckets)),
            ],
            Self::Session(s) => vec![
                ("session", U64(s.session)),
                ("step", U64(s.step)),
                ("kind", Str(&s.kind)),
                ("system", Str(&s.system)),
                ("detail", Str(&s.detail)),
                ("count", U64(s.count)),
                ("corr", U64(s.corr)),
            ],
            Self::Metric(m) => vec![
                ("name", Str(&m.name)),
                ("kind", Str(&m.kind)),
                ("value", I64(m.value)),
                ("count", U64(m.count)),
                ("p50_nanos", U64(m.p50_nanos)),
                ("p99_nanos", U64(m.p99_nanos)),
            ],
        });
        out
    }
}

impl SweepTiming {
    /// The fields of one `sweeps` entry, in serialized order.
    pub(crate) fn fields(&self) -> Vec<(&'static str, FieldValue<'_>)> {
        vec![
            ("label", FieldValue::Str(&self.label)),
            ("nanos", FieldValue::U64(self.nanos)),
        ]
    }
}

impl LutLevelMetrics {
    /// The fields of one `lut` entry, in serialized order.
    pub(crate) fn fields(&self) -> Vec<(&'static str, FieldValue<'_>)> {
        vec![
            ("level", FieldValue::Str(self.level.as_str())),
            ("hits", FieldValue::U64(self.hits)),
            ("misses", FieldValue::U64(self.misses)),
            ("inserts", FieldValue::U64(self.inserts)),
        ]
    }
}

/// One field's typed value, as [`Event::fields`] lists it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FieldValue<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'a str),
    /// Per-sweep timings (`sweeps`).
    Sweeps(&'a [SweepTiming]),
    /// Per-level LUT accounting (`lut`).
    Lut(&'a [LutLevelMetrics]),
    /// An integer array (`shards`, `buckets`).
    Ints(&'a [u64]),
}

/// The exact top-level key sequence each event type serializes under the
/// current [`SCHEMA_VERSION`], read off a default event of that kind.
/// Returns `None` for unknown event names.
pub fn known_keys(event: &str) -> Option<Vec<&'static str>> {
    let kinds = [
        Event::Step(StepMetrics::default()),
        Event::MemTraffic(MemTraffic::default()),
        Event::RunSummary(RunSummary::default()),
        Event::Guard(GuardEvent::default()),
        Event::SpanSummary(SpanSummary::default()),
        Event::Session(SessionEvent::default()),
        Event::Metric(MetricSample::default()),
    ];
    let kind = kinds.into_iter().find(|k| k.name() == event)?;
    Some(kind.fields().into_iter().map(|(key, _)| key).collect())
}

/// Why a serialized event failed schema validation.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// The line is not a well-formed JSON object.
    Malformed(String),
    /// The `"event"` discriminator is missing or not a known name.
    UnknownEvent(String),
    /// The `"schema"` version does not match [`SCHEMA_VERSION`].
    VersionMismatch {
        /// Version found in the line.
        found: u64,
    },
    /// The key sequence deviates from the frozen schema (an added,
    /// dropped, renamed, or reordered field).
    KeyMismatch {
        /// Event the line claims to be.
        event: String,
        /// Keys actually present, in order.
        found: Vec<String>,
        /// Keys the schema requires, in order.
        expected: Vec<String>,
    },
    /// The keys are right but a semantic invariant is violated (e.g. a
    /// `span_summary` with non-monotone quantiles or histogram buckets
    /// that do not sum to the span count).
    Constraint {
        /// Event the line claims to be.
        event: String,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(m) => write!(f, "malformed JSONL event: {m}"),
            Self::UnknownEvent(e) => write!(f, "unknown event type '{e}'"),
            Self::VersionMismatch { found } => write!(
                f,
                "schema version {found} does not match current {SCHEMA_VERSION}"
            ),
            Self::KeyMismatch {
                event,
                found,
                expected,
            } => write!(
                f,
                "event '{event}' key set deviates from schema v{SCHEMA_VERSION}: \
                 found [{}], expected [{}] — bump SCHEMA_VERSION to change the schema",
                found.join(", "),
                expected.join(", ")
            ),
            Self::Constraint { event, detail } => {
                write!(f, "event '{event}' violates schema invariant: {detail}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Validates one serialized JSONL event against the frozen schema: the
/// line must parse, carry the current [`SCHEMA_VERSION`], name a known
/// event, and present **exactly** the frozen key sequence — unknown,
/// renamed, missing, or reordered fields are all rejected.
///
/// # Errors
///
/// Returns the specific [`SchemaError`] describing the deviation.
pub fn validate_jsonl_line(line: &str) -> Result<(), SchemaError> {
    let value = json::parse(line).map_err(SchemaError::Malformed)?;
    let JsonValue::Object(fields) = &value else {
        return Err(SchemaError::Malformed("top level is not an object".into()));
    };
    let Some(JsonValue::String(event)) = value.get("event") else {
        return Err(SchemaError::UnknownEvent("<missing>".into()));
    };
    let expected = known_keys(event).ok_or_else(|| SchemaError::UnknownEvent(event.clone()))?;
    match value.get("schema") {
        Some(JsonValue::Number(n)) if *n == SCHEMA_VERSION as f64 => {}
        Some(JsonValue::Number(n)) => {
            return Err(SchemaError::VersionMismatch { found: *n as u64 })
        }
        _ => return Err(SchemaError::VersionMismatch { found: 0 }),
    }
    let found: Vec<String> = fields.iter().map(|(k, _)| k.clone()).collect();
    if found != expected {
        return Err(SchemaError::KeyMismatch {
            event: event.clone(),
            found,
            expected: expected.iter().map(|s| s.to_string()).collect(),
        });
    }
    let line = Line {
        event,
        value: &value,
    };
    match event.as_str() {
        "span_summary" => validate_span_summary(&line),
        "metric" => validate_metric(&line),
        "run_summary" => match value.get("lut_counters").and_then(JsonValue::as_str) {
            Some("exact" | "totals-only") => Ok(()),
            other => Err(line.constraint(format!(
                "'lut_counters' must be \"exact\" or \"totals-only\", got {other:?}"
            ))),
        },
        _ => Ok(()),
    }
}

/// A line whose keys passed validation, with the checks the semantic
/// validators share.
struct Line<'a> {
    event: &'a str,
    value: &'a JsonValue,
}

impl Line<'_> {
    fn constraint(&self, detail: String) -> SchemaError {
        SchemaError::Constraint {
            event: self.event.to_string(),
            detail,
        }
    }

    fn str(&self, key: &str) -> Result<&str, SchemaError> {
        self.value
            .get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| self.constraint(format!("'{key}' must be a string")))
    }

    fn count(&self, key: &str) -> Result<u64, SchemaError> {
        self.value
            .get(key)
            .and_then(count_of)
            .ok_or_else(|| self.constraint(format!("'{key}' must be a non-negative integer")))
    }
}

/// The value as a count: a JSON number that is a non-negative integer.
fn count_of(value: &JsonValue) -> Option<u64> {
    value
        .as_f64()
        .filter(|n| n.fract() == 0.0 && *n >= 0.0)
        .map(|n| n as u64)
}

/// Semantic invariants of a `metric` line: a known instrument kind,
/// monotone quantiles, and histogram-only fields zero on counters and
/// gauges.
fn validate_metric(line: &Line<'_>) -> Result<(), SchemaError> {
    let kind = line.str("kind")?;
    if !matches!(kind, "counter" | "gauge" | "histogram") {
        return Err(line.constraint(format!("unknown instrument kind '{kind}'")));
    }
    let (count, p50, p99) = (
        line.count("count")?,
        line.count("p50_nanos")?,
        line.count("p99_nanos")?,
    );
    if p50 > p99 {
        return Err(line.constraint(format!("quantiles must be monotone: p50={p50} p99={p99}")));
    }
    if kind != "histogram" && (count != 0 || p50 != 0 || p99 != 0) {
        return Err(line.constraint(format!("histogram-only fields must be zero on a {kind}")));
    }
    Ok(())
}

/// Semantic invariants of a `span_summary` line: a known phase name,
/// monotone quantiles (`p50 ≤ p90 ≤ p99 ≤ max`), and histogram buckets
/// that sum to the span count when present (canonical mode empties them).
fn validate_span_summary(line: &Line<'_>) -> Result<(), SchemaError> {
    let phase = line.str("phase")?;
    if crate::trace::Phase::parse(phase).is_none() {
        return Err(line.constraint(format!("unknown phase '{phase}'")));
    }
    let (p50, p90, p99, max) = (
        line.count("p50_nanos")?,
        line.count("p90_nanos")?,
        line.count("p99_nanos")?,
        line.count("max_nanos")?,
    );
    if !(p50 <= p90 && p90 <= p99) {
        return Err(line.constraint(format!(
            "quantiles must be monotone: p50={p50} p90={p90} p99={p99}"
        )));
    }
    // Reported quantiles are bucket upper bounds capped at the exact max.
    if p99 > max {
        return Err(line.constraint(format!("p99={p99} exceeds max={max}")));
    }
    let count = line.count("count")?;
    let buckets = line
        .value
        .get("buckets")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| line.constraint("'buckets' must be an array".into()))?;
    if !buckets.is_empty() {
        let mut sum = 0u64;
        for (i, b) in buckets.iter().enumerate() {
            let n = count_of(b).ok_or_else(|| {
                line.constraint(format!("bucket {i} must be a non-negative integer"))
            })?;
            sum = sum.saturating_add(n);
        }
        if sum != count {
            return Err(line.constraint(format!("bucket counts sum to {sum} but count is {count}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_step() -> Event {
        Event::Step(StepMetrics {
            step: 3,
            time: 0.3,
            threads: 2,
            cells: 64,
            total_nanos: 12345,
            residual: 0.5,
            sweeps: vec![SweepTiming {
                label: "dynamic".into(),
                nanos: 999,
            }],
            lut: vec![LutLevelMetrics {
                level: LutLevel::L1,
                hits: 10,
                misses: 2,
                inserts: 2,
            }],
            shards: vec![12, 0],
        })
    }

    fn sample_span_summary() -> Event {
        Event::SpanSummary(SpanSummary {
            phase: "template_apply".into(),
            count: 4,
            total_nanos: 1000,
            p50_nanos: 255,
            p90_nanos: 400,
            p99_nanos: 400,
            max_nanos: 400,
            buckets: vec![0, 0, 0, 0, 0, 0, 0, 1, 2, 1],
        })
    }

    #[test]
    fn every_event_round_trips_validation() {
        let events = [
            sample_step(),
            Event::MemTraffic(MemTraffic {
                label: "ddr3".into(),
                conv_cycles: 100.0,
                stall_cycles: 5.5,
                dram_bytes: 4096.0,
                halo_bytes: 128.0,
                primary_reads: 7,
                support_reads: 3,
                reg_moves: 56,
                writebacks: 64,
                energy_j: 1e-6,
                resident_bytes: 2048,
                spill_bytes: 0,
            }),
            Event::RunSummary(RunSummary::default()),
            Event::Guard(GuardEvent {
                step: 40,
                kind: "scrub_repair".into(),
                detail: "func=0".into(),
                count: 1,
                value: 0.0,
            }),
            sample_span_summary(),
            Event::Session(SessionEvent {
                session: 3,
                step: 20,
                kind: "stepped".into(),
                system: "fisher".into(),
                detail: "16x16".into(),
                count: 10,
                corr: 4,
            }),
            Event::Metric(MetricSample {
                name: "serve.frames_in_total".into(),
                kind: "counter".into(),
                value: 42,
                count: 0,
                p50_nanos: 0,
                p99_nanos: 0,
            }),
        ];
        for ev in &events {
            let line = ev.to_jsonl();
            validate_jsonl_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn canonical_zeroes_only_environment_fields() {
        let ev = sample_step().canonical();
        let Event::Step(s) = &ev else { unreachable!() };
        assert_eq!(s.total_nanos, 0);
        assert_eq!(s.sweeps[0].nanos, 0);
        assert_eq!(s.threads, 0, "thread count is an environment detail");
        assert_eq!(s.cells, 64, "counters untouched");
        assert_eq!(s.residual, 0.5, "residual is deterministic, kept");
    }

    #[test]
    fn guard_events_are_already_canonical() {
        let ev = Event::Guard(GuardEvent {
            step: 7,
            kind: "rollback".into(),
            detail: "to step 5".into(),
            count: 5,
            value: 1.25,
        });
        assert_eq!(ev.canonical(), ev, "no environment fields to zero");
        assert_eq!(ev.canonical().to_jsonl(), ev.to_jsonl());
    }

    #[test]
    fn session_events_are_already_canonical() {
        let ev = Event::Session(SessionEvent {
            session: 1,
            step: 12,
            kind: "suspended".into(),
            system: "wave".into(),
            detail: "session_1.ckpt".into(),
            count: 0,
            corr: 9,
        });
        assert_eq!(ev.canonical(), ev, "no environment fields to zero");
        assert_eq!(ev.canonical().to_jsonl(), ev.to_jsonl());
        validate_jsonl_line(&ev.to_jsonl()).unwrap();
        // Unknown fields on a session line are rejected like any other.
        let hacked = ev
            .to_jsonl()
            .replacen("\"session\":1", "\"session\":1,\"bogus\":7", 1);
        assert!(matches!(
            validate_jsonl_line(&hacked),
            Err(SchemaError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn unknown_field_is_rejected() {
        let line = sample_step().to_jsonl();
        let hacked = line.replacen("\"step\":3", "\"step\":3,\"bogus\":1", 1);
        assert!(matches!(
            validate_jsonl_line(&hacked),
            Err(SchemaError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn renamed_field_is_rejected() {
        let line = sample_step().to_jsonl();
        let hacked = line.replacen("\"cells\"", "\"cellz\"", 1);
        assert!(matches!(
            validate_jsonl_line(&hacked),
            Err(SchemaError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn version_bump_is_required() {
        let line = sample_step().to_jsonl();
        let hacked = line.replacen("\"schema\":1", "\"schema\":2", 1);
        assert!(matches!(
            validate_jsonl_line(&hacked),
            Err(SchemaError::VersionMismatch { found: 2 })
        ));
    }

    #[test]
    fn unknown_event_name_is_rejected() {
        let line = "{\"event\":\"nope\",\"schema\":1}";
        assert!(matches!(
            validate_jsonl_line(line),
            Err(SchemaError::UnknownEvent(_))
        ));
    }

    #[test]
    fn span_summary_canonical_keeps_exact_counts_only() {
        let ev = sample_span_summary().canonical();
        let Event::SpanSummary(s) = &ev else {
            unreachable!()
        };
        assert_eq!(s.phase, "template_apply");
        assert_eq!(s.count, 4, "span count is exact, kept");
        assert_eq!(s.total_nanos, 0);
        assert_eq!(s.p50_nanos, 0);
        assert_eq!(s.p90_nanos, 0);
        assert_eq!(s.p99_nanos, 0);
        assert_eq!(s.max_nanos, 0);
        assert!(s.buckets.is_empty(), "buckets bin wall clock, cleared");
        validate_jsonl_line(&ev.to_jsonl()).unwrap();
    }

    #[test]
    fn span_summary_unknown_field_is_rejected() {
        let line = sample_span_summary().to_jsonl();
        let hacked = line.replacen("\"count\":4", "\"count\":4,\"bogus\":1", 1);
        assert!(matches!(
            validate_jsonl_line(&hacked),
            Err(SchemaError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn span_summary_constraints_are_enforced() {
        let line = sample_span_summary().to_jsonl();
        validate_jsonl_line(&line).unwrap();
        // Non-monotone quantiles.
        let bad = line.replacen("\"p90_nanos\":400", "\"p90_nanos\":100", 1);
        assert!(matches!(
            validate_jsonl_line(&bad),
            Err(SchemaError::Constraint { .. })
        ));
        // p99 past the max, though inside the max's bucket.
        let bad = line.replacen("\"p99_nanos\":400", "\"p99_nanos\":511", 1);
        assert!(matches!(
            validate_jsonl_line(&bad),
            Err(SchemaError::Constraint { .. })
        ));
        // Buckets that do not sum to the count.
        let bad = line.replacen("\"count\":4", "\"count\":5", 1);
        assert!(matches!(
            validate_jsonl_line(&bad),
            Err(SchemaError::Constraint { .. })
        ));
        // Unknown phase name.
        let bad = line.replacen("template_apply", "warp_drive", 1);
        assert!(matches!(
            validate_jsonl_line(&bad),
            Err(SchemaError::Constraint { .. })
        ));
    }

    #[test]
    fn metric_canonical_and_constraints() {
        let hist = Event::Metric(MetricSample {
            name: "serve.quantum_nanos".into(),
            kind: "histogram".into(),
            value: 5000,
            count: 3,
            p50_nanos: 1023,
            p99_nanos: 2047,
        });
        validate_jsonl_line(&hist.to_jsonl()).unwrap();
        let Event::Metric(c) = hist.canonical() else {
            unreachable!()
        };
        assert_eq!(c.count, 3, "observation count is exact, kept");
        assert_eq!((c.value, c.p50_nanos, c.p99_nanos), (0, 0, 0));
        validate_jsonl_line(&hist.canonical().to_jsonl()).unwrap();

        let line = hist.to_jsonl();
        let unknown_kind = line.replacen("histogram", "thermometer", 1);
        assert!(matches!(
            validate_jsonl_line(&unknown_kind),
            Err(SchemaError::Constraint { .. })
        ));
        let non_monotone = line.replacen("\"p50_nanos\":1023", "\"p50_nanos\":4000", 1);
        assert!(matches!(
            validate_jsonl_line(&non_monotone),
            Err(SchemaError::Constraint { .. })
        ));
        // A counter must not carry histogram fields.
        let counter = line.replacen("histogram", "counter", 1);
        assert!(matches!(
            validate_jsonl_line(&counter),
            Err(SchemaError::Constraint { .. })
        ));
        // Unknown fields are rejected like any other event.
        let hacked = line.replacen("\"value\":5000", "\"value\":5000,\"bogus\":1", 1);
        assert!(matches!(
            validate_jsonl_line(&hacked),
            Err(SchemaError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn run_summary_lut_counters_is_constrained() {
        let line = Event::RunSummary(RunSummary::default()).to_jsonl();
        assert!(line.ends_with("\"lut_counters\":\"exact\"}"), "{line}");
        validate_jsonl_line(&line).unwrap();
        let streamed = line.replacen("\"exact\"", "\"totals-only\"", 1);
        validate_jsonl_line(&streamed).unwrap();
        let bad = line.replacen("\"exact\"", "\"approximate\"", 1);
        assert!(matches!(
            validate_jsonl_line(&bad),
            Err(SchemaError::Constraint { .. })
        ));
    }

    #[test]
    fn deeply_nested_line_is_malformed() {
        let deep = "[".repeat(100_000);
        assert!(matches!(
            validate_jsonl_line(&deep),
            Err(SchemaError::Malformed(_))
        ));
        let deep = format!("{{\"event\":{}", "{\"a\":".repeat(100_000));
        assert!(matches!(
            validate_jsonl_line(&deep),
            Err(SchemaError::Malformed(_))
        ));
    }

    #[test]
    fn garbage_is_malformed() {
        assert!(matches!(
            validate_jsonl_line("not json"),
            Err(SchemaError::Malformed(_))
        ));
        assert!(matches!(
            validate_jsonl_line("[1,2]"),
            Err(SchemaError::Malformed(_))
        ));
    }
}
