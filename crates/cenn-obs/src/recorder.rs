//! The recorder trait and its in-process implementations.

use std::sync::{Arc, Mutex};

use crate::schema::{Event, RunSummary};

/// A consumer of metric events.
///
/// Implementations must be cheap to call once per step; the simulators
/// check [`enabled`](Self::enabled) before building an event, so a
/// disabled recorder costs a single branch per step and nothing in the
/// per-cell hot loops.
pub trait Recorder: Send {
    /// Consumes one event.
    fn record(&mut self, event: &Event);

    /// `false` to tell producers not to build events at all. Default
    /// `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered output (no-op for in-memory recorders).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from streaming sinks.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Discards everything. Attaching this is observationally identical to
/// attaching nothing: [`Recorder::enabled`] returns `false`, so producers
/// skip event construction entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&mut self, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Buffers events in memory, optionally canonicalizing them on arrival
/// (see [`Event::canonical`]) so determinism tests can compare streams
/// bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct InMemoryRecorder {
    events: Vec<Event>,
    canonical: bool,
}

impl InMemoryRecorder {
    /// An empty recorder keeping events exactly as emitted.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder that canonicalizes events on arrival (wall-clock
    /// fields zeroed — the deterministic stream).
    pub fn canonical() -> Self {
        Self {
            events: Vec::new(),
            canonical: true,
        }
    }

    /// The recorded events, in arrival order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The last recorded [`RunSummary`], if any.
    pub fn summary(&self) -> Option<&RunSummary> {
        self.events.iter().rev().find_map(|e| match e {
            Event::RunSummary(s) => Some(s),
            _ => None,
        })
    }

    /// Serializes the whole stream to JSONL (one event per line, trailing
    /// newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_jsonl());
            out.push('\n');
        }
        out
    }
}

impl Recorder for InMemoryRecorder {
    fn record(&mut self, event: &Event) {
        self.events.push(if self.canonical {
            event.canonical()
        } else {
            event.clone()
        });
    }
}

/// A cloneable, shareable handle to a recorder.
///
/// Simulators embed this instead of a bare `Box<dyn Recorder>` so they
/// keep deriving `Clone` and `Debug`: cloning a simulator shares the
/// recorder (all clones feed the same sink). The mutex is uncontended in
/// practice — events are emitted once per step from the driving thread,
/// never from the sweep workers.
#[derive(Clone)]
pub struct RecorderHandle {
    inner: Arc<Mutex<dyn Recorder>>,
    enabled: bool,
}

impl RecorderHandle {
    /// Wraps a recorder. The `enabled` state is sampled once here —
    /// recorders don't change their minds mid-run.
    pub fn new<R: Recorder + 'static>(recorder: R) -> Self {
        let enabled = recorder.enabled();
        Self {
            inner: Arc::new(Mutex::new(recorder)),
            enabled,
        }
    }

    /// `true` if producers should build and send events.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sends one event.
    pub fn record(&self, event: &Event) {
        if self.enabled {
            self.inner.lock().expect("recorder poisoned").record(event);
        }
    }

    /// Flushes the underlying recorder.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from streaming sinks.
    pub fn flush(&self) -> std::io::Result<()> {
        self.inner.lock().expect("recorder poisoned").flush()
    }

    /// Runs `f` against the underlying recorder (e.g. to drain an
    /// [`InMemoryRecorder`] after a run). The recorder is passed as
    /// `&mut dyn Recorder`; downcast is not provided — keep a second
    /// handle or use [`InMemoryRecorder`] through
    /// [`RecorderHandle::in_memory`] instead.
    pub fn with<T>(&self, f: impl FnOnce(&mut dyn Recorder) -> T) -> T {
        f(&mut *self.inner.lock().expect("recorder poisoned"))
    }
}

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecorderHandle")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

/// A handle + typed accessor pair for the common in-memory case: the
/// returned handle feeds the returned buffer (shared storage).
impl RecorderHandle {
    /// Creates a shared [`InMemoryRecorder`] (canonical when asked) and
    /// returns `(handle, reader)`; `reader.lock()` sees everything the
    /// handle recorded.
    pub fn in_memory(canonical: bool) -> (Self, Arc<Mutex<InMemoryRecorder>>) {
        let rec = Arc::new(Mutex::new(if canonical {
            InMemoryRecorder::canonical()
        } else {
            InMemoryRecorder::new()
        }));
        let handle = Self {
            inner: rec.clone(),
            enabled: true,
        };
        (handle, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::StepMetrics;

    fn step(n: u64) -> Event {
        Event::Step(StepMetrics {
            step: n,
            total_nanos: 77,
            ..StepMetrics::default()
        })
    }

    #[test]
    fn null_recorder_reports_disabled() {
        let h = RecorderHandle::new(NullRecorder);
        assert!(!h.enabled());
        h.record(&step(1)); // must be a no-op, not a panic
    }

    #[test]
    fn in_memory_buffers_in_order() {
        let mut rec = InMemoryRecorder::new();
        rec.record(&step(1));
        rec.record(&step(2));
        assert_eq!(rec.events().len(), 2);
        let Event::Step(s) = &rec.events()[1] else {
            unreachable!()
        };
        assert_eq!(s.step, 2);
        assert_eq!(s.total_nanos, 77, "non-canonical keeps wall clock");
        assert!(rec.summary().is_none());
    }

    #[test]
    fn canonical_recorder_zeroes_wall_clock_on_arrival() {
        let mut rec = InMemoryRecorder::canonical();
        rec.record(&step(1));
        let Event::Step(s) = &rec.events()[0] else {
            unreachable!()
        };
        assert_eq!(s.total_nanos, 0);
    }

    #[test]
    fn shared_in_memory_handle_feeds_reader() {
        let (handle, reader) = RecorderHandle::in_memory(true);
        assert!(handle.enabled());
        handle.record(&step(9));
        handle.record(&Event::RunSummary(RunSummary {
            steps: 9,
            ..RunSummary::default()
        }));
        let rec = reader.lock().unwrap();
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.summary().unwrap().steps, 9);
    }

    #[test]
    fn clones_share_the_recorder() {
        let (handle, reader) = RecorderHandle::in_memory(false);
        let clone = handle.clone();
        clone.record(&step(1));
        handle.record(&step(2));
        assert_eq!(reader.lock().unwrap().events().len(), 2);
    }
}
