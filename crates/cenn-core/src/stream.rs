//! Streamed out-of-core execution: the spooled state store.
//!
//! [`StreamSim`] is the sweep [`Engine`] over the [`Spooled`] store, so it
//! runs the same window schedule, kernels, integrator updates, and step
//! accounting as the in-core [`CennSim`] — but never materializes the
//! full state slab. The grid's rows are split into fixed-height
//! **chunks**; each integrator pass sweeps the chunks in ascending row
//! order as **windows**, where a window keeps resident only its chunk
//! rows plus the halo rows its templates read (boundary-resolved, so
//! periodic wrap rows are included). State chunks are filled from and
//! spilled to an on-disk **spool** of `CENNCKPT` v1 files (the same codec
//! as `cenn-guard` checkpoints, see [`SimSnapshot::decode_ckpt`]), and a
//! text **journal** records every completed window so a partially swept
//! step is restartable via [`StreamSim::recover`].
//!
//! # Window rows
//!
//! A window needs no per-cell geometry. Its row map takes a global row to
//! its resident row; the template pass multiply-accumulates each tap's
//! boundary-resolved source row as one contiguous slice, and the tag
//! replay of a model with dynamic weight sites walks each shard's rows
//! through the engine's row pattern (built once from the PE geometry:
//! a cell's PE depends only on its position), reading the row's cells
//! from the resident rows in place.
//!
//! # Memory budget
//!
//! A budget sets the chunk height: the largest whose window — resident
//! state and input rows, RHS and Heun chunk buffers, I/O staging, and the
//! sweep's band rows and row pattern, whose size does not depend on the
//! window — fits it. The solver charges exactly what
//! [`peak_resident_bytes`](Engine::peak_resident_bytes) counts, so a run
//! whose budget buys one row never holds more than its budget.
//!
//! # Determinism
//!
//! Windows in ascending row order concatenate to exactly the serial
//! row-major per-shard cell sequence of the in-core sweep, so **states
//! are bit-identical to [`CennSim`] at every thread count and every
//! window size**. LUT hit/miss counters are additionally bit-identical
//! whenever a single layer carries dynamic weight sites (the per-shard
//! lookup sequence is then the in-core sequence split at window
//! boundaries, and the batched replay only memoizes provable L1 hits
//! per call); with several LUT-bearing layers the windowed interleaving
//! differs, and only access *totals* are preserved.
//!
//! # Restart semantics
//!
//! A window fills from its own chunk and only the halo rows of its
//! neighbours, and writes each chunk over its existing file in place (no
//! temp file, no rename), then appends its `win` line to the journal,
//! which stays open for the engine's lifetime. A killed process loses at
//! most the window it was executing, and may leave that window's output
//! chunk torn. That is safe: a window never writes the parity stream it
//! reads, and a chunk only counts once its `win` line is in the journal,
//! so [`StreamSim::recover`] resumes at the unjournaled window and
//! rewrites the torn chunk whole before any window reads it. `recover`
//! replays the journal and reconstructs the in-flight step's cell and
//! residual accounting from the spooled chunks. As with
//! [`SimSnapshot`] restore, LUT cache *statistics* are
//! not restored — replayed look-ups are real look-ups — so counters after
//! a restart differ from an uninterrupted run while states do not. Nor
//! are the post-step rule's fired counts of the windows swept before the
//! kill: the resumed step reports only its remaining windows' cells.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cenn_lut::LutStats;
use cenn_obs::{CounterId, GaugeId, MetricsHub, Phase};
use fixedpt::Q16_16;

use crate::boundary::Boundary;
use crate::error::ModelError;
use crate::grid::{Grid, SoaGrid};
use crate::layer::{LayerId, LayerKind};
use crate::model::{CennModel, Integrator};
use crate::sim::{CennSim, Core, Engine, Fields, FuncEval, StepReport, Store, WindowMut};
use crate::snapshot::{self, SimSnapshot, HEADER_LEN};

/// Journal header tag and version.
const JOURNAL_MAGIC: &str = "CENNJRNL 1";

/// Configuration for the streamed engine: where to spool, and how much
/// memory the resident window may use.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Directory holding the chunk spool and journal (created if absent).
    pub spool_dir: PathBuf,
    /// Byte budget for the resident working set. The engine solves for the
    /// largest chunk height whose window (chunk + halo rows, sweep
    /// scratch, I/O staging) fits the budget; a budget smaller than a
    /// single-row window degrades to one-row chunks (best effort).
    pub memory_budget: Option<u64>,
    /// Explicit chunk height in rows (overrides `memory_budget`; clamped
    /// to `[1, rows]`). Mostly for tests that pin window geometry.
    pub chunk_rows: Option<usize>,
}

impl StreamConfig {
    /// A config spooling to `dir` with no memory budget (one window spans
    /// the whole grid until a budget or chunk height is set).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            spool_dir: dir.into(),
            memory_budget: None,
            chunk_rows: None,
        }
    }

    /// Sets the resident-memory budget in bytes.
    #[must_use]
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Pins the chunk height in rows.
    #[must_use]
    pub fn with_chunk_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = Some(rows);
        self
    }
}

/// Why the streamed engine could not be constructed or advanced.
#[derive(Debug)]
pub enum StreamError {
    /// The model uses a feature the streamed engine does not support
    /// (e.g. algebraic layers, which need whole-grid sequencing).
    Unsupported(String),
    /// Model construction failed (LUT generation, shape checks).
    Model(ModelError),
    /// Spool or journal I/O failed.
    Io(std::io::Error),
    /// A spooled chunk or the journal is malformed or inconsistent with
    /// the model.
    Corrupt(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unsupported(m) => write!(f, "streamed execution unsupported: {m}"),
            Self::Model(e) => write!(f, "streamed engine model error: {e}"),
            Self::Io(e) => write!(f, "spool I/O failed: {e}"),
            Self::Corrupt(m) => write!(f, "spool corrupt: {m}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Model(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ModelError> for StreamError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}

/// The on-disk chunk spool: one `CENNCKPT` file per (stream, chunk)
/// pair, overwritten in place (see the module docs on restart
/// semantics).
#[derive(Debug, Clone)]
struct Spool {
    dir: PathBuf,
}

impl Spool {
    fn chunk_path(&self, stream: &str, idx: usize) -> PathBuf {
        self.dir.join(format!("{stream}_{idx:05}.ckpt"))
    }

    /// Encodes one chunk, with `(steps, time)` in its header, and writes
    /// it over the chunk's file; returns bytes written.
    fn write_chunk<'g>(
        &self,
        stream: &str,
        idx: usize,
        (steps, time): (u64, f64),
        layers: impl ExactSizeIterator<Item = &'g [Q16_16]> + Clone,
        stage: &mut Vec<u8>,
    ) -> Result<u64, StreamError> {
        stage.clear();
        stage.reserve_exact(HEADER_LEN + layers.clone().map(|l| 4 + 4 * l.len()).sum::<usize>());
        snapshot::encode(
            stage,
            (steps, time, 0),
            &LutStats::default(),
            layers.map(|l| l.iter().map(|v| v.to_bits())),
        );
        let len = stage.len() as u64;
        let mut f = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.chunk_path(stream, idx))?;
        if f.metadata()?.len() != len {
            f.set_len(len)?;
        }
        f.write_all(stage)?;
        Ok(len)
    }

    /// Stages cells `range` of layers `layers` of one chunk holding
    /// `n_layers` layers of `cells` cells: the whole chunk, only the rows
    /// a window needs, or one layer's span. The file's length is checked
    /// before reading, then its magic, version, layer count and the
    /// staged layers' lengths.
    fn read_cells<'s>(
        &self,
        stream: &str,
        idx: usize,
        (n_layers, cells): (usize, usize),
        layers: Range<usize>,
        range: Range<usize>,
        stage: &'s mut Vec<u8>,
    ) -> Result<Staged<'s>, StreamError> {
        let path = self.chunk_path(stream, idx);
        let err = |m: &str| StreamError::Corrupt(format!("{}: {m}", path.display()));
        let mut f = fs::File::open(&path)?;
        let layer_bytes = 4 + 4 * cells;
        if f.metadata()?.len() != (HEADER_LEN + n_layers * layer_bytes) as u64 {
            return Err(err("file length mismatch"));
        }
        let k = range.len();
        stage.clear();
        stage.reserve_exact(HEADER_LEN + layers.len() * (4 + 4 * k));
        // The header, then per layer its length word and the cells, read
        // as one seek + read per contiguous span of the file.
        let spans = std::iter::once((0, HEADER_LEN)).chain(layers.clone().flat_map(|l| {
            let at = HEADER_LEN + l * layer_bytes;
            [(at, 4), (at + 4 + 4 * range.start, 4 * k)]
        }));
        let mut run = (0, 0);
        for (at, len) in spans {
            if run.0 + run.1 != at {
                read_span(&mut f, run, stage)?;
                run = (at, 0);
            }
            run.1 += len;
        }
        read_span(&mut f, run, stage)?;
        let staged = Staged {
            bytes: stage,
            first: layers.start,
            cells: k,
        };
        let (_, _, count) = snapshot::parse_header(staged.bytes).map_err(|m| err(&m))?;
        if count != n_layers {
            return Err(err("layer count mismatch"));
        }
        if layers.into_iter().any(|l| staged.layer_len(l) != cells) {
            return Err(err("cell count mismatch"));
        }
        Ok(staged)
    }
}

/// Appends the file span `(at, len)` to `stage`.
fn read_span(f: &mut fs::File, (at, len): (usize, usize), stage: &mut Vec<u8>) -> io::Result<()> {
    f.seek(SeekFrom::Start(at as u64))?;
    let start = stage.len();
    stage.resize(start + len, 0);
    f.read_exact(&mut stage[start..])
}

/// Cells staged by [`Spool::read_cells`], laid out as the chunk file with
/// only the staged layers and cells: the header, then per staged layer
/// its length word (the whole chunk's) and the staged cells.
struct Staged<'s> {
    bytes: &'s [u8],
    /// The first staged layer.
    first: usize,
    /// Cells staged per layer.
    cells: usize,
}

impl<'s> Staged<'s> {
    /// Byte offset of staged layer `l`'s length word.
    fn layer_at(&self, l: usize) -> usize {
        HEADER_LEN + (l - self.first) * (4 + 4 * self.cells)
    }

    /// Layer `l`'s length word: the cells the chunk holds per layer.
    fn layer_len(&self, l: usize) -> usize {
        let at = self.layer_at(l);
        u32::from_le_bytes(self.bytes[at..at + 4].try_into().unwrap()) as usize
    }

    /// `n` raw words of layer `l` from staged cell `start`.
    fn words(&self, l: usize, start: usize, n: usize) -> impl Iterator<Item = i32> + 's {
        let at = self.layer_at(l) + 4 + 4 * start;
        self.bytes[at..at + 4 * n]
            .chunks_exact(4)
            .map(|b| i32::from_le_bytes(b.try_into().unwrap()))
    }
}

/// `range` of every layer of `grid`, as chunk payloads.
fn chunk_layers(
    grid: &SoaGrid<Q16_16>,
    range: Range<usize>,
) -> impl ExactSizeIterator<Item = &[Q16_16]> + Clone {
    (0..grid.n_layers()).map(move |l| &grid.layer_slice(l)[range.clone()])
}

/// Append-only recovery journal (one line per completed window / step),
/// held open for the engine's lifetime.
#[derive(Debug)]
struct Journal {
    file: fs::File,
    /// Line staging, so each record is one write.
    line: String,
}

impl Journal {
    /// Opens the journal at `path` for appending, first writing `header`
    /// over it when starting a fresh one.
    fn open(path: &Path, header: Option<&str>) -> Result<Self, StreamError> {
        if let Some(header) = header {
            fs::write(path, header)?;
        }
        Ok(Self {
            file: fs::OpenOptions::new().append(true).open(path)?,
            line: String::new(),
        })
    }

    fn append(&mut self, record: std::fmt::Arguments<'_>) -> Result<(), StreamError> {
        self.line.clear();
        // Formatting into a `String` cannot fail.
        let _ = writeln!(self.line, "{record}");
        self.file.write_all(self.line.as_bytes())?;
        Ok(())
    }

    /// Records the step baseline `core` has reached.
    fn step(&mut self, core: &Core) -> Result<(), StreamError> {
        self.append(format_args!(
            "step {} {:016x} {}",
            core.steps,
            core.time.to_bits(),
            core.run_cells
        ))
    }
}

/// The journal's geometry record, which pins the spool to its model.
fn grid_record(model: &CennModel, chunk_rows: usize) -> String {
    let integrator = match model.integrator() {
        Integrator::Euler => "euler",
        Integrator::Heun => "heun",
    };
    format!(
        "grid {} {} {} {chunk_rows} {integrator} {:016x}",
        model.rows(),
        model.cols(),
        model.n_layers(),
        model.dt().to_bits()
    )
}

/// The spooled state store: chunk spool, journal and halo-row
/// residency. See the module docs for the execution model.
///
/// Scope: every layer must be [`LayerKind::Dynamic`] — algebraic layers
/// form declaration-order chains that need whole-grid barriers between
/// layers, which defeats windowed residency. Both integrators are
/// supported (Heun spills its predictor and `k₁` streams), and so are
/// post-step rules: a rule acts on one cell at a time, so the final pass
/// applies it to the window's chunk rows before spilling them.
#[derive(Debug)]
pub struct Spooled {
    /// Distinct source-layer boundaries (for halo row resolution).
    boundaries: Vec<Boundary>,
    /// Template halo radius in rows.
    halo: usize,
    /// Some template reads the external-input slab.
    uses_inputs: bool,
    chunk_rows: usize,
    spool: Spool,
    journal: Journal,
    /// Resident state window (chunk + halo rows), local row-major.
    resident: SoaGrid<Q16_16>,
    /// Resident input window (1 row when no layer gathers inputs).
    resident_in: SoaGrid<Q16_16>,
    /// RHS of the current window's chunk rows, chunk-local row-major.
    out_buf: SoaGrid<Q16_16>,
    /// Heun-only chunk-row buffers: the corrector's `x₀` and `k₁`.
    heun_buf: Option<(SoaGrid<Q16_16>, SoaGrid<Q16_16>)>,
    /// Global row → resident-local row (`u32::MAX` when not resident).
    row_map: Vec<u32>,
    /// Read staging (chunk fills).
    stage: Vec<u8>,
    /// Write staging (chunk spills).
    wstage: Vec<u8>,
    // --- the window in memory --------------------------------------------
    /// Chunk rows `[r0, r1)`.
    rows: (usize, usize),
    /// Sorted global rows resident for the window (chunk + halo).
    win_rows: Vec<usize>,
    // --- counters --------------------------------------------------------
    peak_resident: u64,
    spill_bytes: u64,
    fill_bytes: u64,
    /// LUT-bearing layer count — decides `lut_counters` fidelity (module
    /// docs: >1 and windowed interleaving preserves only access totals).
    lut_layers: usize,
    metrics: Option<StreamMetrics>,
}

/// Registered instrument ids for [`StreamSim::set_metrics`].
#[derive(Debug)]
struct StreamMetrics {
    hub: MetricsHub,
    windows: CounterId,
    spill: GaugeId,
    fill: GaugeId,
    peak: GaugeId,
}

/// The streamed out-of-core simulator: the engine over the [`Spooled`]
/// store. Construction is via [`start`](Self::start) (writing an
/// unstarted engine's fields into a fresh spool), [`from_sim`](Self::from_sim)
/// (spooling an in-core sim's state) or [`recover`](Self::recover)
/// (resuming an existing spool).
pub type StreamSim = Engine<Spooled>;

impl Engine<Spooled> {
    /// Starts `seed` streamed: opens a fresh chunk spool and writes the
    /// seed's state and input fields into it window by window, so nothing
    /// whole-grid is ever built. The engine keeps the seed's evaluation
    /// mode, thread count, recorder and tracer. The spool directory is
    /// created if absent; an existing journal there is truncated.
    ///
    /// # Errors
    ///
    /// [`StreamError::Unsupported`] if the model has non-dynamic layers,
    /// [`StreamError::Io`] on spool I/O failure.
    pub fn start(seed: &Engine<Fields>, cfg: StreamConfig) -> Result<Self, StreamError> {
        let mut s = Self::open(seed.core.clone(), cfg, true)?;
        s.seed_spool(|input, l, r, out| seed.store.quantize_row(input, l, r, out))?;
        Ok(s)
    }

    /// Spools an in-core sim's current state (and inputs) to a fresh
    /// chunk spool and returns a streamed engine positioned at the same
    /// step/time counters, with the sim's evaluation mode, thread count,
    /// recorder and tracer. The spool directory is created if absent; an
    /// existing journal there is truncated (use [`recover`](Self::recover)
    /// to resume instead).
    ///
    /// # Errors
    ///
    /// [`StreamError::Unsupported`] if the model has non-dynamic layers,
    /// [`StreamError::Io`] on spool I/O failure.
    pub fn from_sim(sim: &CennSim, cfg: StreamConfig) -> Result<Self, StreamError> {
        let mut core = Core::new(sim.model().clone(), sim.eval_mode())?;
        (core.steps, core.time, core.run_cells) =
            (sim.core.steps, sim.core.time, sim.core.run_cells);
        core.recorder = sim.core.recorder.clone();
        core.set_tracer(sim.core.tracer.clone());
        let mut s = Self::open(core, cfg, true)?;
        s.set_threads(sim.threads());
        let cols = s.core.model.cols();
        s.seed_spool(|input, l, r, out| {
            let slab = if input { sim.inputs() } else { sim.states() };
            out.copy_from_slice(&slab.layer_slice(l)[r * cols..][..cols]);
        })?;
        Ok(s)
    }

    /// Writes a fresh spool's first chunks, window by window: the state on
    /// the current parity, and the inputs once when a layer gathers them.
    /// `row(input, layer, r, out)` fills row `r` of one layer of either
    /// into the chunk buffer. This is the one seeding loop: a fresh start
    /// fills rows from fields, [`from_sim`](Self::from_sim) from its slabs.
    fn seed_spool(
        &mut self,
        mut row: impl FnMut(bool, usize, usize, &mut [Q16_16]),
    ) -> Result<(), StreamError> {
        let now = (self.core.steps, self.core.time);
        let cols = self.core.model.cols();
        let st = &mut self.store;
        let streams = [
            Some((parity_stream(now.0), false)),
            st.uses_inputs.then_some(("in", true)),
        ];
        for w in 0..st.n_windows() {
            let (r0, r1) = st.window_bounds(w);
            for &(stream, input) in streams.iter().flatten() {
                for l in 0..st.out_buf.n_layers() {
                    let rows = st.out_buf.layer_mut(l).chunks_exact_mut(cols);
                    for (r, out) in (r0..r1).zip(rows) {
                        row(input, l, r, out);
                    }
                }
                let layers = chunk_layers(&st.out_buf, 0..(r1 - r0) * cols);
                st.spill_bytes += st
                    .spool
                    .write_chunk(stream, w, now, layers, &mut st.wstage)?;
            }
        }
        st.journal.step(&self.core)
    }

    /// Resumes a spool left by a previous (possibly killed) run: replays
    /// the journal, restores the step/time counters, and positions the
    /// cursor at the first window the journal does not record as complete.
    /// Cell and residual accounting for the in-flight step is rebuilt from
    /// the spooled chunks; LUT statistics start from zero (see the module
    /// docs on restart semantics).
    ///
    /// # Errors
    ///
    /// [`StreamError::Corrupt`] if the journal is missing, malformed, or
    /// disagrees with `model`.
    pub fn recover(model: CennModel, cfg: StreamConfig) -> Result<Self, StreamError> {
        let journal_path = cfg.spool_dir.join("journal.txt");
        let text = fs::read_to_string(&journal_path)
            .map_err(|e| StreamError::Corrupt(format!("journal unreadable: {e}")))?;
        let mut lines = text.lines().enumerate().peekable();
        let corrupt = |n: usize, m: &str| StreamError::Corrupt(format!("journal line {n}: {m}"));
        let (_, first) = lines.next().ok_or_else(|| corrupt(1, "empty journal"))?;
        if first.trim() != JOURNAL_MAGIC {
            return Err(corrupt(1, "bad journal header"));
        }
        let (_, grid_line) = lines
            .next()
            .ok_or_else(|| corrupt(2, "missing grid line"))?;
        let chunk_rows = grid_line
            .split_whitespace()
            .nth(4)
            .and_then(|g| g.parse::<usize>().ok())
            .ok_or_else(|| corrupt(2, "bad grid line"))?;
        if grid_line != grid_record(&model, chunk_rows) {
            return Err(corrupt(2, "journal does not match the model"));
        }
        // Fold the completion records. A torn final line (killed mid-append)
        // is tolerated; malformed interior lines are not.
        let step = |s: &str, t: &str, c: &str| {
            let time = f64::from_bits(u64::from_str_radix(t, 16).ok()?);
            Some((s.parse().ok()?, time, c.parse().ok()?))
        };
        let win = |p: &str, w: &str| Some((p.parse().ok()?, w.parse().ok()?));
        let mut baseline: Option<(u64, f64, u64)> = None;
        let mut wins: Vec<(usize, usize)> = Vec::new();
        while let Some((n, line)) = lines.next() {
            let last = lines.peek().is_none();
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = match fields.as_slice() {
                ["step", s, t, c] => step(s, t, c).map(|b| {
                    baseline = Some(b);
                    wins.clear();
                }),
                ["win", p, w] => win(p, w).map(|pw| wins.push(pw)),
                _ => None,
            };
            if parsed.is_none() {
                if last {
                    break; // torn tail from a mid-append kill
                }
                return Err(corrupt(n + 1, "unrecognized record"));
            }
        }
        let baseline =
            baseline.ok_or_else(|| StreamError::Corrupt("journal has no step baseline".into()))?;

        let cfg = StreamConfig {
            chunk_rows: Some(chunk_rows),
            ..cfg
        };
        let mut core = Core::new(model, FuncEval::Lut)?;
        (core.steps, core.time, core.run_cells) = baseline;
        let mut s = Self::open(core, cfg, false)?;
        // Validate the window sequence and rebuild the in-flight cursor.
        let n_windows = s.store.n_windows();
        for (k, &(p, w)) in wins.iter().enumerate() {
            if (p, w) != (k / n_windows, k % n_windows) {
                return Err(StreamError::Corrupt(format!(
                    "journal window sequence broken at ({p}, {w})"
                )));
            }
        }
        let passes = s.core.passes();
        if wins.len() >= passes * n_windows {
            return Err(StreamError::Corrupt(
                "journal records more windows than a step has".into(),
            ));
        }
        s.core.pass = wins.len() / n_windows;
        s.core.window = wins.len() % n_windows;
        if !wins.is_empty() {
            s.core.begin_step();
            let n_layers = s.core.model.n_layers() as u64;
            let cols = s.core.model.cols();
            for &(p, w) in &wins {
                let (r0, r1) = s.store.window_bounds(w);
                s.core.pending.cells += n_layers * ((r1 - r0) * cols) as u64;
                if p + 1 == passes {
                    s.fold_recovered_residual(w)?;
                }
            }
            for _ in 0..s.core.pass {
                s.core.pending.sweeps.push(("dynamic".into(), 0));
                s.core.pending.sweeps.push(("update".into(), 0));
            }
        }
        Ok(s)
    }

    /// Shared construction over `core`: model checks, the band rows,
    /// window geometry, resident buffers. `fresh` starts a new journal.
    fn open(mut core: Core, cfg: StreamConfig, fresh: bool) -> Result<Self, StreamError> {
        for id in core.model.layer_ids() {
            if core.model.layer(id).kind() != LayerKind::Dynamic {
                return Err(StreamError::Unsupported(format!(
                    "layer {} is not dynamic (algebraic layers need whole-grid sequencing)",
                    id.index()
                )));
            }
        }
        let m = &core.model;
        let (rows, cols, n) = (m.rows(), m.cols(), m.n_layers());
        let uses_inputs = core.uses_inputs();
        let lut_layers = core.lut_layers();
        if lut_layers > 1 {
            eprintln!(
                "cenn: streamed run has {lut_layers} LUT-bearing layers; per-PE LUT \
                 counters are totals-only under windowed interleaving (states stay exact)"
            );
        }
        let mut boundaries: Vec<Boundary> = Vec::new();
        for id in m.layer_ids() {
            let b = m.layer(id).boundary();
            if !boundaries.contains(&b) {
                boundaries.push(b);
            }
        }
        let halo = (m.kernel_size() - 1) / 2;
        let heun = m.integrator() == Integrator::Heun;
        core.build_bands();
        let chunk_rows = match (cfg.chunk_rows, cfg.memory_budget) {
            (Some(g), _) => g.clamp(1, rows),
            (None, Some(b)) => WindowCost::of(&core).solve(b),
            (None, None) => rows,
        };
        let r_max = rows.min(chunk_rows + 2 * halo);
        let chunk_grid = || SoaGrid::new(n, chunk_rows, cols, Q16_16::ZERO);
        let spool = Spool {
            dir: cfg.spool_dir.clone(),
        };
        fs::create_dir_all(&spool.dir)?;
        let header = fresh.then(|| {
            let grid = grid_record(&core.model, chunk_rows);
            format!("{JOURNAL_MAGIC}\n{grid}\n")
        });
        let journal = Journal::open(&spool.dir.join("journal.txt"), header.as_deref())?;
        let store = Spooled {
            boundaries,
            halo,
            uses_inputs,
            chunk_rows,
            spool,
            journal,
            resident: SoaGrid::new(n, r_max, cols, Q16_16::ZERO),
            resident_in: SoaGrid::new(n, if uses_inputs { r_max } else { 1 }, cols, Q16_16::ZERO),
            out_buf: chunk_grid(),
            heun_buf: heun.then(|| (chunk_grid(), chunk_grid())),
            row_map: vec![u32::MAX; rows],
            stage: Vec::new(),
            wstage: Vec::new(),
            rows: (0, 0),
            win_rows: Vec::new(),
            peak_resident: 0,
            spill_bytes: 0,
            fill_bytes: 0,
            lut_layers,
            metrics: None,
        };
        Ok(Self { core, store })
    }

    /// Chunk height in rows.
    pub fn chunk_rows(&self) -> usize {
        self.store.chunk_rows
    }

    /// Windows per integrator pass (`ceil(rows / chunk_rows)`).
    pub fn n_windows(&self) -> usize {
        self.store.n_windows()
    }

    /// The spool directory.
    pub fn spool_dir(&self) -> &Path {
        &self.store.spool.dir
    }

    /// Cumulative bytes filled (read back) from the chunk spool: each
    /// window's own chunk and its neighbours' halo rows, plus the Heun
    /// corrector's `x₀`/`k₁` re-reads.
    pub fn fill_bytes(&self) -> u64 {
        self.store.fill_bytes
    }

    /// Routes streaming instruments into `hub`: the counter
    /// `stream.windows_swept_total`, gauges `stream.spill_bytes`,
    /// `stream.fill_bytes` and `stream.peak_resident_bytes`. Updated once
    /// per swept window and on [`record_summary`](Self::record_summary) —
    /// never inside kernel loops.
    pub fn set_metrics(&mut self, hub: MetricsHub) {
        self.store.metrics = Some(StreamMetrics {
            windows: hub.counter("stream.windows_swept_total"),
            spill: hub.gauge("stream.spill_bytes"),
            fill: hub.gauge("stream.fill_bytes"),
            peak: hub.gauge("stream.peak_resident_bytes"),
            hub,
        });
    }

    /// Assembles a bit-exact [`SimSnapshot`] from the current-parity
    /// chunks. Always consistent: mid-step, the current parity still holds
    /// the last completed step's state (updates write the other parity).
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] / [`StreamError::Corrupt`] on spool problems.
    pub fn snapshot(&self) -> Result<SimSnapshot, StreamError> {
        let cells = self.core.model.rows() * self.core.model.cols();
        let states = (0..self.core.model.n_layers())
            .map(|l| {
                let mut bits = Vec::with_capacity(cells);
                self.store.visit_layer(&self.core, l, &mut |chunk| {
                    bits.extend(chunk.iter().map(|v| v.to_bits()));
                })?;
                Ok(bits)
            })
            .collect::<Result<_, StreamError>>()?;
        Ok(SimSnapshot {
            steps: self.core.steps,
            time: self.core.time,
            run_cells: self.core.run_cells,
            states,
        })
    }

    /// One layer's current state as `f64` (assembled from the spool).
    ///
    /// # Errors
    ///
    /// Propagates spool read failures.
    pub fn state_f64(&self, layer: LayerId) -> Result<Grid<f64>, StreamError> {
        let mut grid = Grid::new(self.core.model.rows(), self.core.model.cols(), 0.0);
        let mut cells = grid.as_mut_slice().iter_mut();
        self.store
            .visit_layer(&self.core, layer.index(), &mut |chunk| {
                // The chunk leads the zip, so its end never drops a grid slot.
                for (v, slot) in chunk.iter().zip(cells.by_ref()) {
                    *slot = v.to_f64();
                }
            })?;
        Ok(grid)
    }

    /// Advances one full time step (all windows of all passes).
    ///
    /// # Errors
    ///
    /// Propagates spool I/O failures; the journal then still reflects the
    /// last completed window, so [`recover`](Self::recover) can resume.
    pub fn step(&mut self) -> Result<StepReport, StreamError> {
        self.step_once()
    }

    /// Runs `n` full steps.
    ///
    /// # Errors
    ///
    /// Propagates spool I/O failures.
    pub fn run(&mut self, n: u64) -> Result<StepReport, StreamError> {
        self.run_steps(n)
    }

    /// Advances exactly `n` window executions — the restartability hook:
    /// tests kill a sweep mid-step by advancing a few windows, dropping
    /// the engine, and [`recover`](Self::recover)ing from the spool.
    ///
    /// # Errors
    ///
    /// Propagates spool I/O failures.
    pub fn step_windows(&mut self, n: usize) -> Result<(), StreamError> {
        for _ in 0..n {
            self.advance()?;
        }
        Ok(())
    }

    /// Recovery helper: folds `max |Δx|` between the old- and new-parity
    /// chunks of a final-pass window completed before a kill, so the
    /// resumed step's residual matches an uninterrupted run.
    fn fold_recovered_residual(&mut self, w: usize) -> Result<(), StreamError> {
        let (r0, r1) = self.store.window_bounds(w);
        let (n, steps) = (self.core.model.n_layers(), self.core.steps);
        let cells = (r1 - r0) * self.core.model.cols();
        let st = &mut self.store;
        let mut next = Vec::new();
        let old = st.spool.read_cells(
            parity_stream(steps),
            w,
            (n, cells),
            0..n,
            0..cells,
            &mut st.stage,
        )?;
        let new = st.spool.read_cells(
            parity_stream(steps + 1),
            w,
            (n, cells),
            0..n,
            0..cells,
            &mut next,
        )?;
        let mut max_raw = self.core.residual_raw;
        for l in 0..n {
            for (o, nv) in old.words(l, 0, cells).zip(new.words(l, 0, cells)) {
                max_raw = max_raw.max((i64::from(nv) - i64::from(o)).abs());
            }
        }
        self.core.residual_raw = max_raw;
        Ok(())
    }
}

impl Spooled {
    /// Chunk row bounds of window `w`.
    fn window_bounds(&self, w: usize) -> (usize, usize) {
        let r0 = w * self.chunk_rows;
        (r0, (r0 + self.chunk_rows).min(self.row_map.len()))
    }

    /// Resident rows for the window `[r0, r1)`: the chunk rows plus every
    /// row any layer's boundary resolves a within-halo neighbour to
    /// (clamped rows for zero-flux, wrapped rows for periodic) — a
    /// superset of all rows the window's sweeps read.
    fn halo_rows(&self, r0: usize, r1: usize) -> Vec<usize> {
        let rows = self.row_map.len();
        let cols = self.resident.cols();
        let mut mark = vec![false; rows];
        for r in r0..r1 {
            mark[r] = true;
            for b in &self.boundaries {
                for d in 1..=self.halo as i32 {
                    for dr in [-d, d] {
                        if let Some((nr, _)) = b.resolve(rows, cols, r, 0, dr, 0) {
                            mark[nr] = true;
                        }
                    }
                }
            }
        }
        (0..rows).filter(|&r| mark[r]).collect()
    }

    /// Pushes the cumulative I/O gauges (and `swept` freshly completed
    /// windows) into the attached hub; no-op without one.
    fn publish_metrics(&self, swept: u64) {
        let Some(m) = &self.metrics else { return };
        if swept > 0 {
            m.hub.inc(m.windows, swept);
        }
        m.hub.gauge_set(m.spill, self.spill_bytes as i64);
        m.hub.gauge_set(m.fill, self.fill_bytes as i64);
        m.hub.gauge_max(m.peak, self.peak_resident as i64);
    }

    /// Fills the window's resident rows of the state (or, with `inputs`,
    /// the input) buffer from a chunk stream, reading from each chunk only
    /// the span of rows the window needs.
    fn fill_rows(&mut self, stream: &str, inputs: bool) -> Result<(), StreamError> {
        let grid = if inputs {
            &mut self.resident_in
        } else {
            &mut self.resident
        };
        let (n, cols) = (grid.n_layers(), grid.cols());
        let rows = &self.win_rows;
        let mut i = 0;
        while i < rows.len() {
            let chunk = rows[i] / self.chunk_rows;
            let c0 = chunk * self.chunk_rows;
            let c1 = (c0 + self.chunk_rows).min(self.row_map.len());
            let end = i + rows[i..].iter().take_while(|&&r| r < c1).count();
            let first = rows[i];
            let span = (first - c0) * cols..(rows[end - 1] + 1 - c0) * cols;
            let view = self.spool.read_cells(
                stream,
                chunk,
                (n, (c1 - c0) * cols),
                0..n,
                span,
                &mut self.stage,
            )?;
            for &r in &rows[i..end] {
                let local = self.row_map[r] as usize;
                for l in 0..n {
                    let dst = &mut grid.layer_mut(l)[local * cols..(local + 1) * cols];
                    for (slot, v) in dst.iter_mut().zip(view.words(l, (r - first) * cols, cols)) {
                        *slot = Q16_16::from_bits(v);
                    }
                }
            }
            self.fill_bytes += self.stage.len() as u64;
            i = end;
        }
        Ok(())
    }

    /// Records the resident working set of the window in memory: window
    /// buffers, the sweep scratch and row pattern, and I/O staging
    /// (geometry-derived, deterministic). [`WindowCost::bytes`] is the
    /// same sum as a function of the chunk height.
    fn note_peak(&mut self, core: &Core) {
        let mut slabs = [&self.resident, &self.resident_in, &self.out_buf]
            .iter()
            .map(|g| g.slab().len())
            .sum::<usize>();
        if let Some((a, b)) = &self.heun_buf {
            slabs += a.slab().len() + b.slab().len();
        }
        let staging = self.stage.capacity() + self.wstage.capacity();
        let bytes = (4 * slabs + staging) as u64 + core.sweep_bytes();
        self.peak_resident = self.peak_resident.max(bytes);
    }
}

impl Store for Spooled {
    type Error = StreamError;

    fn n_windows(&self) -> usize {
        self.row_map.len().div_ceil(self.chunk_rows)
    }

    /// Halo fill from the spool (the current-parity state, or Heun's
    /// predictor on the corrector pass).
    fn fill(&mut self, core: &mut Core, pass: usize, w: usize) -> Result<(), StreamError> {
        let src = if pass == 0 {
            parity_stream(core.steps)
        } else {
            "pred"
        };
        let (r0, r1) = self.window_bounds(w);
        let t_fill = Instant::now();
        self.win_rows = self.halo_rows(r0, r1);
        for (local, &r) in self.win_rows.iter().enumerate() {
            self.row_map[r] = local as u32;
        }
        self.fill_rows(src, false)?;
        if self.uses_inputs {
            self.fill_rows("in", true)?;
        }
        core.span_since(Phase::HaloSync, t_fill);
        self.rows = (r0, r1);
        self.note_peak(core);
        self.publish_metrics(1);
        Ok(())
    }

    fn window(&mut self, pass: usize) -> WindowMut<'_> {
        WindowMut {
            rows: self.rows,
            base: self.row_map[self.rows.0] as usize,
            row_map: &self.row_map,
            states: &mut self.resident,
            inputs: &self.resident_in,
            rhs: &mut self.out_buf,
            heun: self
                .heun_buf
                .as_ref()
                .filter(|_| pass == 1)
                .map(|(x0, k1)| (x0, k1)),
        }
    }

    /// On Heun's corrector pass, re-reads the pre-step state and `k₁` for
    /// exactly the chunk rows.
    fn prepare_update(&mut self, core: &Core, pass: usize, w: usize) -> Result<(), StreamError> {
        let Some((x0, k1)) = self.heun_buf.as_mut().filter(|_| pass == 1) else {
            return Ok(());
        };
        let n = core.model.n_layers();
        let cells = (self.rows.1 - self.rows.0) * core.model.cols();
        for (stream, dest) in [(parity_stream(core.steps), x0), ("k1", k1)] {
            let view =
                self.spool
                    .read_cells(stream, w, (n, cells), 0..n, 0..cells, &mut self.stage)?;
            for l in 0..n {
                for (slot, v) in dest.layer_mut(l)[..cells]
                    .iter_mut()
                    .zip(view.words(l, 0, cells))
                {
                    *slot = Q16_16::from_bits(v);
                }
            }
            self.fill_bytes += self.stage.len() as u64;
        }
        Ok(())
    }

    /// Euler and Heun's corrector spill the updated chunk rows to the
    /// next-parity state stream; Heun's predictor pass spills `k₁` and
    /// the predictor state for the corrector to read back.
    fn spill(&mut self, core: &Core, pass: usize, w: usize) -> Result<(), StreamError> {
        let (r0, r1) = self.rows;
        let cols = core.model.cols();
        let lo = self.row_map[r0] as usize * cols;
        let chunk = lo..lo + (r1 - r0) * cols;
        let now = (core.steps, core.time);
        if pass + 1 < core.passes() {
            let k1 = chunk_layers(&self.out_buf, 0..chunk.len());
            self.spill_bytes += self.spool.write_chunk("k1", w, now, k1, &mut self.wstage)?;
            let pred = chunk_layers(&self.resident, chunk);
            self.spill_bytes += self
                .spool
                .write_chunk("pred", w, now, pred, &mut self.wstage)?;
        } else {
            let next = (core.steps + 1, core.time + core.model.dt());
            let x = chunk_layers(&self.resident, chunk);
            self.spill_bytes +=
                self.spool
                    .write_chunk(parity_stream(next.0), w, next, x, &mut self.wstage)?;
        }
        for &r in &self.win_rows {
            self.row_map[r] = u32::MAX;
        }
        Ok(())
    }

    fn window_done(&mut self, pass: usize, w: usize) -> Result<(), StreamError> {
        self.journal.append(format_args!("win {pass} {w}"))
    }

    fn step_done(&mut self, core: &Core) -> Result<(), StreamError> {
        self.journal.step(core)
    }

    /// Reads the layer's current-parity cells chunk by chunk, staging
    /// only that layer's span of each chunk. Mid-step that parity still
    /// holds the last completed step's state (updates write the other
    /// parity), so the view is always consistent.
    fn visit_layer(
        &self,
        core: &Core,
        layer: usize,
        visit: &mut dyn FnMut(&[Q16_16]),
    ) -> Result<(), StreamError> {
        let (n, cols) = (core.model.n_layers(), core.model.cols());
        let (mut stage, mut cells) = (Vec::new(), Vec::new());
        for w in 0..self.n_windows() {
            let (r0, r1) = self.window_bounds(w);
            let k = (r1 - r0) * cols;
            let parity = parity_stream(core.steps);
            let view =
                self.spool
                    .read_cells(parity, w, (n, k), layer..layer + 1, 0..k, &mut stage)?;
            cells.clear();
            cells.extend(view.words(layer, 0, k).map(Q16_16::from_bits));
            visit(&cells);
        }
        Ok(())
    }

    fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident
    }

    fn spill_bytes(&self) -> u64 {
        self.spill_bytes
    }

    fn lut_counters(&self) -> &'static str {
        if self.lut_layers > 1 {
            "totals-only"
        } else {
            "exact"
        }
    }

    fn summarize(&self) {
        self.publish_metrics(0);
    }
}

/// The state stream for a given step parity: step `s` reads `x{s%2}` and
/// writes `x{(s+1)%2}` — two alternating on-disk state generations.
fn parity_stream(steps: u64) -> &'static str {
    if steps.is_multiple_of(2) {
        "x0"
    } else {
        "x1"
    }
}

/// What a window holds resident, as a function of its chunk height `g`:
/// the sum [`Spooled::note_peak`] counts once its buffers have seen a
/// full window. The budget solver charges exactly this.
#[derive(Debug, Clone, Copy)]
struct WindowCost {
    rows: usize,
    cols: usize,
    layers: usize,
    halo: usize,
    inputs: bool,
    heun: bool,
    /// The sweep's band rows and row pattern, the same for every window
    /// (see [`Core::sweep_bytes`]).
    sweep: u64,
}

impl WindowCost {
    /// The cost of windows of `core`'s model, once its band rows are
    /// built.
    fn of(core: &Core) -> Self {
        let m = &core.model;
        Self {
            rows: m.rows(),
            cols: m.cols(),
            layers: m.n_layers(),
            halo: (m.kernel_size() - 1) / 2,
            inputs: core.uses_inputs(),
            heun: m.integrator() == Integrator::Heun,
            sweep: core.sweep_bytes(),
        }
    }

    /// Resident bytes of windows of `g` chunk rows: the resident state
    /// (and input) rows, the RHS and Heun chunk buffers, read and write
    /// staging of one chunk, and the sweep's band rows and row pattern.
    fn bytes(&self, g: usize) -> u64 {
        let row = 4 * self.layers * self.cols;
        let resident = self.rows.min(g + 2 * self.halo);
        let input_rows = if self.inputs { resident } else { 1 };
        let chunk_bufs = if self.heun { 3 } else { 1 };
        let staging = 2 * (HEADER_LEN + self.layers * (4 + 4 * g * self.cols));
        ((resident + input_rows + chunk_bufs * g) * row + staging) as u64 + self.sweep
    }

    /// The chunk height for `budget`: the largest whose windows fit it. A
    /// budget below one row's windows degrades to one-row chunks (best
    /// effort).
    fn solve(&self, budget: u64) -> usize {
        let (mut lo, mut hi) = (1, self.rows);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if self.bytes(mid) <= budget {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::mapping;
    use crate::model::CennModelBuilder;

    fn fisher_sim(rows: usize, cols: usize) -> CennSim {
        let mut b = CennModelBuilder::new(rows, cols);
        let u = b.dynamic_layer("u", Boundary::ZeroFlux);
        let sq = b.register_func(cenn_lut::funcs::square());
        let mut stencil = mapping::laplacian(0.25, 1.0);
        stencil.set(0, 0, stencil.get(0, 0) + 1.0);
        b.state_template(u, u, stencil.into_state_template());
        b.offset_expr(
            u,
            crate::template::WeightExpr::product(
                -1.0,
                vec![crate::template::Factor { func: sq, layer: u }],
            ),
        );
        let mut sim = CennSim::new(b.build(0.05).unwrap()).unwrap();
        sim.set_state_f64(
            crate::layer::LayerId(0),
            &Grid::from_fn(rows, cols, |r, c| {
                0.05 + 0.9 * f64::from(u32::from(r == rows / 2 && c == cols / 2))
            }),
        )
        .unwrap();
        sim
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cenn_stream_unit_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn streamed_matches_in_core_states_and_counters() {
        let mut in_core = fisher_sim(12, 9);
        let mut streamed = StreamSim::from_sim(
            &in_core,
            StreamConfig::new(tmp_dir("euler")).with_chunk_rows(5),
        )
        .unwrap();
        assert_eq!(streamed.n_windows(), 3);
        in_core.run(7);
        streamed.run(7).unwrap();
        let snap = streamed.snapshot().unwrap();
        assert_eq!(snap.states, in_core.snapshot().states);
        assert_eq!(snap.steps, 7);
        assert_eq!(streamed.lut_stats(), in_core.lut_stats());
        assert!(streamed.spill_bytes() > 0);
        assert!(streamed.peak_resident_bytes() > 0);
        let _ = fs::remove_dir_all(streamed.spool_dir());
    }

    #[test]
    fn kill_and_recover_resumes_bit_identically() {
        let mut reference = fisher_sim(10, 6);
        let dir = tmp_dir("recover");
        let cfg = StreamConfig::new(&dir).with_chunk_rows(3);
        let mut streamed = StreamSim::from_sim(&reference, cfg.clone()).unwrap();
        reference.run(4);
        streamed.run(2).unwrap();
        // Kill mid-step: 2 of 4 windows into step 3.
        streamed.step_windows(2).unwrap();
        let model = reference.model().clone();
        drop(streamed);
        let mut recovered = StreamSim::recover(model, cfg).unwrap();
        assert_eq!(recovered.steps(), 2);
        recovered.run(2).unwrap();
        assert_eq!(
            recovered.snapshot().unwrap().states,
            reference.snapshot().states
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn algebraic_layers_are_rejected() {
        let mut b = CennModelBuilder::new(4, 4);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let w = b.algebraic_layer("w", Boundary::Zero);
        b.state_template(w, u, mapping::center(2.0).into_template());
        let sim = CennSim::new(b.build(0.1).unwrap()).unwrap();
        assert!(matches!(
            StreamSim::from_sim(&sim, StreamConfig::new(tmp_dir("alg"))),
            Err(StreamError::Unsupported(_))
        ));
    }

    #[test]
    fn budget_solver_is_monotone_and_clamped() {
        let mut b = CennModelBuilder::new(64, 64);
        let u = b.dynamic_layer("u", Boundary::ZeroFlux);
        b.state_template(u, u, mapping::laplacian(0.1, 1.0).into_state_template());
        let mut core = Core::new(b.build(0.1).unwrap(), FuncEval::Lut).unwrap();
        core.build_bands();
        let cost = WindowCost::of(&core);
        let g_small = cost.solve(1);
        let g_mid = cost.solve(64 * 1024);
        let g_big = cost.solve(u64::MAX);
        assert_eq!(g_small, 1, "tiny budget degrades to one-row chunks");
        assert!(g_small <= g_mid && g_mid <= g_big, "monotone in budget");
        assert_eq!(g_big, 64, "huge budget clamps to the grid");
        assert!((1..64).contains(&g_mid), "mid budget lands between");
    }

    #[test]
    fn chunks_overwrite_in_place_and_stage_row_spans() {
        let dir = tmp_dir("span");
        fs::create_dir_all(&dir).unwrap();
        let spool = Spool { dir: dir.clone() };
        let q = |n: usize, k: f64| -> Vec<Q16_16> {
            (0..n)
                .map(|i| Q16_16::from_f64(k + i as f64 * 0.25))
                .collect()
        };
        let (a, b) = (q(12, 1.0), q(12, -2.0));
        let (mut stage, mut wstage) = (Vec::new(), Vec::new());
        let mut write = |layers: &[&[Q16_16]]| {
            spool
                .write_chunk("x1", 0, (1, 0.1), layers.iter().copied(), &mut wstage)
                .unwrap()
        };
        let len = |s: &Spool| fs::metadata(s.chunk_path("x1", 0)).unwrap().len();
        // A longer image, then a shorter one over it: the file shrinks to fit.
        let long = write(&[&a, &b]);
        let short = write(&[&a[..6]]);
        assert!(short < long);
        assert_eq!(len(&spool), short);
        let view = spool
            .read_cells("x1", 0, (1, 6), 0..1, 0..6, &mut stage)
            .unwrap();
        assert!(view.words(0, 0, 6).eq(a[..6].iter().map(|v| v.to_bits())));
        // Row spans of a two-layer chunk: only the span's cells are staged.
        write(&[&a, &b]);
        for span in [0..4, 4..8, 8..12] {
            let view = spool
                .read_cells("x1", 0, (2, 12), 0..2, span.clone(), &mut stage)
                .unwrap();
            for (l, layer) in [&a, &b].into_iter().enumerate() {
                let want = layer[span.clone()].iter().map(|v| v.to_bits());
                assert!(view.words(l, 0, 4).eq(want));
            }
            assert_eq!(stage.len(), HEADER_LEN + 2 * (4 + 4 * 4));
        }
        // A torn file is refused whether its length or its header is off.
        let path = spool.chunk_path("x1", 0);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(spool
            .read_cells("x1", 0, (2, 12), 0..2, 8..12, &mut stage)
            .is_err());
        let mut garbled = bytes.clone();
        garbled[..8].fill(0xA5);
        fs::write(&path, &garbled).unwrap();
        assert!(spool
            .read_cells("x1", 0, (2, 12), 0..2, 0..4, &mut stage)
            .is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Four coupled dynamic layers (the Hodgkin–Huxley layer count).
    fn four_layer_sim(rows: usize, cols: usize) -> CennSim {
        let mut b = CennModelBuilder::new(rows, cols);
        let ids: Vec<_> = (0..4)
            .map(|i| b.dynamic_layer(&format!("l{i}"), Boundary::ZeroFlux))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            b.state_template(id, id, mapping::laplacian(0.1, 1.0).into_state_template());
            b.state_template(id, ids[(i + 1) % 4], mapping::center(0.05).into_template());
        }
        let mut sim = CennSim::new(b.build(0.1).unwrap()).unwrap();
        for (i, &id) in ids.iter().enumerate() {
            let init = Grid::from_fn(rows, cols, |r, c| ((r * 7 + c * 3 + i) % 11) as f64 * 0.1);
            sim.set_state_f64(id, &init).unwrap();
        }
        sim
    }

    #[test]
    fn a_layer_read_stages_only_that_layers_span() {
        let mut in_core = four_layer_sim(10, 6);
        let dir = tmp_dir("one_layer");
        let mut streamed =
            StreamSim::from_sim(&in_core, StreamConfig::new(&dir).with_chunk_rows(4)).unwrap();
        in_core.run(3);
        streamed.run(3).unwrap();
        // Digests (and every cell) match in-core, layer by layer.
        assert_eq!(streamed.snapshot().unwrap(), in_core.snapshot());
        let fold = |sim: &StreamSim| sim.fold_state(|_, _| {}).unwrap();
        assert_eq!(fold(&streamed), crate::snapshot_digest(&in_core.snapshot()));
        // One layer of a four-layer chunk stages the header and that
        // layer's record only.
        let st = &streamed.store;
        let mut stage = Vec::new();
        let cells = 4 * 6;
        for l in 0..4 {
            let view = st
                .spool
                .read_cells("x1", 0, (4, cells), l..l + 1, 0..cells, &mut stage)
                .unwrap();
            let want = &in_core.snapshot().states[l][..cells];
            assert!(view.words(l, 0, cells).eq(want.iter().copied()));
            assert_eq!(stage.len(), HEADER_LEN + 4 + 4 * cells);
        }
        // Visiting layer 0 reads no other layer's record: a torn length
        // word in layer 2 fails layer 2's visit only.
        let path = st.spool.chunk_path("x1", 0);
        let mut bytes = fs::read(&path).unwrap();
        let at = HEADER_LEN + 2 * (4 + 4 * cells);
        bytes[at..at + 4].copy_from_slice(&7u32.to_le_bytes());
        fs::write(&path, bytes).unwrap();
        let visit = |l: usize| st.visit_layer(&streamed.core, l, &mut |_| {});
        assert!(visit(0).is_ok());
        assert!(visit(2).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_solver_charges_exactly_what_a_window_holds() {
        for (rows, cols, budget) in [(64, 9, 12 << 10), (64, 32, 40 << 10), (40, 17, 1 << 20)] {
            for sim in [fisher_sim(rows, cols), four_layer_sim(rows, cols)] {
                let dir = tmp_dir("charge");
                let cfg = StreamConfig::new(&dir).with_memory_budget(budget);
                let mut streamed = StreamSim::from_sim(&sim, cfg).unwrap();
                streamed.run(1).unwrap();
                let chunk = streamed.chunk_rows();
                let charged = WindowCost::of(&streamed.core).bytes(chunk);
                assert_eq!(streamed.peak_resident_bytes(), charged);
                assert!(charged <= budget);
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn chunk_files_round_trip_and_keep_ckpt_framing() {
        let dir = tmp_dir("ckpt");
        fs::create_dir_all(&dir).unwrap();
        let spool = Spool { dir: dir.clone() };
        let vals: Vec<Q16_16> = (0..12).map(|i| Q16_16::from_f64(i as f64 * 0.5)).collect();
        let mut stage = Vec::new();
        spool
            .write_chunk("x0", 3, (7, 0.35), [&vals[..]].into_iter(), &mut stage)
            .unwrap();
        let bytes = fs::read(spool.chunk_path("x0", 3)).unwrap();
        assert_eq!(&bytes[..8], snapshot::MAGIC, "guard-compatible magic");
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
        let view = spool
            .read_cells("x0", 3, (1, 12), 0..1, 0..12, &mut stage)
            .unwrap();
        assert!(view.words(0, 0, 12).eq(vals.iter().map(|v| v.to_bits())));
        assert!(spool
            .read_cells("x0", 3, (2, 12), 0..2, 0..12, &mut stage)
            .is_err());
        assert!(spool
            .read_cells("x0", 3, (1, 11), 0..1, 0..11, &mut stage)
            .is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
