//! The functional fixed-point simulator of the CeNN DE solver: one sweep
//! engine over a pluggable state store.
//!
//! # The sweep
//!
//! A sweep evaluates eq. (1)'s right-hand side for one window as one
//! fan-out over (LUT shard `j`, row band `j`) pairs, one pair per shard
//! (see [`Engine`] for the whole step):
//!
//! * the **tag replay**, for layers with dynamic weight sites: shard `j`
//!   walks its rows of the window in ascending order through the engine's
//!   [`RowPattern`] (its columns of a row and their PE ids, per PE row),
//!   recomputes each cell's LUT index from the states in place and probes
//!   the tag caches, one batched [`LutShard::replay`] per row, so it sees
//!   the serial per-shard access order and every cache counter is exact.
//!   States do not change during a sweep and the caches hold tags only,
//!   so no value depends on the replay;
//! * the **template pass** over band `j` is row-direct and
//!   output-stationary: each output row first evaluates its layer's
//!   dynamic weight sites into one row of site lanes (each factor's value
//!   through the TUM, [`OffChipLut::value`]), then keeps its accumulators
//!   in place while its terms stream past. A layer's terms are the leak
//!   (−1.0 on its own row), each tap's source row shifted by the tap's
//!   column offset with its constant weight or site lane, and its
//!   offsets. They run as the layer's planned column passes of up to
//!   eight terms each ([`fixedpt::lanes::mac_terms`]), each term's source
//!   row resolved once per row through [`Boundary::resolve`], the last
//!   pass rounding straight into the RHS row: a 5-point stencil is one
//!   pass. The few edge columns take the same terms one by one through
//!   each pass's column map, and a row that reads past a constant
//!   boundary goes term by term.
//!
//! Each layer is compiled once, when the engine is built, into the form
//! its sweeps apply (its term skeleton, sites, the bound on its
//! accumulator and the pass plan; a template fault flips a word there and
//! re-bounds and re-plans the layer). Below 2⁶³ the pass takes the
//! unsaturated [`fixedpt::lanes`] kernels and the plan regroups terms
//! freely, since every partial sum is then exact in any order; a
//! saturating layer's plan keeps `MacAcc` order, with saturating adds.
//! Algebraic layers stage their rows in their RHS span and copy them into
//! the states after the barrier, so no row reads its own layer's fresh
//! values.

use std::convert::Infallible;
use std::time::Instant;

use cenn_lut::{FuncId, FuncLibrary, LutHierarchy, LutShard, LutStats, OffChipLut, RowCtx};
use cenn_obs::{Event, Phase, RecorderHandle, RunSummary, Span, SpanRing, TraceHandle};
use fixedpt::lanes::{self, Accumulate, Saturating, Start, Unsaturated, GROUP};
use fixedpt::{MacAcc, Q16_16};

use crate::boundary::Boundary;
use crate::error::{FaultError, ModelError};
use crate::exec::{ExecEngine, RowPattern, StepStats, TilePlan};
use crate::field::Field;
use crate::grid::{Grid, LayerView, SoaGrid};
use crate::layer::{LayerId, LayerKind};
use crate::model::{CennModel, Integrator, TemplateKind};
use crate::snapshot::{SimSnapshot, StateDigest};
use crate::template::WeightExpr;

/// How dynamic template weights evaluate their nonlinear factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FuncEval {
    /// Through the LUT hierarchy and TUM, as the hardware does — incurs
    /// both fixed-point and LUT approximation error (§6.1).
    #[default]
    Lut,
    /// Exact `f64` evaluation quantized to fixed point — isolates the
    /// fixed-point error from the LUT error for the §6.1 breakdown.
    Exact,
}

/// Snapshot returned by [`CennSim::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Simulated time after the step.
    pub time: f64,
    /// Steps executed so far.
    pub steps: u64,
    /// Cumulative LUT statistics.
    pub lut: LutStats,
    /// Cells the model's post-step rule fired on during the step.
    pub fired: u64,
}

/// One nonlinear factor of a dynamic weight site.
#[derive(Debug, Clone)]
struct LaneFactor {
    /// Layer whose state feeds the function.
    layer: usize,
    func: FuncId,
}

/// One dynamic weight site (tap or offset): its scale and the factors
/// its weight multiplies into it.
#[derive(Debug, Clone)]
struct SiteGeom {
    scale: Q16_16,
    factors: Vec<LaneFactor>,
}

/// A tap or offset weight as the sweeps apply it: a constant, or the
/// index of one of the layer's dynamic weight sites, whose lane each row
/// evaluates before its MACs.
#[derive(Debug, Clone, Copy)]
enum LaneWeight {
    Const(Q16_16),
    Dyn(usize),
}

/// A template tap's operand as a sweep reads it: its source row, resolved
/// through the source's boundary, shifted by the tap's column offset.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SweepTap {
    /// Source layer index (into states or inputs, per `input`).
    src: usize,
    /// Read the external input slab instead of states.
    input: bool,
    /// Clamp operands through the CeNN output function.
    output: bool,
    boundary: Boundary,
    dr: i32,
    dc: i32,
    /// The boundary constant (clamped for output taps) past the edge.
    const_val: Q16_16,
}

/// What a term multiplies its weight by.
#[derive(Debug, Clone, Copy)]
enum Operand {
    /// A tap's source row, column-shifted.
    Tap(SweepTap),
    /// The constant 1.0: an offset.
    One,
}

/// One term of a layer's right-hand side: an operand times a weight.
#[derive(Debug, Clone, Copy)]
struct Term {
    operand: Operand,
    weight: LaneWeight,
}

/// One layer compiled into the form its sweeps apply, once, when the
/// engine is built: its term skeleton, its dynamic weight sites, and the
/// kernel the bound on its accumulator allows. A template fault flips a
/// word here and re-bounds the layer.
#[derive(Debug, Clone)]
struct SweepLayer {
    kind: LayerKind,
    /// The terms in `MacAcc` order: the leak (dynamic layers only: −1.0
    /// on the layer's own row), the non-zero taps of the state, output
    /// and input templates, then the offsets (1.0 times their weight).
    terms: Vec<Term>,
    /// The rows `[top, bottom)` whose every tap reads a row on the grid
    /// (all rows unless a tap reaches past a constant boundary): they run
    /// the plan, and the others term by term.
    regular: (usize, usize),
    /// The columns `[lo, hi)` whose every tap read stays on the grid: the
    /// plan's passes cover them (empty when the taps' reach spans a row),
    /// and the edge columns outside take its terms one by one.
    interior: (usize, usize),
    /// A regular row as column passes, planned from the terms and the
    /// bound (see [`plan`]).
    plan: Vec<Pass>,
    /// The dynamic weight sites in flat order (taps first, then offsets —
    /// the order [`CennSim::inject_template_fault`] uses).
    sites: Vec<SiteGeom>,
    /// Every site's factors flattened in site order, as LUT contexts and
    /// their source layers: the tag replay walks them per cell in exactly
    /// this (scalar) order.
    ctxs: Vec<RowCtx>,
    factor_layers: Vec<usize>,
    /// No partial sum of the layer's accumulator can reach the i64 rails
    /// (see [`exact_without_saturation`]), so the unsaturated kernels
    /// give the saturating kernels' bits, in any term order.
    unsaturated: bool,
}

impl SweepLayer {
    /// Adds the `-x` leak term of eq. (1): dynamic layers only.
    fn leak(&self) -> bool {
        self.kind == LayerKind::Dynamic
    }

    /// Re-derives [`unsaturated`](Self::unsaturated) from the weights,
    /// and the plan from both.
    fn rebound(&mut self, cols: usize) {
        self.unsaturated = exact_without_saturation(&self.terms);
        self.plan = plan(&self.terms, self.unsaturated, self.edges(cols), cols);
    }

    /// The edge columns of a `cols`-wide row, left then right.
    fn edges(&self, cols: usize) -> impl Iterator<Item = usize> + Clone {
        let (lo, hi) = self.interior;
        (0..lo).chain(hi..cols)
    }
}

/// Where a planned term's operand lane comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PlanOp {
    /// A tap's source row, shifted by its column offset (an output tap's
    /// clamped copy in the band's stage row).
    Tap(SweepTap),
    /// A dynamic weight site's lane: an offset, times 1.0.
    Site(usize),
}

/// One column pass over a regular row: a wide constant, then up to
/// [`GROUP`] terms whose weights are all constants or all site lanes.
#[derive(Debug, Clone, Default)]
struct Pass {
    ops: Vec<PlanOp>,
    /// Each term's constant weight, widened (a constant-weight pass).
    words: Vec<i64>,
    /// Each term's weight site (a lane-weight pass).
    sites: Vec<usize>,
    /// Added to every column before the terms.
    k: i64,
    /// An output tap of the pass: the source row the stage must hold.
    stage: Option<SweepTap>,
    /// Per term, per edge column, the column of its lane the read
    /// resolves to (`u32::MAX` past a constant boundary): `[term][edge]`.
    /// Rows and columns resolve independently, so this holds for every
    /// row.
    edge_src: Vec<u32>,
}

/// Per-band row scratch of the template pass: one row of accumulators
/// (the running sums between a row's passes, and its edge columns), one
/// row of staged operands (an output tap's clamped source row), and one
/// lane per dynamic weight site of the row's layer (`[site][col]`).
#[derive(Debug, Clone)]
struct BandBuf {
    accs: Vec<i64>,
    ops: Vec<Q16_16>,
    sites: Vec<Q16_16>,
}

/// One window of the schedule as the sweeps and the update see it. Chunk
/// rows `[rows.0, rows.1)` are rows `base..` of `states`; `rhs` and the
/// Heun operands hold the chunk rows only (chunk-local row-major).
pub struct WindowMut<'a> {
    pub(crate) rows: (usize, usize),
    pub(crate) base: usize,
    /// Global row → row of `states` / `inputs`, for every row the
    /// window's stencils reach.
    pub(crate) row_map: &'a [u32],
    pub(crate) states: &'a mut SoaGrid<Q16_16>,
    pub(crate) inputs: &'a SoaGrid<Q16_16>,
    /// Where this pass's dynamic-layer RHS lands; algebraic sweeps stage
    /// their layer's output here.
    pub(crate) rhs: &'a mut SoaGrid<Q16_16>,
    /// Heun corrector operands `(x₀, k₁)` — the corrector pass only.
    pub(crate) heun: Option<(&'a SoaGrid<Q16_16>, &'a SoaGrid<Q16_16>)>,
}

/// Where the engine keeps state between windows. The engine runs every
/// step as `passes × n_windows` windows, each one fill → sweeps →
/// `prepare_update` → update → spill; a store decides what those I/O
/// hooks do. The defaults do nothing.
pub trait Store {
    /// Failure type of the store's I/O.
    type Error;
    /// Windows per integrator pass.
    fn n_windows(&self) -> usize;
    /// Readies the store for a step's first window. The engine calls it
    /// before the step's timer starts, so what it builds is set-up, not
    /// step time.
    fn begin_step(&mut self, _core: &mut Core) {}
    /// Brings window `w` of `pass` into memory.
    fn fill(&mut self, _core: &mut Core, _pass: usize, _w: usize) -> Result<(), Self::Error> {
        Ok(())
    }
    /// The filled window.
    fn window(&mut self, pass: usize) -> WindowMut<'_>;
    /// Stages the update's operands once the window's sweeps are done.
    fn prepare_update(&mut self, core: &Core, pass: usize, w: usize) -> Result<(), Self::Error>;
    /// Persists the window's updated rows.
    fn spill(&mut self, _core: &Core, _pass: usize, _w: usize) -> Result<(), Self::Error> {
        Ok(())
    }
    /// Records a completed window.
    fn window_done(&mut self, _pass: usize, _w: usize) -> Result<(), Self::Error> {
        Ok(())
    }
    /// Records a completed step.
    fn step_done(&mut self, _core: &Core) -> Result<(), Self::Error> {
        Ok(())
    }
    /// Hands layer `layer` of the current state to `visit`, one chunk of
    /// cells at a time in row order.
    fn visit_layer(
        &self,
        core: &Core,
        layer: usize,
        visit: &mut dyn FnMut(&[Q16_16]),
    ) -> Result<(), Self::Error>;
    /// Largest resident working set so far, bytes.
    fn peak_resident_bytes(&self) -> u64;
    /// Bytes written to backing storage so far.
    fn spill_bytes(&self) -> u64 {
        0
    }
    /// `"exact"` when per-PE LUT counters match the in-core sweep order,
    /// `"totals-only"` when only access totals do.
    fn lut_counters(&self) -> &'static str {
        "exact"
    }
    /// Called after the engine emits its run summary.
    fn summarize(&self) {}
}

/// The store-independent half of the engine: the compiled program, the
/// LUT hierarchy, the template pass's band rows, counters, observability
/// hooks, and the window cursor.
#[derive(Debug, Clone)]
pub struct Core {
    pub(crate) model: CennModel,
    /// Each layer in its sweep form.
    layers: Vec<SweepLayer>,
    /// Dynamic layer indices in declaration order.
    dyn_layers: Vec<usize>,
    /// The most dynamic weight sites one layer has: the site lanes of a
    /// band row.
    site_cap: usize,
    /// Each shard's share of a row (empty without dynamic weight sites):
    /// the tag replay walks the window's rows through it.
    pattern: RowPattern,
    hierarchy: LutHierarchy,
    engine: ExecEngine,
    /// The template pass's rows, one band per shard; empty until
    /// [`build_bands`](Self::build_bands).
    bands: Vec<BandBuf>,
    /// One span ring per shard (and per template-pass band), drained into
    /// the tracer once a window's wall time is taken; disabled while no
    /// tracer is attached.
    rings: Vec<SpanRing>,
    eval: FuncEval,
    /// Compute the per-step residual even without an enabled recorder
    /// (the guard's divergence/stall watchdogs read it from
    /// [`step_stats`](Engine::step_stats)).
    track_residual: bool,
    pub(crate) time: f64,
    pub(crate) steps: u64,
    /// Cumulative cell evaluations across the run (for the summary event).
    pub(crate) run_cells: u64,
    /// Cumulative wall-clock nanos across steps (for the summary event).
    run_nanos: u64,
    last_step: StepStats,
    /// Optional metric sink; `None` (the default) keeps every step on the
    /// uninstrumented path.
    pub(crate) recorder: Option<RecorderHandle>,
    /// Optional span tracer; `None` (the default) keeps the span path to
    /// a single branch per sweep.
    pub(crate) tracer: Option<TraceHandle>,
    // --- window cursor ---------------------------------------------------
    /// Integrator pass and window the next window run executes.
    pub(crate) pass: usize,
    pub(crate) window: usize,
    /// Accounting of the step in flight.
    pub(crate) pending: StepStats,
    /// Per-shard LUT counters at step entry (reused across steps).
    stats_before: Vec<LutStats>,
    /// A step is in flight.
    stepping: bool,
    /// The step in flight tracks its residual.
    track: bool,
    pass_rhs_nanos: u64,
    pass_update_nanos: u64,
    step_wall_nanos: u64,
    /// Max `|Δx|` of the step in flight, raw bits.
    pub(crate) residual_raw: i64,
    /// Cells the post-step rule fired on in the step in flight (the last
    /// step once it completes).
    fired: u64,
}

impl Core {
    /// Compiles `model` and builds its LUT hierarchy, and for a model
    /// with dynamic weight sites its row pattern; the band rows are built
    /// later by [`build_bands`](Self::build_bands).
    pub(crate) fn new(model: CennModel, eval: FuncEval) -> Result<Self, ModelError> {
        let cfg = model.lut_config();
        let specs: Vec<_> = model
            .library()
            .iter()
            .map(|(id, _)| cfg.spec_for(id))
            .collect();
        let hierarchy = LutHierarchy::build_with_specs(
            model.library(),
            &specs,
            cfg.l1_blocks,
            cfg.l2_capacity,
            cfg.n_pes(),
        )?;
        let layers = compile(&model);
        let dyn_layers: Vec<usize> = (0..layers.len()).filter(|&i| layers[i].leak()).collect();
        let site_cap = layers.iter().map(|l| l.sites.len()).max().unwrap_or(0);
        let pattern = if site_cap > 0 {
            TilePlan::new(model.rows(), model.cols(), cfg.pe_rows, cfg.pe_cols).row_pattern()
        } else {
            RowPattern::default()
        };
        let rings = vec![SpanRing::disabled(); hierarchy.shards().len()];
        Ok(Self {
            layers,
            dyn_layers,
            site_cap,
            pattern,
            hierarchy,
            engine: ExecEngine::serial(),
            bands: Vec::new(),
            rings,
            eval,
            track_residual: false,
            time: 0.0,
            steps: 0,
            run_cells: 0,
            run_nanos: 0,
            last_step: StepStats::default(),
            recorder: None,
            tracer: None,
            pass: 0,
            window: 0,
            pending: StepStats::default(),
            stats_before: Vec::new(),
            stepping: false,
            track: false,
            pass_rhs_nanos: 0,
            pass_update_nanos: 0,
            step_wall_nanos: 0,
            residual_raw: 0,
            fired: 0,
            model,
        })
    }

    /// Builds the band rows, once: per shard, one row each of
    /// accumulators, staged operands and site lanes for the layer with the
    /// most dynamic weight sites. Their size does not depend on the
    /// window; an engine that never sweeps builds none.
    pub(crate) fn build_bands(&mut self) {
        let (cols, sites) = (self.model.cols(), self.site_cap);
        self.bands.resize_with(self.rings.len(), || BandBuf {
            accs: vec![0; cols],
            ops: vec![Q16_16::ZERO; cols],
            sites: vec![Q16_16::ZERO; sites * cols],
        });
    }

    /// Bytes of sweep state the core holds: the band rows and the row
    /// pattern, whatever the window's height.
    pub(crate) fn sweep_bytes(&self) -> u64 {
        let bands: usize = (self.bands.iter())
            .map(|b| 8 * b.accs.len() + 4 * (b.ops.len() + b.sites.len()))
            .sum();
        (bands + self.pattern.bytes()) as u64
    }

    /// Layers with dynamic weight sites.
    pub(crate) fn lut_layers(&self) -> usize {
        self.layers.iter().filter(|l| !l.sites.is_empty()).count()
    }

    /// `true` when some template reads an external input map.
    pub(crate) fn uses_inputs(&self) -> bool {
        let input = |t: &Term| matches!(t.operand, Operand::Tap(tap) if tap.input);
        (self.layers.iter()).any(|l| l.terms.iter().any(input))
    }

    /// Integrator passes per step.
    pub(crate) fn passes(&self) -> usize {
        self.model.integrator().passes() as usize
    }

    fn recording(&self) -> bool {
        self.recorder.as_ref().is_some_and(RecorderHandle::enabled)
    }

    /// Opens the accounting of a step at its first window.
    pub(crate) fn begin_step(&mut self) {
        self.stats_before.clear();
        self.stats_before
            .extend(self.hierarchy.shards().iter().map(LutShard::stats));
        self.pending = StepStats {
            threads: self.engine.threads(),
            ..StepStats::default()
        };
        self.track = self.recording() || self.track_residual;
        self.pass_rhs_nanos = 0;
        self.pass_update_nanos = 0;
        self.step_wall_nanos = 0;
        self.residual_raw = 0;
        self.fired = 0;
        self.stepping = true;
    }

    /// The window's sweeps: algebraic layers in declaration order, each
    /// one barriered sweep written back into the states (so later layers
    /// read earlier layers' fresh values), then one fused sweep over the
    /// dynamic layers into the window's RHS.
    fn sweep(&mut self, win: &mut WindowMut<'_>) {
        let cells = (win.rows.1 - win.rows.0) * self.model.cols();
        for i in 0..self.layers.len() {
            if self.layers[i].leak() {
                continue;
            }
            let start = Instant::now();
            self.sweep_layers(win, Some(i), start);
            self.pending.cells += cells as u64;
            self.pending.sweeps.push((
                format!("algebraic:{i}").into(),
                start.elapsed().as_nanos() as u64,
            ));
        }
        if self.dyn_layers.is_empty() {
            return;
        }
        let start = Instant::now();
        self.sweep_layers(win, None, start);
        self.pending.cells += (self.dyn_layers.len() * cells) as u64;
        self.pass_rhs_nanos += start.elapsed().as_nanos() as u64;
    }

    /// One barriered sweep of algebraic layer `algebraic`, or of the fused
    /// dynamic layers, over the window, begun at `start`: one fan-out of
    /// (LUT shard `j`, row band `j`) pairs over the worker threads, one
    /// pair per shard. Pair `j`:
    ///
    /// 1. replays shard `j`'s LUT accesses of the window (layers with
    ///    dynamic weight sites only): the shard walks its rows of the
    ///    window through the row pattern in ascending order and probes its
    ///    tag caches for each factor's index, recomputed from the states,
    ///    so it sees the serial per-shard access order (`lut_lookup`, one
    ///    span per shard);
    /// 2. then runs band `j` of the window's rows: each row evaluates its
    ///    layer's site lanes and is MAC'd straight from its source rows
    ///    into the RHS row (`template_apply`, one span per band).
    ///
    /// An algebraic sweep then copies its staged rows into the states
    /// (`halo_sync`, one span per band), so no row ever reads its own
    /// layer's fresh values. States do not change before that copy, so the
    /// replay and the bands read the same states in any interleaving.
    ///
    /// Span counts are per shard or band, never per thread. The sweep's
    /// set-up (the band split) is timed into its first span.
    fn sweep_layers(&mut self, win: &mut WindowMut<'_>, algebraic: Option<usize>, start: Instant) {
        let Core {
            model,
            layers: forms,
            dyn_layers,
            pattern,
            hierarchy,
            engine,
            bands,
            rings,
            eval,
            tracer,
            ..
        } = self;
        let epoch = tracer.as_ref().map(TraceHandle::epoch);
        let forms = &forms[..];
        let layers = algebraic
            .as_ref()
            .map_or(&dyn_layers[..], std::slice::from_ref);
        let sweep = || layers.iter().map(|&i| &forms[i]);
        let dynamic = algebraic.is_none();
        let lut = sweep().any(|sl| !sl.sites.is_empty());
        let (rows, cols) = (model.rows(), model.cols());
        let chunk = win.rows.0..win.rows.1;
        let window_cells = chunk.len() * cols;

        // Each band writes its rows of each swept layer's chunk rows of the
        // RHS. One list holds first each swept layer's chunk rows (layers
        // ascend, so in sweep order), then, band-major, band `b`'s rows of
        // every swept layer, cut off their fronts; the emptied fronts are
        // dropped at the end.
        let n_bands = rings.len();
        let band_row = |b: usize| chunk.start + chunk.len() * b / n_bands;
        let n_layers = layers.len();
        let stride = win.rhs.cells_per_layer();
        let mut band_rows: Vec<&mut [Q16_16]> = Vec::with_capacity((n_bands + 1) * n_layers);
        band_rows.extend(
            (win.rhs.slab_mut().chunks_exact_mut(stride).enumerate())
                .filter(|(i, _)| layers.contains(i))
                .map(|(_, span)| &mut span[..window_cells]),
        );
        for b in 0..n_bands {
            let n = (band_row(b + 1) - band_row(b)) * cols;
            for j in 0..n_layers {
                let (head, tail) = std::mem::take(&mut band_rows[j]).split_at_mut(n);
                band_rows[j] = tail;
                band_rows.push(head);
            }
        }
        band_rows.drain(..n_layers);
        let (tables, shards) = hierarchy.split();
        let mut items: Vec<_> = (band_rows.chunks_mut(n_layers))
            .zip(
                shards
                    .iter_mut()
                    .zip(bands.iter_mut().zip(rings.iter_mut())),
            )
            .enumerate()
            .map(|(b, (dest, (shard, (buf, ring))))| {
                ((band_row(b), band_row(b + 1)), dest, shard, buf, ring)
            })
            .collect();
        let src = RowSrc {
            states: &*win.states,
            inputs: win.inputs,
            row_map: win.row_map,
            shape: (rows, cols),
            tables,
            lib: model.library(),
            eval: *eval,
        };
        engine.for_each_chunk_mut(&mut items, |first, part| {
            let mut t0 = epoch.map(|_| if first == 0 { start } else { Instant::now() });
            for (j, (band, dest, shard, buf, ring)) in part.iter_mut().enumerate() {
                let b = first + j;
                if lut {
                    if src.eval == FuncEval::Lut {
                        lut_replay(shard, &src, pattern.shard_rows(b, chunk.clone()), sweep());
                    }
                    t0 = push_span(ring, Phase::LutLookup, b, t0, epoch);
                }
                for r in band.0..band.1 {
                    let at = (r - band.0) * cols;
                    for (sl, dest) in sweep().zip(dest.iter_mut()) {
                        let out = &mut dest[at..at + cols];
                        if sl.unsaturated {
                            layer_row::<Unsaturated>(&src, sl, r, out, buf);
                        } else {
                            layer_row::<Saturating>(&src, sl, r, out, buf);
                        }
                    }
                }
                if cfg!(feature = "slow-template-apply")
                    && dynamic
                    && std::env::var_os("CENN_SLOW_TEMPLATE_APPLY").is_some()
                {
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
                t0 = push_span(ring, Phase::TemplateApply, b, t0, epoch);
            }
        });
        if let Some(i) = algebraic {
            let states = win.states.layer_mut(i);
            let mut t0 = epoch.map(|_| Instant::now());
            for (b, (band, staged, _, _, ring)) in items.iter_mut().enumerate() {
                let lo = (win.base + band.0 - chunk.start) * cols;
                states[lo..lo + staged[0].len()].copy_from_slice(staged[0]);
                t0 = push_span(ring, Phase::HaloSync, b, t0, epoch);
            }
        }
    }

    /// Attaches or detaches the span tracer, enabling the span rings only
    /// while one is attached. A window drains its rings once it is done,
    /// so each holds every sweep's spans, and ring 0 the update's and a
    /// store's fills.
    pub(crate) fn set_tracer(&mut self, tracer: Option<TraceHandle>) {
        let sweeps = self.layers.len() - self.dyn_layers.len() + 1;
        let ring = || match tracer {
            Some(_) => SpanRing::new(SPANS_PER_SWEEP * sweeps + 2),
            None => SpanRing::disabled(),
        };
        self.rings = (0..self.rings.len()).map(|_| ring()).collect();
        self.tracer = tracer;
    }

    /// Records `phase` from `t0` to now on track 0, the driving thread's
    /// (the update, a spooled store's fills), and returns its nanos.
    pub(crate) fn span_since(&mut self, phase: Phase, t0: Instant) -> u64 {
        let epoch = self.tracer.as_ref().map(TraceHandle::epoch);
        let end = push_span(&mut self.rings[0], phase, 0, Some(t0), epoch);
        end.unwrap_or_else(Instant::now)
            .saturating_duration_since(t0)
            .as_nanos() as u64
    }

    /// Drains every span ring into the tracer under one lock.
    fn drain_spans(&mut self) {
        if let Some(tr) = &self.tracer {
            tr.with(|c| self.rings.iter_mut().for_each(|ring| c.sink_ring(ring)));
        }
    }

    /// The integrator update of the window's chunk rows, in place on the
    /// states with a single wide-MAC rounding per cell (the PE's second
    /// MAC, Fig. 7): forward Euler `x ← x + dt·k` — also Heun's
    /// predictor — or Heun's corrector `x ← x₀ + dt/2·(k₁ + k₂)`. The
    /// final pass folds the exactly-applied `max |Δx|` into the residual
    /// when the step tracks it, then applies the model's post-step rule
    /// to the chunk rows (the PE comparator and conditional write).
    fn update(&mut self, win: &mut WindowMut<'_>) {
        let cols = self.model.cols();
        let (lo, cells) = (win.base * cols, (win.rows.1 - win.rows.0) * cols);
        let last = self.pass + 1 == self.passes();
        let track = self.track && last;
        let dt = self.model.dt_fx();
        let dt_half = Q16_16::from_f64(self.model.dt() / 2.0);
        let mut max_raw = self.residual_raw;
        for &i in &self.dyn_layers {
            let xs = &mut win.states.layer_mut(i)[lo..lo + cells];
            let ks = &win.rhs.layer_slice(i)[..cells];
            // Monomorphized on `track`, so untracked steps pay no residual
            // branch per cell.
            let delta = match (win.heun, track) {
                (None, false) => euler::<false>(xs, ks, dt),
                (None, true) => euler::<true>(xs, ks, dt),
                (Some((x0, k1)), track) => {
                    let (x0, k1) = (&x0.layer_slice(i)[..cells], &k1.layer_slice(i)[..cells]);
                    if track {
                        corrector::<true>(xs, x0, k1, ks, dt_half)
                    } else {
                        corrector::<false>(xs, x0, k1, ks, dt_half)
                    }
                }
            };
            max_raw = max_raw.max(delta);
        }
        self.residual_raw = max_raw;
        if let Some(rule) = self.model.post_step().filter(|_| last) {
            self.fired += rule.apply(win.states, lo..lo + cells, Q16_16::to_f64, Q16_16::from_f64);
        }
    }

    /// Closes a window's update: its `update` time and one `integrate`
    /// span on track 0 (the update runs on the driving thread, so one
    /// span per window keeps counts thread-count independent).
    fn finish_update(&mut self, start: Instant) {
        self.pass_update_nanos += self.span_since(Phase::Integrate, start);
    }

    /// Closes a pass: its `dynamic` and `update` sweep timings.
    fn end_pass(&mut self) {
        if !self.dyn_layers.is_empty() {
            self.pending
                .sweeps
                .push(("dynamic".into(), self.pass_rhs_nanos));
        }
        self.pending
            .sweeps
            .push(("update".into(), self.pass_update_nanos));
        self.pass_rhs_nanos = 0;
        self.pass_update_nanos = 0;
        self.pass += 1;
    }
}

/// `x ← x + dt·k` per cell; returns `max |Δx|` in raw bits when `TRACK`.
fn euler<const TRACK: bool>(xs: &mut [Q16_16], ks: &[Q16_16], dt: Q16_16) -> i64 {
    let mut max_raw = 0i64;
    for (x, &k) in xs.iter_mut().zip(ks) {
        let mut acc = MacAcc::<16>::with_init(*x);
        acc.mac(dt, k);
        let xn = acc.resolve();
        if TRACK {
            max_raw = max_raw.max((i64::from(xn.to_bits()) - i64::from(x.to_bits())).abs());
        }
        *x = xn;
    }
    max_raw
}

/// `x ← x₀ + dt/2·(k₁ + k₂)` per cell; returns `max |x − x₀|` in raw bits
/// when `TRACK`.
fn corrector<const TRACK: bool>(
    xs: &mut [Q16_16],
    x0s: &[Q16_16],
    k1s: &[Q16_16],
    k2s: &[Q16_16],
    dt_half: Q16_16,
) -> i64 {
    let mut max_raw = 0i64;
    for (((x, &x0), &k1), &k2) in xs.iter_mut().zip(x0s).zip(k1s).zip(k2s) {
        let mut acc = MacAcc::<16>::with_init(x0);
        acc.mac(dt_half, k1);
        acc.mac(dt_half, k2);
        *x = acc.resolve();
        if TRACK {
            max_raw = max_raw.max((i64::from(x.to_bits()) - i64::from(x0.to_bits())).abs());
        }
    }
    max_raw
}

/// The sweep engine: evolves a [`CennModel`] in 32-bit fixed point,
/// reproducing the compute semantics of the PE array (saturating MACs,
/// wide accumulate, LUT-based template update) without cycle timing.
/// Timing and energy live in `cenn-arch`.
///
/// The per-step semantics are:
///
/// 1. **algebraic layers** (declaration order) recompute their state as the
///    direct template evaluation, reading current values — used for
///    derived quantities such as Navier–Stokes velocities;
/// 2. **dynamic layers** integrate eq. (1) synchronously (all read old
///    states): `x ← x + Δt · (−x + ΣÂ·x + ΣA·y + ΣB·u + z)`, by forward
///    Euler or Heun per the model's [`Integrator`].
///
/// Every step runs as a window schedule: each integrator pass sweeps the
/// grid's rows in ascending order as windows, and a window is fill →
/// sweeps → update → spill over the engine's state store. In-core
/// execution ([`CennSim`], the [`Resident`] store) is the one-window case:
/// the window spans the grid, its slabs are built when the first step
/// begins, and fill and spill do nothing. Streamed
/// out-of-core execution ([`StreamSim`](crate::StreamSim)) spools state
/// chunks between windows. An engine that has not started yet holds its
/// [`Fields`] instead of a store: its program, LUTs and settings are
/// ready, and starting it chooses the store.
///
/// State is held structure-of-arrays: one contiguous Q16.16 slab per
/// grid set ([`SoaGrid`]), each layer a contiguous span. A sweep keeps
/// the LUT's counters apart from its values, as the paper's two-stage
/// method does (§6.3). The *tag replay* takes each LUT shard's accesses
/// of the window through the batched counters-only walk
/// ([`cenn_lut::LutShard::replay`]), one call per row of the shard's rows
/// of the window, read from the engine's [`RowPattern`]
/// ([`TilePlan::row_pattern`]): its cells in row-major order, each
/// factor's index recomputed from the states, so each shard's cache sees
/// the serial access sequence and every counter is exact. The *template
/// pass* is row-direct: each output row first evaluates its layer's
/// dynamic weight sites into site lanes (the TUM at each factor's state,
/// [`cenn_lut::OffChipLut::value`]), then applies its terms (leak,
/// shifted source rows with their constant weights or site lanes,
/// offsets) as planned passes of up to eight terms over the interior
/// columns ([`fixedpt::lanes`]), the last pass rounding into the RHS row,
/// and its few edge columns term by term through the boundary. A layer
/// whose weights bound its accumulator below the i64 rails takes the
/// unsaturated kernels and regroups its terms freely, which gives the
/// saturating kernels' bits there; any other keeps the scalar `MacAcc`
/// order. States do not change during a sweep and the caches hold tags
/// only, so values never depend on the replay, and results — states
/// *and* per-PE LUT statistics — are bit-identical for any thread count
/// (the determinism contract in [`crate::exec`]).
///
/// The [`ExecEngine`] fans a sweep out over worker threads as one work
/// item per LUT shard: shard `j`'s replay, then row band `j` of the
/// template pass (see [`set_threads`]).
///
/// [`set_threads`]: Self::set_threads
#[derive(Debug, Clone)]
pub struct Engine<S> {
    pub(crate) core: Core,
    pub(crate) store: S,
}

/// The in-core simulator: the engine over the [`Resident`] store.
pub type CennSim = Engine<Resident>;

impl<S> Engine<S> {
    /// Sets the worker-thread count for all subsequent sweeps (zero is
    /// clamped to one). Thread count never changes results: states and
    /// per-PE LUT statistics are bit-identical for any value.
    pub fn set_threads(&mut self, threads: usize) {
        self.core.engine = ExecEngine::new(threads);
    }

    /// Worker threads currently configured.
    pub fn threads(&self) -> usize {
        self.core.engine.threads()
    }

    /// Timing and LUT-traffic observability for the most recent completed
    /// step; default-empty before the first step.
    pub fn step_stats(&self) -> &StepStats {
        &self.core.last_step
    }

    /// Attaches a metric recorder: every subsequent step emits one
    /// [`cenn_obs::StepMetrics`] event, and
    /// [`record_summary`](Self::record_summary) emits the end-of-run
    /// aggregate. A disabled recorder (e.g. [`cenn_obs::NullRecorder`])
    /// costs one branch per step — no events are built and the residual
    /// scan is skipped, so the hot path is unchanged.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.core.recorder = Some(recorder);
    }

    /// Detaches the recorder (subsequent steps emit nothing).
    pub fn clear_recorder(&mut self) {
        self.core.recorder = None;
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&RecorderHandle> {
        self.core.recorder.as_ref()
    }

    /// Attaches a span tracer: every subsequent sweep attributes its
    /// wall-clock time to the [`Phase`] taxonomy (`lut_lookup`,
    /// `template_apply`, `integrate`, `halo_sync`) via span rings, one
    /// per shard, drained into the shared collector once per window. The
    /// `lut_lookup` phase covers the tag replay, one span per shard, and
    /// is only emitted for sweeps whose layers have dynamic weight sites —
    /// LUT-free models report no `lut_lookup` spans at all;
    /// `template_apply` covers the row-direct template pass with its TUM
    /// evaluation of the site weights, one span per row band (one band per
    /// shard); `halo_sync` covers an algebraic sweep's copy back into the
    /// states and a spooled store's chunk fills. Span *counts* are per shard or band
    /// per sweep, so they are identical for any worker-thread count;
    /// without a tracer the span path costs one branch per sweep and
    /// performs no allocations.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.core.set_tracer(Some(tracer));
    }

    /// Detaches the tracer (subsequent sweeps emit no spans).
    pub fn clear_tracer(&mut self) {
        self.core.set_tracer(None);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&TraceHandle> {
        self.core.tracer.as_ref()
    }

    /// Emits one `span_summary` event per active phase through the
    /// attached recorder. No-op unless both a tracer and an enabled
    /// recorder are attached.
    pub fn record_span_summaries(&self) {
        if let (Some(tracer), Some(rec)) = (&self.core.tracer, &self.core.recorder) {
            tracer.record_summaries(rec);
        }
    }

    /// `(hits, misses)` of one PE's private L1 LUT (per-PE accounting
    /// survives the threaded sweep bit-identically).
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range for the PE array.
    pub fn pe_lut_stats(&self, pe: usize) -> (u64, u64) {
        self.core.hierarchy.pe_stats(pe)
    }

    /// The model being simulated.
    pub fn model(&self) -> &CennModel {
        &self.core.model
    }

    /// Simulated time `t`.
    pub fn time(&self) -> f64 {
        self.core.time
    }

    /// Number of completed steps.
    pub fn steps(&self) -> u64 {
        self.core.steps
    }

    /// Cumulative wall-clock nanoseconds spent stepping across the run —
    /// the denominator for phase-attribution shares in profiling output.
    pub fn run_nanos(&self) -> u64 {
        self.core.run_nanos
    }

    /// The evaluation mode.
    pub fn eval_mode(&self) -> FuncEval {
        self.core.eval
    }

    /// Switches the evaluation mode for subsequent steps — the guard's
    /// `bypass-lut` recovery degrades a sim with a persistently corrupt
    /// table to exact evaluation instead of aborting.
    pub fn set_eval(&mut self, eval: FuncEval) {
        self.core.eval = eval;
    }

    /// Forces the per-step residual scan on even without an enabled
    /// recorder, so watchdogs can read [`step_stats`](Self::step_stats)
    /// on otherwise-uninstrumented runs.
    pub fn set_residual_tracking(&mut self, on: bool) {
        self.core.track_residual = on;
    }

    /// Per layer, whether its weights bound every partial sum of its
    /// accumulator below the i64 rails, so its sweeps add without
    /// saturating (see [`fixedpt::lanes`]) and still give the saturating
    /// adds' bits. Bounded from the current weights: a template fault can
    /// turn a layer's off.
    pub fn unsaturated_layers(&self) -> Vec<bool> {
        self.core.layers.iter().map(|l| l.unsaturated).collect()
    }

    /// Per LUT function, whether its off-chip table's entries prove the
    /// TUM's adds exact ([`OffChipLut::exact_adds`]), so its evaluations
    /// add without saturating. A LUT fault can turn a table's off; a
    /// scrub that repairs it turns it back on.
    pub fn lut_exact_adds(&self) -> Vec<bool> {
        (self.core.model.library().iter())
            .map(|(id, _)| self.core.hierarchy.table(id).exact_adds())
            .collect()
    }

    /// Cumulative LUT statistics (the trace the cycle model consumes).
    pub fn lut_stats(&self) -> LutStats {
        self.core.hierarchy.stats()
    }

    /// Measured `(mr_L1, mr_L2)` miss rates.
    pub fn miss_rates(&self) -> (f64, f64) {
        self.core.hierarchy.miss_rates()
    }

    /// Resets LUT statistics (e.g. after warm-up).
    pub fn reset_lut_stats(&mut self) {
        self.core.hierarchy.reset_stats();
    }

    fn report(&self) -> StepReport {
        StepReport {
            time: self.core.time,
            steps: self.core.steps,
            lut: self.core.hierarchy.stats(),
            fired: self.core.fired,
        }
    }
}

impl<S: Store> Engine<S> {
    /// Emits the end-of-run [`cenn_obs::RunSummary`] event: totals, the
    /// measured miss rates the paper's cycle model consumes, and the
    /// store's resident footprint and spilled bytes. No-op without an
    /// enabled recorder.
    pub fn record_summary(&self) {
        let Some(rec) = &self.core.recorder else {
            return;
        };
        if !rec.enabled() {
            return;
        }
        let lut = self.lut_stats();
        let (mr_l1, mr_l2) = self.miss_rates();
        rec.record(&Event::RunSummary(RunSummary {
            steps: self.core.steps,
            time: self.core.time,
            threads: self.core.engine.threads() as u64,
            cells: self.core.run_cells,
            total_nanos: self.core.run_nanos,
            accesses: lut.accesses,
            mr_l1,
            mr_l2,
            mr_combined: lut.combined_miss_rate(),
            residual: self.core.last_step.residual,
            lut: lut.level_metrics(),
            peak_resident_bytes: self.store.peak_resident_bytes(),
            spill_bytes: self.store.spill_bytes(),
            lut_counters: self.store.lut_counters().into(),
        }));
        self.store.summarize();
    }

    /// Folds the current state into its
    /// [`snapshot_digest`](crate::snapshot_digest), handing every chunk
    /// of cells to `visit(layer, cells)` on the way: each layer in turn,
    /// its cells in row order. A spooled store reads its chunks one at a
    /// time, so the digest, and whatever `visit` folds (per-layer ranges,
    /// say), never need a whole-grid copy.
    ///
    /// # Errors
    ///
    /// The store's read failures.
    pub fn fold_state(&self, mut visit: impl FnMut(usize, &[Q16_16])) -> Result<u64, S::Error> {
        let core = &self.core;
        let (n, cells) = (core.model.n_layers(), core.model.rows() * core.model.cols());
        let mut digest = StateDigest::new((core.steps, core.time, core.run_cells), n);
        for l in 0..n {
            digest.layer(cells);
            self.store.visit_layer(core, l, &mut |chunk| {
                digest.cells(chunk.iter().map(|v| v.to_bits()));
                visit(l, chunk);
            })?;
        }
        Ok(digest.finish())
    }

    /// Largest resident working set so far, bytes: the state slabs
    /// in-core; window buffers, sweep scratch, the row pattern and I/O
    /// staging when spooled. Geometry-derived, so identical at every thread count.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.store.peak_resident_bytes()
    }

    /// Bytes written to backing storage so far: zero in-core; the seed
    /// and per-window chunk writes when spooled. Deterministic for a given
    /// model and geometry.
    pub fn spill_bytes(&self) -> u64 {
        self.store.spill_bytes()
    }

    /// Runs the cursor's window — fill, sweeps, update, spill — and
    /// returns `true` when that completed a step.
    pub(crate) fn advance(&mut self) -> Result<bool, S::Error> {
        let Self { core, store } = self;
        if !core.stepping {
            store.begin_step(core);
            core.begin_step();
        }
        let t0 = Instant::now();
        let (pass, w) = (core.pass, core.window);
        store.fill(core, pass, w)?;
        core.sweep(&mut store.window(pass));
        let t_update = Instant::now();
        store.prepare_update(core, pass, w)?;
        core.update(&mut store.window(pass));
        store.spill(core, pass, w)?;
        core.finish_update(t_update);
        core.step_wall_nanos += t0.elapsed().as_nanos() as u64;
        // The tracer's bookkeeping is not the step's work.
        core.drain_spans();
        store.window_done(pass, w)?;
        core.window += 1;
        if core.window < store.n_windows() {
            return Ok(false);
        }
        core.window = 0;
        core.end_pass();
        if core.pass < core.passes() {
            return Ok(false);
        }
        core.pass = 0;
        self.finish_step()?;
        Ok(true)
    }

    /// Closes out a completed step: counters, stats, the store's step
    /// record, and the `Step` event.
    fn finish_step(&mut self) -> Result<(), S::Error> {
        let core = &mut self.core;
        core.steps += 1;
        core.time += core.model.dt();
        let mut stats = std::mem::take(&mut core.pending);
        stats.total_nanos = core.step_wall_nanos;
        if core.track {
            stats.residual = core.residual_raw as f64 / f64::from(1u32 << 16);
        }
        stats.shard_lut = core
            .hierarchy
            .shards()
            .iter()
            .zip(&core.stats_before)
            .map(|(s, b)| s.stats().since(b))
            .collect();
        core.run_cells += stats.cells;
        core.run_nanos += stats.total_nanos;
        core.last_step = stats;
        core.stepping = false;
        self.store.step_done(&self.core)?;
        let core = &self.core;
        if let Some(rec) = core.recorder.as_ref().filter(|r| r.enabled()) {
            rec.record(&Event::Step(
                core.last_step.to_metrics(core.steps, core.time),
            ));
        }
        Ok(())
    }

    /// Runs every remaining window of the step in flight (or of a new
    /// step).
    pub(crate) fn step_once(&mut self) -> Result<StepReport, S::Error> {
        while !self.advance()? {}
        Ok(self.report())
    }

    /// Runs `n` full steps.
    pub(crate) fn run_steps(&mut self, n: u64) -> Result<StepReport, S::Error> {
        let mut report = self.report();
        for _ in 0..n {
            report = self.step_once()?;
        }
        Ok(report)
    }
}

/// The store of an engine that has not started: one optional [`Field`]
/// per layer for its state and for its input map, and no slab.
/// [`CennSim::start`] quantizes the fields into the in-core slabs;
/// [`StreamSim::start`](crate::StreamSim::start) writes them into a fresh
/// chunk spool window by window, so a streamed run never builds a
/// whole-grid slab. Settings made on the unstarted engine (threads,
/// recorder, tracer) carry over to either.
#[derive(Debug, Clone)]
pub struct Fields {
    states: Vec<Option<Field>>,
    inputs: Vec<Option<Field>>,
}

impl Fields {
    /// Quantizes row `row` of layer `layer`'s state (with `input`, of its
    /// input map) into `out`; a layer without a field is zero.
    pub(crate) fn quantize_row(&self, input: bool, layer: usize, row: usize, out: &mut [Q16_16]) {
        let fields = if input { &self.inputs } else { &self.states };
        match &fields[layer] {
            Some(f) => f.quantize_row(row, out),
            None => out.fill(Q16_16::ZERO),
        }
    }
}

impl Engine<Fields> {
    /// An engine for `model` that has not started: compiles the program
    /// and builds its LUT hierarchy, and checks each field's layer and
    /// shape, but allocates no slab. A later field for a layer replaces an
    /// earlier one.
    ///
    /// # Errors
    ///
    /// [`ModelError::Lut`] if an off-chip LUT cannot be generated,
    /// [`ModelError::UnknownLayer`] for a field on a layer the model does
    /// not have, and [`ModelError::ShapeMismatch`] for a grid field of
    /// another shape.
    pub fn unstarted(
        model: CennModel,
        eval: FuncEval,
        initial: &[(LayerId, Field)],
        inputs: &[(LayerId, Field)],
    ) -> Result<Self, ModelError> {
        let core = Core::new(model, eval)?;
        let m = &core.model;
        let place = |list: &[(LayerId, Field)]| {
            let mut per_layer = vec![None; m.n_layers()];
            for (id, field) in list {
                field.check(m.rows(), m.cols())?;
                let slot = per_layer
                    .get_mut(id.index())
                    .ok_or(ModelError::UnknownLayer(id.index()))?;
                *slot = Some(field.clone());
            }
            Ok::<_, ModelError>(per_layer)
        };
        let store = Fields {
            states: place(initial)?,
            inputs: place(inputs)?,
        };
        Ok(Self { core, store })
    }
}

/// The in-core state store: the full-grid `Q16.16` state and input slabs
/// from construction, and one window spanning the grid, built when the
/// first step begins. Fill and spill do nothing.
#[derive(Debug, Clone)]
pub struct Resident {
    plan: TilePlan,
    states: SoaGrid<Q16_16>,
    inputs: SoaGrid<Q16_16>,
    /// The grid-spanning window; `None` until the first step, so an
    /// engine that never steps in-core (one seeding a spool) never
    /// builds it.
    window: Option<GridWindow>,
}

/// The in-core window: the identity row map, plus the three slabs only
/// stepping needs.
#[derive(Debug, Clone)]
struct GridWindow {
    row_map: Vec<u32>,
    /// RHS of the Euler step and of Heun's predictor pass (algebraic
    /// sweeps stage their output in their layer's span).
    aux: SoaGrid<Q16_16>,
    /// RHS of Heun's corrector pass.
    aux2: SoaGrid<Q16_16>,
    /// Persistent pre-step snapshot used by Heun's corrector (reused
    /// across steps instead of cloning the state vector every step).
    saved: SoaGrid<Q16_16>,
}

impl Store for Resident {
    type Error = Infallible;

    fn n_windows(&self) -> usize {
        1
    }

    /// Builds the grid-spanning window and the band rows, once.
    fn begin_step(&mut self, core: &mut Core) {
        if self.window.is_some() {
            return;
        }
        let (rows, cols) = self.plan.shape();
        let blank = SoaGrid::new(self.states.n_layers(), rows, cols, Q16_16::ZERO);
        let (aux, aux2, saved) = (blank.clone(), blank.clone(), blank);
        core.build_bands();
        self.window = Some(GridWindow {
            row_map: (0..rows as u32).collect(),
            aux,
            aux2,
            saved,
        });
    }

    fn window(&mut self, pass: usize) -> WindowMut<'_> {
        let w = self
            .window
            .as_mut()
            .expect("the in-core window is built when a step begins");
        let (rhs, heun) = if pass == 0 {
            (&mut w.aux, None)
        } else {
            (&mut w.aux2, Some((&w.saved, &w.aux)))
        };
        WindowMut {
            rows: (0, self.plan.shape().0),
            base: 0,
            row_map: &w.row_map,
            states: &mut self.states,
            inputs: &self.inputs,
            rhs,
            heun,
        }
    }

    fn prepare_update(&mut self, core: &Core, pass: usize, _w: usize) -> Result<(), Infallible> {
        if pass == 0 && core.model.integrator() == Integrator::Heun {
            let w = self.window.as_mut().expect("built when the step began");
            w.saved.copy_from(&self.states);
        }
        Ok(())
    }

    fn visit_layer(
        &self,
        _core: &Core,
        layer: usize,
        visit: &mut dyn FnMut(&[Q16_16]),
    ) -> Result<(), Infallible> {
        visit(self.states.layer_slice(layer));
        Ok(())
    }

    /// The state and input slabs, and from the first step on the two RHS
    /// slabs and Heun's save.
    fn peak_resident_bytes(&self) -> u64 {
        let window = self.window.iter().flat_map(|w| [&w.aux, &w.aux2, &w.saved]);
        [&self.states, &self.inputs]
            .into_iter()
            .chain(window)
            .map(|g| std::mem::size_of_val(g.slab()) as u64)
            .sum()
    }
}

impl Engine<Resident> {
    /// Creates a simulator with hardware-accurate LUT evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Lut`] if an off-chip LUT cannot be generated.
    pub fn new(model: CennModel) -> Result<Self, ModelError> {
        Self::with_eval(model, FuncEval::Lut)
    }

    /// Creates a simulator with the given function evaluation mode.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Lut`] if an off-chip LUT cannot be generated.
    pub fn with_eval(model: CennModel, eval: FuncEval) -> Result<Self, ModelError> {
        Ok(Self::from_core(Core::new(model, eval)?))
    }

    /// Starts `seed` in-core: allocates the whole-grid state and input
    /// slabs and quantizes the seed's fields into them. The engine keeps
    /// the seed's program, LUT hierarchy, evaluation mode, thread count,
    /// recorder and tracer.
    pub fn start(seed: Engine<Fields>) -> Self {
        let Engine {
            core,
            store: fields,
        } = seed;
        let mut sim = Self::from_core(core);
        let cols = sim.core.model.cols();
        let store = &mut sim.store;
        for (input, slab) in [(false, &mut store.states), (true, &mut store.inputs)] {
            for l in 0..slab.n_layers() {
                for (r, row) in slab.layer_mut(l).chunks_exact_mut(cols).enumerate() {
                    fields.quantize_row(input, l, r, row);
                }
            }
        }
        sim
    }

    /// The engine over `core` with zeroed whole-grid slabs.
    fn from_core(core: Core) -> Self {
        let m = &core.model;
        let (rows, cols, n) = (m.rows(), m.cols(), m.n_layers());
        let cfg = m.lut_config();
        let blank = SoaGrid::new(n, rows, cols, Q16_16::ZERO);
        let store = Resident {
            plan: TilePlan::new(rows, cols, cfg.pe_rows, cfg.pe_cols),
            states: blank.clone(),
            inputs: blank,
            window: None,
        };
        Self { core, store }
    }

    /// The grid's decomposition over the PE array and its LUT shards.
    pub fn tile_plan(&self) -> &TilePlan {
        &self.store.plan
    }

    /// Current state map of a layer (a zero-copy view into the state
    /// slab).
    pub fn state(&self, layer: LayerId) -> LayerView<'_, Q16_16> {
        self.store.states.layer(layer.index())
    }

    /// All layer states in declaration order (the slab the cycle-level
    /// trace simulator walks in hardware order).
    pub fn states(&self) -> &SoaGrid<Q16_16> {
        &self.store.states
    }

    /// The external-input slab (one layer span per model layer; zeros for
    /// layers without inputs). The spooled store reads this to seed its
    /// input chunk spool.
    pub fn inputs(&self) -> &SoaGrid<Q16_16> {
        &self.store.inputs
    }

    /// Current state map converted to `f64` (for error statistics).
    pub fn state_f64(&self, layer: LayerId) -> Grid<f64> {
        self.store.states.layer(layer.index()).map(|v| v.to_f64())
    }

    /// Overwrites a layer's state map.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] if the grid shape differs from
    /// the model's.
    pub fn set_state(&mut self, layer: LayerId, grid: Grid<Q16_16>) -> Result<(), ModelError> {
        self.slot(false, layer, &grid)?
            .copy_from_slice(grid.as_slice());
        Ok(())
    }

    /// Overwrites a layer's state from an `f64` grid (quantizing).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] on shape mismatch.
    pub fn set_state_f64(&mut self, layer: LayerId, grid: &Grid<f64>) -> Result<(), ModelError> {
        quantize_into(self.slot(false, layer, grid)?, grid);
        Ok(())
    }

    /// Overwrites a layer's external input map `u`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] on shape mismatch.
    pub fn set_input(&mut self, layer: LayerId, grid: Grid<Q16_16>) -> Result<(), ModelError> {
        self.slot(true, layer, &grid)?
            .copy_from_slice(grid.as_slice());
        Ok(())
    }

    /// Overwrites a layer's input from an `f64` grid (quantizing).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] on shape mismatch.
    pub fn set_input_f64(&mut self, layer: LayerId, grid: &Grid<f64>) -> Result<(), ModelError> {
        quantize_into(self.slot(true, layer, grid)?, grid);
        Ok(())
    }

    /// A layer's span of the state slab (or, with `input`, of the input
    /// slab), once `grid` is checked to match the model's shape.
    fn slot<T: Copy>(
        &mut self,
        input: bool,
        layer: LayerId,
        grid: &Grid<T>,
    ) -> Result<&mut [Q16_16], ModelError> {
        let model = &self.core.model;
        if grid.rows() != model.rows() || grid.cols() != model.cols() {
            return Err(ModelError::ShapeMismatch {
                expected: (model.rows(), model.cols()),
                got: (grid.rows(), grid.cols()),
            });
        }
        let slab = if input {
            &mut self.store.inputs
        } else {
            &mut self.store.states
        };
        Ok(slab.layer_mut(layer.index()))
    }

    /// Injects a soft error into an off-chip LUT entry (the
    /// fault-resilience hook; see
    /// [`cenn_lut::LutHierarchy::inject_fault`]). The entry's stored
    /// checksum is left stale, so [`scrub_luts`](Self::scrub_luts) will
    /// detect and repair the flip.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Fault`] if the function id, word or bit are
    /// out of range.
    pub fn inject_lut_fault(
        &mut self,
        func: cenn_lut::FuncId,
        idx: cenn_lut::SampleIdx,
        word: usize,
        bit: u32,
    ) -> Result<(), ModelError> {
        self.core
            .hierarchy
            .inject_fault(func, idx, word, bit)
            .map_err(ModelError::from)
    }

    /// Flips one bit of a state word — a datapath/SRAM upset.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Fault`] if the layer, cell or bit are out of
    /// range.
    pub fn inject_state_fault(
        &mut self,
        layer: usize,
        r: usize,
        c: usize,
        bit: u32,
    ) -> Result<(), ModelError> {
        let states = &mut self.store.states;
        if layer >= states.n_layers() {
            return Err(FaultError::Layer(layer).into());
        }
        let (rows, cols) = (states.rows(), states.cols());
        if r >= rows || c >= cols {
            return Err(FaultError::Cell { rows, cols, r, c }.into());
        }
        if bit >= 32 {
            return Err(FaultError::Bit(bit).into());
        }
        let v = states.get(layer, r, c);
        states.set(layer, r, c, Q16_16::from_bits(v.to_bits() ^ (1 << bit)));
        Ok(())
    }

    /// Flips one bit of a compiled template word — a retention upset in
    /// the off-chip program image — and re-bounds the layer. Words are
    /// addressed flat per layer: the non-zero taps of each compiled
    /// template in order, then the offset terms; `Const` words flip their
    /// value, `Dyn` words flip their scale.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Fault`] if the layer, word index or bit are
    /// out of range.
    pub fn inject_template_fault(
        &mut self,
        layer: usize,
        tap: usize,
        bit: u32,
    ) -> Result<(), ModelError> {
        if layer >= self.core.layers.len() {
            return Err(FaultError::Layer(layer).into());
        }
        if bit >= 32 {
            return Err(FaultError::Bit(bit).into());
        }
        let n_taps = self.template_fault_sites(layer);
        if tap >= n_taps {
            return Err(FaultError::Tap { layer, n_taps, tap }.into());
        }
        let sl = &mut self.core.layers[layer];
        // The leak is not a template word.
        let at = usize::from(sl.leak()) + tap;
        let v = match &mut sl.terms[at].weight {
            LaneWeight::Const(v) => v,
            LaneWeight::Dyn(site) => &mut sl.sites[*site].scale,
        };
        *v = Q16_16::from_bits(v.to_bits() ^ (1 << bit));
        sl.rebound(self.core.model.cols());
        Ok(())
    }

    /// Number of flat template-word fault sites a layer exposes (see
    /// [`inject_template_fault`](Self::inject_template_fault)); zero for
    /// an out-of-range layer.
    pub fn template_fault_sites(&self, layer: usize) -> usize {
        (self.core.layers.get(layer)).map_or(0, |l| l.terms.len() - usize::from(l.leak()))
    }

    /// Verifies every off-chip LUT entry against its stored checksum and
    /// regenerates corrupt entries through the compute-unit path,
    /// invalidating on-chip caches if anything was repaired (see
    /// [`cenn_lut::LutHierarchy::scrub`]).
    pub fn scrub_luts(&mut self) -> cenn_lut::ScrubReport {
        self.core.hierarchy.scrub(self.core.model.library())
    }

    /// Takes a bit-exact snapshot of the restorable state (grids + step
    /// and time counters). See [`SimSnapshot`] for what is excluded.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            steps: self.core.steps,
            time: self.core.time,
            run_cells: self.core.run_cells,
            states: self
                .store
                .states
                .iter()
                .map(|g| g.as_slice().iter().map(|v| v.to_bits()).collect())
                .collect(),
        }
    }

    /// Restores a snapshot taken from a sim of the same model shape:
    /// state grids, step counter, simulated time and the cumulative cell
    /// counter roll back; LUT caches, statistics, and wall-clock
    /// accounting are left as-is (replayed work is real work).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] if the snapshot's layer
    /// count or grid sizes do not match this model.
    pub fn restore(&mut self, snap: &SimSnapshot) -> Result<(), ModelError> {
        let states = &mut self.store.states;
        let cells = states.cells_per_layer();
        if snap.states.len() != states.n_layers() || snap.states.iter().any(|s| s.len() != cells) {
            return Err(ModelError::ShapeMismatch {
                expected: (states.n_layers(), cells),
                got: (snap.states.len(), snap.states.first().map_or(0, Vec::len)),
            });
        }
        for (i, bits) in snap.states.iter().enumerate() {
            for (slot, &b) in states.layer_mut(i).iter_mut().zip(bits) {
                *slot = Q16_16::from_bits(b);
            }
        }
        self.core.steps = snap.steps;
        self.core.time = snap.time;
        self.core.run_cells = snap.run_cells;
        Ok(())
    }

    /// Advances one time step (Euler or Heun, per the model's
    /// [`Integrator`]), returning the post-step report. Per-sweep timing
    /// and LUT-traffic deltas land in [`step_stats`](Self::step_stats).
    pub fn step(&mut self) -> StepReport {
        let Ok(report) = self.step_once();
        report
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: u64) -> StepReport {
        let Ok(report) = self.run_steps(n);
        report
    }
}

/// Quantizes an `f64` grid into a layer span.
fn quantize_into(dest: &mut [Q16_16], grid: &Grid<f64>) {
    for (slot, &v) in dest.iter_mut().zip(grid.as_slice()) {
        *slot = Q16_16::from_f64(v);
    }
}

/// Spans a ring takes per sweep: `lut_lookup` as a shard,
/// `template_apply` and an algebraic sweep's write-back `halo_sync` as a
/// band.
const SPANS_PER_SWEEP: usize = 3;

/// Records `phase` from `t0` to now on `track` and returns the span's
/// end, where the next span of a serial loop starts. No-op (and `None`)
/// when untraced.
#[inline]
fn push_span(
    ring: &mut SpanRing,
    phase: Phase,
    track: usize,
    t0: Option<Instant>,
    epoch: Option<Instant>,
) -> Option<Instant> {
    let (Some(t0), Some(epoch)) = (t0, epoch) else {
        return None;
    };
    let end = Instant::now();
    ring.push(Span {
        phase,
        track: track as u32,
        start_nanos: t0.saturating_duration_since(epoch).as_nanos() as u64,
        dur_nanos: end.saturating_duration_since(t0).as_nanos() as u64,
    });
    Some(end)
}

/// Compiles every layer of the model into its sweep form: its terms in
/// `MacAcc` order (the leak, the non-zero entries of its state, output and
/// input templates in that order, then its offsets), with each dynamic
/// weight's factors, and their LUT contexts for the tag replay, hoisted.
fn compile(model: &CennModel) -> Vec<SweepLayer> {
    let cfg = model.lut_config();
    model
        .layer_ids()
        .map(|dest| {
            let kind = model.layer(dest).kind();
            let mut sites = Vec::new();
            let mut weight = |w: &WeightExpr| match w {
                WeightExpr::Const(v) => LaneWeight::Const(*v),
                WeightExpr::Dyn { scale, factors } => {
                    let factors = (factors.iter())
                        .map(|f| LaneFactor {
                            layer: f.layer.index(),
                            func: f.func,
                        })
                        .collect();
                    sites.push(SiteGeom {
                        scale: *scale,
                        factors,
                    });
                    LaneWeight::Dyn(sites.len() - 1)
                }
            };
            let mut terms = Vec::new();
            if kind == LayerKind::Dynamic {
                let boundary = model.layer(dest).boundary();
                terms.push(Term {
                    operand: Operand::Tap(SweepTap {
                        src: dest.index(),
                        input: false,
                        output: false,
                        boundary,
                        dr: 0,
                        dc: 0,
                        const_val: Q16_16::from_f64(boundary.constant()),
                    }),
                    weight: LaneWeight::Const(Q16_16::NEG_ONE),
                });
            }
            for template in [
                TemplateKind::State,
                TemplateKind::Output,
                TemplateKind::Input,
            ] {
                for (src, t) in model.templates(template, dest) {
                    let boundary = model.layer(src).boundary();
                    let output = template == TemplateKind::Output;
                    let edge = Q16_16::from_f64(boundary.constant());
                    for (dr, dc, w) in t.iter().filter(|(_, _, w)| !w.is_zero()) {
                        terms.push(Term {
                            operand: Operand::Tap(SweepTap {
                                src: src.index(),
                                input: template == TemplateKind::Input,
                                output,
                                boundary,
                                dr,
                                dc,
                                const_val: if output { edge.cenn_output() } else { edge },
                            }),
                            weight: weight(w),
                        });
                    }
                }
            }
            terms.extend(model.offsets(dest).map(|w| Term {
                operand: Operand::One,
                weight: weight(w),
            }));
            let regular = regular_rows(&terms, model.rows());
            let interior = interior_columns(&terms, model.cols());
            let factors = || sites.iter().flat_map(|s: &SiteGeom| &s.factors);
            let ctxs = factors()
                .map(|f| RowCtx::from_spec(f.func, cfg.spec_for(f.func)))
                .collect();
            let factor_layers = factors().map(|f| f.layer).collect();
            let mut layer = SweepLayer {
                kind,
                terms,
                regular,
                interior,
                plan: Vec::new(),
                sites,
                ctxs,
                factor_layers,
                unsaturated: false,
            };
            layer.rebound(model.cols());
            layer
        })
        .collect()
}

/// The rows `[top, bottom)` of a `rows`-high grid where every tap's
/// source row resolves onto the grid.
fn regular_rows(terms: &[Term], rows: usize) -> (usize, usize) {
    let past_edge = |r: usize| {
        terms.iter().any(|t| match t.operand {
            Operand::Tap(tap) => tap.boundary.resolve(rows, 1, r, 0, tap.dr, 0).is_none(),
            Operand::One => false,
        })
    };
    let top = (0..rows).take_while(|&r| past_edge(r)).count();
    let bottom = rows - (top..rows).rev().take_while(|&r| past_edge(r)).count();
    (top, bottom)
}

/// A layer's interior columns `[lo, hi)` of a `cols`-wide row: those
/// whose every tap read stays on the grid.
fn interior_columns(terms: &[Term], cols: usize) -> (usize, usize) {
    let taps = || {
        terms.iter().filter_map(|t| match t.operand {
            Operand::Tap(tap) => Some(tap),
            Operand::One => None,
        })
    };
    let left = taps().map(|t| (-t.dc).max(0) as usize).max().unwrap_or(0);
    let right = taps().map(|t| t.dc.max(0) as usize).max().unwrap_or(0);
    let lo = left.min(cols);
    (lo, cols.saturating_sub(right).max(lo))
}

/// Whether a layer's accumulator provably never reaches the i64 rails,
/// so the unsaturated kernels give the saturating kernels' bits in any
/// term order. The magnitudes its terms can add are bounded from the
/// weights alone: a tap `|w|·2³¹` (the leak's `2¹⁶·2³¹`; a dynamic weight
/// counts as 2³¹), an offset `|v|·2¹⁶`. Every partial sum of any subset
/// is at most their sum, so a sum below 2⁶³ keeps every add exact.
fn exact_without_saturation(terms: &[Term]) -> bool {
    const WORD: u128 = 1 << 31;
    let magnitude = |t: &Term| {
        let w = match t.weight {
            LaneWeight::Const(v) => u128::from(v.to_bits().unsigned_abs()),
            LaneWeight::Dyn(_) => WORD,
        };
        w * match t.operand {
            Operand::Tap(_) => WORD,
            Operand::One => 1 << 16,
        }
    };
    terms.iter().map(magnitude).sum::<u128>() < 1 << 63
}

/// Shard `shard`'s LUT accesses of the sweep over the window, for their
/// counters: for each swept layer with dynamic weight sites in turn, the
/// shard's rows of the window (`rows`, ascending, each with its columns
/// and PE ids from the row pattern), one [`LutShard::replay`] per row
/// whose lanes are the shard's cells of the row and whose functions are
/// the layer's factors in site order, each reading its layer's state row
/// in place. That is the scalar sweep's access order (cells outer,
/// flattened factors inner), so every per-PE counter matches it bit for
/// bit.
fn lut_replay<'p>(
    shard: &mut LutShard,
    src: &RowSrc<'_>,
    rows: impl Iterator<Item = (usize, &'p [u32], &'p [u32])> + Clone,
    sweep: impl Iterator<Item = &'p SweepLayer>,
) {
    let (slab, stride, width) = (src.states.slab(), src.states.cells_per_layer(), src.shape.1);
    for sl in sweep.filter(|sl| !sl.sites.is_empty()) {
        for (r, cols, pes) in rows.clone() {
            let at = src.row_map[r] as usize * width;
            let row = |k: usize| &slab[sl.factor_layers[k] * stride + at..][..width];
            shard.replay(src.tables, &sl.ctxs, pes, cols, row);
        }
    }
}

/// What the template pass reads, shared by every band.
struct RowSrc<'a> {
    states: &'a SoaGrid<Q16_16>,
    inputs: &'a SoaGrid<Q16_16>,
    /// Global row → row of `states` / `inputs`.
    row_map: &'a [u32],
    /// Grid `(rows, cols)`.
    shape: (usize, usize),
    /// The off-chip tables the site weights' factors read.
    tables: &'a [OffChipLut],
    lib: &'a FuncLibrary,
    eval: FuncEval,
}

impl<'a> RowSrc<'a> {
    /// Global row `r` of layer `layer` of the states, or with `input` of
    /// the inputs.
    fn row(&self, input: bool, layer: usize, r: usize) -> &'a [Q16_16] {
        let slab = if input { self.inputs } else { self.states };
        let cols = self.shape.1;
        &slab.layer_slice(layer)[self.row_map[r] as usize * cols..][..cols]
    }

    /// Row `r`'s weights of each of the layer's dynamic weight sites, one
    /// lane per site in `lanes`: its scale times each factor's value in
    /// order — the TUM's ([`OffChipLut::value`]) or, under
    /// [`FuncEval::Exact`], the `f64` library's, quantized.
    fn site_lanes(&self, sl: &SweepLayer, r: usize, lanes: &mut [Q16_16]) {
        for (site, lane) in sl.sites.iter().zip(lanes.chunks_exact_mut(self.shape.1)) {
            lane.fill(site.scale);
            for f in &site.factors {
                let xs = self.row(false, f.layer, r);
                match self.eval {
                    FuncEval::Lut => times_values(lane, xs, &self.tables[f.func.0 as usize]),
                    FuncEval::Exact => {
                        let func = self.lib.get(f.func);
                        for (w, &x) in lane.iter_mut().zip(xs) {
                            *w *= Q16_16::from_f64(func.value(x.to_f64()));
                        }
                    }
                }
            }
        }
    }
}

/// Multiplies each weight of `lane` by `table`'s value at the state of
/// its column. Out of line, so that the table is a parameter and the loop
/// reads its add proof once, not per column.
#[inline(never)]
fn times_values(lane: &mut [Q16_16], xs: &[Q16_16], table: &OffChipLut) {
    for (w, &x) in lane.iter_mut().zip(xs) {
        *w *= table.value(x);
    }
}

/// Plans a layer's regular rows as column passes over the interior:
/// terms in groups of up to [`GROUP`] per pass, constant-weight and
/// lane-weight terms apart, and the terms of one pass reading at most one
/// output tap's source row (the band stages one). An unsaturated layer
/// regroups freely — every partial sum is exact in any order — so its
/// constant offsets sum into the last pass's constant and its terms on
/// one lane merge (the leak and a centre tap become one). A saturating
/// layer keeps `MacAcc` order: a change of weight kind ends a pass, and a
/// constant offset leads the pass after it. Each pass also maps its
/// terms' reads at the `edges` of a `cols`-wide row.
fn plan(
    terms: &[Term],
    unsaturated: bool,
    edges: impl Iterator<Item = usize> + Clone,
    cols: usize,
) -> Vec<Pass> {
    let mut p = Planner {
        ordered: !unsaturated,
        plan: Vec::new(),
        words: Pass::default(),
        lanes: Pass::default(),
        k: 0,
        stage: None,
    };
    for term in terms {
        let tap = match (term.operand, term.weight) {
            (Operand::One, LaneWeight::Const(v)) => {
                p.constant(i64::from(v.to_bits()) << 16);
                continue;
            }
            (Operand::One, LaneWeight::Dyn(s)) => {
                p.word(PlanOp::Site(s), 1 << 16);
                continue;
            }
            (Operand::Tap(tap), _) => tap,
        };
        let slot = tap.output.then_some((tap.src, tap.dr));
        if slot.is_some() && p.stage.is_some() && p.stage != slot {
            p.end();
        }
        match term.weight {
            LaneWeight::Const(w) => p.word(PlanOp::Tap(tap), i64::from(w.to_bits())),
            LaneWeight::Dyn(s) => p.lane(PlanOp::Tap(tap), s),
        }
        p.stage = p.stage.or(slot);
    }
    let mut plan = p.finish();
    for pass in &mut plan {
        pass.edge_src = (pass.ops.iter())
            .flat_map(|op| {
                edges.clone().map(move |c| match op {
                    PlanOp::Tap(tap) => (tap.boundary.resolve(1, cols, 0, c, 0, tap.dc))
                        .map_or(u32::MAX, |(_, nc)| nc as u32),
                    PlanOp::Site(_) => c as u32,
                })
            })
            .collect();
    }
    plan
}

/// The state of [`plan`]: the passes so far, and the two pending ones.
struct Planner {
    ordered: bool,
    plan: Vec<Pass>,
    words: Pass,
    lanes: Pass,
    /// Constants no pass holds yet: in order, the next pass's leading
    /// term; otherwise their sum, which the last pass adds.
    k: i64,
    /// The output source row the pending terms read.
    stage: Option<(usize, i32)>,
}

impl Planner {
    /// Closes the pending lane-weight (or constant-weight) pass.
    fn emit(&mut self, lanes: bool, last: bool) {
        let pending = if lanes {
            &mut self.lanes
        } else {
            &mut self.words
        };
        let mut pass = std::mem::take(pending);
        if self.ordered || last {
            pass.k = std::mem::take(&mut self.k);
        }
        pass.stage = pass.ops.iter().find_map(|op| match op {
            PlanOp::Tap(tap) if tap.output => Some(*tap),
            _ => None,
        });
        self.plan.push(pass);
        if self.words.ops.is_empty() && self.lanes.ops.is_empty() {
            self.stage = None;
        }
    }

    /// Closes every pending pass — in order, also a pending constant.
    fn end(&mut self) {
        if !self.words.ops.is_empty() || (self.ordered && self.lanes.ops.is_empty() && self.k != 0)
        {
            self.emit(false, false);
        }
        if !self.lanes.ops.is_empty() {
            self.emit(true, false);
        }
    }

    fn constant(&mut self, v: i64) {
        if self.ordered {
            self.end();
        }
        self.k += v;
    }

    fn word(&mut self, op: PlanOp, w: i64) {
        if self.ordered && !self.lanes.ops.is_empty() {
            self.emit(true, false);
        }
        let same = self.words.ops.iter().position(|&o| o == op);
        if let (false, Some(j)) = (self.ordered, same) {
            self.words.words[j] += w;
            // A leak and a centre tap of 1.0 cancel: the term adds nothing.
            if self.words.words[j] == 0 {
                self.words.ops.remove(j);
                self.words.words.remove(j);
            }
            return;
        }
        if self.words.ops.len() == GROUP {
            self.emit(false, false);
        }
        self.words.ops.push(op);
        self.words.words.push(w);
    }

    fn lane(&mut self, op: PlanOp, site: usize) {
        if self.ordered && !self.words.ops.is_empty() {
            self.emit(false, false);
        }
        if self.lanes.ops.len() == GROUP {
            self.emit(true, false);
        }
        self.lanes.ops.push(op);
        self.lanes.sites.push(site);
    }

    /// The plan: the pending passes closed, the last one rounding.
    fn finish(mut self) -> Vec<Pass> {
        if !self.words.ops.is_empty() && !self.lanes.ops.is_empty() {
            self.emit(false, false);
        }
        let lanes = !self.lanes.ops.is_empty();
        self.emit(lanes, true);
        self.plan
    }
}

/// The template pass over output row `r` of one swept layer. The row's
/// site lanes come first ([`RowSrc::site_lanes`]). A regular row then
/// runs the layer's [`plan`]: each pass resolves its terms' source
/// rows through the boundary once, and one [`lanes::mac_terms`] call
/// applies them over the interior columns, the last one rounding
/// straight into `out`; the few edge columns take the same terms one by
/// one through the pass's column map, and round once. An output tap reads
/// its source row clamped into the band's stage row. A row some tap reads
/// past a constant boundary goes [`term_by_term`].
fn layer_row<A: Accumulate>(
    src: &RowSrc<'_>,
    sl: &SweepLayer,
    r: usize,
    out: &mut [Q16_16],
    buf: &mut BandBuf,
) {
    let (rows, cols) = src.shape;
    let (accs, stage) = (&mut buf.accs[..cols], &mut buf.ops[..cols]);
    let sites = &mut buf.sites[..sl.sites.len() * cols];
    if !sl.sites.is_empty() {
        src.site_lanes(sl, r, sites);
    }
    let site = |s: usize| &sites[s * cols..][..cols];
    if !(sl.regular.0..sl.regular.1).contains(&r) {
        term_by_term::<A>(src, sl, r, site, accs);
        lanes::resolve_lanes(accs, out);
        return;
    }
    let (lo, hi) = sl.interior;
    let source = |tap: &SweepTap| {
        let (sr, _) = (tap.boundary.resolve(rows, cols, r, 0, tap.dr, 0))
            .expect("a regular row reads rows on the grid");
        (tap.src, sr)
    };
    let mut staged = None;
    for (i, pass) in sl.plan.iter().enumerate() {
        if let Some(tap) = &pass.stage {
            let row = source(tap);
            if staged != Some(row) {
                for (s, v) in stage.iter_mut().zip(src.row(false, row.0, row.1)) {
                    *s = v.cenn_output();
                }
                staged = Some(row);
            }
        }
        // Each term's whole lane — a source row (staged if clamped) or a
        // site lane — and its interior columns.
        let n = pass.ops.len();
        let mut rows: [&[Q16_16]; GROUP] = [&[]; GROUP];
        let mut ops: [&[Q16_16]; GROUP] = [&[]; GROUP];
        for (j, op) in pass.ops.iter().enumerate() {
            let (row, dc) = match op {
                PlanOp::Tap(tap) if tap.output => (&stage[..], tap.dc),
                PlanOp::Tap(tap) => {
                    let (l, sr) = source(tap);
                    (src.row(tap.input, l, sr), tap.dc)
                }
                PlanOp::Site(s) => (site(*s), 0),
            };
            rows[j] = row;
            if lo < hi {
                ops[j] = &row[lo.wrapping_add_signed(dc as isize)..][..hi - lo];
            }
        }
        let start = if i == 0 { Start::Zero } else { Start::Accs };
        if lo < hi {
            let out = (i + 1 == sl.plan.len()).then(|| &mut out[lo..hi]);
            let accs = &mut accs[lo..hi];
            if pass.sites.is_empty() {
                lanes::mac_terms::<A, i64, 16>(accs, start, pass.k, &ops[..n], &pass.words, out);
            } else {
                let mut ws: [&[Q16_16]; GROUP] = [&[]; GROUP];
                for (w, &s) in ws.iter_mut().zip(&pass.sites) {
                    *w = &site(s)[lo..hi];
                }
                lanes::mac_terms::<A, &[Q16_16], 16>(accs, start, pass.k, &ops[..n], &ws[..n], out);
            }
        }
        // The same terms at the edge columns, in the same order.
        let n_edges = cols - (hi - lo);
        for (e, c) in sl.edges(cols).enumerate() {
            let mut sum = A::add(if i == 0 { 0 } else { accs[c] }, pass.k);
            for (j, op) in pass.ops.iter().enumerate() {
                let past_edge = match op {
                    PlanOp::Tap(tap) => tap.const_val,
                    PlanOp::Site(_) => Q16_16::ZERO,
                };
                let x = rows[j].get(pass.edge_src[j * n_edges + e] as usize);
                let w = match pass.sites.get(j) {
                    Some(&s) => i64::from(site(s)[c].to_bits()),
                    None => pass.words[j],
                };
                sum = A::add(sum, w * i64::from(x.unwrap_or(&past_edge).to_bits()));
            }
            accs[c] = sum;
        }
    }
    lanes::resolve_lanes(&accs[..lo], &mut out[..lo]);
    lanes::resolve_lanes(&accs[hi..], &mut out[hi..]);
}

/// Output row `r` as the scalar `MacAcc` sequence, column by column: term
/// after term in order, each read resolved through the boundary, the sums
/// left in `accs` — the rows some tap reads past a constant boundary.
/// `site(s)` is the row's lane of site `s`.
fn term_by_term<'s, A: Accumulate>(
    src: &RowSrc<'_>,
    sl: &SweepLayer,
    r: usize,
    site: impl Fn(usize) -> &'s [Q16_16],
    accs: &mut [i64],
) {
    let (rows, cols) = src.shape;
    accs.fill(0);
    for term in &sl.terms {
        let weight = |c: usize| match term.weight {
            LaneWeight::Const(w) => i64::from(w.to_bits()),
            LaneWeight::Dyn(s) => i64::from(site(s)[c].to_bits()),
        };
        for (c, acc) in accs.iter_mut().enumerate() {
            let x = match term.operand {
                Operand::One => Q16_16::ONE,
                Operand::Tap(tap) => match tap.boundary.resolve(rows, cols, r, c, tap.dr, tap.dc) {
                    Some((nr, nc)) if tap.output => {
                        src.row(tap.input, tap.src, nr)[nc].cenn_output()
                    }
                    Some((nr, nc)) => src.row(tap.input, tap.src, nr)[nc],
                    None => tap.const_val,
                },
            };
            *acc = A::add(*acc, weight(c) * i64::from(x.to_bits()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping;
    use crate::model::CennModelBuilder;
    use crate::template::WeightExpr;

    fn heat_sim(rows: usize, cols: usize, kappa: f64, dt: f64) -> (CennSim, LayerId) {
        let mut b = CennModelBuilder::new(rows, cols);
        let u = b.dynamic_layer("u", Boundary::ZeroFlux);
        b.state_template(u, u, mapping::heat_template(kappa, 1.0));
        let sim = CennSim::new(b.build(dt).unwrap()).unwrap();
        (sim, u)
    }

    #[test]
    fn heat_peak_decays_and_spreads() {
        let (mut sim, u) = heat_sim(9, 9, 1.0, 0.1);
        let mut init = Grid::new(9, 9, Q16_16::ZERO);
        init.set(4, 4, Q16_16::from_f64(8.0));
        sim.set_state(u, init).unwrap();
        sim.run(20);
        let s = sim.state_f64(u);
        assert!(s.get(4, 4) < 8.0);
        assert!(s.get(4, 4) > s.get(0, 0), "peak remains the maximum");
        assert!(s.get(4, 5) > 0.0, "heat reached the neighbours");
    }

    #[test]
    fn heat_conserves_mass_under_zero_flux() {
        let (mut sim, u) = heat_sim(8, 8, 0.5, 0.1);
        let mut init = Grid::new(8, 8, Q16_16::ZERO);
        init.set(3, 3, Q16_16::from_f64(4.0));
        sim.set_state(u, init).unwrap();
        let total_before: f64 = sim.state_f64(u).as_slice().iter().sum();
        sim.run(50);
        let total_after: f64 = sim.state_f64(u).as_slice().iter().sum();
        assert!(
            (total_before - total_after).abs() < 0.05,
            "mass drifted: {total_before} -> {total_after}"
        );
    }

    #[test]
    fn uniform_state_is_heat_fixed_point() {
        let (mut sim, u) = heat_sim(6, 6, 1.0, 0.05);
        sim.set_state(u, Grid::new(6, 6, Q16_16::from_f64(2.0)))
            .unwrap();
        sim.run(30);
        let s = sim.state_f64(u);
        for &v in s.as_slice() {
            assert!((v - 2.0).abs() < 1e-3, "uniform state drifted to {v}");
        }
    }

    #[test]
    fn logistic_growth_via_dynamic_offset() {
        // du/dt = u(1-u) = u - u^2 on a single cell:
        // state template centre 1 (+1 leak cancel -> 2), offset -square(u).
        let mut b = CennModelBuilder::new(1, 1);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let sq = b.register_func(cenn_lut::funcs::square());
        b.state_template(u, u, mapping::center(1.0).into_state_template());
        b.offset_expr(
            u,
            WeightExpr::product(-1.0, vec![crate::template::Factor { func: sq, layer: u }]),
        );
        let model = b.build(0.05).unwrap();
        for eval in [FuncEval::Exact, FuncEval::Lut] {
            let mut sim = CennSim::with_eval(model.clone(), eval).unwrap();
            sim.set_state_f64(u, &Grid::new(1, 1, 0.1)).unwrap();
            sim.run(400);
            let v = sim.state_f64(u).get(0, 0);
            assert!((v - 1.0).abs() < 0.05, "{eval:?}: logistic -> {v}");
        }
    }

    #[test]
    fn algebraic_layer_tracks_source() {
        // w = 2*u as an algebraic layer.
        let mut b = CennModelBuilder::new(4, 4);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let w = b.algebraic_layer("w", Boundary::Zero);
        b.state_template(w, u, mapping::center(2.0).into_template());
        let model = b.build(0.1).unwrap();
        let mut sim = CennSim::new(model).unwrap();
        sim.set_state_f64(u, &Grid::new(4, 4, 1.5)).unwrap();
        sim.step();
        let wv = sim.state_f64(w);
        // u has no templates: decays by the leak. w = 2 * u(old) = 3.
        assert!((wv.get(2, 2) - 3.0).abs() < 1e-3, "w = {}", wv.get(2, 2));
    }

    #[test]
    fn leak_only_layer_decays_exponentially() {
        // No templates at all: dx/dt = -x.
        let mut b = CennModelBuilder::new(2, 2);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let model = b.build(0.1).unwrap();
        let mut sim = CennSim::new(model).unwrap();
        sim.set_state_f64(u, &Grid::new(2, 2, 1.0)).unwrap();
        sim.run(10);
        let v = sim.state_f64(u).get(0, 0);
        // (1 - 0.1)^10 = 0.3487
        assert!((v - 0.9f64.powi(10)).abs() < 1e-3, "decay -> {v}");
    }

    #[test]
    fn input_template_feeds_external_map() {
        // dx/dt = -x + 1*u with u = 3: steady state x = 3.
        let mut b = CennModelBuilder::new(3, 3);
        let u = b.dynamic_layer("x", Boundary::Zero);
        b.input_template(u, u, mapping::center(1.0).into_template());
        let model = b.build(0.1).unwrap();
        let mut sim = CennSim::new(model).unwrap();
        sim.set_input_f64(u, &Grid::new(3, 3, 3.0)).unwrap();
        sim.run(200);
        let v = sim.state_f64(u).get(1, 1);
        assert!((v - 3.0).abs() < 1e-2, "steady state {v}");
    }

    #[test]
    fn output_template_clamps_source() {
        // dx/dt = -x + 1*y(src) with src state 5 -> y = 1, steady x = 1.
        let mut b = CennModelBuilder::new(2, 2);
        let x = b.dynamic_layer("x", Boundary::Zero);
        let s = b.dynamic_layer("s", Boundary::Zero);
        // Keep s pinned via its own identity template (ds/dt = -s + s = 0).
        b.state_template(s, s, mapping::center(0.0).into_state_template());
        b.output_template(x, s, mapping::center(1.0).into_template());
        let model = b.build(0.1).unwrap();
        let mut sim = CennSim::new(model).unwrap();
        sim.set_state_f64(s, &Grid::new(2, 2, 5.0)).unwrap();
        sim.run(200);
        let v = sim.state_f64(x).get(0, 0);
        assert!((v - 1.0).abs() < 1e-2, "clamped steady state {v}");
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let (mut sim, u) = heat_sim(4, 4, 1.0, 0.1);
        let bad = Grid::new(5, 4, Q16_16::ZERO);
        assert!(matches!(
            sim.set_state(u, bad),
            Err(ModelError::ShapeMismatch { .. })
        ));
        let bad = Grid::new(4, 5, 0.0);
        assert!(sim.set_state_f64(u, &bad).is_err());
        assert!(sim.set_input_f64(u, &bad).is_err());
    }

    #[test]
    fn lut_stats_accumulate_only_with_dynamic_weights() {
        let (mut sim, u) = heat_sim(4, 4, 1.0, 0.1);
        sim.set_state_f64(u, &Grid::new(4, 4, 1.0)).unwrap();
        sim.run(5);
        assert_eq!(sim.lut_stats().accesses, 0, "linear model never looks up");

        let mut b = CennModelBuilder::new(4, 4);
        let x = b.dynamic_layer("x", Boundary::Zero);
        let sq = b.register_func(cenn_lut::funcs::square());
        b.offset_expr(x, WeightExpr::dynamic(0.01, sq, x));
        let model = b.build(0.01).unwrap();
        let mut sim = CennSim::new(model).unwrap();
        sim.run(3);
        assert_eq!(
            sim.lut_stats().accesses,
            3 * 16,
            "one lookup per cell per step"
        );
        sim.reset_lut_stats();
        assert_eq!(sim.lut_stats().accesses, 0);
    }

    #[test]
    fn a_table_q16_16_cannot_hold_fails_the_build() {
        // exp over -16..16: every word of e^11 and up is past the range.
        let mut b = CennModelBuilder::new(4, 4);
        let x = b.dynamic_layer("x", Boundary::Zero);
        let exp = b.register_func(cenn_lut::funcs::exp());
        b.offset_expr(x, WeightExpr::dynamic(0.01, exp, x));
        let mut cfg = crate::LutConfig::default();
        let spec = cenn_lut::LutSpec::unit_spacing(-16, 16);
        cfg.per_func_specs.push((exp, spec));
        b.lut_config(cfg);
        let err = CennSim::new(b.build(0.01).unwrap()).unwrap_err();
        let unrepresentable = cenn_lut::LutBuildError::Unrepresentable { idx: 11 };
        assert_eq!(err, ModelError::Lut(unrepresentable));
        assert!(err.to_string().contains("sample index 11"), "{err}");
    }

    #[test]
    fn exact_and_lut_modes_agree_on_sample_points() {
        // States held exactly on integer sample points use the stored l(p):
        // both modes agree to quantization.
        let mut b = CennModelBuilder::new(2, 2);
        let x = b.dynamic_layer("x", Boundary::Zero);
        let sq = b.register_func(cenn_lut::funcs::square());
        b.offset_expr(x, WeightExpr::dynamic(1.0, sq, x));
        b.state_template(x, x, mapping::center(0.0).into_state_template());
        let model = b.build(0.125).unwrap();
        let mut a = CennSim::with_eval(model.clone(), FuncEval::Lut).unwrap();
        let mut e = CennSim::with_eval(model, FuncEval::Exact).unwrap();
        for s in [&mut a, &mut e] {
            s.set_state_f64(x, &Grid::new(2, 2, 3.0)).unwrap();
            s.step();
        }
        assert_eq!(a.state(x).get(0, 0), e.state(x).get(0, 0));
    }

    #[test]
    fn heun_beats_euler_on_the_logistic_equation() {
        // du/dt = u(1-u) has the closed form
        // u(t) = 1 / (1 + (1/u0 - 1) e^{-t}).
        let build = |integrator| {
            let mut b = CennModelBuilder::new(1, 1);
            let u = b.dynamic_layer("u", Boundary::Zero);
            let sq = b.register_func(cenn_lut::funcs::square());
            b.state_template(u, u, mapping::center(1.0).into_state_template());
            b.offset_expr(
                u,
                WeightExpr::product(-1.0, vec![crate::template::Factor { func: sq, layer: u }]),
            );
            b.integrator(integrator);
            (b.build(0.25).unwrap(), u)
        };
        let u0 = 0.125f64;
        let t_end = 5.0f64;
        let exact = 1.0 / (1.0 + (1.0 / u0 - 1.0) * (-t_end).exp());
        let run = |integrator| {
            let (model, u) = build(integrator);
            let mut sim = CennSim::with_eval(model, FuncEval::Exact).unwrap();
            sim.set_state_f64(u, &Grid::new(1, 1, u0)).unwrap();
            sim.run(20); // t = 5.0
            sim.state_f64(u).get(0, 0)
        };
        let e_euler = (run(crate::Integrator::Euler) - exact).abs();
        let e_heun = (run(crate::Integrator::Heun) - exact).abs();
        assert!(
            e_heun < e_euler / 4.0,
            "heun {e_heun} should beat euler {e_euler} by the order gap"
        );
    }

    #[test]
    fn heun_doubles_lut_traffic() {
        let build = |integrator| {
            let mut b = CennModelBuilder::new(4, 4);
            let x = b.dynamic_layer("x", Boundary::Zero);
            let sq = b.register_func(cenn_lut::funcs::square());
            b.offset_expr(x, WeightExpr::dynamic(0.01, sq, x));
            b.integrator(integrator);
            b.build(0.01).unwrap()
        };
        let mut euler = CennSim::new(build(crate::Integrator::Euler)).unwrap();
        let mut heun = CennSim::new(build(crate::Integrator::Heun)).unwrap();
        euler.run(3);
        heun.run(3);
        assert_eq!(heun.lut_stats().accesses, 2 * euler.lut_stats().accesses);
    }

    #[test]
    fn lut_fault_injection_perturbs_but_saturates() {
        // du/dt = u - u^2 with a corrupted square LUT: a high-bit fault in
        // the visited entry shifts the trajectory; states stay inside the
        // saturating-format bounds.
        let build = || {
            let mut b = CennModelBuilder::new(2, 2);
            let u = b.dynamic_layer("u", Boundary::Zero);
            let sq = b.register_func(cenn_lut::funcs::square());
            b.state_template(u, u, mapping::center(1.0).into_state_template());
            b.offset_expr(
                u,
                WeightExpr::product(-1.0, vec![crate::template::Factor { func: sq, layer: u }]),
            );
            (b.build(0.05).unwrap(), u)
        };
        let run = |fault: bool| {
            let (model, u) = build();
            let mut sim = CennSim::new(model).unwrap();
            sim.set_state_f64(u, &Grid::new(2, 2, 0.5)).unwrap();
            if fault {
                // Corrupt l(p) at p = 0 (the visited entry) in a high bit.
                sim.inject_lut_fault(cenn_lut::FuncId(0), cenn_lut::SampleIdx(0), 0, 20)
                    .unwrap();
            }
            sim.run(100);
            sim.state_f64(u).get(0, 0)
        };
        let clean = run(false);
        let faulty = run(true);
        assert!((clean - 1.0).abs() < 0.05, "clean logistic -> {clean}");
        assert!(faulty != clean, "fault must be visible");
        assert!(faulty.abs() <= 32768.0, "saturating bound holds: {faulty}");
    }

    fn logistic_sim() -> (CennSim, LayerId) {
        let mut b = CennModelBuilder::new(4, 4);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let sq = b.register_func(cenn_lut::funcs::square());
        b.state_template(u, u, mapping::center(1.0).into_state_template());
        b.offset_expr(
            u,
            WeightExpr::product(-1.0, vec![crate::template::Factor { func: sq, layer: u }]),
        );
        let mut sim = CennSim::new(b.build(0.05).unwrap()).unwrap();
        sim.set_state_f64(u, &Grid::from_fn(4, 4, |r, c| 0.1 + 0.02 * (r + c) as f64))
            .unwrap();
        (sim, u)
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        let (mut sim, _) = logistic_sim();
        sim.run(10);
        let snap = sim.snapshot();
        sim.run(15);
        let final_states: Vec<Vec<i32>> = sim
            .states()
            .iter()
            .map(|g| g.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        sim.restore(&snap).unwrap();
        assert_eq!(sim.steps(), 10);
        sim.run(15);
        assert_eq!(sim.steps(), 25);
        let replayed: Vec<Vec<i32>> = sim
            .states()
            .iter()
            .map(|g| g.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        assert_eq!(replayed, final_states, "replay diverged from original run");
    }

    #[test]
    fn restore_rejects_foreign_snapshot() {
        let (mut sim, _) = logistic_sim();
        let mut snap = sim.snapshot();
        snap.states[0].pop();
        assert!(matches!(
            sim.restore(&snap),
            Err(ModelError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn scrub_detects_and_repairs_injected_lut_fault() {
        let (mut sim, _) = logistic_sim();
        assert_eq!(sim.scrub_luts().repaired, 0, "clean table scrubs clean");
        sim.inject_lut_fault(cenn_lut::FuncId(0), cenn_lut::SampleIdx(0), 1, 12)
            .unwrap();
        let r = sim.scrub_luts();
        assert_eq!(r.repaired, 1);
        assert_eq!(sim.scrub_luts().repaired, 0);
    }

    #[test]
    fn fault_surfaces_reject_bad_targets() {
        let (mut sim, _) = logistic_sim();
        assert!(sim
            .inject_lut_fault(cenn_lut::FuncId(7), cenn_lut::SampleIdx(0), 0, 0)
            .is_err());
        assert!(sim.inject_state_fault(9, 0, 0, 0).is_err());
        assert!(sim.inject_state_fault(0, 9, 0, 0).is_err());
        assert!(sim.inject_state_fault(0, 0, 0, 40).is_err());
        assert!(sim.inject_template_fault(9, 0, 0).is_err());
        let sites = sim.template_fault_sites(0);
        assert_eq!(sites, 2, "one state tap + one offset word");
        assert!(sim.inject_template_fault(0, sites, 0).is_err());
    }

    #[test]
    fn state_and_template_faults_perturb_the_trajectory() {
        let run = |mutate: &dyn Fn(&mut CennSim)| {
            let (mut sim, u) = logistic_sim();
            mutate(&mut sim);
            sim.run(30);
            sim.state_f64(u).get(1, 1)
        };
        let clean = run(&|_| {});
        let state_hit = run(&|s| s.inject_state_fault(0, 1, 1, 18).unwrap());
        let tmpl_hit = run(&|s| s.inject_template_fault(0, 0, 17).unwrap());
        assert_ne!(clean, state_hit, "state fault must be visible");
        assert_ne!(clean, tmpl_hit, "template fault must be visible");
    }

    #[test]
    fn residual_tracking_works_without_recorder() {
        let (mut sim, _) = logistic_sim();
        sim.step();
        assert_eq!(sim.step_stats().residual, 0.0, "untracked by default");
        sim.set_residual_tracking(true);
        sim.step();
        assert!(sim.step_stats().residual > 0.0, "tracked on demand");
    }

    #[test]
    fn threaded_sweep_is_bit_identical_to_serial() {
        // A nonlinear model exercising the LUT path on a grid larger than
        // the PE array, stepped serially and with several thread counts:
        // states, aggregate stats and per-PE L1 counters must all match.
        let build = || {
            let mut b = CennModelBuilder::new(12, 10);
            let u = b.dynamic_layer("u", Boundary::ZeroFlux);
            let w = b.algebraic_layer("w", Boundary::Zero);
            let sq = b.register_func(cenn_lut::funcs::square());
            b.state_template(u, u, mapping::heat_template(0.4, 1.0));
            b.offset_expr(
                u,
                WeightExpr::product(-0.1, vec![crate::template::Factor { func: sq, layer: u }]),
            );
            b.state_template(w, u, mapping::center(2.0).into_template());
            b.integrator(crate::Integrator::Heun);
            (b.build(0.02).unwrap(), u)
        };
        let init = Grid::from_fn(12, 10, |r, c| 0.05 * (r as f64 - 5.0) + 0.03 * c as f64);
        let run = |threads: usize| {
            let (model, u) = build();
            let mut sim = CennSim::new(model).unwrap();
            sim.set_threads(threads);
            sim.set_state_f64(u, &init).unwrap();
            sim.run(25);
            sim
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            let threaded = run(threads);
            for (a, b) in serial.states().iter().zip(threaded.states()) {
                assert_eq!(
                    a.as_slice(),
                    b.as_slice(),
                    "states diverged at {threads} threads"
                );
            }
            assert_eq!(serial.lut_stats(), threaded.lut_stats());
            let n_pes = serial.model().lut_config().n_pes();
            for pe in 0..n_pes {
                assert_eq!(
                    serial.pe_lut_stats(pe),
                    threaded.pe_lut_stats(pe),
                    "per-PE stats diverged for PE {pe} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn step_stats_record_sweeps_and_traffic() {
        let mut b = CennModelBuilder::new(6, 6);
        let x = b.dynamic_layer("x", Boundary::Zero);
        let sq = b.register_func(cenn_lut::funcs::square());
        b.offset_expr(x, WeightExpr::dynamic(0.01, sq, x));
        let mut sim = CennSim::new(b.build(0.01).unwrap()).unwrap();
        assert_eq!(sim.step_stats().cells, 0, "no step ran yet");
        sim.step();
        let stats = sim.step_stats();
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.cells, 36, "one dynamic sweep over 6x6");
        assert!(stats.sweeps.iter().any(|(l, _)| l == "dynamic"));
        assert!(stats.sweeps.iter().any(|(l, _)| l == "update"));
        assert_eq!(stats.lut_total().accesses, 36);
        assert!(stats.cells_per_sec() > 0.0);
        assert_eq!(stats.shard_lut.len(), sim.tile_plan().n_shards());
    }

    #[test]
    fn recorder_receives_steps_and_summary() {
        let mut b = CennModelBuilder::new(6, 6);
        let x = b.dynamic_layer("x", Boundary::Zero);
        let sq = b.register_func(cenn_lut::funcs::square());
        b.offset_expr(x, WeightExpr::dynamic(0.01, sq, x));
        let mut sim = CennSim::new(b.build(0.01).unwrap()).unwrap();
        sim.set_state_f64(x, &Grid::new(6, 6, 0.5)).unwrap();
        let (handle, reader) = cenn_obs::RecorderHandle::in_memory(true);
        sim.set_recorder(handle);
        sim.run(3);
        sim.record_summary();
        let rec = reader.lock().unwrap();
        assert_eq!(rec.events().len(), 4, "3 steps + 1 summary");
        let Event::Step(s) = &rec.events()[0] else {
            panic!("first event must be a step")
        };
        assert_eq!(s.step, 1);
        assert_eq!(s.cells, 36);
        assert_eq!(s.total_nanos, 0, "canonical recorder zeroes wall clock");
        assert!(s.residual > 0.0, "offset drives the state, residual > 0");
        assert_eq!(s.lut[0].hits + s.lut[0].misses, 36);
        assert_eq!(s.shards.iter().sum::<u64>(), 36);
        let summary = rec.summary().expect("summary recorded");
        assert_eq!(summary.steps, 3);
        assert_eq!(summary.cells, 3 * 36);
        assert_eq!(summary.accesses, 3 * 36);
        assert_eq!(summary.residual, sim.step_stats().residual);
    }

    #[test]
    fn tracer_span_counts_are_thread_count_independent() {
        // Spans are recorded per shard per sweep, so the per-phase counts
        // (the canonical fields of `span_summary`) must not depend on the
        // worker-thread count — only durations may differ.
        let counts = |threads: usize| {
            let (mut sim, u) = heat_sim(12, 10, 1.0, 0.1);
            sim.set_threads(threads);
            sim.set_state_f64(u, &Grid::from_fn(12, 10, |r, c| (r + c) as f64 * 0.01))
                .unwrap();
            let tracer = TraceHandle::histograms_only();
            sim.set_tracer(tracer.clone());
            sim.run(5);
            assert!(sim.tracer().is_some());
            Phase::ALL.map(|p| tracer.with(|c| c.phase_count(p)))
        };
        let serial = counts(1);
        let n_shards = {
            let (sim, _) = heat_sim(12, 10, 1.0, 0.1);
            sim.tile_plan().n_shards() as u64
        };
        // Euler heat model: per step one dynamic sweep (1 template_apply
        // span per band, one band per shard — heat has no dynamic weight
        // sites, so no lut_lookup spans, and the row pass writes its RHS
        // rows in place, so no halo_sync) + one
        // update pass (1 span).
        assert_eq!(serial[Phase::LutLookup.index()], 0);
        assert_eq!(serial[Phase::TemplateApply.index()], 5 * n_shards);
        assert_eq!(serial[Phase::HaloSync.index()], 0);
        assert_eq!(serial[Phase::Integrate.index()], 5);
        assert_eq!(serial[Phase::Scrub.index()], 0);
        assert_eq!(serial[Phase::Checkpoint.index()], 0);
        for threads in [2, 4] {
            assert_eq!(serial, counts(threads), "counts drifted at {threads}");
        }
    }

    #[test]
    fn tracer_attributes_phase_time_and_detaches() {
        let (mut sim, u) = heat_sim(8, 8, 1.0, 0.1);
        sim.set_state_f64(u, &Grid::new(8, 8, 1.0)).unwrap();
        let tracer = TraceHandle::full();
        sim.set_tracer(tracer.clone());
        sim.run(3);
        let total: u64 = tracer.with(|c| c.total_nanos());
        assert!(total > 0, "sweeps must attribute time");
        let spans = tracer.with(|c| c.spans().to_vec());
        assert!(!spans.is_empty());
        // Summaries reach an attached recorder as span_summary events.
        let (handle, reader) = cenn_obs::RecorderHandle::in_memory(true);
        sim.set_recorder(handle);
        sim.record_span_summaries();
        let rec = reader.lock().unwrap();
        let phases: Vec<String> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SpanSummary(s) => Some(s.phase.clone()),
                _ => None,
            })
            .collect();
        assert!(phases.contains(&"template_apply".to_string()), "{phases:?}");
        for line in rec.to_jsonl().lines() {
            cenn_obs::validate_jsonl_line(line).unwrap();
        }
        drop(rec);
        sim.clear_tracer();
        assert!(sim.tracer().is_none());
        sim.step();
        let after: u64 = tracer.with(|c| c.phase_count(Phase::Integrate));
        let spans_before = spans.len();
        assert_eq!(
            tracer.with(|c| c.spans().len()),
            spans_before,
            "detached tracer must see no new spans (integrate count {after})"
        );
    }

    #[test]
    fn null_recorder_leaves_residual_unscanned() {
        let (mut sim, u) = heat_sim(4, 4, 1.0, 0.1);
        sim.set_state_f64(u, &Grid::new(4, 4, 1.0)).unwrap();
        sim.set_recorder(cenn_obs::RecorderHandle::new(cenn_obs::NullRecorder));
        sim.step();
        assert_eq!(sim.step_stats().residual, 0.0, "scan skipped when disabled");
        sim.clear_recorder();
        assert!(sim.recorder().is_none());
    }

    #[test]
    fn recorded_residual_matches_state_change() {
        // Leak-only decay from 1.0: after one Euler step with dt = 0.25,
        // x = 0.75 exactly, so the residual is exactly 0.25.
        let mut b = CennModelBuilder::new(2, 2);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let mut sim = CennSim::new(b.build(0.25).unwrap()).unwrap();
        sim.set_state_f64(u, &Grid::new(2, 2, 1.0)).unwrap();
        let (handle, _reader) = cenn_obs::RecorderHandle::in_memory(false);
        sim.set_recorder(handle);
        sim.step();
        assert!((sim.step_stats().residual - 0.25).abs() < 1e-9);
    }

    #[test]
    fn a_template_fault_past_the_bound_falls_back_to_saturating_adds() {
        // A centre weight of -32768 (|w|·2³¹ = 2⁶²) and a small east tap
        // keep the bound below 2⁶³: the layer adds without saturating.
        // Setting the east weight's sign bit makes it about -32768 too,
        // the bound passes 2⁶³, and with states at the bottom rail the
        // sums do saturate: the sweep must fall back and give the scalar
        // MacAcc bits.
        let mut b = CennModelBuilder::new(3, 5);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let mut t = crate::template::Template::zero(3);
        t.set(0, 0, WeightExpr::Const(Q16_16::MIN));
        t.set(0, 1, WeightExpr::Const(Q16_16::from_f64(0.25)));
        b.state_template(u, u, t);
        let mut sim = CennSim::new(b.build(0.5).unwrap()).unwrap();
        let init = Grid::from_fn(3, 5, |r, c| {
            Q16_16::from_bits(i32::MIN + (r * 5 + c) as i32)
        });
        sim.set_state(u, init.clone()).unwrap();
        assert_eq!(sim.unsaturated_layers(), [true]);
        sim.inject_template_fault(0, 1, 31).unwrap();
        assert_eq!(sim.unsaturated_layers(), [false]);
        sim.step();
        let east = Q16_16::from_bits(Q16_16::from_f64(0.25).to_bits() ^ i32::MIN);
        for r in 0..3 {
            for c in 0..5 {
                let x = init.get(r, c);
                let mut k = MacAcc::<16>::new();
                k.mac(Q16_16::NEG_ONE, x);
                k.mac(Q16_16::MIN, x);
                k.mac(
                    east,
                    if c + 1 < 5 {
                        init.get(r, c + 1)
                    } else {
                        Q16_16::ZERO
                    },
                );
                if c + 1 < 5 {
                    assert_eq!(k.raw_sum(), i64::MAX, "the sum saturates at ({r}, {c})");
                }
                let mut x1 = MacAcc::<16>::with_init(x);
                x1.mac(Q16_16::from_f64(0.5), k.resolve());
                assert_eq!(sim.state(u).get(r, c), x1.resolve(), "({r}, {c})");
            }
        }
    }

    #[test]
    fn step_report_advances_time() {
        let (mut sim, _) = heat_sim(2, 2, 1.0, 0.25);
        let r = sim.run(4);
        assert_eq!(r.steps, 4);
        assert!((r.time - 1.0).abs() < 1e-12);
        assert_eq!(sim.steps(), 4);
    }

    #[test]
    fn dirichlet_boundary_pulls_edges() {
        // Heat with hot Dirichlet walls: interior warms toward the wall value.
        let mut b = CennModelBuilder::new(5, 5);
        let u = b.dynamic_layer("u", Boundary::Dirichlet(4.0));
        b.state_template(u, u, mapping::heat_template(0.5, 1.0));
        let model = b.build(0.1).unwrap();
        let mut sim = CennSim::new(model).unwrap();
        sim.run(300);
        let s = sim.state_f64(u);
        assert!(s.get(0, 0) > 3.5, "corner warmed to {}", s.get(0, 0));
        assert!(s.get(2, 2) > 3.0, "centre warmed to {}", s.get(2, 2));
    }

    #[test]
    fn periodic_heat_smooths_stripe() {
        let mut b = CennModelBuilder::new(4, 8);
        let u = b.dynamic_layer("u", Boundary::Periodic);
        b.state_template(u, u, mapping::heat_template(0.5, 1.0));
        let model = b.build(0.1).unwrap();
        let mut sim = CennSim::new(model).unwrap();
        let stripe = Grid::from_fn(4, 8, |_, c| if c == 0 { 8.0 } else { 0.0 });
        sim.set_state_f64(u, &stripe).unwrap();
        sim.run(100);
        let s = sim.state_f64(u);
        // Periodic smoothing: column 7 (adjacent across the wrap) received
        // as much heat as column 1.
        assert!((s.get(2, 7) - s.get(2, 1)).abs() < 1e-3);
        assert!(s.get(2, 4) > 0.2, "far column heated: {}", s.get(2, 4));
    }
}
