//! The complete multilayer CeNN model — the solver "program".

use std::ops::Range;

use cenn_lut::{FuncId, FuncLibrary, LutSpec, NonlinearFn};
use fixedpt::Q16_16;

use crate::boundary::Boundary;
use crate::error::{ModelError, MAX_LAYERS};
use crate::grid::SoaGrid;
use crate::layer::{LayerId, LayerKind, LayerSpec};
use crate::template::{Template, WeightExpr};

/// Time-integration scheme realized by the PE array.
///
/// The paper's cell update is forward **Euler** (one convolution sweep per
/// step). **Heun** (explicit trapezoidal RK2) is a documented extension:
/// the array runs two sweeps per step — a predictor and a corrector —
/// doubling convolution cycles and LUT traffic in exchange for
/// second-order accuracy. The cycle model charges the extra pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Forward Euler — the paper's scheme.
    #[default]
    Euler,
    /// Explicit trapezoidal (predictor–corrector), two sweeps per step.
    Heun,
}

impl Integrator {
    /// Convolution sweeps per time step.
    pub fn passes(self) -> u32 {
        match self {
            Integrator::Euler => 1,
            Integrator::Heun => 2,
        }
    }
}

/// Which of the three template families of eq. (1) a connection belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemplateKind {
    /// Â — the state (feedback) template, applied to neighbour **states**.
    State,
    /// A — the output template, applied to neighbour **outputs**
    /// `y = f(x)` (eq. 2); zero for most physical systems (§2.1).
    Output,
    /// B — the feedforward template, applied to the external **input** map.
    Input,
}

/// On-chip LUT sizing and PE-array geometry used by the functional
/// simulator to reproduce the hardware's LUT access pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct LutConfig {
    /// Blocks per per-PE L1 LUT (paper default 4, §6.2).
    pub l1_blocks: usize,
    /// Entries per shared L2 LUT (paper default 32, §6.2); power of two.
    pub l2_capacity: usize,
    /// PE array rows (paper: 8).
    pub pe_rows: usize,
    /// PE array columns (paper: 8).
    pub pe_cols: usize,
    /// Default sampling range for every registered function.
    pub default_spec: LutSpec,
    /// Per-function overrides of the sampling spec.
    pub per_func_specs: Vec<(FuncId, LutSpec)>,
}

impl Default for LutConfig {
    fn default() -> Self {
        Self {
            l1_blocks: 4,
            l2_capacity: 32,
            pe_rows: 8,
            pe_cols: 8,
            default_spec: LutSpec::unit_spacing(-128, 127),
            per_func_specs: Vec::new(),
        }
    }
}

impl LutConfig {
    /// Total number of PEs (= L1 LUTs).
    pub fn n_pes(&self) -> usize {
        self.pe_rows * self.pe_cols
    }

    /// The sampling spec used for `func`.
    pub fn spec_for(&self, func: FuncId) -> LutSpec {
        self.per_func_specs
            .iter()
            .find(|(f, _)| *f == func)
            .map(|(_, s)| *s)
            .unwrap_or(self.default_spec)
    }
}

/// A discrete per-cell rule applied after every step's final integrator
/// update, outside the template algebra.
///
/// The Izhikevich model's spike-and-reset is a *hybrid* discontinuity:
/// `if v ≥ v_peak { v ← c; u ← u + d }`. In the hardware this is a
/// comparator + conditional write in the PE (one cycle). Every engine
/// applies it cell by cell right after the cell's last update — the sweep
/// engine per window, before the window is spilled — and the
/// floating-point reference applies the same rule, so the accuracy
/// comparison stays apples-to-apples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PostStepRule {
    /// Izhikevich reset on `(v_layer, u_layer)`.
    SpikeReset {
        /// Membrane-potential layer checked against the threshold.
        v_layer: LayerId,
        /// Recovery-variable layer incremented on spike.
        u_layer: LayerId,
        /// Spike threshold `v_peak` (30 mV in \[18\]).
        threshold: f64,
        /// Reset value `c`.
        reset_v: f64,
        /// Recovery increment `d`.
        bump_u: f64,
    },
    /// Wraps a phase layer into `[lo, hi)` (modular arithmetic, one
    /// subtractor in the PE) — keeps oscillator phases inside the sampled
    /// LUT domain.
    WrapPhase {
        /// The phase layer.
        layer: LayerId,
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
}

impl PostStepRule {
    /// Applies the rule to one cell, `x[l]` being the cell's value on
    /// layer `l`; returns whether the rule fired.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than a layer the rule names.
    pub fn apply_cell(&self, x: &mut [f64]) -> bool {
        match *self {
            PostStepRule::SpikeReset {
                v_layer,
                u_layer,
                threshold,
                reset_v,
                bump_u,
            } => {
                let fired = x[v_layer.index()] >= threshold;
                if fired {
                    x[v_layer.index()] = reset_v;
                    x[u_layer.index()] += bump_u;
                }
                fired
            }
            PostStepRule::WrapPhase { layer, lo, hi } => {
                let v = x[layer.index()];
                if (lo..hi).contains(&v) {
                    return false;
                }
                let span = hi - lo;
                x[layer.index()] = v - span * ((v - lo) / span).floor();
                true
            }
        }
    }

    /// Applies the rule in place to the flat cells `cells` of every layer
    /// of `states`: each cell's values go through `to_f64`, the rule,
    /// and — where it fired — back through `from_f64`. Returns the cells
    /// that fired.
    pub fn apply<T: Copy>(
        &self,
        states: &mut SoaGrid<T>,
        cells: Range<usize>,
        to_f64: impl Fn(T) -> f64,
        from_f64: impl Fn(f64) -> T,
    ) -> u64 {
        let stride = states.cells_per_layer();
        let mut x = vec![0.0; states.n_layers()];
        let slab = states.slab_mut();
        let mut fired = 0;
        for i in cells {
            for (l, v) in x.iter_mut().enumerate() {
                *v = to_f64(slab[l * stride + i]);
            }
            if self.apply_cell(&mut x) {
                for (l, &v) in x.iter().enumerate() {
                    slab[l * stride + i] = from_f64(v);
                }
                fired += 1;
            }
        }
        fired
    }

    /// The layers the rule reads or writes.
    fn layers(&self) -> impl Iterator<Item = LayerId> {
        let (a, b) = match *self {
            PostStepRule::SpikeReset {
                v_layer, u_layer, ..
            } => (v_layer, Some(u_layer)),
            PostStepRule::WrapPhase { layer, .. } => (layer, None),
        };
        std::iter::once(a).chain(b)
    }
}

/// A complete, validated multilayer CeNN program: layers, inter-layer
/// templates, offsets, nonlinear function library, LUT configuration,
/// integration step, and an optional post-step rule.
///
/// Built with [`CennModelBuilder`]; executed by [`crate::CennSim`]
/// (functional) and by the cycle-level simulator in `cenn-arch`.
#[derive(Debug, Clone)]
pub struct CennModel {
    rows: usize,
    cols: usize,
    dt: f64,
    integrator: Integrator,
    layers: Vec<LayerSpec>,
    state_templates: Vec<(LayerId, LayerId, Template)>,
    output_templates: Vec<(LayerId, LayerId, Template)>,
    input_templates: Vec<(LayerId, LayerId, Template)>,
    offsets: Vec<(LayerId, WeightExpr)>,
    lib: FuncLibrary,
    lut: LutConfig,
    post_step: Option<PostStepRule>,
}

impl CennModel {
    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cells per layer.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Integration step Δt.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Δt quantized to the fixed-point format the PE multiplies with.
    pub fn dt_fx(&self) -> Q16_16 {
        Q16_16::from_f64(self.dt)
    }

    /// The time-integration scheme.
    pub fn integrator(&self) -> Integrator {
        self.integrator
    }

    /// Number of layers (equations).
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// The spec of a layer.
    pub fn layer(&self, id: LayerId) -> &LayerSpec {
        &self.layers[id.index()]
    }

    /// Iterates layer ids in declaration order.
    pub fn layer_ids(&self) -> impl Iterator<Item = LayerId> {
        (0..self.layers.len()).map(|i| LayerId(i as u8))
    }

    /// Looks a layer up by name.
    pub fn layer_by_name(&self, name: &str) -> Option<LayerId> {
        self.layers
            .iter()
            .position(|l| l.name() == name)
            .map(|i| LayerId(i as u8))
    }

    /// Templates of one family targeting `dest`, as `(src, template)`.
    pub fn templates(
        &self,
        kind: TemplateKind,
        dest: LayerId,
    ) -> impl Iterator<Item = (LayerId, &Template)> {
        let list = match kind {
            TemplateKind::State => &self.state_templates,
            TemplateKind::Output => &self.output_templates,
            TemplateKind::Input => &self.input_templates,
        };
        list.iter()
            .filter(move |(d, _, _)| *d == dest)
            .map(|(_, s, t)| (*s, t))
    }

    /// All templates of a family, as `(dest, src, template)`.
    pub fn all_templates(
        &self,
        kind: TemplateKind,
    ) -> impl Iterator<Item = (LayerId, LayerId, &Template)> {
        let list = match kind {
            TemplateKind::State => &self.state_templates,
            TemplateKind::Output => &self.output_templates,
            TemplateKind::Input => &self.input_templates,
        };
        list.iter().map(|(d, s, t)| (*d, *s, t))
    }

    /// Additive offset terms for `dest` (the `z` of eq. (1), possibly
    /// dynamic — see DESIGN.md).
    pub fn offsets(&self, dest: LayerId) -> impl Iterator<Item = &WeightExpr> {
        self.offsets
            .iter()
            .filter(move |(d, _)| *d == dest)
            .map(|(_, w)| w)
    }

    /// The nonlinear function library this program uses.
    pub fn library(&self) -> &FuncLibrary {
        &self.lib
    }

    /// The LUT configuration.
    pub fn lut_config(&self) -> &LutConfig {
        &self.lut
    }

    /// The per-cell rule applied after every step, if the system is
    /// hybrid.
    pub fn post_step(&self) -> Option<PostStepRule> {
        self.post_step
    }

    /// A copy of this model with different on-chip LUT sizing — the LUT
    /// capacity is a *hardware* parameter, not part of the equations, so
    /// design-space sweeps (Fig. 12) repackage the same program against
    /// different cache geometries.
    pub fn clone_with_lut_config(&self, lut: LutConfig) -> Self {
        let mut m = self.clone();
        m.lut = lut;
        m
    }

    /// A copy of this model with a different integration scheme (the
    /// Euler-vs-Heun ablation).
    pub fn clone_with_integrator(&self, integrator: Integrator) -> Self {
        let mut m = self.clone();
        m.integrator = integrator;
        m
    }

    /// Largest kernel side used by any template (the `Size_kernel`
    /// program parameter).
    pub fn kernel_size(&self) -> usize {
        self.state_templates
            .iter()
            .chain(&self.output_templates)
            .chain(&self.input_templates)
            .map(|(_, _, t)| t.size())
            .max()
            .unwrap_or(1)
    }

    /// Number of templates whose WUI indicator is non-zero — the
    /// `N(U_ll* ≠ 0)` of eqs. (11)–(12). Dynamic offsets count as one
    /// update site each, since they trigger the same LUT path.
    pub fn wui_template_count(&self) -> usize {
        let t = self
            .state_templates
            .iter()
            .chain(&self.output_templates)
            .chain(&self.input_templates)
            .filter(|(_, _, t)| t.needs_update())
            .count();
        let z = self
            .offsets
            .iter()
            .filter(|(_, w)| w.needs_update())
            .count();
        t + z
    }

    /// LUT look-ups required per cell per full step (all layers).
    pub fn lookups_per_cell_step(&self) -> usize {
        let t: usize = self
            .state_templates
            .iter()
            .chain(&self.output_templates)
            .chain(&self.input_templates)
            .map(|(_, _, t)| t.lookups_per_cell())
            .sum();
        let z: usize = self.offsets.iter().map(|(_, w)| w.lookup_count()).sum();
        t + z
    }

    /// Multiply-accumulate operations per cell per full step (the basis of
    /// the GOPS figures in Table 3): one MAC per non-zero template entry
    /// plus three per LUT-evaluated factor (Horner) plus the Euler update.
    pub fn macs_per_cell_step(&self) -> usize {
        let conv: usize = self
            .state_templates
            .iter()
            .chain(&self.output_templates)
            .chain(&self.input_templates)
            .map(|(_, _, t)| t.iter().filter(|(_, _, w)| !w.is_zero()).count())
            .sum();
        conv + 3 * self.lookups_per_cell_step() + 2 * self.n_layers()
    }
}

/// Incremental builder for a [`CennModel`].
///
/// # Examples
///
/// ```
/// use cenn_core::{Boundary, CennModelBuilder, mapping};
///
/// let mut b = CennModelBuilder::new(32, 32);
/// let u = b.dynamic_layer("u", Boundary::Periodic);
/// b.state_template(u, u, mapping::heat_template(0.25, 1.0));
/// b.offset(u, 0.05); // constant source term z
/// let model = b.build(0.1).unwrap();
/// assert_eq!(model.n_layers(), 1);
/// ```
#[derive(Debug, Default)]
pub struct CennModelBuilder {
    rows: usize,
    cols: usize,
    layers: Vec<LayerSpec>,
    state_templates: Vec<(LayerId, LayerId, Template)>,
    output_templates: Vec<(LayerId, LayerId, Template)>,
    input_templates: Vec<(LayerId, LayerId, Template)>,
    offsets: Vec<(LayerId, WeightExpr)>,
    lib: FuncLibrary,
    lut: Option<LutConfig>,
    integrator: Integrator,
    post_step: Option<PostStepRule>,
}

impl CennModelBuilder {
    /// Starts a model over a `rows × cols` cell grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be non-zero");
        Self {
            rows,
            cols,
            ..Self::default()
        }
    }

    /// Declares a dynamic (integrated) layer; returns its id.
    pub fn dynamic_layer(&mut self, name: &str, boundary: Boundary) -> LayerId {
        self.add_layer(LayerSpec::new(name, LayerKind::Dynamic, boundary))
    }

    /// Declares an algebraic (recomputed) layer; returns its id.
    pub fn algebraic_layer(&mut self, name: &str, boundary: Boundary) -> LayerId {
        self.add_layer(LayerSpec::new(name, LayerKind::Algebraic, boundary))
    }

    fn add_layer(&mut self, spec: LayerSpec) -> LayerId {
        let id = LayerId(self.layers.len() as u8);
        self.layers.push(spec);
        id
    }

    /// Registers a nonlinear function for use in dynamic weights.
    pub fn register_func(&mut self, f: NonlinearFn) -> FuncId {
        self.lib.register(f)
    }

    /// Adds a state (Â) template from `src` into `dest`'s equation.
    pub fn state_template(&mut self, dest: LayerId, src: LayerId, t: Template) -> &mut Self {
        self.state_templates.push((dest, src, t));
        self
    }

    /// Adds an output (A) template (applied to `y = f(x)` of eq. 2).
    pub fn output_template(&mut self, dest: LayerId, src: LayerId, t: Template) -> &mut Self {
        self.output_templates.push((dest, src, t));
        self
    }

    /// Adds a feedforward (B) template (applied to the external input map).
    pub fn input_template(&mut self, dest: LayerId, src: LayerId, t: Template) -> &mut Self {
        self.input_templates.push((dest, src, t));
        self
    }

    /// Adds a constant offset `z` to `dest`'s equation.
    pub fn offset(&mut self, dest: LayerId, z: f64) -> &mut Self {
        self.offsets.push((dest, WeightExpr::constant(z)));
        self
    }

    /// Adds a (possibly dynamic) additive term to `dest`'s equation —
    /// the real-time-updated `z` path (§3: "For most cases, B and z do not
    /// require real-time update", i.e. sometimes they do).
    pub fn offset_expr(&mut self, dest: LayerId, w: WeightExpr) -> &mut Self {
        self.offsets.push((dest, w));
        self
    }

    /// Overrides the LUT configuration (defaults follow the paper).
    pub fn lut_config(&mut self, cfg: LutConfig) -> &mut Self {
        self.lut = Some(cfg);
        self
    }

    /// Selects the integration scheme (default: the paper's forward
    /// Euler).
    pub fn integrator(&mut self, integrator: Integrator) -> &mut Self {
        self.integrator = integrator;
        self
    }

    /// Sets the per-cell rule applied after every step (the spike-reset
    /// comparator of hybrid systems).
    pub fn post_step(&mut self, rule: PostStepRule) -> &mut Self {
        self.post_step = Some(rule);
        self
    }

    fn check_weight(&self, w: &WeightExpr) -> Result<(), ModelError> {
        if let WeightExpr::Dyn { factors, .. } = w {
            for f in factors {
                if f.func.0 as usize >= self.lib.len() {
                    return Err(ModelError::UnknownFunction(f.func.0));
                }
                if f.layer.index() >= self.layers.len() {
                    return Err(ModelError::UnknownLayer(f.layer.index()));
                }
            }
        }
        Ok(())
    }

    /// Validates and finalizes the model with integration step `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the model has no layers or too many, the
    /// step is invalid, or any template references an unknown layer or
    /// function.
    pub fn build(self, dt: f64) -> Result<CennModel, ModelError> {
        if self.layers.is_empty() {
            return Err(ModelError::NoLayers);
        }
        if self.layers.len() > MAX_LAYERS {
            return Err(ModelError::TooManyLayers(self.layers.len()));
        }
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ModelError::BadTimestep(dt));
        }
        for (d, s, t) in self
            .state_templates
            .iter()
            .chain(&self.output_templates)
            .chain(&self.input_templates)
        {
            for id in [d, s] {
                if id.index() >= self.layers.len() {
                    return Err(ModelError::UnknownLayer(id.index()));
                }
            }
            for (_, _, w) in t.iter() {
                self.check_weight(w)?;
            }
        }
        for (d, w) in &self.offsets {
            if d.index() >= self.layers.len() {
                return Err(ModelError::UnknownLayer(d.index()));
            }
            self.check_weight(w)?;
        }
        if let Some(id) = self
            .post_step
            .iter()
            .flat_map(PostStepRule::layers)
            .find(|id| id.index() >= self.layers.len())
        {
            return Err(ModelError::UnknownLayer(id.index()));
        }
        Ok(CennModel {
            rows: self.rows,
            cols: self.cols,
            dt,
            integrator: self.integrator,
            layers: self.layers,
            state_templates: self.state_templates,
            output_templates: self.output_templates,
            input_templates: self.input_templates,
            offsets: self.offsets,
            lib: self.lib,
            lut: self.lut.unwrap_or_default(),
            post_step: self.post_step,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping;
    use crate::template::Factor;

    fn heat_builder() -> (CennModelBuilder, LayerId) {
        let mut b = CennModelBuilder::new(8, 8);
        let u = b.dynamic_layer("u", Boundary::ZeroFlux);
        b.state_template(u, u, mapping::heat_template(1.0, 1.0));
        (b, u)
    }

    #[test]
    fn build_simple_model() {
        let (b, u) = heat_builder();
        let m = b.build(0.1).unwrap();
        assert_eq!(m.rows(), 8);
        assert_eq!(m.cells(), 64);
        assert_eq!(m.n_layers(), 1);
        assert_eq!(m.dt(), 0.1);
        assert_eq!(m.kernel_size(), 3);
        assert_eq!(m.layer(u).name(), "u");
        assert_eq!(m.layer_by_name("u"), Some(u));
        assert_eq!(m.layer_by_name("v"), None);
        assert_eq!(m.wui_template_count(), 0);
        assert_eq!(m.lookups_per_cell_step(), 0);
    }

    #[test]
    fn build_rejects_empty_and_bad_dt() {
        assert!(matches!(
            CennModelBuilder::new(4, 4).build(0.1),
            Err(ModelError::NoLayers)
        ));
        let (b, _) = heat_builder();
        assert_eq!(b.build(0.0).unwrap_err(), ModelError::BadTimestep(0.0));
        let (b, _) = heat_builder();
        assert!(matches!(
            b.build(f64::NAN).unwrap_err(),
            ModelError::BadTimestep(_)
        ));
    }

    #[test]
    fn build_rejects_too_many_layers() {
        let mut b = CennModelBuilder::new(4, 4);
        for i in 0..9 {
            b.dynamic_layer(&format!("l{i}"), Boundary::Zero);
        }
        assert_eq!(b.build(0.1).unwrap_err(), ModelError::TooManyLayers(9));
    }

    #[test]
    fn build_rejects_unknown_function() {
        let mut b = CennModelBuilder::new(4, 4);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let mut t = Template::zero(3);
        t.set(0, 0, WeightExpr::dynamic(1.0, FuncId(5), u));
        b.state_template(u, u, t);
        assert_eq!(b.build(0.1).unwrap_err(), ModelError::UnknownFunction(5));
    }

    #[test]
    fn build_rejects_unknown_layer_in_factor() {
        let mut b = CennModelBuilder::new(4, 4);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let f = b.register_func(cenn_lut::funcs::square());
        let mut t = Template::zero(3);
        t.set(
            0,
            0,
            WeightExpr::product(
                1.0,
                vec![Factor {
                    func: f,
                    layer: LayerId(3),
                }],
            ),
        );
        b.state_template(u, u, t);
        assert_eq!(b.build(0.1).unwrap_err(), ModelError::UnknownLayer(3));
    }

    #[test]
    fn wui_and_lookup_accounting() {
        let mut b = CennModelBuilder::new(4, 4);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let v = b.dynamic_layer("v", Boundary::Zero);
        let f = b.register_func(cenn_lut::funcs::square());
        let mut t = Template::zero(3);
        t.set(0, 0, WeightExpr::dynamic(1.0, f, u));
        b.state_template(u, u, t);
        b.state_template(v, u, mapping::center(1.0).into_template());
        b.offset_expr(v, WeightExpr::dynamic(0.5, f, v));
        let m = b.build(0.01).unwrap();
        assert_eq!(m.wui_template_count(), 2); // one template + one offset
        assert_eq!(m.lookups_per_cell_step(), 2);
        assert!(m.macs_per_cell_step() > 0);
    }

    #[test]
    fn templates_filter_by_dest_and_kind() {
        let mut b = CennModelBuilder::new(4, 4);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let v = b.dynamic_layer("v", Boundary::Zero);
        b.state_template(u, v, mapping::center(2.0).into_template());
        b.input_template(u, u, mapping::center(3.0).into_template());
        let m = b.build(0.1).unwrap();
        assert_eq!(m.templates(TemplateKind::State, u).count(), 1);
        assert_eq!(m.templates(TemplateKind::State, v).count(), 0);
        assert_eq!(m.templates(TemplateKind::Input, u).count(), 1);
        assert_eq!(m.templates(TemplateKind::Output, u).count(), 0);
        assert_eq!(m.all_templates(TemplateKind::State).count(), 1);
    }

    #[test]
    fn lut_config_defaults_match_paper() {
        let cfg = LutConfig::default();
        assert_eq!(cfg.l1_blocks, 4);
        assert_eq!(cfg.l2_capacity, 32);
        assert_eq!(cfg.n_pes(), 64);
    }

    #[test]
    fn lut_config_per_func_override() {
        let mut cfg = LutConfig::default();
        let spec = cenn_lut::LutSpec::unit_spacing(-4, 4);
        cfg.per_func_specs.push((FuncId(1), spec));
        assert_eq!(cfg.spec_for(FuncId(1)), spec);
        assert_eq!(cfg.spec_for(FuncId(0)), cfg.default_spec);
    }

    #[test]
    fn dt_fx_quantizes() {
        let (b, _) = heat_builder();
        let m = b.build(0.1).unwrap();
        assert!((m.dt_fx().to_f64() - 0.1).abs() < 1e-4);
    }
}
