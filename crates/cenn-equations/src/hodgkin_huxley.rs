//! Hodgkin–Huxley membrane dynamics — the paper's exp/LUT-heavy benchmark.

use cenn_core::{
    mapping, Boundary, CennModelBuilder, Factor, Field, ModelError, Template, WeightExpr,
};
use cenn_lut::{funcs, LutSpec, NonlinearFn};

use crate::system::{DynamicalSystem, SystemSetup};

/// The classic four-variable Hodgkin–Huxley model (paper ref. \[15\]) on a
/// grid of neurons with optional diffusive (cable) coupling of the
/// membrane potential:
///
/// ```text
/// C·dV/dt = I − g_Na·m³·h·(V−E_Na) − g_K·n⁴·(V−E_K) − g_L·(V−E_L) + D·ΔV
/// dn/dt   = α_n(V)·(1−n) − β_n(V)·n      (likewise m, h)
/// ```
///
/// Mapping notes (see DESIGN.md):
/// * gating equations become `dn/dt = α_n(V) − (α_n+β_n)(V)·n`: the rate
///   sums are **exp-based LUT functions of V** driving a dynamic centre
///   weight — the space/time-variant template case;
/// * the ionic currents are dynamic **products**: `m³` uses the `cube`
///   LUT (degree-3 exact), `n⁴` is factored as `square·square`
///   (each degree-2 exact) because a single degree-3 Taylor entry around
///   `p = 0` cannot represent `x⁴` on `[0,1)`;
/// * the exp-based rate LUTs are the dominant error source — the paper's
///   §6.1 observation that "LUT approximation error … dominates total
///   error for scientific functions".
#[derive(Debug, Clone, PartialEq)]
pub struct HodgkinHuxley {
    /// Membrane capacitance (µF/cm²).
    pub c_m: f64,
    /// Sodium conductance (mS/cm²).
    pub g_na: f64,
    /// Potassium conductance.
    pub g_k: f64,
    /// Leak conductance.
    pub g_l: f64,
    /// Sodium reversal potential (mV).
    pub e_na: f64,
    /// Potassium reversal potential.
    pub e_k: f64,
    /// Leak reversal potential.
    pub e_l: f64,
    /// Injected current (µA/cm²) — drives tonic spiking at ~10.
    pub i_inj: f64,
    /// Diffusive V coupling (0 = uncoupled neurons).
    pub coupling: f64,
    /// Integration step in ms (HH is stiff: ≤ 0.025).
    pub dt: f64,
}

impl Default for HodgkinHuxley {
    fn default() -> Self {
        Self {
            c_m: 1.0,
            g_na: 120.0,
            g_k: 36.0,
            g_l: 0.3,
            e_na: 50.0,
            e_k: -77.0,
            e_l: -54.387,
            i_inj: 10.0,
            coupling: 0.1,
            dt: 0.01,
        }
    }
}

/// `x/(1−exp(−x/s))·k` with the removable singularity at `x = 0` handled
/// by its series limit — the common form of α_n and α_m.
fn rate_ratio(x: f64, s: f64, k: f64) -> f64 {
    let t = x / s;
    if t.abs() < 1e-7 {
        k * s * (1.0 + t / 2.0)
    } else {
        k * x / (1.0 - (-t).exp())
    }
}

/// The six HH rate functions of V (mV).
pub mod rates {
    use super::rate_ratio;

    /// Potassium activation rate `α_n(V)`.
    pub fn alpha_n(v: f64) -> f64 {
        rate_ratio(v + 55.0, 10.0, 0.01)
    }
    /// Potassium deactivation rate `β_n(V)`.
    pub fn beta_n(v: f64) -> f64 {
        0.125 * (-(v + 65.0) / 80.0).exp()
    }
    /// Sodium activation rate `α_m(V)`.
    pub fn alpha_m(v: f64) -> f64 {
        rate_ratio(v + 40.0, 10.0, 0.1)
    }
    /// Sodium deactivation rate `β_m(V)`.
    pub fn beta_m(v: f64) -> f64 {
        4.0 * (-(v + 65.0) / 18.0).exp()
    }
    /// Sodium inactivation rate `α_h(V)`.
    pub fn alpha_h(v: f64) -> f64 {
        0.07 * (-(v + 65.0) / 20.0).exp()
    }
    /// Sodium de-inactivation rate `β_h(V)`.
    pub fn beta_h(v: f64) -> f64 {
        1.0 / (1.0 + (-(v + 35.0) / 10.0).exp())
    }

    /// Steady-state activation `x_∞ = α/(α+β)` for initialization.
    pub fn steady(alpha: fn(f64) -> f64, beta: fn(f64) -> f64, v: f64) -> f64 {
        alpha(v) / (alpha(v) + beta(v))
    }
}

impl HodgkinHuxley {
    /// Builds one gating layer: `dx/dt = α(V) − (α+β)(V)·x`.
    fn gating_layer(
        b: &mut CennModelBuilder,
        gate: cenn_core::LayerId,
        v: cenn_core::LayerId,
        alpha: NonlinearFn,
        rate_sum: NonlinearFn,
    ) -> (cenn_lut::FuncId, cenn_lut::FuncId) {
        let f_alpha = b.register_func(alpha);
        let f_sum = b.register_func(rate_sum);
        // +α(V) as a dynamic offset.
        b.offset_expr(
            gate,
            WeightExpr::product(
                1.0,
                vec![Factor {
                    func: f_alpha,
                    layer: v,
                }],
            ),
        );
        // −(α+β)(V)·x as a dynamic centre weight, plus the +1 leak cancel
        // as a separate constant template (entries of different templates
        // between the same layer pair sum).
        let mut t = Template::zero(3);
        t.set(
            0,
            0,
            WeightExpr::product(
                -1.0,
                vec![Factor {
                    func: f_sum,
                    layer: v,
                }],
            ),
        );
        b.state_template(gate, gate, t);
        b.state_template(gate, gate, mapping::center(1.0).into_template());
        (f_alpha, f_sum)
    }
}

impl DynamicalSystem for HodgkinHuxley {
    fn name(&self) -> &'static str {
        "hodgkin-huxley"
    }

    fn build(&self, rows: usize, cols: usize) -> Result<SystemSetup, ModelError> {
        let mut b = CennModelBuilder::new(rows, cols);
        let v = b.dynamic_layer("V", Boundary::ZeroFlux);
        let n = b.dynamic_layer("n", Boundary::ZeroFlux);
        let m = b.dynamic_layer("m", Boundary::ZeroFlux);
        let h = b.dynamic_layer("h", Boundary::ZeroFlux);

        // Gating kinetics (each registers two exp-based V functions).
        let mut v_funcs = Vec::new();
        let (a, s) = Self::gating_layer(
            &mut b,
            n,
            v,
            NonlinearFn::new("alpha_n", rates::alpha_n, move |x| fd3(rates::alpha_n, x)),
            NonlinearFn::new(
                "rates_n",
                |x| rates::alpha_n(x) + rates::beta_n(x),
                move |x| fd3(|t| rates::alpha_n(t) + rates::beta_n(t), x),
            ),
        );
        v_funcs.extend([a, s]);
        let (a, s) = Self::gating_layer(
            &mut b,
            m,
            v,
            NonlinearFn::new("alpha_m", rates::alpha_m, move |x| fd3(rates::alpha_m, x)),
            NonlinearFn::new(
                "rates_m",
                |x| rates::alpha_m(x) + rates::beta_m(x),
                move |x| fd3(|t| rates::alpha_m(t) + rates::beta_m(t), x),
            ),
        );
        v_funcs.extend([a, s]);
        let (a, s) = Self::gating_layer(
            &mut b,
            h,
            v,
            NonlinearFn::new("alpha_h", rates::alpha_h, move |x| fd3(rates::alpha_h, x)),
            NonlinearFn::new(
                "rates_h",
                |x| rates::alpha_h(x) + rates::beta_h(x),
                move |x| fd3(|t| rates::alpha_h(t) + rates::beta_h(t), x),
            ),
        );
        v_funcs.extend([a, s]);

        // Membrane equation. Linear leak + optional cable coupling:
        // (−g_L·V + D·ΔV)/C as the V self-template.
        let mut sv = mapping::laplacian(self.coupling / self.c_m, 1.0);
        sv.set(0, 0, sv.get(0, 0) - self.g_l / self.c_m);
        b.state_template(v, v, sv.into_state_template());
        b.offset(v, self.g_l * self.e_l / self.c_m);
        // Injected current through the feedforward (B) template.
        b.input_template(v, v, mapping::center(1.0 / self.c_m).into_template());

        // Ionic currents as dynamic products.
        let cube_m = b.register_func(funcs::cube());
        let sq_n = b.register_func(funcs::square());
        let id_h = b.register_func(funcs::identity());
        let shift_na = b.register_func(funcs::affine(1.0, -self.e_na));
        let shift_k = b.register_func(funcs::affine(1.0, -self.e_k));
        b.offset_expr(
            v,
            WeightExpr::product(
                -self.g_na / self.c_m,
                vec![
                    Factor {
                        func: cube_m,
                        layer: m,
                    },
                    Factor {
                        func: id_h,
                        layer: h,
                    },
                    Factor {
                        func: shift_na,
                        layer: v,
                    },
                ],
            ),
        );
        b.offset_expr(
            v,
            WeightExpr::product(
                -self.g_k / self.c_m,
                vec![
                    Factor {
                        func: sq_n,
                        layer: n,
                    },
                    Factor {
                        func: sq_n,
                        layer: n,
                    },
                    Factor {
                        func: shift_k,
                        layer: v,
                    },
                ],
            ),
        );

        // LUT domains: V-driven functions over the physiological range,
        // gate-driven functions over [0, 1].
        let mut cfg = cenn_core::LutConfig::default();
        let v_spec = LutSpec::unit_spacing(-100, 60);
        let gate_spec = LutSpec::unit_spacing(-2, 2);
        for f in v_funcs {
            cfg.per_func_specs.push((f, v_spec));
        }
        for f in [cube_m, sq_n, id_h] {
            cfg.per_func_specs.push((f, gate_spec));
        }
        for f in [shift_na, shift_k] {
            cfg.per_func_specs.push((f, v_spec));
        }
        b.lut_config(cfg);
        let model = b.build(self.dt)?;

        // Rest-state initialization with steady-state gates at V = -65.
        let v0 = -65.0;
        let init_v = Field::Const(v0);
        let init_n = Field::Const(rates::steady(rates::alpha_n, rates::beta_n, v0));
        let init_m = Field::Const(rates::steady(rates::alpha_m, rates::beta_m, v0));
        let init_h = Field::Const(rates::steady(rates::alpha_h, rates::beta_h, v0));
        // Current injected into a central patch (wave source when coupled).
        let (cr, cc) = (rows / 2, cols / 2);
        let i_inj = self.i_inj;
        let input = Field::cells(move |r, c| {
            if r.abs_diff(cr) <= rows / 4 && c.abs_diff(cc) <= cols / 4 {
                i_inj
            } else {
                0.0
            }
        });
        Ok(SystemSetup {
            model,
            initial: vec![(v, init_v), (n, init_n), (m, init_m), (h, init_h)],
            inputs: vec![(v, input)],
            observed: vec![(v, "V"), (n, "n"), (m, "m"), (h, "h")],
        })
    }

    fn default_steps(&self) -> u64 {
        4000
    }

    fn default_side(&self) -> usize {
        32
    }
}

/// Central finite differences for the first three derivatives (the HH rate
/// functions are smooth; coefficients are Q16.16-quantized afterwards
/// anyway).
fn fd3(f: impl Fn(f64) -> f64, x: f64) -> [f64; 3] {
    let h = 1e-3;
    let d1 = (f(x + h) - f(x - h)) / (2.0 * h);
    let d2 = (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h);
    let d3 =
        (f(x + 2.0 * h) - 2.0 * f(x + h) + 2.0 * f(x - h) - f(x - 2.0 * h)) / (2.0 * h * h * h);
    [d1, d2, d3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FixedRunner;

    #[test]
    fn rate_functions_match_hh52_values() {
        // At rest (V = -65): classic values.
        assert!((rates::alpha_n(-65.0) - 0.0582).abs() < 1e-3);
        assert!((rates::beta_n(-65.0) - 0.125).abs() < 1e-6);
        assert!((rates::alpha_m(-65.0) - 0.2236).abs() < 1e-3);
        assert!((rates::beta_m(-65.0) - 4.0).abs() < 1e-6);
        // Removable singularities are finite and continuous.
        let eps = 1e-9;
        assert!((rates::alpha_n(-55.0) - rates::alpha_n(-55.0 + eps)).abs() < 1e-6);
        assert!((rates::alpha_m(-40.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn steady_state_gates_are_probabilities() {
        for v in [-90.0, -65.0, -40.0, 0.0, 40.0] {
            for (a, bta) in [
                (
                    rates::alpha_n as fn(f64) -> f64,
                    rates::beta_n as fn(f64) -> f64,
                ),
                (rates::alpha_m, rates::beta_m),
                (rates::alpha_h, rates::beta_h),
            ] {
                let s = rates::steady(a, bta, v);
                assert!((0.0..=1.0).contains(&s), "steady({v}) = {s}");
            }
        }
    }

    #[test]
    fn model_structure_matches_mapping() {
        let setup = HodgkinHuxley::default().build(8, 8).unwrap();
        let mdl = &setup.model;
        assert_eq!(mdl.n_layers(), 4);
        // 3 dynamic gate templates + 3 dynamic alpha offsets + 2 current
        // products = 8 WUI sites.
        assert_eq!(mdl.wui_template_count(), 8);
        // Lookups: gates 3*(1+1) + currents (3+3) = 12 per cell per step.
        assert_eq!(mdl.lookups_per_cell_step(), 12);
    }

    #[test]
    fn neuron_spikes_under_current_injection() {
        // A single driven neuron (1x1 grid, whole grid injected).
        let sys = HodgkinHuxley {
            coupling: 0.0,
            ..Default::default()
        };
        let setup = sys.build(1, 1).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        let mut peak = f64::MIN;
        for _ in 0..30 {
            runner.run(100); // 1 ms per batch
            peak = peak.max(runner.observed_states()[0].1.get(0, 0));
        }
        assert!(peak > 0.0, "membrane crossed 0 mV (spiked): peak = {peak}");
    }

    #[test]
    fn resting_neuron_stays_at_rest() {
        let sys = HodgkinHuxley {
            i_inj: 0.0,
            coupling: 0.0,
            ..Default::default()
        };
        let setup = sys.build(1, 1).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        runner.run(2000); // 20 ms
        let v = runner.observed_states()[0].1.get(0, 0);
        assert!((v - (-65.0)).abs() < 3.0, "rest potential drifted to {v}");
    }
}
