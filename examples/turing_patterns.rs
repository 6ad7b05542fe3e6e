//! Travelling waves in an excitable FitzHugh–Nagumo medium — the paper's
//! Fig. 3 worked example and its "computing with dynamical systems"
//! motivation (§1: reaction–diffusion machines).
//!
//! With zero drive the medium is excitable: localized super-threshold
//! stimuli launch expanding excitation rings that annihilate on collision
//! (the primitive used by reaction–diffusion computers). Everything runs
//! on the fixed-point CeNN solver with the activator's cubic nonlinearity
//! updated in real time through the LUT hierarchy.
//!
//! ```sh
//! cargo run --release --example turing_patterns
//! ```

use cenn::core::Grid;
use cenn::equations::{DynamicalSystem, FixedRunner, ReactionDiffusion};

fn main() {
    // Excitable regime: no constant drive, slow inhibitor.
    let system = ReactionDiffusion {
        drive: 0.0,
        epsilon: 0.05,
        du: 1.0,
        dv: 0.0,
        ..ReactionDiffusion::default()
    };
    let side = 48;
    let mut setup = system.build(side, side).expect("model builds");
    println!("== Excitable FitzHugh-Nagumo medium on the CeNN solver ==");
    println!(
        "layers: {} (activator u: nonlinear template; inhibitor v: linear)",
        setup.model.n_layers()
    );
    println!(
        "real-time weight-update sites: {}, LUT lookups per cell per step: {}",
        setup.model.wui_template_count(),
        setup.model.lookups_per_cell_step()
    );

    // Rest state of the local dynamics (u - u^3/3 - v = 0, v = (u+b)/g).
    let (u_rest, v_rest) = rest_state(system.beta, system.gamma);
    println!("rest state: u = {u_rest:.3}, v = {v_rest:.3} (stable, excitable)");

    // Replace the benchmark's noisy start with rest + two stimulus spots.
    let stim = [(12usize, 12usize), (34, 30)];
    setup.initial[0].1 = Grid::from_fn(side, side, |r, c| {
        if stim
            .iter()
            .any(|&(sr, sc)| r.abs_diff(sr) <= 2 && c.abs_diff(sc) <= 2)
        {
            1.0
        } else {
            u_rest
        }
    })
    .into();
    setup.initial[1].1 = Grid::new(side, side, v_rest).into();

    let mut runner = FixedRunner::new(setup).expect("runner");
    for _ in 0..4 {
        runner.run(120);
        let u = runner.observed_states()[0].1.clone();
        println!("\nactivator u at t = {:.0}:", runner.sim().time());
        render(&u, u_rest);
    }

    let stats = runner.lut_stats();
    let (mr1, mr2) = runner.miss_rates();
    println!("\nLUT hierarchy traffic over the run:");
    println!("  accesses:      {}", stats.accesses);
    println!("  L1 hits:       {} (mr_L1 = {mr1:.3})", stats.l1_hits);
    println!("  L2 hits:       {} (mr_L2 = {mr2:.3})", stats.l2_hits);
    println!("  DRAM fetches:  {}", stats.dram_fetches);
    println!(
        "  exact l(p) uses (state exactly on a sample point): {}",
        stats.exact_hits
    );
}

/// Solves the local rest state by bisection on the cubic nullcline.
fn rest_state(beta: f64, gamma: f64) -> (f64, f64) {
    let f = |u: f64| u - u * u * u / 3.0 - (u + beta) / gamma;
    // f is decreasing on this bracket: f(-3) > 0 > f(0).
    let (mut lo, mut hi) = (-3.0, 0.0);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if f(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let u = 0.5 * (lo + hi);
    (u, (u + beta) / gamma)
}

/// Renders excitation above the rest state.
fn render(g: &Grid<f64>, rest: f64) {
    let step = (g.rows() / 24).max(1);
    for r in (0..g.rows()).step_by(step) {
        let mut line = String::new();
        for c in (0..g.cols()).step_by(step) {
            let v = g.get(r, c) - rest;
            line.push(match v {
                v if v > 1.5 => '@',
                v if v > 0.7 => '#',
                v if v > 0.2 => '+',
                v if v < -0.2 => '.',
                _ => ' ',
            });
            line.push(' ');
        }
        println!("  {line}");
    }
}
