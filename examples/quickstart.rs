//! Quickstart: program the DE solver with the heat equation, run it, and
//! read out timing/energy estimates for three memory systems.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Pass `--metrics-out PATH` to stream per-step metrics and the run
//! summary as JSONL (add `--metrics-canonical` for the byte-reproducible
//! form that CI diffs against `tests/fixtures/quickstart_metrics.jsonl`):
//!
//! ```sh
//! cargo run --release --example quickstart -- \
//!     --metrics-out quickstart.jsonl --metrics-canonical
//! ```

use cenn::arch::MemorySpec;
use cenn::core::Grid;
use cenn::equations::{DynamicalSystem, Heat};
use cenn::obs::{JsonlSink, RecorderHandle};
use cenn::program::SolverSession;

fn main() {
    let mut metrics_out: Option<String> = None;
    let mut canonical = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--metrics-out" => {
                metrics_out = Some(args.next().expect("--metrics-out needs a path"));
            }
            "--metrics-canonical" => canonical = true,
            other => panic!("unknown argument '{other}'"),
        }
    }
    // 1. Describe the dynamical system and compile it to a CeNN program.
    //    The heat equation needs a single layer with the linear Laplacian
    //    template of eq. (7) — no real-time weight update at all.
    let system = Heat {
        kappa: 1.0,
        dt: 0.1,
        ..Heat::default()
    };
    let setup = system.build(64, 64).expect("model builds");

    println!("== CeNN DE solver quickstart: heat diffusion ==");
    println!(
        "grid {}x{}, {} layer(s), kernel {}x{}, dt = {}",
        setup.model.rows(),
        setup.model.cols(),
        setup.model.n_layers(),
        setup.model.kernel_size(),
        setup.model.kernel_size(),
        setup.model.dt()
    );

    // 2. Program a solver session (bitstream + functional sim + cycle model).
    let mut session = SolverSession::new(setup.model.clone(), MemorySpec::ddr3()).expect("session");
    println!(
        "program bitstream: {} bytes ({} templates, {} LUT bytes)",
        session.program().encoded_len(),
        session.program().templates.len(),
        session.program().lut_bytes()
    );
    for (layer, field) in &setup.initial {
        let grid = field.to_grid(64, 64).unwrap();
        session.sim_mut().set_state_f64(*layer, &grid).unwrap();
    }
    let metrics = metrics_out.map(|path| {
        let sink = JsonlSink::create(&path, canonical).expect("create metrics file");
        let handle = RecorderHandle::new(sink);
        session.set_recorder(handle.clone());
        (handle, path)
    });

    // 3. Run and visualize.
    let phi = setup.initial[0].0;
    println!("\ninitial temperature:");
    render(&session.sim().state_f64(phi));
    session.run(150);
    println!("\nafter 150 steps (t = {:.1}):", session.sim().time());
    render(&session.sim().state_f64(phi));

    // 4. Architecture estimates across memory systems.
    println!(
        "\nper-step estimates (measured miss rates {:?}):",
        session.miss_rates()
    );
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>10}",
        "memory", "time/step", "GOPS", "power W", "GOPS/W"
    );
    for mem in [
        MemorySpec::ddr3(),
        MemorySpec::hmc_ext(),
        MemorySpec::hmc_int(),
    ] {
        let name = mem.name;
        session.set_memory(mem);
        session.record_estimate(&format!("heat/{name}"));
        let est = session.estimate();
        println!(
            "{:<10} {:>10.2}us {:>12.1} {:>10.2} {:>10.1}",
            name,
            est.time_per_step_s() * 1e6,
            est.achieved_gops(),
            est.system_power_w(),
            est.gops_per_watt()
        );
    }

    if let Some((handle, path)) = &metrics {
        session.record_summary();
        handle.flush().expect("flush metrics file");
        println!("\nmetrics: wrote JSONL trace to {path}");
    }
}

/// Renders a grid as a coarse ASCII heat map.
fn render(g: &Grid<f64>) {
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let max = g.max_abs().max(1e-9);
    let step = (g.rows() / 16).max(1);
    for r in (0..g.rows()).step_by(step) {
        let mut line = String::new();
        for c in (0..g.cols()).step_by(step) {
            let v = (g.get(r, c).abs() / max * (shades.len() - 1) as f64).round() as usize;
            line.push(shades[v.min(shades.len() - 1)]);
            line.push(shades[v.min(shades.len() - 1)]);
        }
        println!("  {line}");
    }
}
