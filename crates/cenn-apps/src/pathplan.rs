//! Wave-front path planning on an excitable medium.
//!
//! The paper's §1 motivates real-time ODE/PDE solving with "UAV path
//! planning" and robot control. This module implements the classic
//! reaction–diffusion planner: a trigger wave launched at the **goal**
//! expands through free space at constant speed, bending around
//! obstacles; each cell's wave **arrival time** is therefore its geodesic
//! distance to the goal, and steepest descent on arrival time from the
//! **start** is a shortest path. Everything runs on the fixed-point CeNN
//! solver with the FitzHugh–Nagumo excitable medium.
//!
//! # Critical channel width
//!
//! Obstacles are realized as cells clamped below rest by an inhibitory
//! input current; they *absorb* activator flux. A trigger wave squeezed
//! between two absorbing walls dies when the channel is narrower than a
//! critical width set by the front thickness (~`√(D_u)/|f′|` cells) — a
//! well-known property of excitable media, and the reason
//! reaction–diffusion maze solvers use wide corridors. With the default
//! medium, channels of **6–8 cells** conduct reliably
//! (`channel_conduction_threshold` pins this down).

use cenn_core::{Field, Grid, ModelError};
use cenn_equations::{DynamicalSystem, FixedRunner, ReactionDiffusion};

/// A planning problem: free/blocked cells plus endpoints.
#[derive(Debug, Clone)]
pub struct PlanProblem {
    /// `true` = blocked.
    pub obstacles: Grid<bool>,
    /// Start cell `(row, col)`.
    pub start: (usize, usize),
    /// Goal cell `(row, col)`.
    pub goal: (usize, usize),
}

/// A solved plan.
#[derive(Debug, Clone)]
pub struct PlanResult {
    /// Wave arrival time per cell (steps; `f64::INFINITY` if unreached).
    pub arrival: Grid<f64>,
    /// The path from start to goal (inclusive).
    pub path: Vec<(usize, usize)>,
    /// Steps the wave needed to reach the start.
    pub wave_steps: u64,
}

/// Tuning for the wave planner.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Threshold on the activator marking "wave arrived".
    pub threshold: f64,
    /// Abort after this many steps if the start is never reached.
    pub max_steps: u64,
    /// Inhibitory clamp applied to obstacle cells through the input map.
    pub obstacle_drive: f64,
    /// FHN excitability offset β (smaller = more excitable medium;
    /// corridors conduct more readily).
    pub beta: f64,
    /// FHN recovery rate ε (smaller = slower recovery, wider pulses).
    pub epsilon: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            threshold: 0.0,
            max_steps: 4000,
            obstacle_drive: -2.0,
            beta: 0.6,
            epsilon: 0.03,
        }
    }
}

/// Runs the excitable-medium planner.
///
/// Returns `Ok(None)` if the wave never reaches the start (no path).
///
/// # Errors
///
/// Propagates [`ModelError`] from the solver.
///
/// # Panics
///
/// Panics if start/goal are out of bounds or on obstacles.
pub fn plan(problem: &PlanProblem, cfg: &PlannerConfig) -> Result<Option<PlanResult>, ModelError> {
    let (arrival, reached_at) = compute_arrival(problem, cfg)?;
    let Some(wave_steps) = reached_at else {
        return Ok(None);
    };
    let Some(path) = descend(problem, &arrival) else {
        return Ok(None);
    };
    Ok(Some(PlanResult {
        arrival,
        path,
        wave_steps,
    }))
}

/// Runs the excitable wave and records first-crossing times.
fn compute_arrival(
    problem: &PlanProblem,
    cfg: &PlannerConfig,
) -> Result<(Grid<f64>, Option<u64>), ModelError> {
    let (rows, cols) = (problem.obstacles.rows(), problem.obstacles.cols());
    for (label, (r, c)) in [("start", problem.start), ("goal", problem.goal)] {
        assert!(r < rows && c < cols, "{label} out of bounds");
        assert!(!problem.obstacles.get(r, c), "{label} on an obstacle");
    }

    // Excitable FHN medium (no self-oscillation drive).
    let sys = ReactionDiffusion {
        drive: 0.0,
        epsilon: cfg.epsilon,
        beta: cfg.beta,
        du: 1.0,
        dv: 0.0,
        dt: 0.1,
        ..ReactionDiffusion::default()
    };
    let mut setup = sys.build(rows, cols)?;
    let u_layer = setup.observed[0].0;

    // Rest state of the local dynamics.
    let (u_rest, v_rest) = rest_state(sys.beta, sys.gamma);
    let goal = problem.goal;
    setup.initial[0].1 = Grid::from_fn(rows, cols, |r, c| {
        if r.abs_diff(goal.0) <= 1 && c.abs_diff(goal.1) <= 1 {
            1.5 // super-threshold stimulus at the goal
        } else {
            u_rest
        }
    })
    .into();
    setup.initial[1].1 = Field::Const(v_rest);
    // Obstacles are held at rest by a strong inhibitory input current.
    let drive = cfg.obstacle_drive;
    let obstacles = problem.obstacles.clone();
    setup.inputs = vec![(
        u_layer,
        Grid::from_fn(
            rows,
            cols,
            |r, c| if obstacles.get(r, c) { drive } else { 0.0 },
        )
        .into(),
    )];
    // Wire the input template the benchmark doesn't use: the current
    // enters through B (centre 1).
    setup.model = {
        // Rebuild with an input template appended.
        let mut b = cenn_core::CennModelBuilder::new(rows, cols);
        // Zero-flux walls: the wave must not wrap around the domain (a
        // toroidal short-cut would corrupt the distance field).
        let u = b.dynamic_layer("u", cenn_core::Boundary::ZeroFlux);
        let v = b.dynamic_layer("v", cenn_core::Boundary::ZeroFlux);
        // Re-create the FHN templates exactly as the benchmark does.
        let cube = b.register_func(cenn_lut::funcs::cube());
        let mut su = cenn_core::mapping::laplacian(sys.du, sys.h);
        su.set(0, 0, su.get(0, 0) + 1.0);
        b.state_template(u, u, su.into_state_template());
        b.state_template(u, v, cenn_core::mapping::center(-1.0).into_template());
        b.offset_expr(
            u,
            cenn_core::WeightExpr::product(
                -1.0 / 3.0,
                vec![cenn_core::Factor {
                    func: cube,
                    layer: u,
                }],
            ),
        );
        let mut sv = cenn_core::mapping::laplacian(sys.dv, sys.h);
        sv.set(0, 0, sv.get(0, 0) - sys.epsilon * sys.gamma);
        b.state_template(v, v, sv.into_state_template());
        b.state_template(
            v,
            u,
            cenn_core::mapping::center(sys.epsilon).into_template(),
        );
        b.offset(v, sys.epsilon * sys.beta);
        b.input_template(u, u, cenn_core::mapping::center(1.0).into_template());
        let mut lut = cenn_core::LutConfig::default();
        lut.per_func_specs
            .push((cube, cenn_lut::LutSpec::covering(-4.0, 4.0, 4)));
        b.lut_config(lut);
        b.build(sys.dt)?
    };

    let mut runner = FixedRunner::new(setup)?;
    let mut arrival = Grid::new(rows, cols, f64::INFINITY);
    arrival.set(goal.0, goal.1, 0.0);
    let mut reached_at = None;
    for step in 1..=cfg.max_steps {
        runner.step();
        let u = runner.state_f64(u_layer);
        for r in 0..rows {
            for c in 0..cols {
                if arrival.get(r, c).is_infinite() && u.get(r, c) > cfg.threshold {
                    arrival.set(r, c, step as f64);
                }
            }
        }
        if arrival.get(problem.start.0, problem.start.1).is_finite() {
            reached_at = Some(step);
            break;
        }
    }
    Ok((arrival, reached_at))
}

/// Steepest descent on arrival time from start to goal. Plateaus (cells
/// sharing a crossing step) are broken by Chebyshev distance to the goal,
/// with a visited set preventing cycles.
fn descend(problem: &PlanProblem, arrival: &Grid<f64>) -> Option<Vec<(usize, usize)>> {
    let (rows, cols) = (arrival.rows(), arrival.cols());
    let goal = problem.goal;
    let cheb = |p: (usize, usize)| p.0.abs_diff(goal.0).max(p.1.abs_diff(goal.1));
    let mut visited = Grid::new(rows, cols, false);
    let mut path = vec![problem.start];
    let mut here = problem.start;
    visited.set(here.0, here.1, true);
    while here != problem.goal {
        let mut best: Option<(usize, usize)> = None;
        let mut best_key = (arrival.get(here.0, here.1), cheb(here));
        for (dr, dc) in [
            (0i64, 1i64),
            (0, -1),
            (1, 0),
            (-1, 0),
            (1, 1),
            (1, -1),
            (-1, 1),
            (-1, -1),
        ] {
            let (nr, nc) = (here.0 as i64 + dr, here.1 as i64 + dc);
            if nr < 0 || nc < 0 || nr as usize >= rows || nc as usize >= cols {
                continue;
            }
            let (nr, nc) = (nr as usize, nc as usize);
            if problem.obstacles.get(nr, nc) || visited.get(nr, nc) {
                continue;
            }
            let key = (arrival.get(nr, nc), cheb((nr, nc)));
            if key < best_key {
                best_key = key;
                best = Some((nr, nc));
            }
        }
        let next = best?;
        here = next;
        visited.set(here.0, here.1, true);
        path.push(here);
        if path.len() > rows * cols {
            return None;
        }
    }
    Some(path)
}

/// Debug helper: reports why a plan failed.
#[doc(hidden)]
pub fn plan_debug(problem: &PlanProblem, cfg: &PlannerConfig) -> Result<String, ModelError> {
    let (arrival, reached) = compute_arrival(problem, cfg)?;
    let finite = arrival.iter().filter(|v| v.is_finite()).count();
    Ok(format!(
        "reached={reached:?}, finite arrival cells={finite}/{}, start arrival={:?}",
        arrival.len(),
        arrival.get(problem.start.0, problem.start.1)
    ))
}

/// Rest state of the FHN local dynamics by bisection.
fn rest_state(beta: f64, gamma: f64) -> (f64, f64) {
    let f = |u: f64| u - u * u * u / 3.0 - (u + beta) / gamma;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an obstacle grid from ASCII ('#' = wall).
    fn world(art: &[&str]) -> Grid<bool> {
        Grid::from_fn(art.len(), art[0].len(), |r, c| art[r].as_bytes()[c] == b'#')
    }

    #[test]
    fn open_field_path_is_near_straight() {
        let problem = PlanProblem {
            obstacles: Grid::new(24, 24, false),
            start: (20, 20),
            goal: (3, 3),
        };
        let result = plan(&problem, &PlannerConfig::default()).unwrap().unwrap();
        assert_eq!(*result.path.first().unwrap(), (20, 20));
        assert_eq!(*result.path.last().unwrap(), (3, 3));
        // Chebyshev distance is 17; allow mild wave-curvature slack.
        assert!(
            result.path.len() <= 26,
            "path of {} cells for distance 17",
            result.path.len()
        );
    }

    #[test]
    fn wave_routes_around_a_wall() {
        let obstacles = world(&[
            "........................",
            "........................",
            "........................",
            "........................",
            "....################....",
            "....#...................",
            "....#...................",
            "....#...................",
            "........................",
            "........................",
            "........................",
            "........................",
        ]);
        let problem = PlanProblem {
            obstacles,
            start: (10, 8),
            goal: (2, 8),
        };
        let result = plan(&problem, &PlannerConfig::default()).unwrap().unwrap();
        // The straight line is blocked by the wall at row 4: the path must
        // detour around one of its ends (left of col 4 or right of col 19).
        let detoured = result.path.iter().any(|&(_, c)| c <= 3 || c >= 20);
        assert!(detoured, "no detour in {:?}", result.path);
        assert!(
            result.path.len() > 9,
            "longer than the straight line: {}",
            result.path.len()
        );
        // No path cell on an obstacle.
        for &(r, c) in &result.path {
            assert!(
                !problem.obstacles.get(r, c),
                "path through wall at ({r},{c})"
            );
        }
    }

    #[test]
    fn walled_off_goal_returns_none() {
        let obstacles = world(&[
            "................",
            "................",
            "....########....",
            "....#......#....",
            "....#......#....",
            "....#......#....",
            "....########....",
            "................",
        ]);
        let problem = PlanProblem {
            obstacles,
            start: (0, 0),
            goal: (4, 8),
        };
        let cfg = PlannerConfig {
            max_steps: 1500,
            ..PlannerConfig::default()
        };
        assert!(plan(&problem, &cfg).unwrap().is_none());
    }

    #[test]
    #[should_panic(expected = "on an obstacle")]
    fn start_on_wall_panics() {
        let mut obstacles = Grid::new(8, 8, false);
        obstacles.set(1, 1, true);
        let problem = PlanProblem {
            obstacles,
            start: (1, 1),
            goal: (6, 6),
        };
        let _ = plan(&problem, &PlannerConfig::default());
    }

    #[test]
    fn channel_conduction_threshold() {
        // The documented critical channel width: 2-wide dies, 8-wide
        // conducts with the default medium.
        let conducts = |w: usize| {
            let rows = w + 4;
            let obstacles = Grid::from_fn(rows, 28, |r, _| r < 2 || r >= rows - 2);
            let mid = rows / 2;
            let problem = PlanProblem {
                obstacles,
                start: (mid, 25),
                goal: (mid, 2),
            };
            let cfg = PlannerConfig {
                max_steps: 2500,
                ..PlannerConfig::default()
            };
            plan(&problem, &cfg).unwrap().is_some()
        };
        assert!(!conducts(2), "2-wide channel absorbs the wave");
        assert!(conducts(8), "8-wide channel conducts");
    }

    #[test]
    fn arrival_times_increase_with_distance() {
        let problem = PlanProblem {
            obstacles: Grid::new(16, 16, false),
            start: (14, 14),
            goal: (2, 2),
        };
        let result = plan(&problem, &PlannerConfig::default()).unwrap().unwrap();
        let near = result.arrival.get(4, 4);
        let far = result.arrival.get(12, 12);
        assert!(near.is_finite() && far.is_finite());
        assert!(far > near, "monotone arrival: near {near}, far {far}");
    }
}
