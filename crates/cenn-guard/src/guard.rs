//! The guarded run loop: scrub → checkpoint → inject → step → check,
//! with policy-driven recovery.

use std::fmt;

use cenn_core::{CennSim, FuncEval, ModelError};
use cenn_obs::trace::timed;
use cenn_obs::{CounterId, Event, GuardEvent, MetricsHub, Phase, RecorderHandle, TraceHandle};

use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::config::{GuardConfig, RecoveryPolicy};
use crate::fault::FaultPlan;
use crate::health::HealthMonitor;

/// Why a guarded run stopped early.
#[derive(Debug)]
pub enum GuardError {
    /// The policy is [`RecoveryPolicy::Abort`] and an invariant tripped
    /// (or a scrub found corruption).
    Aborted {
        /// Step count when the run stopped.
        step: u64,
        /// What tripped.
        reason: String,
    },
    /// Rollback was requested but no checkpoint exists.
    NoCheckpoint,
    /// The rollback budget ([`GuardConfig::max_rollbacks`]) is exhausted.
    RollbackLimit(u64),
    /// A scheduled fault named an invalid target, or a restore failed.
    Model(ModelError),
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Aborted { step, reason } => write!(f, "guard aborted at step {step}: {reason}"),
            Self::NoCheckpoint => write!(f, "rollback requested but no checkpoint is stored"),
            Self::RollbackLimit(n) => write!(f, "rollback budget of {n} exhausted"),
            Self::Model(e) => write!(f, "guarded run failed: {e}"),
        }
    }
}

impl std::error::Error for GuardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for GuardError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}

/// What a guarded run did, beyond the sim's own step counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardReport {
    /// Steps executed inside the guarded loop, *including* replayed ones.
    pub steps_executed: u64,
    /// Faults injected from the plan.
    pub faults_injected: u64,
    /// Scrub passes run.
    pub scrubs: u64,
    /// Corrupt LUT entries detected and regenerated.
    pub scrub_repairs: u64,
    /// Checkpoints captured.
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Health-watchdog trips observed.
    pub health_trips: u64,
    /// Guard events emitted through the attached recorder.
    pub guard_events: u64,
    /// `true` once the sim was switched to exact evaluation by
    /// [`RecoveryPolicy::BypassLut`].
    pub lut_bypassed: bool,
}

/// Escalation cause passed to recovery.
enum Trip {
    /// A scrub pass repaired corrupt entries (table already clean).
    Corruption { repaired: u64 },
    /// A health invariant tripped (table possibly corrupt: scrub first).
    Health { kind: &'static str, value: f64 },
}

/// The fault-tolerant runtime: owns the configuration, the fault plan,
/// the checkpoint store, the health monitor, and an optional event
/// recorder, and drives a [`CennSim`] through [`run`](Self::run).
///
/// # Recovery correctness
///
/// A checkpoint is captured **only immediately after a clean scrub** at
/// its boundary, so every stored checkpoint has a verified-clean LUT
/// image and a clean state history. Scheduled faults fire exactly once
/// (the plan cursor survives rollback), and scrub repairs are
/// bit-identical regenerations. Together with the engine's determinism
/// contract (cache state never changes a looked-up value), rolling back
/// to the latest checkpoint after repairing a fault replays a trajectory
/// bit-identical to a run that never saw the fault.
#[derive(Debug, Clone, Default)]
pub struct Guard {
    cfg: GuardConfig,
    plan: FaultPlan,
    store: CheckpointStore,
    monitor: HealthMonitor,
    recorder: Option<RecorderHandle>,
    tracer: Option<TraceHandle>,
    metrics: Option<GuardMetrics>,
    report: GuardReport,
    last_checkpoint_step: Option<u64>,
}

/// Registered `guard.*` counter ids for [`Guard::with_metrics`].
#[derive(Debug, Clone)]
struct GuardMetrics {
    hub: MetricsHub,
    scrubs: CounterId,
    repairs: CounterId,
    checkpoints: CounterId,
    rollbacks: CounterId,
    faults: CounterId,
}

impl Guard {
    /// A guard with the given configuration and an empty fault plan.
    pub fn new(cfg: GuardConfig) -> Self {
        let store = CheckpointStore::new(cfg.checkpoint_capacity);
        Self {
            cfg,
            store,
            ..Self::default()
        }
    }

    /// Attaches a fault plan (builder style).
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Attaches a recorder for guard events (builder style). Share the
    /// handle with the sim to interleave guard events with step metrics
    /// in one stream.
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches a span tracer (builder style): scrub passes are recorded
    /// as `scrub` spans, checkpoint captures and rollback restores as
    /// `checkpoint` spans. Share the handle with the sim so guard phases
    /// land in the same histograms as the sweep phases.
    pub fn with_tracer(mut self, tracer: TraceHandle) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&TraceHandle> {
        self.tracer.as_ref()
    }

    /// Routes guard counters into `hub` (builder style):
    /// `guard.scrubs_total`, `guard.scrub_repairs_total`,
    /// `guard.checkpoints_total`, `guard.rollbacks_total`, and
    /// `guard.faults_injected_total` — the live-telemetry mirror of
    /// [`GuardReport`].
    #[must_use]
    pub fn with_metrics(mut self, hub: MetricsHub) -> Self {
        self.metrics = Some(GuardMetrics {
            scrubs: hub.counter("guard.scrubs_total"),
            repairs: hub.counter("guard.scrub_repairs_total"),
            checkpoints: hub.counter("guard.checkpoints_total"),
            rollbacks: hub.counter("guard.rollbacks_total"),
            faults: hub.counter("guard.faults_injected_total"),
            hub,
        });
        self
    }

    /// Adds `n` to the counter `pick` selects; no-op without a hub.
    fn minc(&self, pick: fn(&GuardMetrics) -> CounterId, n: u64) {
        if let Some(m) = &self.metrics {
            m.hub.inc(pick(m), n);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.cfg
    }

    /// The attached fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Stored checkpoints.
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.store
    }

    /// The cumulative report across `run` calls.
    pub fn report(&self) -> GuardReport {
        self.report
    }

    fn emit(&mut self, step: u64, kind: &str, detail: String, count: u64, value: f64) {
        let Some(rec) = &self.recorder else { return };
        if !rec.enabled() {
            return;
        }
        rec.record(&Event::Guard(GuardEvent {
            step,
            kind: kind.to_string(),
            detail,
            count,
            value,
        }));
        self.report.guard_events += 1;
    }

    /// `true` if `step` is a scrub-and-checkpoint boundary relative to
    /// the guarded run's start step.
    fn at_boundary(&self, start: u64, step: u64) -> bool {
        match self.cfg.checkpoint_every {
            Some(every) if every > 0 => (step - start).is_multiple_of(every),
            _ => step == start,
        }
    }

    /// Runs `n` guarded steps on `sim`.
    ///
    /// Per iteration: **scrub & checkpoint** (at boundaries) → **inject**
    /// due faults → **step** (which applies the model's post-step rule, so
    /// watchdogs see the final state) → **health check**, recovering per
    /// [`GuardConfig::on_divergence`] whenever a scrub repairs corruption
    /// or a watchdog trips. Rollback makes the loop re-execute steps, so
    /// the sim always ends at `start + n` steps on success.
    ///
    /// # Errors
    ///
    /// Returns [`GuardError`] when the policy aborts, rollback is
    /// impossible or exhausted, or a scheduled fault is invalid.
    pub fn run(&mut self, sim: &mut CennSim, n: u64) -> Result<GuardReport, GuardError> {
        let start = sim.steps();
        let target = start.saturating_add(n);
        sim.set_residual_tracking(true);
        loop {
            let now = sim.steps();
            if self.at_boundary(start, now) && self.last_checkpoint_step != Some(now) {
                self.report.scrubs += 1;
                self.minc(|m| m.scrubs, 1);
                let scrub = timed(self.tracer.as_ref(), Phase::Scrub, || sim.scrub_luts());
                if scrub.repaired > 0 {
                    self.report.scrub_repairs += scrub.repaired;
                    self.minc(|m| m.repairs, scrub.repaired);
                    self.emit(
                        now,
                        "scrub_repair",
                        format!(
                            "{} of {} entries regenerated",
                            scrub.repaired, scrub.scanned
                        ),
                        scrub.repaired,
                        0.0,
                    );
                    // The interval since the last checkpoint ran on a
                    // corrupt table: do not save, recover instead.
                    self.recover(
                        sim,
                        Trip::Corruption {
                            repaired: scrub.repaired,
                        },
                    )?;
                    continue;
                }
                let ckpt = timed(self.tracer.as_ref(), Phase::Checkpoint, || {
                    Checkpoint::capture(sim)
                });
                self.store.push(ckpt);
                self.report.checkpoints += 1;
                self.minc(|m| m.checkpoints, 1);
                self.last_checkpoint_step = Some(now);
                self.emit(now, "checkpoint", format!("at step {now}"), now, 0.0);
            }
            if now >= target {
                break;
            }
            for fault in self.plan.take_due(now) {
                fault.target.apply(sim)?;
                self.report.faults_injected += 1;
                self.minc(|m| m.faults, 1);
                self.emit(now, "fault_injected", fault.target.describe(), 1, 0.0);
            }
            sim.step();
            self.report.steps_executed += 1;
            if let Some(issue) = self.monitor.check(sim, &self.cfg) {
                self.report.health_trips += 1;
                self.emit(
                    sim.steps(),
                    issue.kind(),
                    issue.to_string(),
                    0,
                    issue.value(),
                );
                self.recover(
                    sim,
                    Trip::Health {
                        kind: issue.kind(),
                        value: issue.value(),
                    },
                )?;
            }
        }
        Ok(self.report)
    }

    /// Applies the configured recovery policy after `trip`.
    fn recover(&mut self, sim: &mut CennSim, trip: Trip) -> Result<(), GuardError> {
        let step = sim.steps();
        let reason = match &trip {
            Trip::Corruption { repaired } => {
                format!("scrub repaired {repaired} corrupt LUT entries")
            }
            Trip::Health { kind, value } => format!("health watchdog tripped: {kind} ({value})"),
        };
        match self.cfg.on_divergence {
            RecoveryPolicy::Abort => Err(GuardError::Aborted { step, reason }),
            RecoveryPolicy::BypassLut => {
                if !self.report.lut_bypassed {
                    sim.set_eval(FuncEval::Exact);
                    self.report.lut_bypassed = true;
                    self.emit(step, "bypass_lut", reason, 0, 0.0);
                }
                Ok(())
            }
            RecoveryPolicy::Rollback => {
                if self.report.rollbacks >= self.cfg.max_rollbacks {
                    return Err(GuardError::RollbackLimit(self.cfg.max_rollbacks));
                }
                if let Trip::Health { .. } = trip {
                    // The watchdog may have tripped on table corruption
                    // mid-interval: repair before replaying, otherwise the
                    // replay re-diverges identically.
                    self.report.scrubs += 1;
                    self.minc(|m| m.scrubs, 1);
                    let scrub = timed(self.tracer.as_ref(), Phase::Scrub, || sim.scrub_luts());
                    if scrub.repaired > 0 {
                        self.report.scrub_repairs += scrub.repaired;
                        self.minc(|m| m.repairs, scrub.repaired);
                        self.emit(
                            step,
                            "scrub_repair",
                            format!(
                                "{} of {} entries regenerated",
                                scrub.repaired, scrub.scanned
                            ),
                            scrub.repaired,
                            0.0,
                        );
                    }
                }
                let ckpt = self.store.latest().ok_or(GuardError::NoCheckpoint)?;
                let to = ckpt.step();
                timed(self.tracer.as_ref(), Phase::Checkpoint, || {
                    sim.restore(&ckpt.snapshot)
                })?;
                self.monitor.reset();
                self.report.rollbacks += 1;
                self.minc(|m| m.rollbacks, 1);
                self.last_checkpoint_step = Some(to);
                self.emit(sim.steps(), "rollback", reason, to, 0.0);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultTarget;
    use cenn_core::{mapping, Boundary, CennModelBuilder, Factor, Grid, WeightExpr};

    /// Logistic growth on a 4×4 grid: x' = x - x², LUT-backed square.
    fn logistic_sim() -> CennSim {
        let mut b = CennModelBuilder::new(4, 4);
        let u = b.dynamic_layer("u", Boundary::Zero);
        let sq = b.register_func(cenn_lut::funcs::square());
        b.state_template(u, u, mapping::center(1.0).into_state_template());
        b.offset_expr(
            u,
            WeightExpr::product(-1.0, vec![Factor { func: sq, layer: u }]),
        );
        let mut sim = CennSim::new(b.build(0.05).unwrap()).unwrap();
        sim.set_state_f64(u, &Grid::from_fn(4, 4, |r, c| 0.1 + 0.02 * (r + c) as f64))
            .unwrap();
        sim
    }

    fn final_bits(sim: &CennSim) -> Vec<Vec<i32>> {
        sim.states()
            .iter()
            .map(|g| g.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    fn lut_fault_at(step: u64, bit: u32) -> FaultPlan {
        let mut plan = FaultPlan::default();
        plan.push(
            step,
            FaultTarget::Lut {
                func: 0,
                idx: 0,
                word: 0,
                bit,
            },
        );
        plan
    }

    #[test]
    fn guarded_run_without_faults_matches_unguarded() {
        let mut plain = logistic_sim();
        plain.run(30);
        let mut sim = logistic_sim();
        let report = Guard::new(GuardConfig::default())
            .run(&mut sim, 30)
            .unwrap();
        assert_eq!(sim.steps(), 30);
        assert_eq!(final_bits(&sim), final_bits(&plain));
        assert_eq!(report.faults_injected, 0);
        assert_eq!(report.rollbacks, 0);
        assert!(report.checkpoints >= 2, "boundaries at 0 and 16");
    }

    #[test]
    fn lut_fault_is_repaired_and_rolled_back_to_clean_trajectory() {
        let mut clean = logistic_sim();
        clean.run(40);
        let mut sim = logistic_sim();
        let mut guard = Guard::new(GuardConfig::default()).with_plan(lut_fault_at(20, 30));
        let report = guard.run(&mut sim, 40).unwrap();
        assert_eq!(report.faults_injected, 1);
        assert_eq!(report.scrub_repairs, 1);
        assert!(report.rollbacks >= 1);
        assert_eq!(sim.steps(), 40);
        assert_eq!(
            final_bits(&sim),
            final_bits(&clean),
            "recovered run must be bit-identical to the unfaulted run"
        );
    }

    #[test]
    fn abort_policy_stops_the_run() {
        let cfg = GuardConfig {
            checkpoint_every: Some(8),
            on_divergence: RecoveryPolicy::Abort,
            ..GuardConfig::default()
        };
        let mut sim = logistic_sim();
        let err = Guard::new(cfg)
            .with_plan(lut_fault_at(2, 30))
            .run(&mut sim, 40)
            .unwrap_err();
        assert!(matches!(err, GuardError::Aborted { .. }), "got {err}");
    }

    #[test]
    fn bypass_lut_policy_recovers_without_rollback() {
        let cfg = GuardConfig {
            checkpoint_every: Some(8),
            on_divergence: RecoveryPolicy::BypassLut,
            ..GuardConfig::default()
        };
        let mut sim = logistic_sim();
        let report = Guard::new(cfg)
            .with_plan(lut_fault_at(2, 30))
            .run(&mut sim, 40)
            .unwrap();
        assert!(report.lut_bypassed);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(sim.steps(), 40);
    }

    #[test]
    fn rollback_without_a_checkpoint_is_an_error() {
        let cfg = GuardConfig {
            checkpoint_every: Some(4),
            checkpoint_capacity: 0,
            ..GuardConfig::default()
        };
        let mut sim = logistic_sim();
        let err = Guard::new(cfg)
            .with_plan(lut_fault_at(1, 30))
            .run(&mut sim, 20)
            .unwrap_err();
        assert!(matches!(err, GuardError::NoCheckpoint), "got {err}");
    }

    #[test]
    fn tracer_records_scrub_and_checkpoint_spans() {
        let mut sim = logistic_sim();
        let tracer = TraceHandle::histograms_only();
        let mut guard = Guard::new(GuardConfig::default())
            .with_tracer(tracer.clone())
            .with_plan(lut_fault_at(20, 30));
        let report = guard.run(&mut sim, 40).unwrap();
        assert!(guard.tracer().is_some());
        let scrubs = tracer.with(|c| c.phase_count(Phase::Scrub));
        // Checkpoint spans cover captures and rollback restores.
        let ckpts = tracer.with(|c| c.phase_count(Phase::Checkpoint));
        assert_eq!(scrubs, report.scrubs);
        assert_eq!(ckpts, report.checkpoints + report.rollbacks);
        assert!(report.rollbacks >= 1, "the fault must force a rollback");
    }

    #[test]
    fn metrics_hub_mirrors_the_guard_report() {
        let hub = MetricsHub::new();
        let mut sim = logistic_sim();
        let mut guard = Guard::new(GuardConfig::default())
            .with_metrics(hub.clone())
            .with_plan(lut_fault_at(20, 30));
        let report = guard.run(&mut sim, 40).unwrap();
        let snap = hub.snapshot();
        assert_eq!(snap.counter("guard.scrubs_total"), Some(report.scrubs));
        assert_eq!(
            snap.counter("guard.scrub_repairs_total"),
            Some(report.scrub_repairs)
        );
        assert_eq!(
            snap.counter("guard.checkpoints_total"),
            Some(report.checkpoints)
        );
        assert_eq!(
            snap.counter("guard.rollbacks_total"),
            Some(report.rollbacks)
        );
        assert_eq!(
            snap.counter("guard.faults_injected_total"),
            Some(report.faults_injected)
        );
        assert!(report.rollbacks >= 1, "the fault must force a rollback");
    }

    #[test]
    fn state_fault_trips_watchdog_and_rolls_back() {
        let mut clean = logistic_sim();
        clean.run(32);
        let cfg = GuardConfig {
            checkpoint_every: Some(8),
            // A bit-29 flip throws the cell to ≈ −8192: far enough out
            // that the next step's |Δx| blows the bound (the square LUT
            // clamps at its table edge, so the kick is ~400, not ~8000).
            max_residual: 50.0,
            ..GuardConfig::default()
        };
        let mut plan = FaultPlan::default();
        plan.push(
            12,
            FaultTarget::State {
                layer: 0,
                r: 1,
                c: 2,
                bit: 29,
            },
        );
        let mut sim = logistic_sim();
        let report = Guard::new(cfg).with_plan(plan).run(&mut sim, 32).unwrap();
        assert!(report.health_trips >= 1);
        assert!(report.rollbacks >= 1);
        assert_eq!(
            final_bits(&sim),
            final_bits(&clean),
            "state-fault recovery must replay the clean trajectory"
        );
    }
}
