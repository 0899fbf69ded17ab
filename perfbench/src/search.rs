//! One search, untraced or traced, and the correctness gate over its
//! repetitions.

use crate::stats;
use crate::trace::{Clock, Timed, Tracer};
use crate::workload::Workload;
use fastft_core::pipeline::{
    AdaptiveRewardModel, CascadeSource, Driver, ReplayLearner, TelemetryCollector,
};
use fastft_core::{report, Expr, RunResult, Session, StopReason};
use fastft_tabular::Dataset;
use std::rc::Rc;
use std::time::Instant;

/// Deterministic work counters of one search. Identical across
/// repetitions of a search, and equal to the event fold of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    pub steps: usize,
    pub episodes: usize,
    pub downstream_evals: usize,
    pub cache_hits: usize,
    pub predictor_calls: usize,
    pub prefix_hits: u64,
    pub prefix_misses: u64,
    pub score_batches: u64,
    pub checkpoints: usize,
    pub eval_faults: usize,
    pub quarantined: usize,
    pub weight_rollbacks: usize,
}

impl Counters {
    /// The run's counters, checked against the event fold of the same run.
    fn of(r: &RunResult, fold: &TelemetryCollector) -> Result<Counters, String> {
        let (t, f) = (&r.telemetry, fold.telemetry());
        let pairs = [
            ("steps", r.records.len(), fold.steps()),
            ("episodes", r.episode_best.len(), fold.episodes()),
            ("downstream_evals", t.downstream_evals, f.downstream_evals),
            ("cache_hits", t.cache_hits, f.cache_hits),
            ("predictor_calls", t.predictor_calls, f.predictor_calls),
            ("eval_faults", t.eval_faults, f.eval_faults),
            ("quarantined", t.quarantined, f.quarantined),
            ("weight_rollbacks", t.weight_rollbacks, f.weight_rollbacks),
        ];
        for (name, run, folded) in pairs {
            if run != folded {
                return Err(format!("{name}: run telemetry {run} != event fold {folded}"));
            }
        }
        Ok(Counters {
            steps: fold.steps(),
            episodes: fold.episodes(),
            downstream_evals: f.downstream_evals,
            cache_hits: f.cache_hits,
            predictor_calls: f.predictor_calls,
            prefix_hits: t.prefix_hits,
            prefix_misses: t.prefix_misses,
            score_batches: t.score_batches,
            checkpoints: fold.checkpoints(),
            eval_faults: f.eval_faults,
            quarantined: f.quarantined,
            weight_rollbacks: f.weight_rollbacks,
        })
    }
}

/// One completed search: its timings and what the correctness gate and the
/// per-layer numbers need from its result.
pub struct Rep {
    /// Wall time of the whole search.
    pub run_s: f64,
    /// Wall time until the step that reached the final best score.
    pub time_to_best_s: f64,
    pub base_score: f64,
    pub best_score: f64,
    pub best_exprs: Vec<Expr>,
    pub stop_reason: StopReason,
    pub counters: Counters,
    /// [`stats::digest`] of the result.
    pub digest: u64,
    /// The best feature set's data, kept only when asked for, so that the
    /// process's peak memory reflects one search rather than every result.
    pub best_dataset: Option<Dataset>,
}

impl Rep {
    fn new(
        t0: Instant,
        run_s: f64,
        result: RunResult,
        clock: &Clock,
        keep_data: bool,
    ) -> Result<Rep, String> {
        let counters = Counters::of(&result, &clock.collector)?;
        // The best score was set by the base evaluation (finished when the
        // episode loop started) or by the first step that evaluated to it.
        let best_at = if result.best_score.to_bits() == result.base_score.to_bits() {
            clock.run_started
        } else {
            result
                .records
                .iter()
                .position(|r| !r.predicted && r.score.to_bits() == result.best_score.to_bits())
                .and_then(|i| clock.steps.get(i).copied())
        };
        let best_at = best_at.ok_or("no step reached the final best score")?;
        Ok(Rep {
            run_s,
            time_to_best_s: best_at.duration_since(t0).as_secs_f64(),
            digest: stats::digest(&result),
            base_score: result.base_score,
            best_score: result.best_score,
            stop_reason: result.stop_reason,
            counters,
            best_dataset: keep_data.then_some(result.best_dataset),
            best_exprs: result.best_exprs,
        })
    }
}

/// Downstream evaluations and whole searches attempted and failed
/// (`fail_ratio = failed / attempted`).
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one search's outcome; keep it if it returned a result.
    pub fn record<T>(&mut self, outcome: Result<T, String>, rep: impl Fn(&T) -> &Rep) -> Option<T> {
        match outcome {
            Ok(out) => {
                let c = &rep(&out).counters;
                self.attempted += c.downstream_evals + 1;
                self.failed += c.eval_faults;
                Some(out)
            }
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.errors.push(e);
                None
            }
        }
    }
}

/// One untraced search through the public session API.
pub fn run_plain(session: &Session, data: &Dataset) -> Result<Rep, String> {
    let mut clock = Clock::new();
    let t0 = Instant::now();
    let result = session.run_observed(data, &mut clock).map_err(|e| e.to_string())?;
    let run_s = t0.elapsed().as_secs_f64();
    Rep::new(t0, run_s, result, &clock, false)
}

/// One search composed from timed wrapper stages; `keep_data` keeps the
/// best feature set's data for the layer probes.
pub fn run_traced(
    session: &Session,
    data: &Dataset,
    keep_data: bool,
) -> Result<(Rep, Tracer), String> {
    let tracer = Tracer::shared();
    let mut clock = Clock::traced(&tracer);
    let t0 = tracer.borrow().t0();
    let driver = Driver::with_stages(
        session.cfg(),
        data,
        session.runtime(),
        Timed::new(CascadeSource, &tracer),
        Timed::new(AdaptiveRewardModel, &tracer),
        Timed::new(ReplayLearner, &tracer),
    );
    let result = driver.execute(&mut clock).map_err(|e| e.to_string())?;
    let run_s = t0.elapsed().as_secs_f64();
    let rep = Rep::new(t0, run_s, result, &clock, keep_data)?;
    drop(clock);
    let tracer = Rc::try_unwrap(tracer).expect("the finished run holds no tracer handle");
    Ok((rep, tracer.into_inner()))
}

/// The correctness gate over every repetition of one search: identical
/// digests and counters, a complete run, and a bit-exact replay of the
/// best feature set from the original data.
pub fn gate(w: &Workload, session: &Session, data: &Dataset, reps: &[&Rep]) -> Vec<String> {
    let mut failures = Vec::new();
    let seed = session.cfg().seed;
    let Some(first) = reps.first() else {
        return vec![format!("seed {seed}: no search completed")];
    };
    for (i, rep) in reps.iter().enumerate() {
        if rep.digest != first.digest {
            failures.push(format!("seed {seed} repetition {i}: result digest differs"));
        }
        if rep.counters != first.counters {
            failures.push(format!(
                "seed {seed} repetition {i}: counters {:?} differ from {:?}",
                rep.counters, first.counters
            ));
        }
    }
    let r = first;
    if r.stop_reason != StopReason::Completed {
        failures.push(format!("seed {seed}: search stopped early: {}", r.stop_reason));
    }
    let c = &first.counters;
    if c.steps != w.episodes * w.steps || c.episodes != w.episodes {
        failures.push(format!("seed {seed}: ran {} steps in {} episodes", c.steps, c.episodes));
    }
    let want_checkpoints = w.episodes.checked_div(w.checkpoint_every).unwrap_or(0);
    if c.checkpoints != want_checkpoints {
        failures.push(format!(
            "seed {seed}: wrote {} checkpoints, expected {want_checkpoints}",
            c.checkpoints
        ));
    }
    let replayed = report::apply_feature_set(data, &r.best_exprs)
        .and_then(|d| session.cfg().evaluator.evaluate_with(session.runtime(), &d));
    match replayed {
        Ok(v) if v.to_bits() == r.best_score.to_bits() => {}
        Ok(v) => failures
            .push(format!("seed {seed}: replayed best score {v} != reported {}", r.best_score)),
        Err(e) => failures.push(format!("seed {seed}: replaying the best feature set: {e}")),
    }
    failures
}
