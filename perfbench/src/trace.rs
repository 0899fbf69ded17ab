//! Outside-in tracing of a FASTFT search.
//!
//! The traced run composes `Driver::with_stages` from [`Timed`] wrappers
//! around the paper's `CascadeSource`, `AdaptiveRewardModel` and
//! `ReplayLearner`: each call into a stage becomes a [`Span`] tagged with
//! the episode and step that caused it. A passive [`Clock`] observer adds
//! the spans the driver owns (state set-up plus base evaluation, and
//! checkpoint writes) from event timestamps. Nothing inside the engine is
//! instrumented; the untraced run uses the same [`Clock`] without a tracer
//! for step timestamps and the event fold of its counters.

use fastft_core::agents::MemoryUnit;
use fastft_core::pipeline::{
    CandidateSource, Crossing, Learner, RewardModel, RunEvent, RunObserver, ScoreInput, Scored,
    Selection, StageCx, Survey, TelemetryCollector,
};
use fastft_core::{FeatureSet, Telemetry};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Span layers, in pipeline order. `base_eval` covers search-state
/// construction plus the base-score evaluation before the episode loop.
pub const LAYERS: [&str; 9] = [
    "base_eval",
    "survey",
    "absorb",
    "select",
    "apply",
    "score",
    "train_cold",
    "finetune",
    "checkpoint",
];

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (one of [`LAYERS`]).
    pub layer: &'static str,
    /// Episode that caused the span.
    pub episode: usize,
    /// Step that caused the span; `steps_per_episode` for work at the
    /// episode boundary (training, checkpoint).
    pub step: usize,
    /// Start, seconds since the run began.
    pub start_s: f64,
    /// End, seconds since the run began.
    pub end_s: f64,
}

/// Seconds inside `score` spans split by what the engine's own telemetry
/// attributes them to.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScoreSplit {
    /// Downstream cross-validation.
    pub eval_s: f64,
    /// Performance-predictor inference.
    pub predictor_s: f64,
    /// Novelty-estimator inference.
    pub novelty_s: f64,
    /// Downstream evaluations run inside `score` (cache misses).
    pub evals: usize,
}

impl ScoreSplit {
    fn add_delta(&mut self, before: &Telemetry, after: &Telemetry) {
        self.eval_s += after.evaluation_secs - before.evaluation_secs;
        self.predictor_s += after.predictor_secs - before.predictor_secs;
        self.novelty_s += after.novelty_secs - before.novelty_secs;
        self.evals += after.downstream_evals - before.downstream_evals;
    }
}

/// In-memory span log of one traced run.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    episode: usize,
    step: usize,
    pending_checkpoint: Option<Instant>,
    /// Every span, in completion order.
    pub spans: Vec<Span>,
    /// Telemetry split of the `score` spans.
    pub score: ScoreSplit,
}

/// A tracer shared by the wrapper stages and the observer of one run.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A tracer whose clock starts now; create it right before the driver.
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            t0: Instant::now(),
            episode: 0,
            step: 0,
            pending_checkpoint: None,
            spans: Vec::new(),
            score: ScoreSplit::default(),
        }))
    }

    /// When the run began.
    pub fn t0(&self) -> Instant {
        self.t0
    }

    fn push(&mut self, layer: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            layer,
            episode: self.episode,
            step: self.step,
            start_s: start.duration_since(self.t0).as_secs_f64(),
            end_s: end.duration_since(self.t0).as_secs_f64(),
        });
    }

    fn on_event(&mut self, event: &RunEvent<'_>, now: Instant) {
        match event {
            RunEvent::RunStarted { .. } => self.push("base_eval", self.t0, now),
            RunEvent::EpisodeStarted { episode, .. } => {
                self.episode = *episode;
                self.step = 0;
            }
            RunEvent::StepCompleted { .. } => self.step += 1,
            RunEvent::EpisodeCompleted { .. } => self.pending_checkpoint = Some(now),
            RunEvent::CheckpointWritten { .. } => {
                if let Some(start) = self.pending_checkpoint.take() {
                    self.push("checkpoint", start, now);
                }
            }
            _ => {}
        }
    }

    /// Total seconds per layer (every layer of [`LAYERS`] present).
    pub fn layer_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for s in &self.spans {
            *out.get_mut(s.layer).expect("spans use LAYERS names") += s.end_s - s.start_s;
        }
        out
    }

    /// Check that spans never overlap: they are sequential calls on the
    /// driver's thread, so together they can only cover part of the run.
    pub fn check_disjoint(&self) -> Result<(), String> {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        for pair in spans.windows(2) {
            if pair[1].start_s < pair[0].end_s {
                return Err(format!(
                    "spans overlap: {} (ep {} step {}) and {} (ep {} step {})",
                    pair[0].layer,
                    pair[0].episode,
                    pair[0].step,
                    pair[1].layer,
                    pair[1].episode,
                    pair[1].step
                ));
            }
        }
        Ok(())
    }

    /// The span log as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"layer\":\"{}\",\"episode\":{},\"step\":{},\"start_s\":{},\"end_s\":{}}}",
                s.layer, s.episode, s.step, s.start_s, s.end_s
            );
        }
        out
    }
}

/// A stage wrapped so every call into it records a span.
pub struct Timed<T> {
    inner: T,
    tracer: SharedTracer,
}

impl<T> Timed<T> {
    /// Wrap `inner`, logging its calls to `tracer`.
    pub fn new(inner: T, tracer: &SharedTracer) -> Self {
        Timed { inner, tracer: Rc::clone(tracer) }
    }

    fn span<R>(&mut self, layer: &'static str, call: impl FnOnce(&mut T) -> R) -> R {
        let start = Instant::now();
        let out = call(&mut self.inner);
        self.tracer.borrow_mut().push(layer, start, Instant::now());
        out
    }
}

impl<S: CandidateSource> CandidateSource for Timed<S> {
    fn survey(&mut self, cx: &mut StageCx<'_>, fs: &FeatureSet, prev_state: &[f64]) -> Survey {
        self.span("survey", |s| s.survey(cx, fs, prev_state))
    }

    fn select(&mut self, cx: &mut StageCx<'_>, survey: &Survey) -> Selection {
        self.span("select", |s| s.select(cx, survey))
    }

    fn apply(
        &mut self,
        cx: &mut StageCx<'_>,
        fs: &mut FeatureSet,
        survey: &Survey,
        sel: &Selection,
    ) -> Crossing {
        self.span("apply", |s| s.apply(cx, fs, survey, sel))
    }
}

impl<R: RewardModel> RewardModel for Timed<R> {
    fn score(&mut self, cx: &mut StageCx<'_>, input: ScoreInput<'_>) -> Scored {
        let before = cx.state.telemetry;
        let out = self.span("score", |r| r.score(cx, input));
        self.tracer.borrow_mut().score.add_delta(&before, &cx.state.telemetry);
        out
    }
}

impl<L: Learner> Learner for Timed<L> {
    fn absorb(&mut self, cx: &mut StageCx<'_>, mem: MemoryUnit) {
        self.span("absorb", |l| l.absorb(cx, mem))
    }

    fn train_cold_start(&mut self, cx: &mut StageCx<'_>) {
        self.span("train_cold", |l| l.train_cold_start(cx))
    }

    fn finetune(&mut self, cx: &mut StageCx<'_>) {
        self.span("finetune", |l| l.finetune(cx))
    }
}

/// Passive observer: folds the counters from events, timestamps the start
/// of the episode loop and every completed step, and feeds the tracer of a
/// traced run.
pub struct Clock {
    /// Counters rebuilt from the event stream.
    pub collector: TelemetryCollector,
    /// When the episode loop started (the base evaluation had finished).
    pub run_started: Option<Instant>,
    /// Completion time of every step, in order.
    pub steps: Vec<Instant>,
    tracer: Option<SharedTracer>,
}

impl Clock {
    /// Observer for an untraced run.
    pub fn new() -> Self {
        Clock {
            collector: TelemetryCollector::new(),
            run_started: None,
            steps: Vec::new(),
            tracer: None,
        }
    }

    /// Observer for a traced run, feeding `tracer`.
    pub fn traced(tracer: &SharedTracer) -> Self {
        Clock { tracer: Some(Rc::clone(tracer)), ..Clock::new() }
    }
}

impl RunObserver for Clock {
    fn on_event(&mut self, event: &RunEvent<'_>) {
        let now = Instant::now();
        self.collector.on_event(event);
        match event {
            RunEvent::RunStarted { .. } => self.run_started = Some(now),
            RunEvent::StepCompleted { .. } => self.steps.push(now),
            _ => {}
        }
        if let Some(tracer) = &self.tracer {
            tracer.borrow_mut().on_event(event, now);
        }
    }
}
