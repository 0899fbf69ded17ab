//! The three stage roles of a FASTFT step and their paper implementations.
//!
//! A step decomposes into the paper's three concerns:
//!
//! * [`CandidateSource`] — *where do candidate transformations come from?*
//!   [`CascadeSource`] implements §III-B/C: mutual-information clustering,
//!   then the cascading head → operation → tail agent selections, then the
//!   group-wise crossing.
//! * [`RewardModel`] — *what is a candidate worth?* [`AdaptiveRewardModel`]
//!   implements Eq. 5 (cold, real evaluation), Eq. 6 (warm, predictor
//!   difference), the RND novelty bonus, the §III-D α/β percentile
//!   triggers, and the quarantine fallback for faulting evaluations.
//! * [`Learner`] — *how does experience change the policy and components?*
//!   [`ReplayLearner`] implements prioritized replay (Eq. 10), cold-start
//!   component training (Alg. 1) and guarded periodic fine-tuning (Alg. 2).
//!
//! Stages are stateless strategy objects: every piece of mutable run state
//! lives in [`SearchState`] and reaches them through [`StageCx`]. That
//! keeps the decision stream a property of the state (and its single RNG),
//! not of which stage objects happen to be composed — swapping a stage for
//! an ablation variant cannot accidentally perturb the others.

use crate::agents::{MemoryUnit, Role};
use crate::cluster::{cluster_features, MiCache};
use crate::config::FastFtConfig;
use crate::novelty::NoveltyEstimator;
use crate::ops::Op;
use crate::pipeline::event::{RunEvent, RunObserver};
use crate::pipeline::search_state::SearchState;
use crate::predictor::PerformancePredictor;
use crate::sequence::{canonical_key, encode_feature_set};
use crate::state;
use crate::transform::FeatureSet;
use fastft_rl::schedule::ExpDecay;
use fastft_runtime::Runtime;
use fastft_tabular::{Dataset, FastFtResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Percentile of a sample (linear interpolation, `q` in `[0, 1]`).
///
/// Returns `NaN` for an empty sample: every comparison against it is
/// `false`, so an empty history can never fire a percentile trigger.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    fastft_tabular::stats::percentile_sorted(&sorted, q)
}

/// Everything a stage may touch: the run's configuration and inputs
/// (shared), its mutable [`SearchState`], and the observer sink.
pub struct StageCx<'r> {
    /// Run configuration.
    pub cfg: &'r FastFtConfig,
    /// The original (untransformed) dataset.
    pub original: &'r Dataset,
    /// Worker pool for data-parallel kernels.
    pub runtime: &'r Runtime,
    /// The run's mutable state.
    pub state: &'r mut SearchState,
    /// Event sink (passive; cannot affect the decision stream).
    pub observer: &'r mut dyn RunObserver,
}

impl StageCx<'_> {
    /// Deliver `event` to the observer.
    pub fn emit(&mut self, event: RunEvent<'_>) {
        self.observer.on_event(&event);
    }

    /// Evaluate `data` downstream, memoised on the canonical feature-set
    /// key when one is supplied. Cache hits return the stored score without
    /// re-running cross-validation (and count as `cache_hits`, not
    /// `downstream_evals`); `None` bypasses the cache entirely.
    pub fn evaluate_downstream(&mut self, data: &Dataset, key: Option<&str>) -> FastFtResult<f64> {
        if let Some(k) = key {
            if let Some(&score) = self.state.eval_cache.get(k) {
                self.state.telemetry.cache_hits += 1;
                self.emit(RunEvent::DownstreamEvaluated {
                    cache_hit: true,
                    evicted: false,
                    faulted: false,
                });
                return Ok(score);
            }
        }
        let t0 = Instant::now();
        let score = self.cfg.evaluator.evaluate_with(self.runtime, data)?;
        self.state.telemetry.evaluation_secs += t0.elapsed().as_secs_f64();
        self.state.telemetry.downstream_evals += 1;
        let mut evicted = false;
        if let Some(k) = key {
            if self.state.eval_cache.insert(k.to_owned(), score) {
                self.state.telemetry.cache_evictions += 1;
                evicted = true;
            }
        }
        self.emit(RunEvent::DownstreamEvaluated { cache_hit: false, evicted, faulted: false });
        Ok(score)
    }
}

/// The clustering survey of the current feature space: candidate head
/// groups and their agent-facing representations.
pub struct Survey {
    /// Mutual-information feature clusters (index lists).
    pub clusters: Vec<Vec<usize>>,
    /// Statistical representation of each cluster.
    pub cluster_reps: Vec<Vec<f64>>,
    /// Head-agent candidate vectors, one per cluster.
    pub head_cands: Vec<Vec<f64>>,
    /// Overall feature-space representation the candidates were built on.
    pub overall: Vec<f64>,
}

/// The cascading agents' choice of head cluster, operation and (for binary
/// operations) tail cluster.
pub struct Selection {
    /// Chosen head-cluster index.
    pub head_idx: usize,
    /// Operation-agent candidate vectors (one per [`Op::ALL`] entry).
    pub op_cands: Vec<Vec<f64>>,
    /// Chosen operation index into [`Op::ALL`].
    pub op_idx: usize,
    /// Chosen operation.
    pub op: Op,
    /// Tail candidates and chosen index (binary operations only).
    pub tail: Option<(Vec<Vec<f64>>, usize)>,
}

/// Result of applying a selection to the feature set.
pub struct Crossing {
    /// Traceable expressions added this step.
    pub new_exprs: Vec<String>,
    /// Whether the crossing produced any new feature at all.
    pub produced: bool,
    /// Token encoding of the updated feature set.
    pub seq: Vec<usize>,
    /// Statistical representation of the updated feature space.
    pub next_state: Vec<f64>,
    /// Canonical (order-invariant) key of the updated feature set.
    pub key: String,
}

/// Inputs the reward model needs to value one candidate feature set.
pub struct ScoreInput<'s> {
    /// Episode index (the novelty bonus activates after cold start).
    pub episode: usize,
    /// Whether rewards come from real evaluation (Eq. 5) vs. the
    /// predictor (Eq. 6).
    pub cold: bool,
    /// The candidate's data.
    pub data: &'s Dataset,
    /// The candidate's canonical key (memo cache / quarantine).
    pub key: &'s str,
    /// The candidate's token sequence.
    pub seq: &'s [usize],
    /// The previous step's token sequence.
    pub prev_seq: &'s [usize],
    /// The previous step's performance.
    pub prev_v: f64,
}

/// The reward model's verdict on one candidate.
pub struct Scored {
    /// Performance associated with the step (predicted or evaluated).
    pub v: f64,
    /// Reward for the agents (before the unproductive-step penalty).
    pub reward: f64,
    /// Whether `v` came from the predictor rather than a downstream run.
    pub predicted: bool,
    /// Raw RND novelty of the sequence (0 when the estimator is off).
    pub novelty: f64,
}

/// Produces candidate transformations: surveys the feature space, lets the
/// policy pick, and applies the pick.
///
/// Split into three calls because the driver must interleave replay
/// learning between `survey` and `select` (the pending memory needs this
/// step's head candidates before it can be stored — and storing it samples
/// the replay buffer, which consumes RNG *before* the head selection).
pub trait CandidateSource {
    /// Cluster the current feature space and build candidate
    /// representations. Consumes no RNG.
    fn survey(&mut self, cx: &mut StageCx<'_>, fs: &FeatureSet, prev_state: &[f64]) -> Survey;

    /// Run the policy over the survey (head → op → tail).
    fn select(&mut self, cx: &mut StageCx<'_>, survey: &Survey) -> Selection;

    /// Apply the selection to `fs`: cross, extend, re-select top features,
    /// and re-encode.
    fn apply(
        &mut self,
        cx: &mut StageCx<'_>,
        fs: &mut FeatureSet,
        survey: &Survey,
        sel: &Selection,
    ) -> Crossing;
}

/// Values a candidate feature set and produces the step reward.
pub trait RewardModel {
    /// Score one candidate (see [`ScoreInput`] / [`Scored`]).
    fn score(&mut self, cx: &mut StageCx<'_>, input: ScoreInput<'_>) -> Scored;
}

/// Consumes experience: stores transition memories, optimises the agents,
/// and (re)trains the evaluation components.
pub trait Learner {
    /// Store a completed transition memory and optimise the agents from a
    /// replay sample (Alg. 1 line 9 / Alg. 2 line 17).
    fn absorb(&mut self, cx: &mut StageCx<'_>, mem: MemoryUnit);

    /// Alg. 1 lines 14–19: initial training of both components from the
    /// cold-start collection.
    fn train_cold_start(&mut self, cx: &mut StageCx<'_>);

    /// Alg. 2 lines 19–24: periodic fine-tuning from the memory buffer
    /// (uniform samples).
    fn finetune(&mut self, cx: &mut StageCx<'_>);
}

/// §III-B/C candidate source: MI clustering + cascading agent cascade +
/// group-wise crossing.
#[derive(Debug, Default, Clone, Copy)]
pub struct CascadeSource;

impl CandidateSource for CascadeSource {
    fn survey(&mut self, cx: &mut StageCx<'_>, fs: &FeatureSet, prev_state: &[f64]) -> Survey {
        let t_opt = Instant::now();
        let cache = MiCache::compute_with(cx.runtime, &fs.data, cx.cfg.mi_bins);
        let clusters = cluster_features(&fs.data, &cache, cx.cfg.cluster_threshold, 2);
        let overall = prev_state.to_vec();
        let cluster_reps: Vec<Vec<f64>> =
            clusters.iter().map(|c| state::rep_cluster(&fs.data, c)).collect();
        let head_cands: Vec<Vec<f64>> =
            cluster_reps.iter().map(|cr| state::head_candidate(cr, &overall)).collect();
        cx.state.telemetry.optimization_secs += t_opt.elapsed().as_secs_f64();
        Survey { clusters, cluster_reps, head_cands, overall }
    }

    fn select(&mut self, cx: &mut StageCx<'_>, survey: &Survey) -> Selection {
        let t_opt = Instant::now();
        let st = &mut *cx.state;
        let head_idx = st.agents.select(Role::Head, &survey.head_cands, &mut st.rng);
        let head_rep = &survey.cluster_reps[head_idx];
        let op_cands: Vec<Vec<f64>> =
            Op::ALL.iter().map(|&op| state::op_candidate(head_rep, &survey.overall, op)).collect();
        let op_idx = st.agents.select(Role::Op, &op_cands, &mut st.rng);
        let op = Op::ALL[op_idx];
        let tail = if op.is_binary() {
            let tail_cands: Vec<Vec<f64>> = survey
                .cluster_reps
                .iter()
                .map(|cr| state::tail_candidate(head_rep, &survey.overall, op, cr))
                .collect();
            let tail_idx = st.agents.select(Role::Tail, &tail_cands, &mut st.rng);
            Some((tail_cands, tail_idx))
        } else {
            None
        };
        st.telemetry.optimization_secs += t_opt.elapsed().as_secs_f64();
        Selection { head_idx, op_cands, op_idx, op, tail }
    }

    fn apply(
        &mut self,
        cx: &mut StageCx<'_>,
        fs: &mut FeatureSet,
        survey: &Survey,
        sel: &Selection,
    ) -> Crossing {
        let tail_members = sel.tail.as_ref().map(|(_, i)| survey.clusters[*i].as_slice());
        let generated = fs.cross(
            &survey.clusters[sel.head_idx],
            sel.op,
            tail_members,
            cx.cfg.max_new_per_step,
            &mut cx.state.rng,
        );
        let new_exprs: Vec<String> = generated.iter().map(|(e, _)| e.to_string()).collect();
        let produced = !generated.is_empty();
        fs.extend(generated);
        fs.select_top(cx.cfg.max_features(cx.original.n_features()), cx.cfg.mi_bins);

        let seq = encode_feature_set(&fs.exprs, &cx.state.vocab, cx.cfg.max_seq_len);
        let next_state = state::rep_overall(&fs.data);
        let key = canonical_key(&fs.exprs);
        Crossing { new_exprs, produced, seq, next_state, key }
    }
}

/// The paper's adaptive reward model: Eq. 5 cold / Eq. 6 warm scoring, the
/// normalised RND novelty bonus, §III-D percentile triggers, and the
/// quarantine fallback.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdaptiveRewardModel;

impl AdaptiveRewardModel {
    /// Fault-isolated downstream evaluation of a candidate feature set.
    ///
    /// Panics inside the evaluator, typed evaluation errors and non-finite
    /// scores all count as faults (`eval_faults`): the evaluation retries
    /// up to [`FastFtConfig::eval_retries`] more times and then the
    /// candidate is quarantined (`None`), leaving the step loop to fall
    /// back on the predictor. Quarantine shares the memo cache's canonical
    /// key, so a quarantined feature combination is never re-attempted
    /// while it remains in the bounded set. The *base* evaluation does not
    /// go through here — a dataset whose original features cannot be
    /// scored is a configuration problem and propagates as a typed error.
    fn evaluate_candidate(&self, cx: &mut StageCx<'_>, data: &Dataset, key: &str) -> Option<f64> {
        if cx.state.quarantine.get(key).is_some() {
            return None;
        }
        if let Some(&score) = cx.state.eval_cache.get(key) {
            cx.state.telemetry.cache_hits += 1;
            cx.emit(RunEvent::DownstreamEvaluated {
                cache_hit: true,
                evicted: false,
                faulted: false,
            });
            return Some(score);
        }
        for _attempt in 0..=cx.cfg.eval_retries {
            let t0 = Instant::now();
            let evaluator = &cx.cfg.evaluator;
            let runtime = cx.runtime;
            let outcome = catch_unwind(AssertUnwindSafe(|| evaluator.evaluate_with(runtime, data)));
            cx.state.telemetry.evaluation_secs += t0.elapsed().as_secs_f64();
            cx.state.telemetry.downstream_evals += 1;
            match outcome {
                Ok(Ok(score)) if score.is_finite() => {
                    let mut evicted = false;
                    if cx.state.eval_cache.insert(key.to_owned(), score) {
                        cx.state.telemetry.cache_evictions += 1;
                        evicted = true;
                    }
                    cx.emit(RunEvent::DownstreamEvaluated {
                        cache_hit: false,
                        evicted,
                        faulted: false,
                    });
                    return Some(score);
                }
                // Panic, typed evaluation error or non-finite score: count
                // the fault and retry.
                _ => {
                    cx.state.telemetry.eval_faults += 1;
                    cx.emit(RunEvent::DownstreamEvaluated {
                        cache_hit: false,
                        evicted: false,
                        faulted: true,
                    });
                }
            }
        }
        cx.state.telemetry.quarantined += 1;
        cx.state.quarantine.insert(key.to_owned(), ());
        cx.emit(RunEvent::CandidateQuarantined);
        None
    }

    /// Predictor-only score for a quarantined candidate, so the episode
    /// keeps moving with a finite reward.
    fn predict_fallback(&self, cx: &mut StageCx<'_>, seq: &[usize]) -> f64 {
        let t0 = Instant::now();
        let pred = if cx.cfg.batched_scoring {
            cx.state.predictor.predict_cached(seq)
        } else {
            cx.state.predictor.predict(seq)
        };
        let elapsed = t0.elapsed().as_secs_f64();
        cx.state.telemetry.predictor_secs += elapsed;
        cx.state.telemetry.estimation_secs += elapsed;
        cx.state.telemetry.predictor_calls += 1;
        cx.emit(RunEvent::PredictorCalled { calls: 1 });
        pred
    }

    /// Should this (predicted performance, novelty) pair trigger a real
    /// downstream evaluation? (§III-D "Adaptively Adopt Two Strategies".)
    fn trigger_downstream(&self, cx: &StageCx<'_>, pred: f64, nov: f64) -> bool {
        // Until enough history exists the percentiles are meaningless;
        // anchor with real evaluations.
        const WARMUP: usize = 8;
        if cx.state.pred_history.len() < WARMUP {
            return cx.cfg.alpha > 0.0 || cx.cfg.beta > 0.0;
        }
        // Strict inequality: sequences are often scored identically early
        // on, and `>=` against a tied percentile would fire on every step.
        let by_perf = cx.cfg.alpha > 0.0
            && pred > percentile(&cx.state.pred_history, 1.0 - cx.cfg.alpha / 100.0);
        let by_nov = cx.cfg.use_novelty
            && cx.cfg.beta > 0.0
            && nov > percentile(&cx.state.nov_history, 1.0 - cx.cfg.beta / 100.0);
        by_perf || by_nov
    }

    /// Normalise a raw RND novelty into a differential bonus: the running
    /// z-score, clamped to ±3. This keeps Eq. 6's novelty term on the same
    /// scale as performance differences regardless of the frozen target's
    /// output magnitude, and — unlike a raw magnitude — rewards *relative*
    /// novelty: above-average novelty earns a positive bonus, familiar
    /// territory a negative one (standard intrinsic-reward normalisation in
    /// the RND literature; DESIGN.md §4).
    fn normalize_novelty(&self, st: &mut SearchState, nov: f64) -> f64 {
        st.nov_count += 1;
        let delta = nov - st.nov_mean;
        st.nov_mean += delta / st.nov_count as f64;
        st.nov_m2 += delta * (nov - st.nov_mean);
        if st.nov_count < 5 {
            return 0.0;
        }
        let std = (st.nov_m2 / (st.nov_count - 1) as f64).sqrt();
        ((nov - st.nov_mean) / (std + 1e-8)).clamp(-3.0, 3.0)
    }
}

impl RewardModel for AdaptiveRewardModel {
    fn score(&mut self, cx: &mut StageCx<'_>, input: ScoreInput<'_>) -> Scored {
        let novelty_weight =
            ExpDecay { start: cx.cfg.eps_start, end: cx.cfg.eps_end, m: cx.cfg.decay_m };
        if input.cold {
            // Fault-isolated real evaluation; a quarantined candidate falls
            // back to the predictor (`predicted` keeps it out of best
            // tracking and training history).
            let (v, predicted) = match self.evaluate_candidate(cx, input.data, input.key) {
                Some(v) => {
                    cx.state.eval_history.push((input.seq.to_vec(), v));
                    (v, false)
                }
                None => (self.predict_fallback(cx, input.seq), true),
            };
            // Eq. 5 (plus the novelty bonus when the estimator is active
            // and trained; during true cold start the estimator is
            // untrained, so only the −PP path adds it).
            let mut r = v - input.prev_v;
            let mut nov = 0.0;
            if cx.cfg.use_novelty && input.episode >= cx.cfg.cold_start_episodes {
                let t_est = Instant::now();
                nov = if cx.cfg.batched_scoring {
                    cx.state.novelty.novelty_cached(input.seq)
                } else {
                    cx.state.novelty.novelty(input.seq)
                };
                let elapsed = t_est.elapsed().as_secs_f64();
                cx.state.telemetry.novelty_secs += elapsed;
                cx.state.telemetry.estimation_secs += elapsed;
                cx.state.telemetry.predictor_calls += 1;
                cx.emit(RunEvent::PredictorCalled { calls: 1 });
                let normed = self.normalize_novelty(cx.state, nov);
                r += novelty_weight.at(cx.state.global_step) * normed;
                cx.state.nov_history.push(nov);
            }
            Scored { v, reward: r, predicted, novelty: nov }
        } else {
            // Batched scoring runs the same fused kernels in the same
            // summation order as the per-sequence path, so both branches
            // are bitwise identical (`batched_scoring_matches_unbatched`).
            let t_pred = Instant::now();
            let (pred, pred_prev) = if cx.cfg.batched_scoring {
                let mut out = [0.0; 2];
                cx.state.predictor.predict_batch(&[input.seq, input.prev_seq], &mut out);
                (out[0], out[1])
            } else {
                (cx.state.predictor.predict(input.seq), cx.state.predictor.predict(input.prev_seq))
            };
            let pred_elapsed = t_pred.elapsed().as_secs_f64();
            cx.state.telemetry.predictor_secs += pred_elapsed;
            let t_nov = Instant::now();
            let nov = if !cx.cfg.use_novelty {
                0.0
            } else if cx.cfg.batched_scoring {
                cx.state.novelty.novelty_cached(input.seq)
            } else {
                cx.state.novelty.novelty(input.seq)
            };
            let nov_elapsed = t_nov.elapsed().as_secs_f64();
            cx.state.telemetry.novelty_secs += nov_elapsed;
            cx.state.telemetry.estimation_secs += pred_elapsed + nov_elapsed;
            cx.state.telemetry.predictor_calls += 2;
            cx.emit(RunEvent::PredictorCalled { calls: 2 });
            // Eq. 6, with the novelty bonus std-normalised so the two terms
            // share a scale.
            let mut r = pred - pred_prev;
            if cx.cfg.use_novelty {
                let normed = self.normalize_novelty(cx.state, nov);
                r += novelty_weight.at(cx.state.global_step) * normed;
                cx.state.nov_history.push(nov);
            }
            let trigger = self.trigger_downstream(cx, pred, nov);
            cx.state.pred_history.push(pred);
            if trigger {
                // Fault-isolated: a quarantined candidate falls back to its
                // already-computed prediction.
                match self.evaluate_candidate(cx, input.data, input.key) {
                    Some(v) => {
                        cx.state.eval_history.push((input.seq.to_vec(), v));
                        Scored { v, reward: r, predicted: false, novelty: nov }
                    }
                    None => Scored { v: pred, reward: r, predicted: true, novelty: nov },
                }
            } else {
                Scored { v: pred, reward: r, predicted: true, novelty: nov }
            }
        }
    }
}

/// Prioritized-replay learner with guarded component (re)training.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayLearner;

/// One component-training sample: a token sequence and its downstream
/// score (the layout of [`SearchState::eval_history`]).
type Sample = (Vec<usize>, f64);

impl ReplayLearner {
    /// Train the predictor on each slice of `plan` in turn: one Adam step
    /// per sample when `minibatch == 0` (the paper's schedule),
    /// averaged-gradient steps over `minibatch`-sized chunks of each slice
    /// otherwise.
    fn train_predictor(
        predictor: &mut PerformancePredictor,
        plan: &[&[Sample]],
        minibatch: usize,
        runtime: &Runtime,
    ) {
        for &items in plan {
            if minibatch > 0 {
                for chunk in items.chunks(minibatch) {
                    let batch: Vec<(&[usize], f64)> =
                        chunk.iter().map(|(s, v)| (s.as_slice(), *v)).collect();
                    predictor.train_minibatch(&batch, runtime);
                }
            } else {
                for (seq, v) in items {
                    predictor.train_step(seq, *v);
                }
            }
        }
    }

    /// [`ReplayLearner::train_predictor`] for the novelty estimator, which
    /// distils on the sequences and ignores their scores.
    fn train_novelty(
        novelty: &mut NoveltyEstimator,
        plan: &[&[Sample]],
        minibatch: usize,
        runtime: &Runtime,
    ) {
        for &items in plan {
            if minibatch > 0 {
                for chunk in items.chunks(minibatch) {
                    let seqs: Vec<&[usize]> = chunk.iter().map(|(s, _)| s.as_slice()).collect();
                    novelty.train_minibatch(&seqs, runtime);
                }
            } else {
                for (seq, _) in items {
                    novelty.train_step(seq);
                }
            }
        }
    }

    /// Run one component-training round under a fault guard: the predictor
    /// over `pred_plan` and the novelty estimator over `nov_plan`, as the
    /// two lanes of one [`Runtime::join`].
    ///
    /// The networks share no state and draw no RNG, and each lane keeps its
    /// network's step order, so the round's weights are bitwise those of
    /// training the two one after the other, at any worker count. Each
    /// enabled network's weights are snapshotted first. A panic in either
    /// lane (re-raised by `join` once both lanes have finished) restores
    /// both networks; a lane that leaves non-finite parameters restores only
    /// its own. Returns the number of restored networks (one
    /// `weight_rollbacks` count each).
    fn train_guarded(
        cfg: &FastFtConfig,
        runtime: &Runtime,
        predictor: &mut PerformancePredictor,
        novelty: &mut NoveltyEstimator,
        pred_plan: &[&[Sample]],
        nov_plan: &[&[Sample]],
    ) -> usize {
        let (use_predictor, use_novelty, minibatch) =
            (cfg.use_predictor, cfg.use_novelty, cfg.minibatch);
        let pred_backup = use_predictor.then(|| predictor.save_state());
        let nov_backup = use_novelty.then(|| novelty.save_state());
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            runtime.join(
                || {
                    if use_predictor {
                        Self::train_predictor(predictor, pred_plan, minibatch, runtime);
                    }
                },
                || {
                    if use_novelty {
                        Self::train_novelty(novelty, nov_plan, minibatch, runtime);
                    }
                },
            )
        }))
        .is_err();
        let mut rollbacks = 0;
        if let Some(b) = pred_backup {
            if panicked || !predictor.params_finite() {
                let _ = predictor.load_state(&b);
                rollbacks += 1;
            }
        }
        if let Some(b) = nov_backup {
            if panicked || !novelty.params_finite() {
                let _ = novelty.load_state(&b);
                rollbacks += 1;
            }
        }
        rollbacks
    }
}

impl Learner for ReplayLearner {
    fn absorb(&mut self, cx: &mut StageCx<'_>, mem: MemoryUnit) {
        let t_opt = Instant::now();
        let st = &mut *cx.state;
        let delta = st.agents.td_error(&mem);
        st.memory.push(mem, delta);
        // Alg. 1 line 9 / Alg. 2 line 17: sample from the priority
        // distribution and optimise the cascading agents.
        if st.memory.len() >= 2 {
            if let Some(sampled) = st.memory.sample(&mut st.rng) {
                let sampled = sampled.clone();
                st.agents.learn(&sampled);
            }
        }
        st.telemetry.optimization_secs += t_opt.elapsed().as_secs_f64();
    }

    fn train_cold_start(&mut self, cx: &mut StageCx<'_>) {
        let t_est = Instant::now();
        let st = &mut *cx.state;
        // Both networks make every pass over the history, read in place.
        let plan = vec![st.eval_history.as_slice(); cx.cfg.retrain_epochs.max(1)];
        let rollbacks = Self::train_guarded(
            cx.cfg,
            cx.runtime,
            &mut st.predictor,
            &mut st.novelty,
            &plan,
            &plan,
        );
        st.telemetry.weight_rollbacks += rollbacks;
        st.telemetry.estimation_secs += t_est.elapsed().as_secs_f64();
        cx.emit(RunEvent::ComponentsTrained { cold_start: true, rollbacks });
    }

    fn finetune(&mut self, cx: &mut StageCx<'_>) {
        let t_est = Instant::now();
        // Draw every uniform sample before training: sampling consumes the
        // run RNG identically whether the steps below are per-sample or
        // minibatched, so `cfg.minibatch` never shifts the decision stream.
        let mut sampled = Vec::with_capacity(cx.cfg.retrain_epochs);
        for _ in 0..cx.cfg.retrain_epochs {
            let st = &mut *cx.state;
            if let Some(mem) = st.memory.sample_uniform(&mut st.rng) {
                sampled.push((mem.seq.clone(), mem.perf));
            }
        }
        let st = &mut *cx.state;
        let recent = st.eval_history.len().saturating_sub(cx.cfg.retrain_epochs);
        // The predictor also trains on the latest real downstream results,
        // so estimated rewards cannot drift from evaluated ones.
        let pred_plan = [sampled.as_slice(), &st.eval_history[recent..]];
        let rollbacks = Self::train_guarded(
            cx.cfg,
            cx.runtime,
            &mut st.predictor,
            &mut st.novelty,
            &pred_plan,
            &[sampled.as_slice()],
        );
        st.telemetry.weight_rollbacks += rollbacks;
        st.telemetry.estimation_secs += t_est.elapsed().as_secs_f64();
        cx.emit(RunEvent::ComponentsTrained { cold_start: false, rollbacks });
    }
}

#[cfg(test)]
mod tests {
    use super::{percentile, Learner, ReplayLearner, Sample, StageCx};
    use crate::config::FastFtConfig;
    use crate::pipeline::{NullObserver, SearchState};
    use fastft_nn::NetState;
    use fastft_runtime::Runtime;
    use fastft_tabular::datagen;

    /// Every bit of a network snapshot: Adam step count, then parameters
    /// and both moment vectors.
    fn bits(s: &NetState) -> Vec<u64> {
        let tensors = s.params.iter().chain(&s.opt_m).chain(&s.opt_v);
        std::iter::once(s.opt_t).chain(tensors.flatten().map(|x| x.to_bits())).collect()
    }

    /// Both networks' states before and after one training round.
    struct RoundOutcome {
        pred_before: Vec<u64>,
        nov_before: Vec<u64>,
        pred_after: Vec<u64>,
        nov_after: Vec<u64>,
        rollbacks: usize,
    }

    /// Run one cold-start round (3 passes) over `history` on a
    /// `threads`-lane pool, after one round on other clean data so the
    /// networks start from trained weights and non-zero Adam moments.
    fn cold_round(history: &[Sample], threads: usize, minibatch: usize) -> RoundOutcome {
        let data = datagen::generate_capped(datagen::by_name("pima_indian").unwrap(), 40, 5);
        let cfg = FastFtConfig { retrain_epochs: 3, minibatch, ..FastFtConfig::default() };
        let rt = Runtime::new(threads);
        let mut state = SearchState::new(&cfg, &data);
        let mut obs = NullObserver;
        let mut cx = StageCx {
            cfg: &cfg,
            original: &data,
            runtime: &rt,
            state: &mut state,
            observer: &mut obs,
        };
        cx.state.eval_history = vec![(vec![1, 2, 3], 0.6), (vec![4, 1], 0.7)];
        ReplayLearner.train_cold_start(&mut cx);
        let pred_before = bits(&cx.state.predictor.save_state());
        let nov_before = bits(&cx.state.novelty.save_state());
        cx.state.eval_history = history.to_vec();
        let rolled_before = cx.state.telemetry.weight_rollbacks;
        ReplayLearner.train_cold_start(&mut cx);
        RoundOutcome {
            pred_before,
            nov_before,
            pred_after: bits(&cx.state.predictor.save_state()),
            nov_after: bits(&cx.state.novelty.save_state()),
            rollbacks: cx.state.telemetry.weight_rollbacks - rolled_before,
        }
    }

    fn clean_history() -> Vec<Sample> {
        vec![(vec![2, 5, 1], 0.55), (vec![3, 3], 0.61), (vec![1, 4, 2, 6], 0.58)]
    }

    #[test]
    fn round_matches_networks_trained_one_after_the_other() {
        let history = clean_history();
        for minibatch in [0, 2] {
            let data = datagen::generate_capped(datagen::by_name("pima_indian").unwrap(), 40, 5);
            let cfg = FastFtConfig { retrain_epochs: 3, minibatch, ..FastFtConfig::default() };
            // Reference: each network alone, its passes in order.
            let rt = Runtime::new(1);
            let mut reference = SearchState::new(&cfg, &data);
            for _ in 0..cfg.retrain_epochs {
                if minibatch == 0 {
                    for (seq, v) in &history {
                        reference.predictor.train_step(seq, *v);
                    }
                } else {
                    for chunk in history.chunks(minibatch) {
                        let batch: Vec<(&[usize], f64)> =
                            chunk.iter().map(|(s, v)| (s.as_slice(), *v)).collect();
                        reference.predictor.train_minibatch(&batch, &rt);
                    }
                }
            }
            for _ in 0..cfg.retrain_epochs {
                if minibatch == 0 {
                    for (seq, _) in &history {
                        reference.novelty.train_step(seq);
                    }
                } else {
                    for chunk in history.chunks(minibatch) {
                        let seqs: Vec<&[usize]> = chunk.iter().map(|(s, _)| s.as_slice()).collect();
                        reference.novelty.train_minibatch(&seqs, &rt);
                    }
                }
            }
            for threads in [1, 2] {
                let rt = Runtime::new(threads);
                let mut state = SearchState::new(&cfg, &data);
                state.eval_history = history.clone();
                let mut obs = NullObserver;
                let mut cx = StageCx {
                    cfg: &cfg,
                    original: &data,
                    runtime: &rt,
                    state: &mut state,
                    observer: &mut obs,
                };
                ReplayLearner.train_cold_start(&mut cx);
                let ctx = format!("minibatch {minibatch}, threads {threads}");
                assert_eq!(
                    bits(&state.predictor.save_state()),
                    bits(&reference.predictor.save_state()),
                    "{ctx}"
                );
                assert_eq!(
                    bits(&state.novelty.save_state()),
                    bits(&reference.novelty.save_state()),
                    "{ctx}"
                );
                assert_eq!(state.telemetry.weight_rollbacks, 0, "{ctx}");
            }
        }
    }

    /// A NaN score poisons only the predictor: it is restored to its
    /// pre-round weights while the novelty estimator, which never reads
    /// scores, keeps the round exactly as if the score had been finite.
    #[test]
    fn nan_score_rolls_back_only_the_predictor() {
        let mut poisoned = clean_history();
        poisoned[1].1 = f64::NAN;
        for minibatch in [0, 2] {
            let control = cold_round(&clean_history(), 1, minibatch);
            assert_eq!(control.rollbacks, 0);
            assert_ne!(control.pred_after, control.pred_before, "the control round must train");
            let mut outcomes = Vec::new();
            for threads in [1, 2] {
                let out = cold_round(&poisoned, threads, minibatch);
                let ctx = format!("minibatch {minibatch}, threads {threads}");
                assert_eq!(out.rollbacks, 1, "{ctx}");
                assert_eq!(out.pred_after, out.pred_before, "{ctx}: predictor not restored");
                assert_eq!(out.nov_after, control.nov_after, "{ctx}: novelty lane disturbed");
                outcomes.push((out.pred_after, out.nov_after));
            }
            assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "minibatch {minibatch}");
        }
    }

    /// An out-of-vocabulary token panics both lanes: the panic is
    /// contained and both networks come back bit for bit.
    #[test]
    fn panicking_lanes_restore_both_networks() {
        let mut broken = clean_history();
        broken[2].0.push(10_000);
        for minibatch in [0, 2] {
            let mut outcomes = Vec::new();
            for threads in [1, 2] {
                let out = cold_round(&broken, threads, minibatch);
                let ctx = format!("minibatch {minibatch}, threads {threads}");
                assert_eq!(out.rollbacks, 2, "{ctx}");
                assert_eq!(out.pred_after, out.pred_before, "{ctx}: predictor not restored");
                assert_eq!(out.nov_after, out.nov_before, "{ctx}: novelty not restored");
                outcomes.push((out.pred_after, out.nov_after));
            }
            assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "minibatch {minibatch}");
        }
    }

    #[test]
    fn percentile_interpolates() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
    }

    #[test]
    fn percentile_of_empty_is_nan_and_never_triggers() {
        let p = percentile(&[], 0.9);
        assert!(p.is_nan());
        // The trigger comparisons are strict `>`, so NaN can never fire:
        // it is unordered against every value.
        assert_eq!(1.0_f64.partial_cmp(&p), None);
    }

    #[test]
    fn percentile_single_element_is_constant() {
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(percentile(&[7.5], q), 7.5);
        }
    }

    #[test]
    fn percentile_is_order_invariant() {
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.5), 3.0);
    }
}
