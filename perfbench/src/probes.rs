//! Layer probes: single layers timed from outside on the final feature set
//! of a traced run, with the same parameters the search uses.

use crate::stats::median;
use fastft_core::checkpoint;
use fastft_core::cluster::MiCache;
use fastft_core::Session;
use fastft_ml::forest::ForestParams;
use fastft_ml::{
    BinnedMatrix, ModelKind, RandomForestClassifier, RandomForestRegressor, SplitMethod,
};
use fastft_runtime::Runtime;
use fastft_tabular::mi::relevance_scores;
use fastft_tabular::{Dataset, KFold, TaskType};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Probe results as `(metric name, value)`.
pub type Probed = Vec<(&'static str, f64)>;

/// Time evaluation, binning, forest fit/predict, the MI survey's kernels
/// and relevance scoring on `data`, as the session's configuration runs
/// them. Evaluation results must not depend on the worker count.
pub fn layers(session: &Session, data: &Dataset) -> Result<Probed, String> {
    let cfg = session.cfg();
    let ev = &cfg.evaluator;
    if ev.model != ModelKind::RandomForest {
        return Err(format!("probes cover the random forest only, not {:?}", ev.model));
    }
    let rt2 = session.runtime();
    let rt1 = Runtime::new(1);
    let eval = |rt: &Runtime| ev.evaluate_with(rt, data).map_err(|e| e.to_string());
    if eval(rt2)?.to_bits() != eval(&rt1)?.to_bits() {
        return Err("evaluation differs between 1 and 2 workers".into());
    }
    let eval_2w = median_ms(3, || eval(rt2));
    let eval_1w = median_ms(3, || eval(&rt1));

    // One CV fold, split exactly as the evaluator splits it.
    let folds = ev.folds.max(2);
    let kf = if data.task.is_discrete() {
        KFold::stratified(&data.class_labels(), folds, ev.seed)
    } else {
        KFold::new(data.n_rows(), folds, ev.seed)
    };
    let (train, test) = kf.fold(0);
    let cols: Vec<Vec<f64>> =
        data.features.iter().map(|c| train.iter().map(|&i| c.values[i]).collect()).collect();
    let rows: Vec<Vec<f64>> = test.iter().map(|&i| data.row(i)).collect();
    let max_bins = match ev.split_method {
        SplitMethod::Histogram { max_bins } => max_bins,
        SplitMethod::Exact => 255,
    };
    let binning = median_ms(5, || BinnedMatrix::build(&cols, max_bins));
    let mut params = ForestParams::default();
    params.cart.split_method = ev.split_method;
    let (fit, predict) = match data.task {
        TaskType::Regression => {
            let y: Vec<f64> = train.iter().map(|&i| data.targets[i]).collect();
            let mut m = RandomForestRegressor::new(params, ev.seed);
            let fit = median_ms(3, || m.fit_with(rt2, &cols, &y));
            (fit, median_ms(5, || m.predict_with(rt2, &rows)))
        }
        TaskType::Classification | TaskType::Detection => {
            let y: Vec<usize> = train.iter().map(|&i| data.targets[i] as usize).collect();
            let mut m = RandomForestClassifier::new(params, ev.seed);
            let fit = median_ms(3, || m.fit_with(rt2, &cols, &y, data.n_classes));
            (fit, median_ms(5, || m.predict_with(rt2, &rows)))
        }
    };
    let mi = median_ms(5, || MiCache::compute_with(rt2, data, cfg.mi_bins));
    let relevance = median_ms(5, || relevance_scores(data, cfg.mi_bins));
    Ok(vec![
        ("ml.eval_final_ms", eval_2w),
        ("runtime.eval_final_1w_ms", eval_1w),
        ("runtime.fold_speedup", eval_1w / eval_2w),
        ("ml.binning_ms", binning),
        ("ml.forest_fit_ms", fit),
        ("ml.forest_predict_ms", predict),
        ("cluster.mi_cache_ms", mi),
        ("tabular.relevance_ms", relevance),
    ])
}

/// Decode and re-encode the checkpoint at `path`; the re-encoding must
/// reproduce its bytes exactly.
pub fn checkpoint_codec(path: &Path) -> Result<Probed, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (cfg, snap) = checkpoint::decode(&bytes).map_err(|e| e.to_string())?;
    if checkpoint::encode(&cfg, &snap) != bytes {
        return Err("checkpoint re-encoding differs from the written bytes".into());
    }
    let decode = median_ms(5, || checkpoint::decode(&bytes));
    let encode = median_ms(5, || checkpoint::encode(&cfg, &snap));
    Ok(vec![
        ("checkpoint.bytes", bytes.len() as f64),
        ("checkpoint.encode_ms", encode),
        ("checkpoint.decode_ms", decode),
    ])
}
