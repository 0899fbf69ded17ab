//! Exact-vs-histogram parity across the downstream tree stack: the
//! histogram backend must deliver its speedup without moving the scores
//! the rest of the system optimises against, and must keep the PR-1
//! worker-count determinism contract.

use fastft_ml::evaluator::ModelKind;
use fastft_ml::tree::SplitMethod;
use fastft_ml::Evaluator;
use fastft_runtime::Runtime;
use fastft_tabular::datagen;

fn load_seeded(name: &str, rows: usize, seed: u64) -> fastft_tabular::Dataset {
    let spec = datagen::by_name(name).unwrap();
    let mut d = datagen::generate_capped(spec, rows, seed);
    d.sanitize();
    d
}

fn load(name: &str, rows: usize) -> fastft_tabular::Dataset {
    load_seeded(name, rows, 0)
}

fn eval_with(model: ModelKind, method: SplitMethod, data: &fastft_tabular::Dataset) -> f64 {
    let ev = Evaluator { model, folds: 3, split_method: method, ..Evaluator::default() };
    ev.evaluate(data).unwrap()
}

/// CV scores from the binned backend stay within 0.01 of the exact
/// baseline on the planted-interaction generators, for every tree-stack
/// model and every task family the evaluator serves. Scores are averaged
/// over several generator seeds so the comparison captures the systematic
/// backend difference, not single-fold noise.
#[test]
fn histogram_scores_match_exact_within_tolerance() {
    let specs: [(&str, usize); 4] = [
        ("pima_indian", 400), // classification
        ("svmguide3", 400),   // classification, wider
        ("openml_589", 400),  // regression (1-RAE)
        ("thyroid", 500),     // detection (AUC)
    ];
    // Ensembles average away threshold jitter and get the tight bound; a
    // single tree's score (especially detection AUC, ranked off a handful
    // of leaf probabilities) is granular, so it gets a looser one.
    let models = [
        (ModelKind::RandomForest, 0.01),
        (ModelKind::GradientBoosting, 0.01),
        (ModelKind::DecisionTree, 0.03),
    ];
    const SEEDS: u64 = 5;
    for (name, rows) in specs {
        for (model, tolerance) in models {
            let mut exact_mean = 0.0;
            let mut hist_mean = 0.0;
            for seed in 0..SEEDS {
                let data = load_seeded(name, rows, seed);
                exact_mean += eval_with(model, SplitMethod::Exact, &data);
                hist_mean += eval_with(model, SplitMethod::default(), &data);
            }
            exact_mean /= SEEDS as f64;
            hist_mean /= SEEDS as f64;
            assert!(
                (exact_mean - hist_mean).abs() <= tolerance,
                "{model:?} on {name}: exact {exact_mean} vs histogram {hist_mean}"
            );
        }
    }
}

/// Coarse binning trades accuracy for speed but must degrade gracefully,
/// not collapse.
#[test]
fn coarse_bins_stay_close_to_exact() {
    let data = load("pima_indian", 400);
    let exact = eval_with(ModelKind::RandomForest, SplitMethod::Exact, &data);
    let coarse = eval_with(ModelKind::RandomForest, SplitMethod::Histogram { max_bins: 16 }, &data);
    assert!((exact - coarse).abs() <= 0.05, "exact {exact} vs 16-bin {coarse}");
}

/// PR-1 contract, extended to the histogram backend: the same seed gives
/// byte-identical scores at any worker count, in both split modes.
#[test]
fn evaluator_deterministic_across_worker_counts_in_both_modes() {
    let data = load("pima_indian", 300);
    let rt1 = Runtime::new(1);
    let rt4 = Runtime::new(4);
    for method in [SplitMethod::Exact, SplitMethod::default()] {
        for model in [ModelKind::RandomForest, ModelKind::GradientBoosting] {
            let ev = Evaluator { model, folds: 3, split_method: method, ..Evaluator::default() };
            let a = ev.evaluate_with(&rt1, &data).unwrap();
            let b = ev.evaluate_with(&rt4, &data).unwrap();
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{model:?}/{method:?} differs across worker counts: {a} vs {b}"
            );
        }
    }
}

/// The two backends are interchangeable mid-system: repeated evaluation
/// with the same backend is reproducible (no hidden state leaks from the
/// shared binning caches).
#[test]
fn histogram_evaluation_is_repeatable() {
    let data = load("svmguide3", 250);
    let ev = Evaluator { folds: 3, ..Evaluator::default() };
    let a = ev.evaluate(&data).unwrap();
    let b = ev.evaluate(&data).unwrap();
    assert_eq!(a.to_bits(), b.to_bits());
}

/// Pinned `Evaluator::evaluate` bits for the default random forest (and
/// one single tree) on capped dataset analogs. The classification forests
/// grow their nodes from sampled-feature histograms built directly per
/// node, the regression forest and the single tree through sibling
/// subtraction; the constants were captured before the direct build
/// existed, so any drift in either path or in the one-pass fold
/// prediction shows up here as a changed bit.
#[test]
fn default_evaluation_bits_are_pinned() {
    let cases: [(&str, usize, ModelKind, u64); 5] = [
        ("adult", 1200, ModelKind::RandomForest, 0x3fe4a285a738c3c4), // binary F1
        ("jannis", 600, ModelKind::RandomForest, 0x3fd51501e2e17103), // 4-class F1
        ("thyroid", 600, ModelKind::RandomForest, 0x3fed4f5853d614f5), // detection AUC
        ("openml_618", 400, ModelKind::RandomForest, 0xbfa13a92979200fa), // 1-RAE
        ("adult", 1200, ModelKind::DecisionTree, 0x3fe46990333917cf), // all features
    ];
    for (name, rows, model, expected) in cases {
        let data = load(name, rows);
        let score = Evaluator { model, ..Evaluator::default() }.evaluate(&data).unwrap();
        assert_eq!(score.to_bits(), expected, "{model:?} on {name}: {score}");
    }
}
