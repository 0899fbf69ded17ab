//! End-to-end FASTFT search benchmark with an outside-in layer trace.
//!
//! One invocation measures one workload (see `workload.rs`):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pima-train --seed 1 --seconds 25 --trace 0
//! ```
//!
//! A run covers a batch of `n` searches, one per seed `seed * n + i` with
//! `n` = [`Workload::seeds`]; each seed generates its own dataset and
//! drives `FastFtConfig::seed`. How long a search takes depends on the
//! path it finds, so a run reports the mean over its batch, which keeps
//! runs with different `--seed`s comparable.
//!
//! * `--trace 0` searches every seed once, the first seed twice, then
//!   cycles through the batch until `--seconds` have passed, all through
//!   `Session::run_observed`. The only observer is the passive
//!   [`trace::Clock`], which timestamps steps and folds the event counters.
//!   It reports the end-to-end metrics, each seed's timing being the median
//!   of its repetitions.
//! * `--trace 1` composes every seed's search once from timed wrapper
//!   stages, pairs traced with untraced searches on the first seed for the
//!   tracing overhead until `--seconds` have passed, probes single layers
//!   on the first seed's final feature set, and reports the per-layer
//!   metrics.
//!
//! Before every search, the seed's set-up is timed [`SETUPS_PER_SEARCH`]
//! times (`setup_s`). Every search passes the correctness gate of
//! [`search::gate`]. The last line on stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; a readable table goes to
//! stderr. See `README.md` for the layer map.

mod probes;
mod search;
mod stats;
mod trace;
mod workload;

use search::{run_plain, run_traced, Rep, Tally};
use stats::{mean, median, quantile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workload::{setup, Setup, Workload};

const USAGE: &str = "usage: perfbench --workload <pima-train|adult-eval|reg618-ckpt> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups timed before each search (`setup_s` is the median over all of
/// them); the search runs on the last.
const SETUPS_PER_SEARCH: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or(format!("missing {name}"));
    let name = take("--workload")?;
    let workload = Workload::by_name(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// One seed of the batch and the searches run on it.
struct Seeded {
    workload: &'static Workload,
    seed: u64,
    checkpoint: Option<PathBuf>,
    plain: Vec<Rep>,
    traced: Vec<(Rep, Tracer)>,
}

impl Seeded {
    /// This seed's dataset and session.
    fn setup(&self) -> Result<Setup, String> {
        setup(self.workload, self.seed, self.checkpoint.as_deref()).map_err(|e| e.to_string())
    }

    fn reps(&self) -> Vec<&Rep> {
        self.plain.iter().chain(self.traced.iter().map(|(r, _)| r)).collect()
    }

    /// Time [`SETUPS_PER_SEARCH`] set-ups into `setup_s`, then run one
    /// search on the last, counting it in `tally`.
    ///
    /// Timing set-ups next to every search spreads them over the run, so
    /// one slow phase of the machine cannot set them all. Only one set-up
    /// is alive at a time, so the process's peak memory reflects one
    /// search.
    fn search(
        &mut self,
        tally: &mut Tally,
        setup_s: &mut Vec<f64>,
        traced: bool,
        keep_data: bool,
    ) -> Result<(), String> {
        let mut last = None;
        for _ in 0..SETUPS_PER_SEARCH {
            // Drop the previous set-up (joining its pool) before timing.
            drop(last.take());
            let t = Instant::now();
            let s = self.setup()?;
            setup_s.push(t.elapsed().as_secs_f64());
            last = Some(s);
        }
        let Setup { data, session } = last.expect("SETUPS_PER_SEARCH > 0");
        let (how, run_s) = if traced {
            let out = run_traced(&session, &data, keep_data);
            let Some(t) = tally.record(out, |(r, _)| r) else { return Ok(()) };
            let run_s = t.0.run_s;
            self.traced.push(t);
            ("traced", run_s)
        } else {
            let Some(r) = tally.record(run_plain(&session, &data), |r| r) else {
                return Ok(());
            };
            let run_s = r.run_s;
            self.plain.push(r);
            ("untraced", run_s)
        };
        eprintln!("  seed {} {how} search: {run_s:.4} s", self.seed);
        Ok(())
    }
}

/// How a metric summarises its samples.
#[derive(Clone, Copy)]
enum Agg {
    /// Mean over the batch's seeds.
    Mean,
    /// Median over repeated measurements.
    Median,
}

/// One reported metric with the samples it summarises.
struct Metric {
    name: String,
    unit: &'static str,
    agg: Agg,
    samples: Vec<f64>,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, agg: Agg, samples: Vec<f64>) -> Metric {
        Metric { name: name.into(), unit, agg, samples }
    }

    fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, Agg::Median, vec![value])
    }

    fn value(&self) -> f64 {
        match self.agg {
            Agg::Mean => mean(&self.samples),
            Agg::Median => median(&self.samples),
        }
    }
}

/// Directory for checkpoints and span logs, inside the benchmark's own
/// directory (ignored by git).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The run's seeds, `seed * n + i` for `i in 0..n`, `n` = [`Workload::seeds`].
fn batch(args: &Args, dir: &Path) -> Result<Vec<Seeded>, String> {
    let w = args.workload;
    let base = args.seed.checked_mul(w.seeds).filter(|b| b.checked_add(w.seeds).is_some());
    let base = base.ok_or("--seed is too large")?;
    Ok((base..base + w.seeds)
        .map(|seed| Seeded {
            workload: w,
            seed,
            checkpoint: (w.checkpoint_every > 0)
                .then(|| dir.join(format!("{}-{seed}-{}.ckpt", w.name, std::process::id()))),
            plain: Vec::new(),
            traced: Vec::new(),
        })
        .collect())
}

fn end_to_end(batch: &[Seeded], setup_s: Vec<f64>, tally: &Tally) -> Result<Vec<Metric>, String> {
    // Per seed, the median over its repetitions.
    let each = |f: fn(&Rep) -> f64| -> Vec<f64> {
        batch.iter().map(|b| median(&b.plain.iter().map(f).collect::<Vec<_>>())).collect()
    };
    let run_s = each(|r| r.run_s);
    let steps = each(|r| r.counters.steps as f64);
    Ok(vec![
        Metric::new("run_s", "s", Agg::Mean, run_s.clone()),
        Metric::one("steps_per_s", "1/s", mean(&steps) / mean(&run_s)),
        Metric::new("setup_s", "s", Agg::Median, setup_s),
        Metric::one("peak_rss_mb", "MiB", stats::peak_rss_mb()?),
        Metric::one("success_ratio", "ratio", 1.0 - tally.failed as f64 / tally.attempted as f64),
    ])
}

/// Per-layer numbers of one traced search.
fn layer_numbers(rep: &Rep, tracer: &Tracer) -> Result<BTreeMap<String, f64>, String> {
    tracer.check_disjoint()?;
    if let Some(s) = tracer.spans.iter().find(|s| s.end_s > rep.run_s) {
        return Err(format!("{} span ends after the run", s.layer));
    }
    let spans = tracer.layer_seconds();
    let covered: f64 = spans.values().sum();
    let sc = tracer.score;
    let c = &rep.counters;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let lookups = (c.cache_hits + c.downstream_evals) as f64;
    let prefix_probes = (c.prefix_hits + c.prefix_misses) as f64;
    let mut m: BTreeMap<String, f64> =
        spans.iter().map(|(layer, secs)| (format!("pipeline.{layer}_s"), *secs)).collect();
    let named = [
        ("pipeline.driver_other_s", rep.run_s - covered),
        ("pipeline.run_s", rep.run_s),
        ("pipeline.steps", c.steps as f64),
        ("pipeline.episodes", c.episodes as f64),
        ("time_to_best_s", rep.time_to_best_s),
        ("best_score", rep.best_score),
        ("best_score_gain", rep.best_score - rep.base_score),
        ("score.eval_s", sc.eval_s),
        ("score.predictor_s", sc.predictor_s),
        ("score.novelty_s", sc.novelty_s),
        ("score.other_s", spans["score"] - sc.eval_s - sc.predictor_s - sc.novelty_s),
        ("ml.eval_ms", 1e3 * ratio(sc.eval_s, sc.evals as f64)),
        ("ml.downstream_evals", c.downstream_evals as f64),
        ("ml.cache_hits", c.cache_hits as f64),
        ("ml.cache_hit_ratio", ratio(c.cache_hits as f64, lookups)),
        ("ml.eval_faults", c.eval_faults as f64),
        ("ml.quarantined", c.quarantined as f64),
        ("nn.predictor_calls", c.predictor_calls as f64),
        ("nn.prefix_hits", c.prefix_hits as f64),
        ("nn.prefix_misses", c.prefix_misses as f64),
        ("nn.prefix_hit_ratio", ratio(c.prefix_hits as f64, prefix_probes)),
        ("nn.score_batches", c.score_batches as f64),
        ("nn.weight_rollbacks", c.weight_rollbacks as f64),
        ("checkpoint.count", c.checkpoints as f64),
    ];
    m.extend(named.map(|(name, v)| (name.to_string(), v)));
    Ok(m)
}

/// Unit of a per-layer metric, from its name's suffix.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("bytes") {
        "bytes"
    } else if name.ends_with("ratio") || name.ends_with("speedup") {
        "ratio"
    } else if name.starts_with("best_score") {
        "score"
    } else {
        "count"
    }
}

fn per_layer(batch: &[Seeded], dir: &Path, args: &Args) -> Result<Vec<Metric>, String> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for b in batch {
        let (rep, tracer) = &b.traced[0];
        for (name, v) in layer_numbers(rep, tracer)? {
            samples.entry(name).or_default().push(v);
        }
    }
    let mut out: Vec<Metric> = samples
        .into_iter()
        .map(|(name, s)| {
            let unit = unit_of(&name);
            Metric::new(name, unit, Agg::Mean, s)
        })
        .collect();

    let first = &batch[0];
    let traced: Vec<f64> = first.traced.iter().map(|(r, _)| r.run_s).collect();
    let plain: Vec<f64> = first.plain.iter().map(|r| r.run_s).collect();
    out.push(Metric::one("trace.overhead_s", "s", median(&traced) - median(&plain)));

    let (rep, tracer) = &first.traced[0];
    let trace_file = dir.join(format!("trace-{}-{}.jsonl", args.workload.name, args.seed));
    std::fs::write(&trace_file, tracer.to_jsonl())
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    let data = rep.best_dataset.as_ref().ok_or("the first traced search failed")?;
    let mut probed = probes::layers(&first.setup()?.session, data)?;
    probed.extend(match &first.checkpoint {
        Some(path) => probes::checkpoint_codec(path)?,
        // This workload writes no checkpoint.
        None => vec![
            ("checkpoint.bytes", 0.0),
            ("checkpoint.encode_ms", 0.0),
            ("checkpoint.decode_ms", 0.0),
        ],
    });
    out.extend(probed.into_iter().map(|(name, v)| Metric::one(name, unit_of(name), v)));
    Ok(out)
}

struct Outcome {
    correct: bool,
    tally: Tally,
    metrics: Vec<Metric>,
}

fn bench(args: &Args) -> Result<Outcome, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut batch = batch(args, &dir)?;
    let n = batch.len();
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let window = Instant::now();
    let open = || window.elapsed().as_secs_f64() < args.seconds;
    let mut i = 0;
    if args.trace {
        // Trace every seed once; pair untraced with traced searches on the
        // first seed, first and after the batch until the window closes.
        while i < n || open() {
            let b = &mut batch[if i < n { i } else { 0 }];
            if i == 0 || i >= n {
                b.search(&mut tally, &mut setup_s, false, false)?;
            }
            b.search(&mut tally, &mut setup_s, true, i == 0)?;
            i += 1;
        }
    } else {
        // Every seed once, the first seed twice, then round-robin until
        // the window closes.
        while i <= n || open() {
            batch[i % n].search(&mut tally, &mut setup_s, false, false)?;
            i += 1;
        }
    }
    let mut failures = Vec::new();
    for b in &batch {
        let s = b.setup()?;
        failures.extend(search::gate(args.workload, &s.session, &s.data, &b.reps()));
    }
    for f in failures.iter().chain(&tally.errors) {
        eprintln!("perfbench: FAILED: {f}");
    }
    let missing =
        batch.iter().any(|b| if args.trace { b.traced.is_empty() } else { b.plain.is_empty() });
    if missing || batch[0].plain.is_empty() {
        return Err("a seed has no completed search".into());
    }
    let metrics = if args.trace {
        per_layer(&batch, &dir, args)?
    } else {
        end_to_end(&batch, setup_s, &tally)?
    };
    for path in batch.iter().filter_map(|b| b.checkpoint.as_ref()) {
        let _ = std::fs::remove_file(path);
    }
    Ok(Outcome { correct: failures.is_empty() && tally.errors.is_empty(), tally, metrics })
}

fn print_outcome(args: &Args, o: &Outcome) -> Result<(), String> {
    eprintln!(
        "perfbench: {} seed {} ({}) correct={} attempted={} failed={}",
        args.workload.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        o.correct,
        o.tally.attempted,
        o.tally.failed
    );
    let mut json = String::new();
    for m in &o.metrics {
        let v = m.value();
        if !v.is_finite() {
            return Err(format!("{} is not finite", m.name));
        }
        let how = match (m.samples.len(), m.agg) {
            (1, _) => String::new(),
            (n, Agg::Mean) => format!("mean of {n} seeds"),
            (n, Agg::Median) => format!("median of {n}"),
        };
        let spread = if m.samples.len() > 1 {
            format!(
                ", quartiles {:.6} .. {:.6}",
                quantile(&m.samples, 0.25),
                quantile(&m.samples, 0.75)
            )
        } else {
            String::new()
        };
        eprintln!("  {:<26} {:>16.6} {:<6} {how}{spread}", m.name, v, m.unit);
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        o.correct, o.tally.attempted, o.tally.failed
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = bench(&args).and_then(|o| print_outcome(&args, &o)) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
