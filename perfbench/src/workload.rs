//! The benchmark's workloads and their set-up.
//!
//! Each workload is one full FASTFT search on a seeded synthetic analog of
//! a paper dataset, with the paper's default configuration except for the
//! run length and phase mix stated per workload. The workload seed feeds
//! both dataset generation and `FastFtConfig::seed`.

use fastft_core::{FastFtConfig, Session};
use fastft_tabular::{datagen, Dataset, FastFtError, FastFtResult};
use std::path::{Path, PathBuf};

/// Worker threads of the search's pool (one process, two workers).
pub const WORKERS: usize = 2;

/// One benchmark workload: which dataset analog, at which size, with which
/// run length and phase mix.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Catalog name of the dataset analog.
    pub dataset: &'static str,
    /// Row cap applied to the analog.
    pub rows: usize,
    /// Episodes of the search.
    pub episodes: usize,
    /// Steps per episode.
    pub steps: usize,
    /// Cold-start episodes (every step evaluated downstream).
    pub cold_start_episodes: usize,
    /// Fine-tune cadence after cold start.
    pub retrain_every: usize,
    /// Checkpoint cadence in episodes (0 = no checkpoints).
    pub checkpoint_every: usize,
    /// Seeds searched per run: enough that one search on each fits the
    /// run, since search time varies from seed to seed.
    pub seeds: u64,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    // Small data: component training blocks the run and the memo cache
    // answers a share of the lookups.
    Workload {
        name: "pima-train",
        dataset: "pima_indian",
        rows: 768,
        episodes: 12,
        steps: 3,
        cold_start_episodes: 4,
        retrain_every: 2,
        checkpoint_every: 0,
        seeds: 8,
    },
    // Wide-ish data, all cold start: every step runs 5-fold RF CV and no
    // component training runs.
    Workload {
        name: "adult-eval",
        dataset: "adult",
        rows: 6000,
        episodes: 2,
        steps: 2,
        cold_start_episodes: 10,
        retrain_every: 5,
        checkpoint_every: 0,
        seeds: 10,
    },
    // Regression forest, 48-wide MI survey, warm phase with α/β-triggered
    // evaluations, and a checkpoint at every episode boundary.
    Workload {
        name: "reg618-ckpt",
        dataset: "openml_618",
        rows: 1000,
        episodes: 6,
        steps: 3,
        cold_start_episodes: 2,
        retrain_every: 2,
        checkpoint_every: 1,
        seeds: 4,
    },
];

impl Workload {
    /// Look a workload up by its `--workload` name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The run configuration: paper defaults plus this workload's run
    /// length, phase mix, checkpoint cadence and seed.
    pub fn config(&self, seed: u64, checkpoint_path: Option<PathBuf>) -> FastFtConfig {
        FastFtConfig {
            episodes: self.episodes,
            steps_per_episode: self.steps,
            cold_start_episodes: self.cold_start_episodes,
            retrain_every: self.retrain_every,
            seed,
            threads: WORKERS,
            checkpoint_every: self.checkpoint_every,
            checkpoint_path,
            ..FastFtConfig::default()
        }
    }
}

/// A generated dataset and a session ready to search it.
pub struct Setup {
    /// The sanitized dataset analog.
    pub data: Dataset,
    /// Validated configuration bound to its worker pool.
    pub session: Session,
}

/// Generate and sanitize the dataset, validate the configuration and spawn
/// the session's worker pool — everything a user pays before a search.
pub fn setup(w: &Workload, seed: u64, checkpoint: Option<&Path>) -> FastFtResult<Setup> {
    let spec = datagen::by_name(w.dataset)
        .ok_or_else(|| FastFtError::InvalidConfig(format!("unknown dataset `{}`", w.dataset)))?;
    let mut data = datagen::generate_capped(spec, w.rows, seed);
    data.sanitize();
    let cfg = w.config(seed, checkpoint.map(Path::to_path_buf));
    cfg.validate()?;
    let session = Session::new(cfg)?;
    Ok(Setup { data, session })
}
