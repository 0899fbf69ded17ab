//! Small measurement helpers: order statistics, a result digest and the
//! process's peak resident set.

use fastft_core::RunResult;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolation quantile of a non-empty sample, `q` in `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 64-bit FNV-1a over a run's results: scores as bits, the best feature
/// set, every step record and the per-episode best curve. Two runs with
/// the same digest made the same decisions and reached the same result.
pub fn digest(r: &RunResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(r.base_score.to_bits());
    h.u64(r.best_score.to_bits());
    for e in &r.best_exprs {
        h.str(&e.to_string());
    }
    for rec in &r.records {
        h.u64(rec.episode as u64);
        h.u64(rec.step as u64);
        h.u64(rec.reward.to_bits());
        h.u64(rec.score.to_bits());
        h.u64(u64::from(rec.predicted));
        h.u64(rec.novelty.to_bits());
        h.u64(rec.novelty_distance.to_bits());
        h.u64(u64::from(rec.new_combination));
        h.u64(rec.n_features as u64);
        for s in &rec.new_exprs {
            h.str(s);
        }
    }
    for b in &r.episode_best {
        h.u64(b.to_bits());
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}
