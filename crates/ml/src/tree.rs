//! CART decision trees over column-major data.
//!
//! One generic builder serves both classification (gini impurity, class
//! distribution leaves) and regression (variance impurity, mean leaves).
//! Two split-search backends share it, selected by
//! [`CartParams::split_method`]:
//!
//! - [`SplitMethod::Exact`] sorts the node's rows per candidate feature
//!   and scans all boundaries with prefix statistics —
//!   `O(rows · log rows · features)` per node, the textbook procedure.
//! - [`SplitMethod::Histogram`] (the default) quantile-bins every feature
//!   once per fit into `u8` codes ([`crate::binning::BinnedMatrix`]),
//!   builds per-node gradient/count histograms in one `O(rows)` pass and
//!   scans bin boundaries instead of row boundaries. Each tree obtains
//!   its node histograms one of two ways:
//!   - *Sibling subtraction* (regression, and any tree that considers
//!     every feature at each node): histograms cover all features; only
//!     the smaller child is re-scanned and the larger child's histogram
//!     is the parent's minus the smaller one.
//!   - *Direct sampled build* (gini trees with `max_features = k < d`,
//!     i.e. random-forest classifiers): each node draws its feature
//!     sample first and builds histograms for those `k` features only,
//!     from its own rows, into one `k`-feature buffer reused at every
//!     node. Node totals come from the parent: the left child's are the
//!     winning split's left accumulator, the right child's the parent's
//!     minus the left. Gini slots are integer-valued counts, so no
//!     summation order can change a bit and both ways grow the identical
//!     tree; regression sums target values in floating point, whose
//!     results depend on the order of addition, so it keeps subtraction.
//!
//!   Both ways share one bin scan and one stable row partition, and pool
//!   their buffers across the whole fit, eliminating the per-node
//!   allocation churn of the exact path.
//!
//! NaN feature values are deterministic in both backends: prediction
//! routes NaN right (any `NaN <= t` is false), the histogram path bins
//! NaN into a dedicated missing bin with the highest code, and the exact
//! path sorts NaN to the end of every column scan.

use crate::binning::BinnedMatrix;
use fastft_tabular::rngx::StdRng;

/// Split-search backend used when growing a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitMethod {
    /// Sort-based exhaustive search over every boundary between distinct
    /// values.
    Exact,
    /// Histogram search over at most `max_bins` quantile bins per feature
    /// (clamped to 1..=255), plus a missing bin for NaN.
    Histogram {
        /// Maximum finite-value bins per feature.
        max_bins: u16,
    },
}

impl fastft_tabular::persist::Persist for SplitMethod {
    // Fixed-width layout: tag byte + a u32 bin-count slot for both variants.
    fn persist(&self, w: &mut fastft_tabular::persist::Writer) {
        match self {
            SplitMethod::Exact => {
                w.u8(0);
                w.u32(0);
            }
            SplitMethod::Histogram { max_bins } => {
                w.u8(1);
                w.u32(u32::from(*max_bins));
            }
        }
    }

    fn restore(
        r: &mut fastft_tabular::persist::Reader,
    ) -> fastft_tabular::persist::PersistResult<Self> {
        Ok(match (r.u8()?, r.u32()?) {
            (0, _) => SplitMethod::Exact,
            (1, bins) => SplitMethod::Histogram {
                max_bins: u16::try_from(bins)
                    .map_err(|_| format!("max_bins {bins} out of range"))?,
            },
            (t, _) => return Err(format!("unknown split-method tag {t}")),
        })
    }
}

impl Default for SplitMethod {
    fn default() -> Self {
        SplitMethod::Histogram { max_bins: 255 }
    }
}

/// Tree growth hyperparameters shared by every tree-based model here.
#[derive(Debug, Clone, Copy)]
pub struct CartParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child after a split.
    pub min_samples_leaf: usize,
    /// Candidate features per split: `None` = all, `Some(k)` = random k
    /// (random-forest style column subsampling).
    pub max_features: Option<usize>,
    /// Split-search backend.
    pub split_method: SplitMethod,
}

impl Default for CartParams {
    fn default() -> Self {
        CartParams {
            max_depth: 8,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
            split_method: SplitMethod::default(),
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Leaf payload: class distribution (classification) or `[mean]`
    /// (regression).
    Leaf {
        value: Vec<f64>,
    },
}

/// Internal target abstraction so one builder serves both task families.
///
/// The `hist_*` methods are the flat-slice view used by the histogram
/// backend: a bin accumulator is `hist_width()` consecutive `f64` slots
/// whose slot 0 is the sample count, so child histograms can be derived
/// by element-wise subtraction (sibling trick).
trait Criterion {
    /// Aggregated sufficient statistics of a sample subset.
    type Stats: Clone;
    fn stats(&self, rows: &[usize]) -> Self::Stats;
    fn impurity(&self, s: &Self::Stats, n: usize) -> f64;
    fn add(&self, s: &mut Self::Stats, row: usize);
    fn sub(&self, s: &mut Self::Stats, row: usize);
    fn leaf_value(&self, s: &Self::Stats, n: usize) -> Vec<f64>;
    /// `f64` slots per histogram bin; slot 0 holds the count.
    fn hist_width(&self) -> usize;
    /// Accumulate one row into a bin accumulator.
    fn hist_add(&self, acc: &mut [f64], row: usize);
    /// Impurity of an accumulator (`acc[0]` = count).
    fn hist_impurity(&self, acc: &[f64]) -> f64;
    /// Leaf payload of an accumulator.
    fn hist_leaf(&self, acc: &[f64]) -> Vec<f64>;
    /// Whether every histogram slot holds an integer count, so its value
    /// does not depend on the order rows are added in. Only then may a
    /// node rebuild its histograms from its own rows instead of deriving
    /// them by sibling subtraction without changing a single bit.
    const INTEGER_SLOTS: bool;
}

struct GiniCriterion<'a> {
    y: &'a [usize],
    n_classes: usize,
}

impl Criterion for GiniCriterion<'_> {
    type Stats = Vec<f64>;

    fn stats(&self, rows: &[usize]) -> Vec<f64> {
        let mut counts = vec![0.0; self.n_classes];
        for &r in rows {
            counts[self.y[r]] += 1.0;
        }
        counts
    }

    fn impurity(&self, counts: &Vec<f64>, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let n = n as f64;
        1.0 - counts.iter().map(|c| (c / n) * (c / n)).sum::<f64>()
    }

    fn add(&self, s: &mut Vec<f64>, row: usize) {
        s[self.y[row]] += 1.0;
    }

    fn sub(&self, s: &mut Vec<f64>, row: usize) {
        s[self.y[row]] -= 1.0;
    }

    fn leaf_value(&self, counts: &Vec<f64>, n: usize) -> Vec<f64> {
        if n == 0 {
            return vec![1.0 / self.n_classes as f64; self.n_classes];
        }
        counts.iter().map(|c| c / n as f64).collect()
    }

    fn hist_width(&self) -> usize {
        1 + self.n_classes
    }

    fn hist_add(&self, acc: &mut [f64], row: usize) {
        acc[0] += 1.0;
        acc[1 + self.y[row]] += 1.0;
    }

    fn hist_impurity(&self, acc: &[f64]) -> f64 {
        let n = acc[0];
        if n <= 0.0 {
            return 0.0;
        }
        1.0 - acc[1..].iter().map(|c| (c / n) * (c / n)).sum::<f64>()
    }

    fn hist_leaf(&self, acc: &[f64]) -> Vec<f64> {
        let n = acc[0];
        if n <= 0.0 {
            return vec![1.0 / self.n_classes as f64; self.n_classes];
        }
        acc[1..].iter().map(|c| c / n).collect()
    }

    const INTEGER_SLOTS: bool = true;
}

struct VarCriterion<'a> {
    y: &'a [f64],
}

impl Criterion for VarCriterion<'_> {
    /// `(sum, sum_sq)`
    type Stats = (f64, f64);

    fn stats(&self, rows: &[usize]) -> (f64, f64) {
        let mut s = (0.0, 0.0);
        for &r in rows {
            s.0 += self.y[r];
            s.1 += self.y[r] * self.y[r];
        }
        s
    }

    fn impurity(&self, &(sum, sq): &(f64, f64), n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let n = n as f64;
        (sq / n - (sum / n) * (sum / n)).max(0.0)
    }

    fn add(&self, s: &mut (f64, f64), row: usize) {
        s.0 += self.y[row];
        s.1 += self.y[row] * self.y[row];
    }

    fn sub(&self, s: &mut (f64, f64), row: usize) {
        s.0 -= self.y[row];
        s.1 -= self.y[row] * self.y[row];
    }

    fn leaf_value(&self, &(sum, _): &(f64, f64), n: usize) -> Vec<f64> {
        vec![if n == 0 { 0.0 } else { sum / n as f64 }]
    }

    fn hist_width(&self) -> usize {
        3 // count, sum, sum of squares
    }

    fn hist_add(&self, acc: &mut [f64], row: usize) {
        let v = self.y[row];
        acc[0] += 1.0;
        acc[1] += v;
        acc[2] += v * v;
    }

    fn hist_impurity(&self, acc: &[f64]) -> f64 {
        let n = acc[0];
        if n <= 0.0 {
            return 0.0;
        }
        (acc[2] / n - (acc[1] / n) * (acc[1] / n)).max(0.0)
    }

    fn hist_leaf(&self, acc: &[f64]) -> Vec<f64> {
        vec![if acc[0] <= 0.0 { 0.0 } else { acc[1] / acc[0] }]
    }

    // Float sums of targets depend on the order of addition.
    const INTEGER_SLOTS: bool = false;
}

#[derive(Debug, Clone)]
struct Cart {
    nodes: Vec<Node>,
    importances: Vec<f64>,
}

/// Pooled buffers for one histogram-mode fit. On the subtraction path
/// full histogram buffers are recycled through a free list (peak ≈ tree
/// depth + 1 alive at once); on the direct path one `k × stride × width`
/// buffer holds the sampled features' histograms of whichever node is
/// being split. One scratch vector serves every stable row partition, so
/// growing a node allocates nothing once the pools are warm.
struct HistWorkspace {
    /// Recycled full histogram buffers, each `n_features * stride * width`.
    free: Vec<Vec<f64>>,
    /// Full histogram buffer length.
    size: usize,
    /// Direct path: the current node's sampled-feature histograms, one
    /// `stride * width` block per sampled feature (empty otherwise).
    sampled: Vec<f64>,
    /// Right-side rows staging area for in-place stable partition.
    scratch: Vec<usize>,
}

impl HistWorkspace {
    fn alloc(&mut self) -> Vec<f64> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; self.size],
        }
    }

    fn release(&mut self, buf: Vec<f64>) {
        self.free.push(buf);
    }

    /// Stable in-place partition of `rows` into `codes[r] <= bin` (front)
    /// and the rest; returns the left count. Keeping the incoming order
    /// inside each child makes the partition deterministic.
    fn partition(&mut self, rows: &mut [usize], codes: &[u8], bin: usize) -> usize {
        self.scratch.clear();
        let mut w = 0;
        for i in 0..rows.len() {
            let r = rows[i];
            if (codes[r] as usize) <= bin {
                rows[w] = r;
                w += 1;
            } else {
                self.scratch.push(r);
            }
        }
        rows[w..].copy_from_slice(&self.scratch);
        w
    }
}

/// Add `rows` into one feature's bin block (`codes` is that feature's
/// code column).
fn accumulate<C: Criterion>(crit: &C, codes: &[u8], rows: &[usize], block: &mut [f64]) {
    let width = crit.hist_width();
    for &r in rows {
        let off = codes[r] as usize * width;
        crit.hist_add(&mut block[off..off + width], r);
    }
}

/// Accumulate the histogram of `rows` over every feature into `hist`
/// (assumed zeroed), laid out `[feature][bin][slot]` with uniform
/// `stride` bins per feature.
fn build_hist<C: Criterion>(binned: &BinnedMatrix, crit: &C, rows: &[usize], hist: &mut [f64]) {
    let block = binned.stride() * crit.hist_width();
    for (f, block) in hist.chunks_mut(block).enumerate().take(binned.n_features()) {
        accumulate(crit, binned.codes(f), rows, block);
    }
}

/// Build the histograms of `rows` for the sampled `features` only:
/// block `i` of `buf` holds feature `features[i]`, and each block
/// zero-fills just its feature's `n_bins + 1` bins before accumulating.
fn build_sampled_hist<C: Criterion>(
    binned: &BinnedMatrix,
    crit: &C,
    features: &[usize],
    rows: &[usize],
    buf: &mut [f64],
) {
    let width = crit.hist_width();
    for (&f, block) in features.iter().zip(buf.chunks_mut(binned.stride() * width)) {
        let used = &mut block[..(binned.n_bins(f) + 1) * width];
        used.fill(0.0);
        accumulate(crit, binned.codes(f), rows, used);
    }
}

/// Node totals of a full histogram: every row lands in exactly one bin of
/// feature 0 (including its missing bin), so summing that feature's bins
/// recovers them.
fn hist_totals(binned: &BinnedMatrix, width: usize, hist: &[f64]) -> Vec<f64> {
    let mut node = vec![0.0; width];
    if binned.n_features() > 0 {
        for bin in hist[..(binned.n_bins(0) + 1) * width].chunks(width) {
            for (slot, v) in node.iter_mut().zip(bin) {
                *slot += v;
            }
        }
    }
    node
}

impl Cart {
    fn fit<C: Criterion>(
        columns: &[Vec<f64>],
        crit: &C,
        params: &CartParams,
        rows: Vec<usize>,
        rng: &mut StdRng,
    ) -> Cart {
        let n_features = columns.len();
        let n_total = rows.len();
        let mut tree = Cart { nodes: Vec::new(), importances: vec![0.0; n_features] };
        tree.grow(columns, crit, params, rows, 0, n_total, rng);
        tree.normalise_importances();
        tree
    }

    /// Histogram-mode fit over a prebuilt [`BinnedMatrix`].
    ///
    /// An integer-count criterion (gini) with a feature sample `k < d`
    /// builds each node's histograms for its `k` sampled features
    /// directly; everything else keeps sibling subtraction over all `d`
    /// features. Both paths grow bit-identical trees for such criteria.
    fn fit_hist<C: Criterion>(
        binned: &BinnedMatrix,
        crit: &C,
        params: &CartParams,
        rows: Vec<usize>,
        rng: &mut StdRng,
    ) -> Cart {
        let direct =
            C::INTEGER_SLOTS && matches!(params.max_features, Some(k) if k < binned.n_features());
        Cart::fit_hist_with(binned, crit, params, rows, rng, direct)
    }

    /// [`Cart::fit_hist`] with the path chosen by the caller: `direct`
    /// builds sampled-feature histograms per node, otherwise full
    /// histograms are derived by sibling subtraction.
    fn fit_hist_with<C: Criterion>(
        binned: &BinnedMatrix,
        crit: &C,
        params: &CartParams,
        mut rows: Vec<usize>,
        rng: &mut StdRng,
        direct: bool,
    ) -> Cart {
        let n_features = binned.n_features();
        let n_total = rows.len();
        let mut tree = Cart { nodes: Vec::new(), importances: vec![0.0; n_features] };
        let width = crit.hist_width();
        let block = binned.stride() * width;
        let mut ws = HistWorkspace {
            free: Vec::new(),
            size: n_features * block,
            sampled: Vec::new(),
            scratch: Vec::with_capacity(n_total),
        };
        let (root, totals) = if direct {
            let k = params.max_features.map_or(n_features, |k| k.min(n_features));
            ws.sampled = vec![0.0; k * block];
            let mut totals = vec![0.0; width];
            for &r in &rows {
                crit.hist_add(&mut totals, r);
            }
            (None, totals)
        } else {
            let mut root = ws.alloc();
            build_hist(binned, crit, &rows, &mut root);
            let totals = hist_totals(binned, width, &root);
            (Some(root), totals)
        };
        tree.grow_hist(binned, crit, params, &mut ws, &mut rows, root, totals, 0, n_total, rng);
        tree.normalise_importances();
        tree
    }

    /// Normalise importances to sum to 1 when any split happened.
    fn normalise_importances(&mut self) {
        let total: f64 = self.importances.iter().sum();
        if total > 0.0 {
            for imp in &mut self.importances {
                *imp /= total;
            }
        }
    }

    /// Recursively grow a histogram-mode subtree; returns its root node
    /// index. `node` holds this node's totals. `hist` is its full
    /// histogram on the subtraction path (ownership transfers in: it is
    /// either recycled into `ws` or reused for the larger child) and
    /// `None` on the direct path, which rebuilds the sampled features'
    /// histograms from `rows`.
    #[allow(clippy::too_many_arguments)]
    fn grow_hist<C: Criterion>(
        &mut self,
        binned: &BinnedMatrix,
        crit: &C,
        params: &CartParams,
        ws: &mut HistWorkspace,
        rows: &mut [usize],
        hist: Option<Vec<f64>>,
        node: Vec<f64>,
        depth: usize,
        n_total: usize,
        rng: &mut StdRng,
    ) -> usize {
        let n = rows.len();
        let width = crit.hist_width();
        let block = binned.stride() * width;
        let impurity = crit.hist_impurity(&node);

        let make_leaf =
            depth >= params.max_depth || n < params.min_samples_split || impurity <= 1e-12;
        if !make_leaf {
            let features = sample_features(params, binned.n_features(), rng);
            let split = match &hist {
                Some(h) => {
                    let blocks = features.iter().map(|&f| (f, &h[f * block..(f + 1) * block]));
                    best_split_hist(binned, crit, params, blocks, &node, impurity)
                }
                None => {
                    build_sampled_hist(binned, crit, &features, rows, &mut ws.sampled);
                    let blocks = features.iter().copied().zip(ws.sampled.chunks(block));
                    best_split_hist(binned, crit, params, blocks, &node, impurity)
                }
            };
            if let Some(HistSplit { feature, bin, gain, left: left_totals }) = split {
                let threshold = binned.threshold(feature, bin);
                self.importances[feature] += gain * n as f64 / n_total as f64;
                let w = ws.partition(rows, binned.codes(feature), bin);
                let (left_rows, right_rows) = rows.split_at_mut(w);
                let ((left_hist, left_node), (right_hist, right_node)) = match hist {
                    Some(parent) => {
                        // Sibling subtraction: scan only the smaller
                        // child; the larger child's histogram is parent −
                        // smaller, reusing the parent's buffer.
                        let left_smaller = left_rows.len() <= right_rows.len();
                        let mut small = ws.alloc();
                        build_hist(
                            binned,
                            crit,
                            if left_smaller { &*left_rows } else { &*right_rows },
                            &mut small,
                        );
                        let mut large = parent;
                        for (l, s) in large.iter_mut().zip(&small) {
                            *l -= *s;
                        }
                        let (l, r) = if left_smaller { (small, large) } else { (large, small) };
                        let (l_node, r_node) =
                            (hist_totals(binned, width, &l), hist_totals(binned, width, &r));
                        ((Some(l), l_node), (Some(r), r_node))
                    }
                    None => {
                        // Counts are exact, so the right child's totals
                        // are the parent's minus the winning left side.
                        let right_totals =
                            node.iter().zip(&left_totals).map(|(p, l)| p - l).collect();
                        ((None, left_totals), (None, right_totals))
                    }
                };
                let idx = self.nodes.len();
                self.nodes.push(Node::Split { feature, threshold, left: 0, right: 0 });
                let left = self.grow_hist(
                    binned,
                    crit,
                    params,
                    ws,
                    left_rows,
                    left_hist,
                    left_node,
                    depth + 1,
                    n_total,
                    rng,
                );
                let right = self.grow_hist(
                    binned,
                    crit,
                    params,
                    ws,
                    right_rows,
                    right_hist,
                    right_node,
                    depth + 1,
                    n_total,
                    rng,
                );
                if let Node::Split { left: l, right: r, .. } = &mut self.nodes[idx] {
                    *l = left;
                    *r = right;
                }
                return idx;
            }
        }
        if let Some(h) = hist {
            ws.release(h);
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf { value: crit.hist_leaf(&node) });
        idx
    }

    /// Recursively grow a subtree; returns its root node index.
    #[allow(clippy::too_many_arguments)]
    fn grow<C: Criterion>(
        &mut self,
        columns: &[Vec<f64>],
        crit: &C,
        params: &CartParams,
        rows: Vec<usize>,
        depth: usize,
        n_total: usize,
        rng: &mut StdRng,
    ) -> usize {
        let n = rows.len();
        let stats = crit.stats(&rows);
        let impurity = crit.impurity(&stats, n);

        let make_leaf =
            depth >= params.max_depth || n < params.min_samples_split || impurity <= 1e-12;
        if !make_leaf {
            if let Some((feature, threshold, gain, left_rows, right_rows)) =
                best_split(columns, crit, params, &rows, impurity, rng)
            {
                self.importances[feature] += gain * n as f64 / n_total as f64;
                let idx = self.nodes.len();
                self.nodes.push(Node::Split { feature, threshold, left: 0, right: 0 });
                let left = self.grow(columns, crit, params, left_rows, depth + 1, n_total, rng);
                let right = self.grow(columns, crit, params, right_rows, depth + 1, n_total, rng);
                if let Node::Split { left: l, right: r, .. } = &mut self.nodes[idx] {
                    *l = left;
                    *r = right;
                }
                return idx;
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf { value: crit.leaf_value(&stats, n) });
        idx
    }

    fn predict_row(&self, row: &[f64]) -> &[f64] {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Split { feature, threshold, left, right } => {
                    i = if row[*feature] <= *threshold { *left } else { *right };
                }
                Node::Leaf { value } => return value,
            }
        }
    }

    fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Candidate feature indices for one node: all features, or a partial
/// Fisher–Yates sample of `k`. Shared by both split backends so they
/// consume the per-tree RNG identically.
fn sample_features(params: &CartParams, n_features: usize, rng: &mut StdRng) -> Vec<usize> {
    match params.max_features {
        Some(k) if k < n_features => {
            let mut idx: Vec<usize> = (0..n_features).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n_features);
                idx.swap(i, j);
            }
            idx.truncate(k);
            idx
        }
        _ => (0..n_features).collect(),
    }
}

/// Total order on split values: NaN compares equal to NaN and greater
/// than everything else, so every column scan places NaN rows in one
/// deterministic block at the end regardless of input order.
fn split_value_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("both finite or infinite"),
    }
}

/// Exhaustive best split over (subsampled) features.
///
/// Returns `(feature, threshold, impurity_decrease, left_rows, right_rows)`.
#[allow(clippy::type_complexity)]
fn best_split<C: Criterion>(
    columns: &[Vec<f64>],
    crit: &C,
    params: &CartParams,
    rows: &[usize],
    parent_impurity: f64,
    rng: &mut StdRng,
) -> Option<(usize, f64, f64, Vec<usize>, Vec<usize>)> {
    let n = rows.len();
    let feature_idx = sample_features(params, columns.len(), rng);

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
    let mut sorted = rows.to_vec();
    for &f in &feature_idx {
        let col = &columns[f];
        sorted.sort_by(|&a, &b| split_value_cmp(col[a], col[b]));
        let mut left = crit.stats(&[]);
        let mut right = crit.stats(&sorted);
        for (i, &r) in sorted.iter().enumerate().take(n - 1) {
            crit.add(&mut left, r);
            crit.sub(&mut right, r);
            let n_left = i + 1;
            let n_right = n - n_left;
            let (lo, hi) = (col[sorted[i]], col[sorted[i + 1]]);
            // Can't split between equal values (NaN counts as equal to
            // NaN: the missing block at the end is never split up).
            if lo == hi || (lo.is_nan() && hi.is_nan()) {
                continue;
            }
            if n_left < params.min_samples_leaf || n_right < params.min_samples_leaf {
                continue;
            }
            let child = (n_left as f64 * crit.impurity(&left, n_left)
                + n_right as f64 * crit.impurity(&right, n_right))
                / n as f64;
            let gain = parent_impurity - child;
            if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                // Between two finite values the threshold is their
                // midpoint; at the finite|missing boundary it is the last
                // finite value itself, which sends every NaN right.
                let threshold = if hi.is_nan() { lo } else { 0.5 * (lo + hi) };
                best = Some((f, threshold, gain));
            }
        }
    }
    best.map(|(feature, threshold, gain)| {
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&r| columns[feature][r] <= threshold);
        (feature, threshold, gain, left_rows, right_rows)
    })
}

/// Winning histogram split: the partition "code <= bin" of `feature`,
/// its impurity decrease and the left child's accumulated totals.
struct HistSplit {
    feature: usize,
    bin: usize,
    gain: f64,
    left: Vec<f64>,
}

/// Histogram best split over candidate features, each given with its
/// bin block (`stride * width` slots): scan bin boundaries with
/// cumulative statistics; the missing bin (highest code) always stays on
/// the right. Shared by the subtraction and direct paths, which differ
/// only in where the blocks come from.
fn best_split_hist<'h, C: Criterion>(
    binned: &BinnedMatrix,
    crit: &C,
    params: &CartParams,
    candidates: impl Iterator<Item = (usize, &'h [f64])>,
    node: &[f64],
    parent_impurity: f64,
) -> Option<HistSplit> {
    let n = node[0] as usize;
    let width = crit.hist_width();
    let mut best: Option<(usize, usize, f64)> = None;
    let mut best_left = vec![0.0; width];
    let mut left = vec![0.0; width];
    let mut right = vec![0.0; width];
    for (f, hist) in candidates {
        let nb = binned.n_bins(f);
        if nb == 0 {
            continue; // all-NaN column: nothing to split on
        }
        left.fill(0.0);
        right.copy_from_slice(node);
        for (b, bin) in hist[..nb * width].chunks_exact(width).enumerate() {
            if bin[0] == 0.0 {
                // Empty bin: identical partition to the previous boundary.
                continue;
            }
            for ((l, r), v) in left.iter_mut().zip(right.iter_mut()).zip(bin) {
                *l += v;
                *r -= v;
            }
            let n_left = left[0] as usize;
            let n_right = n - n_left;
            if n_left == 0 || n_right == 0 {
                continue;
            }
            if n_left < params.min_samples_leaf || n_right < params.min_samples_leaf {
                continue;
            }
            let child = (n_left as f64 * crit.hist_impurity(&left)
                + n_right as f64 * crit.hist_impurity(&right))
                / n as f64;
            let gain = parent_impurity - child;
            if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((f, b, gain));
                best_left.copy_from_slice(&left);
            }
        }
    }
    best.map(|(feature, bin, gain)| HistSplit { feature, bin, gain, left: best_left })
}

/// Grow a tree with the backend selected by `params.split_method`,
/// building a fresh [`BinnedMatrix`] in histogram mode.
fn fit_cart<C: Criterion>(
    columns: &[Vec<f64>],
    crit: &C,
    params: &CartParams,
    rows: Vec<usize>,
    rng: &mut StdRng,
) -> Cart {
    match params.split_method {
        SplitMethod::Exact => Cart::fit(columns, crit, params, rows, rng),
        SplitMethod::Histogram { max_bins } => {
            let binned = BinnedMatrix::build(columns, max_bins);
            Cart::fit_hist(&binned, crit, params, rows, rng)
        }
    }
}

/// A CART classifier. Fit on column-major features and integer labels.
#[derive(Debug, Clone)]
pub struct DecisionTreeClassifier {
    params: CartParams,
    seed: u64,
    tree: Option<Cart>,
    n_classes: usize,
}

impl DecisionTreeClassifier {
    /// Create an unfitted tree.
    pub fn new(params: CartParams, seed: u64) -> Self {
        Self { params, seed, tree: None, n_classes: 0 }
    }

    /// Fit on column-major features.
    pub fn fit(&mut self, columns: &[Vec<f64>], y: &[usize], n_classes: usize) {
        let mut rng = fastft_tabular::rngx::rng(self.seed);
        let crit = GiniCriterion { y, n_classes };
        let rows: Vec<usize> = (0..y.len()).collect();
        self.tree = Some(fit_cart(columns, &crit, &self.params, rows, &mut rng));
        self.n_classes = n_classes;
    }

    /// Class-probability vector for one row.
    pub fn predict_proba_row(&self, row: &[f64]) -> Vec<f64> {
        self.leaf_proba(row).to_vec()
    }

    /// Class distribution of the leaf `row` lands in, borrowed from the
    /// tree (no per-row allocation).
    pub(crate) fn leaf_proba(&self, row: &[f64]) -> &[f64] {
        self.tree.as_ref().expect("fit first").predict_row(row)
    }

    /// Hard label for one row.
    pub fn predict_row(&self, row: &[f64]) -> usize {
        argmax(self.leaf_proba(row))
    }

    /// Hard labels for a row-major batch.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        rows.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Normalised impurity-decrease feature importances.
    pub fn feature_importances(&self) -> &[f64] {
        &self.tree.as_ref().expect("fit first").importances
    }

    /// Total node count (for complexity reporting).
    pub fn n_nodes(&self) -> usize {
        self.tree.as_ref().map_or(0, Cart::n_nodes)
    }
}

/// A CART regressor.
#[derive(Debug, Clone)]
pub struct DecisionTreeRegressor {
    params: CartParams,
    seed: u64,
    tree: Option<Cart>,
}

impl DecisionTreeRegressor {
    /// Create an unfitted tree.
    pub fn new(params: CartParams, seed: u64) -> Self {
        Self { params, seed, tree: None }
    }

    /// Fit on column-major features.
    pub fn fit(&mut self, columns: &[Vec<f64>], y: &[f64]) {
        let rows: Vec<usize> = (0..y.len()).collect();
        self.fit_rows(columns, y, rows);
    }

    /// Fit restricted to a row subset (used by bagging and boosting).
    pub fn fit_rows(&mut self, columns: &[Vec<f64>], y: &[f64], rows: Vec<usize>) {
        let mut rng = fastft_tabular::rngx::rng(self.seed);
        let crit = VarCriterion { y };
        self.tree = Some(fit_cart(columns, &crit, &self.params, rows, &mut rng));
    }

    /// Histogram-mode fit over a prebuilt [`BinnedMatrix`] — bagging and
    /// boosting bin the training matrix once and share it across trees,
    /// rounds and classes.
    ///
    /// # Panics
    ///
    /// Panics if `self` was built with [`SplitMethod::Exact`]: exact
    /// search needs raw columns, not bins.
    pub fn fit_rows_prebinned(&mut self, binned: &BinnedMatrix, y: &[f64], rows: Vec<usize>) {
        assert!(
            matches!(self.params.split_method, SplitMethod::Histogram { .. }),
            "fit_rows_prebinned requires SplitMethod::Histogram"
        );
        let mut rng = fastft_tabular::rngx::rng(self.seed);
        let crit = VarCriterion { y };
        self.tree = Some(Cart::fit_hist(binned, &crit, &self.params, rows, &mut rng));
    }

    /// Predicted value for one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.tree.as_ref().expect("fit first").predict_row(row)[0]
    }

    /// Predicted values for a row-major batch.
    pub fn predict(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict_row(r)).collect()
    }

    /// Normalised impurity-decrease feature importances.
    pub fn feature_importances(&self) -> &[f64] {
        &self.tree.as_ref().expect("fit first").importances
    }
}

/// Classification tree with a row subset and bootstrap weighting support,
/// used internally by the random forest.
pub(crate) fn fit_classifier_rows(
    columns: &[Vec<f64>],
    y: &[usize],
    n_classes: usize,
    params: &CartParams,
    rows: Vec<usize>,
    seed: u64,
) -> DecisionTreeClassifier {
    let mut rng = fastft_tabular::rngx::rng(seed);
    let crit = GiniCriterion { y, n_classes };
    let tree = fit_cart(columns, &crit, params, rows, &mut rng);
    DecisionTreeClassifier { params: *params, seed, tree: Some(tree), n_classes }
}

/// Histogram-mode classification tree over a prebuilt [`BinnedMatrix`]
/// shared across a forest's trees.
pub(crate) fn fit_classifier_prebinned(
    binned: &BinnedMatrix,
    y: &[usize],
    n_classes: usize,
    params: &CartParams,
    rows: Vec<usize>,
    seed: u64,
) -> DecisionTreeClassifier {
    let mut rng = fastft_tabular::rngx::rng(seed);
    let crit = GiniCriterion { y, n_classes };
    let tree = Cart::fit_hist(binned, &crit, params, rows, &mut rng);
    DecisionTreeClassifier { params: *params, seed, tree: Some(tree), n_classes }
}

/// Index of the maximum element (first on ties).
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastft_tabular::rngx;

    fn xor_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = rngx::rng(seed);
        let a = rngx::normal_vec(&mut rng, n);
        let b = rngx::normal_vec(&mut rng, n);
        let y: Vec<usize> =
            a.iter().zip(&b).map(|(&x, &z)| usize::from((x > 0.0) != (z > 0.0))).collect();
        (vec![a, b], y)
    }

    #[test]
    fn classifier_learns_xor() {
        let (cols, y) = xor_data(400, 1);
        let mut t = DecisionTreeClassifier::new(CartParams::default(), 0);
        t.fit(&cols, &y, 2);
        let rows: Vec<Vec<f64>> = (0..y.len()).map(|i| vec![cols[0][i], cols[1][i]]).collect();
        let pred = t.predict(&rows);
        let acc = fastft_tabular::metrics::accuracy(&y, &pred);
        assert!(acc > 0.9, "train accuracy {acc}");
    }

    #[test]
    fn classifier_pure_node_is_leaf() {
        let cols = vec![vec![1.0, 2.0, 3.0, 4.0]];
        let y = vec![1, 1, 1, 1];
        let mut t = DecisionTreeClassifier::new(CartParams::default(), 0);
        t.fit(&cols, &y, 2);
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict_row(&[10.0]), 1);
    }

    #[test]
    fn depth_zero_predicts_majority() {
        let cols = vec![vec![0.0, 1.0, 2.0, 3.0, 4.0]];
        let y = vec![0, 0, 0, 1, 1];
        let params = CartParams { max_depth: 0, ..CartParams::default() };
        let mut t = DecisionTreeClassifier::new(params, 0);
        t.fit(&cols, &y, 2);
        assert_eq!(t.predict_row(&[4.0]), 0);
    }

    #[test]
    fn proba_sums_to_one() {
        let (cols, y) = xor_data(200, 2);
        let mut t = DecisionTreeClassifier::new(CartParams::default(), 0);
        t.fit(&cols, &y, 2);
        let p = t.predict_proba_row(&[0.3, -0.2]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn regressor_fits_step_function() {
        let cols = vec![(0..100).map(|i| i as f64).collect::<Vec<_>>()];
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let mut t = DecisionTreeRegressor::new(CartParams::default(), 0);
        t.fit(&cols, &y);
        assert!((t.predict_row(&[10.0]) - 1.0).abs() < 1e-9);
        assert!((t.predict_row(&[90.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn regressor_reduces_variance_vs_mean() {
        let mut rng = rngx::rng(3);
        let x = rngx::normal_vec(&mut rng, 300);
        let y: Vec<f64> = x.iter().map(|v| v * v + 0.1 * rngx::normal(&mut rng)).collect();
        let cols = vec![x.clone()];
        let mut t = DecisionTreeRegressor::new(CartParams::default(), 0);
        t.fit(&cols, &y);
        let rows: Vec<Vec<f64>> = x.iter().map(|&v| vec![v]).collect();
        let pred = t.predict(&rows);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let mse_tree: f64 =
            y.iter().zip(&pred).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / y.len() as f64;
        let mse_mean: f64 = y.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / y.len() as f64;
        assert!(mse_tree < 0.3 * mse_mean, "tree {mse_tree} vs mean {mse_mean}");
    }

    #[test]
    fn importances_identify_informative_feature() {
        let mut rng = rngx::rng(4);
        let signal = rngx::normal_vec(&mut rng, 300);
        let noise = rngx::normal_vec(&mut rng, 300);
        let y: Vec<usize> = signal.iter().map(|&s| usize::from(s > 0.0)).collect();
        let cols = vec![noise, signal];
        let mut t = DecisionTreeClassifier::new(CartParams::default(), 0);
        t.fit(&cols, &y, 2);
        let imp = t.feature_importances();
        assert!(imp[1] > imp[0], "{imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let cols = vec![(0..10).map(|i| i as f64).collect::<Vec<_>>()];
        let y = vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1];
        let params = CartParams { min_samples_leaf: 6, ..CartParams::default() };
        let mut t = DecisionTreeClassifier::new(params, 0);
        t.fit(&cols, &y, 2);
        // No split can give both children >= 6 of 10 samples.
        assert_eq!(t.n_nodes(), 1);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    fn exact_params() -> CartParams {
        CartParams { split_method: SplitMethod::Exact, ..CartParams::default() }
    }

    #[test]
    fn exact_split_is_row_order_independent_with_nans() {
        // Regression test: the old exact path compared values with
        // `partial_cmp(..).unwrap_or(Equal)`, so the sort placed NaNs
        // wherever the incoming row order happened to leave them and the
        // fitted tree depended on row *order*, not just the row *set*.
        let x = vec![f64::NAN, 1.0, f64::NAN, 2.0, 3.0, f64::NAN, 4.0, 5.0, 6.0, 7.0];
        let y = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0];
        let cols = vec![x];
        let params = CartParams { min_samples_leaf: 1, ..exact_params() };

        let mut forward = DecisionTreeRegressor::new(params, 0);
        forward.fit_rows(&cols, &y, (0..y.len()).collect());
        let mut reversed = DecisionTreeRegressor::new(params, 0);
        reversed.fit_rows(&cols, &y, (0..y.len()).rev().collect());

        for probe in [f64::NAN, 0.5, 1.5, 3.5, 4.5, 6.5] {
            let a = forward.predict_row(&[probe]);
            let b = reversed.predict_row(&[probe]);
            assert_eq!(a.to_bits(), b.to_bits(), "probe {probe} differs: {a} vs {b}");
        }
    }

    #[test]
    fn nan_rows_route_right_in_both_modes() {
        // Feature is informative except for NaN rows, which all carry the
        // high label; both backends must learn "missing -> right branch".
        let mut x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let mut y: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        for _ in 0..10 {
            x.push(f64::NAN);
            y.push(1);
        }
        for params in [exact_params(), CartParams::default()] {
            let mut t = DecisionTreeClassifier::new(params, 0);
            t.fit(&[x.clone()], &y, 2);
            assert_eq!(t.predict_row(&[f64::NAN]), 1, "{:?}", params.split_method);
            assert_eq!(t.predict_row(&[3.0]), 0, "{:?}", params.split_method);
        }
    }

    #[test]
    fn histogram_matches_exact_when_bins_cover_all_values() {
        // With distinct values <= max_bins every bin holds one distinct
        // value, so the histogram scans the same candidate partitions as
        // the exact search with the same feature-sampling RNG and the same
        // ascending / first-strictly-greater tie-breaking. The two trees
        // partition the training set identically (interior thresholds may
        // sit at different points of the same value gap, so only training
        // rows — never off-grid probes — are compared).
        let (cols, y) = xor_data(200, 7);
        let mut exact = DecisionTreeClassifier::new(exact_params(), 0);
        exact.fit(&cols, &y, 2);
        let mut hist = DecisionTreeClassifier::new(CartParams::default(), 0);
        hist.fit(&cols, &y, 2);

        assert_eq!(exact.n_nodes(), hist.n_nodes());
        for (i, row) in cols[0].iter().zip(&cols[1]).map(|(&a, &b)| [a, b]).enumerate() {
            assert_eq!(exact.predict_proba_row(&row), hist.predict_proba_row(&row), "row {i}");
        }
    }

    #[test]
    fn histogram_regressor_learns_step_with_coarse_bins() {
        let cols = vec![(0..2000).map(|i| (i % 500) as f64).collect::<Vec<_>>()];
        let y: Vec<f64> = cols[0].iter().map(|&v| if v < 250.0 { 1.0 } else { 5.0 }).collect();
        let params = CartParams {
            split_method: SplitMethod::Histogram { max_bins: 16 },
            ..CartParams::default()
        };
        let mut t = DecisionTreeRegressor::new(params, 0);
        t.fit(&cols, &y);
        assert!((t.predict_row(&[10.0]) - 1.0).abs() < 0.2);
        assert!((t.predict_row(&[400.0]) - 5.0).abs() < 0.2);
    }

    #[test]
    fn prebinned_fit_matches_per_tree_binning() {
        let (cols, y_cls) = xor_data(150, 9);
        let y: Vec<f64> = y_cls.iter().map(|&c| c as f64).collect();
        let params = CartParams::default();
        let SplitMethod::Histogram { max_bins } = params.split_method else {
            panic!("default must be histogram")
        };
        let binned = BinnedMatrix::build(&cols, max_bins);

        let mut auto = DecisionTreeRegressor::new(params, 42);
        auto.fit(&cols, &y);
        let mut pre = DecisionTreeRegressor::new(params, 42);
        pre.fit_rows_prebinned(&binned, &y, (0..y.len()).collect());

        for row in cols[0].iter().zip(&cols[1]).map(|(&a, &b)| [a, b]) {
            assert_eq!(auto.predict_row(&row).to_bits(), pre.predict_row(&row).to_bits());
        }
    }

    /// Node-for-node bit pattern of a tree: split features, thresholds and
    /// child links, leaf payloads, then the importances.
    fn tree_bits(tree: &Cart) -> Vec<u64> {
        let mut bits = Vec::new();
        for node in &tree.nodes {
            match node {
                Node::Split { feature, threshold, left, right } => {
                    bits.extend([0, *feature as u64, threshold.to_bits()]);
                    bits.extend([*left as u64, *right as u64]);
                }
                Node::Leaf { value } => {
                    bits.push(1);
                    bits.extend(value.iter().map(|v| v.to_bits()));
                }
            }
        }
        bits.extend(tree.importances.iter().map(|v| v.to_bits()));
        bits
    }

    #[test]
    fn direct_sampled_build_matches_sibling_subtraction() {
        // Seeded columns with ~10% NaNs plus an all-NaN column (no finite
        // bins) and a constant column, so both degenerate bin layouts sit
        // among the sampled features.
        let n = 300;
        let mut rng = rngx::rng(21);
        let mut cols: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                rngx::normal_vec(&mut rng, n)
                    .into_iter()
                    .map(|v| if rng.gen_range(0..10) == 0 { f64::NAN } else { v })
                    .collect()
            })
            .collect();
        cols.push(vec![f64::NAN; n]);
        cols.push(vec![3.0; n]);
        let d = cols.len();
        let binned = BinnedMatrix::build(&cols, 255);
        assert_eq!(binned.n_bins(d - 2), 0);
        for n_classes in [2, 3] {
            let y: Vec<usize> = (0..n)
                .map(|i| {
                    let v = cols[0][i] + 0.5 * cols[1][i];
                    if v.is_nan() {
                        n_classes - 1
                    } else {
                        usize::from(v > 0.0) + usize::from(n_classes == 3 && v > 1.0)
                    }
                })
                .collect();
            let crit = GiniCriterion { y: &y, n_classes };
            // Bootstrap rows: drawn with replacement, so duplicates.
            let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            for k in 1..d {
                for min_samples_leaf in [1, 5] {
                    let params = CartParams {
                        max_features: Some(k),
                        min_samples_leaf,
                        ..CartParams::default()
                    };
                    let mut rng_a = rngx::rng(5);
                    let mut rng_b = rngx::rng(5);
                    let direct = Cart::fit_hist_with(
                        &binned,
                        &crit,
                        &params,
                        rows.clone(),
                        &mut rng_a,
                        true,
                    );
                    let subtract = Cart::fit_hist_with(
                        &binned,
                        &crit,
                        &params,
                        rows.clone(),
                        &mut rng_b,
                        false,
                    );
                    let case = format!("classes {n_classes}, k {k}, leaf {min_samples_leaf}");
                    assert!(direct.n_nodes() > 1, "{case}: no split grown");
                    assert_eq!(tree_bits(&direct), tree_bits(&subtract), "{case}");
                    // Same feature samples drawn at the same nodes.
                    assert_eq!(
                        rng_a.gen_range(0..u64::MAX),
                        rng_b.gen_range(0..u64::MAX),
                        "{case}"
                    );
                }
            }
        }
    }
}
