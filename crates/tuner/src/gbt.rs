//! Gradient-boosted regression trees — the surrogate cost model.
//!
//! A compact, dependency-free stand-in for AutoTVM's XGBoost ranker:
//! least-squares gradient boosting over depth-limited CART regression
//! trees. Targets are `log(cost)` in practice (the tuner's choice), which
//! makes the ranking robust to the heavy right tail of bad schedules.
//!
//! Trees are grown with XGBoost's exact greedy method, one level at a time.
//! [`Gbt::fit`] sorts every feature column once, by `(total_cmp` value,
//! sample index`)`, and keeps each sample there with the class of its value
//! among the column's `==` groups; a column whose values are all `==` is
//! dropped up front, since no node could ever split on it. Every node of the
//! level being split owns one contiguous run of each column, holding its
//! samples in that same order: the root's runs are the sorted columns
//! themselves, and after each level that has a deeper one to scan, a stable
//! two-cursor partition moves each split node's run into its children's,
//! left before right, while the samples of settled leaves drop out. A node
//! scans its runs four columns at a time with the left-side sums in locals,
//! each column keeping its own best split against the node's bar; the
//! columns' bests are then taken in ascending feature order by strict `<`,
//! which picks the first minimum a running bar over the features in order
//! would.
//!
//! A node evaluates the split between two neighbours whenever their values
//! differ (`!=`), at the threshold `(a + b) / 2`, keeping a candidate only if
//! it strictly beats the best so far. Node totals accumulate in ascending
//! sample order from `-0.0`, as `Iterator::sum` does over a node's sample
//! list. Every floating-point operation of the classic recursive builder,
//! which re-sorts each feature at each node, therefore happens here in the
//! same order on the same operands, and the fitted ensemble is bit-identical
//! to it (held by the oracle in this module's tests). Residuals are updated
//! from the leaf each sample was routed to while the tree grew, by the same
//! `x <= thresh` test `predict` walks. All trees of an ensemble share one
//! node arena.

/// One node of a regression tree (indices into the ensemble's arena).
#[derive(Debug, Clone)]
enum TreeNode {
    Leaf(f64),
    Split { feature: usize, thresh: f64, left: usize, right: usize },
}

impl TreeNode {
    fn value(&self) -> f64 {
        match *self {
            TreeNode::Leaf(v) => v,
            TreeNode::Split { .. } => unreachable!("samples end in leaves"),
        }
    }
}

/// The value of the leaf that `x` reaches from `root`.
fn walk(nodes: &[TreeNode], root: usize, x: &[f64]) -> f64 {
    let mut cur = root;
    loop {
        match nodes[cur] {
            TreeNode::Leaf(v) => return v,
            TreeNode::Split { feature, thresh, left, right } => {
                cur = if x[feature] <= thresh { left } else { right };
            }
        }
    }
}

/// A sample's place in a sorted column: `(class, sample)`. The first cell of
/// a column has class 0, and each next one the class before it plus one if
/// their values differ (`!=`). Two cells of a column hold `==` values exactly
/// when their classes are equal (a `NaN` gets a class of its own, `-0.0`
/// shares `0.0`'s), so a scan compares classes where it would compare values.
type Cell = (u32, u32);

/// A node of a level: its totals and where its runs start.
#[derive(Debug, Clone, Copy)]
struct Open {
    count: usize,
    sum: f64,
    sq: f64,
    /// Offset of the node's run within each column's slice of the level.
    start: usize,
}

impl Open {
    /// A node no sample has reached yet; totals start from `-0.0`, as
    /// `Iterator::sum` does.
    const EMPTY: Open = Open { count: 0, sum: -0.0, sq: -0.0, start: 0 };

    fn add(&mut self, y: f64) {
        self.count += 1;
        self.sum += y;
        self.sq += y * y;
    }
}

/// Scratch for fitting trees on one sample set, reused by every tree.
pub(crate) struct Workspace<'a, X> {
    xs: &'a [X],
    /// Three blocks of `features.len()` columns of `n` cells each. The first
    /// holds feature `features[k]`'s samples sorted by `(total_cmp` value,
    /// sample`)` in its `k`th column; the other two take turns holding the
    /// runs of the levels below the root.
    cells: Vec<Cell>,
    /// Features whose values are not all `==`, ascending.
    features: Vec<usize>,
    /// Arena index of the node each sample sits in; after a fit, its leaf.
    node_of: Vec<usize>,
    /// The nodes of the level being split, which are contiguous in the arena.
    open: Vec<Open>,
    /// Their children, the next level.
    kids: Vec<Open>,
}

impl<'a, X: AsRef<[f64]>> Workspace<'a, X> {
    /// Sort each feature column of `xs` once.
    pub(crate) fn new(xs: &'a [X]) -> Self {
        let n = xs.len();
        let dim = xs.first().map_or(0, |x| x.as_ref().len());
        assert!(u32::try_from(n).is_ok(), "a fit takes fewer than 2^32 samples");
        let mut cells = Vec::with_capacity(3 * dim * n);
        let mut features = Vec::with_capacity(dim);
        let mut column: Vec<(f64, u32)> = Vec::with_capacity(n);
        for f in 0..dim {
            column.clear();
            column.extend(xs.iter().zip(0..).map(|(x, s)| (x.as_ref()[f], s)));
            column.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let start = cells.len();
            let mut class = 0;
            cells.extend(column.iter().enumerate().map(|(i, &(x, s))| {
                class += (i > 0 && column[i - 1].0 != x) as u32;
                (class, s)
            }));
            // No two neighbours differ: no node ever has a split to weigh here.
            if class == 0 {
                cells.truncate(start);
            } else {
                features.push(f);
            }
        }
        cells.resize(3 * cells.len(), (0, 0));
        Workspace {
            xs,
            cells,
            features,
            node_of: vec![0; n],
            open: Vec::with_capacity(n),
            kids: Vec::with_capacity(n),
        }
    }

    /// Grow one tree on every sample by greedy variance reduction, one level
    /// at a time, appending its nodes to `nodes`; returns its root.
    fn grow(&mut self, ys: &[f64], max_depth: usize, min_leaf: usize, nodes: &mut Vec<TreeNode>) -> usize {
        let n = self.node_of.len();
        let block = self.features.len() * n;
        let (sorted, runs) = self.cells.split_at_mut(block);
        let sorted = &*sorted;
        let (mut runs, mut spare) = runs.split_at_mut(block);
        let root = nodes.len();
        nodes.push(TreeNode::Leaf(0.0)); // settled below
        self.node_of.fill(root);
        self.open.clear();
        self.open.push(Open::EMPTY);
        for &y in ys {
            self.open[0].add(y);
        }
        // Arena index of `open[0]`, and whether its runs are `sorted` or `runs`.
        let mut level = root;
        let mut at_root = true;
        let mut depth = max_depth;
        let splits = |o: &Open, depth: usize| depth > 0 && o.count >= 2 * min_leaf;
        while !self.open.is_empty() {
            let cols: &[Cell] = if at_root { sorted } else { &*runs };
            let next = nodes.len();
            for (i, o) in self.open.iter().enumerate() {
                let best = if splits(o, depth) { best_split(cols, n, &self.features, self.xs, o, ys, min_leaf) } else { None };
                nodes[level + i] = match best {
                    None => TreeNode::Leaf(o.sum / o.count.max(1) as f64),
                    Some((feature, thresh)) => {
                        let left = nodes.len();
                        nodes.extend([TreeNode::Leaf(0.0), TreeNode::Leaf(0.0)]);
                        TreeNode::Split { feature, thresh, left, right: left + 1 }
                    }
                };
            }
            // Route the samples of this level's splits to the children,
            // appended in order, which are the next level; their totals
            // accumulate in ascending sample order.
            self.kids.clear();
            self.kids.resize(nodes.len() - next, Open::EMPTY);
            for ((x, node), &y) in self.xs.iter().zip(&mut self.node_of).zip(ys) {
                if let TreeNode::Split { feature, thresh, left, right } = nodes[*node] {
                    *node = if x.as_ref()[feature] <= thresh { left } else { right };
                    self.kids[*node - next].add(y);
                }
            }
            let mut start = 0;
            for kid in &mut self.kids {
                kid.start = start;
                start += kid.count;
            }
            depth = depth.saturating_sub(1);
            if self.kids.iter().any(|kid| splits(kid, depth)) {
                for (k, col) in cols.chunks_exact(n).enumerate() {
                    let out = &mut spare[k * n..(k + 1) * n];
                    for (i, o) in self.open.iter().enumerate() {
                        if let TreeNode::Split { left, .. } = nodes[level + i] {
                            let run = &col[o.start..o.start + o.count];
                            let kid = &self.kids[left - next];
                            partition(run, &self.node_of, left, &mut out[kid.start..kid.start + o.count], kid.count);
                        }
                    }
                }
                std::mem::swap(&mut runs, &mut spare);
                at_root = false;
            }
            std::mem::swap(&mut self.open, &mut self.kids);
            level = next;
        }
        root
    }
}

/// Stable two-cursor partition of a split node's run into `out`: the samples
/// routed to arena node `left` first, the rest after the first `lefts`.
fn partition(run: &[Cell], node_of: &[usize], left: usize, out: &mut [Cell], lefts: usize) {
    let (mut l, mut r) = (0, lefts);
    for &cell in run {
        let goes_left = node_of[cell.1 as usize] == left;
        out[if goes_left { l } else { r }] = cell;
        l += goes_left as usize;
        r += !goes_left as usize;
    }
}

/// The best split of a node, as `(feature, thresh)`, or `None` if no split
/// beats the node's own sse by more than `1e-12`.
fn best_split<X: AsRef<[f64]>>(
    cols: &[Cell],
    n: usize,
    features: &[usize],
    xs: &[X],
    o: &Open,
    ys: &[f64],
    min_leaf: usize,
) -> Option<(usize, f64)> {
    let run = |k: usize| &cols[k * n + o.start..][..o.count];
    let node_bar = o.sq - o.sum * o.sum / o.count as f64 - 1e-12;
    let (mut bar, mut best) = (node_bar, None);
    let mut take = |k: usize, (sse, at): (f64, usize)| {
        if at > 0 && sse < bar {
            bar = sse;
            let x = |i: usize| xs[run(k)[i].1 as usize].as_ref()[features[k]];
            best = Some((features[k], (x(at - 1) + x(at)) / 2.0));
        }
    };
    // Four columns at a time, then the one to three left over.
    let mut k = 0;
    while k + 4 <= features.len() {
        let [a, b, c, d] = scan([run(k), run(k + 1), run(k + 2), run(k + 3)], ys, o, node_bar, min_leaf);
        take(k, a);
        take(k + 1, b);
        take(k + 2, c);
        take(k + 3, d);
        k += 4;
    }
    match features.len() - k {
        3 => {
            let [a, b, c] = scan([run(k), run(k + 1), run(k + 2)], ys, o, node_bar, min_leaf);
            take(k, a);
            take(k + 1, b);
            take(k + 2, c);
        }
        2 => {
            let [a, b] = scan([run(k), run(k + 1)], ys, o, node_bar, min_leaf);
            take(k, a);
            take(k + 1, b);
        }
        1 => {
            let [a] = scan([run(k)], ys, o, node_bar, min_leaf);
            take(k, a);
        }
        _ => {}
    }
    best
}

/// Scan `C` runs of one node side by side with the left-side sums in
/// locals. Returns each run's best `(sse, at)`, the split before `run[at]`
/// whose sse first reached the run's minimum below `bar`; `at == 0` if none.
#[allow(clippy::needless_range_loop)] // `i` indexes all `C` runs in step, not `runs`
fn scan<const C: usize>(runs: [&[Cell]; C], ys: &[f64], o: &Open, bar: f64, min_leaf: usize) -> [(f64, usize); C] {
    let mut best = [(bar, 0); C];
    // A split leaves at least `first` samples on either side.
    let first = min_leaf.max(1);
    if o.count < 2 * first {
        return best;
    }
    let (count, sum, sq) = (o.count as f64, o.sum, o.sq);
    // The last split leaves `first` samples on the right: no need to read them.
    let end = o.count - first + 1;
    let runs = runs.map(|run| &run[..end]);
    let mut lsum = [0.0; C];
    let mut lsq = [0.0; C];
    for i in 0..first {
        for c in 0..C {
            let y = ys[runs[c][i].1 as usize];
            lsum[c] += y;
            lsq[c] += y * y;
        }
    }
    let mut prev = runs.map(|run| run[first - 1].0);
    for i in first..end {
        let lcount = i as f64;
        let rcount = count - lcount;
        for c in 0..C {
            let (class, s) = runs[c][i];
            if prev[c] != class {
                let rsum = sum - lsum[c];
                let rsq = sq - lsq[c];
                let sse = (lsq[c] - lsum[c] * lsum[c] / lcount) + (rsq - rsum * rsum / rcount);
                // A select, not a branch: which candidate wins is data, and
                // a mispredicted jump here cost more than the whole step.
                let better = sse < best[c].0;
                best[c].0 = if better { sse } else { best[c].0 };
                best[c].1 = if better { i } else { best[c].1 };
            }
            prev[c] = class;
            let y = ys[s as usize];
            lsum[c] += y;
            lsq[c] += y * y;
        }
    }
    best
}

/// Gradient-boosted ensemble.
#[derive(Debug, Clone, Default)]
pub struct Gbt {
    base: f64,
    /// Every tree's nodes, tree after tree.
    nodes: Vec<TreeNode>,
    /// Arena index of each tree's root, in fitting order.
    roots: Vec<usize>,
    learning_rate: f64,
}

impl Gbt {
    /// Fit `n_trees` of depth `depth` with shrinkage `lr`.
    pub fn fit<X: AsRef<[f64]>>(xs: &[X], ys: &[f64], n_trees: usize, depth: usize, lr: f64) -> Self {
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty(), "cannot fit on zero samples");
        let base = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut residual: Vec<f64> = ys.iter().map(|&y| y - base).collect();
        let mut ws = Workspace::new(xs);
        // A tree has at most `2^(depth + 1) - 1` nodes, and at most one leaf per sample.
        let per_tree = (2 * xs.len() - 1).min(2usize.saturating_pow(depth as u32 + 1) - 1);
        let mut nodes = Vec::with_capacity(n_trees * per_tree);
        let mut roots = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            roots.push(ws.grow(&residual, depth, 2, &mut nodes));
            for (r, &leaf) in residual.iter_mut().zip(&ws.node_of) {
                *r -= lr * nodes[leaf].value();
            }
        }
        Gbt { base, nodes, roots, learning_rate: lr }
    }

    /// Predict one sample.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.learning_rate * self.roots.iter().map(|&root| walk(&self.nodes, root, x)).sum::<f64>()
    }

    /// Number of trees fitted.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True if no trees were fitted.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigpu_telemetry::hash::{splitmix64, SplitMix64};

    #[test]
    fn single_tree_fits_a_step_function() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { 5.0 }).collect();
        let t = tree(&xs, &ys, 2, 2);
        assert!((t(&[3.0]) - 1.0).abs() < 1e-9);
        assert!((t(&[33.0]) - 5.0).abs() < 1e-9);
    }

    /// One tree grown on every sample of `xs`, as a predictor.
    fn tree(xs: &[Vec<f64>], ys: &[f64], max_depth: usize, min_leaf: usize) -> impl Fn(&[f64]) -> f64 {
        let mut nodes = Vec::new();
        let root = Workspace::new(xs).grow(ys, max_depth, min_leaf, &mut nodes);
        move |x| walk(&nodes, root, x)
    }

    #[test]
    fn ensemble_learns_nonlinear_surface() {
        let mut rng = SplitMix64::new(5);
        let f = |x: &[f64]| x[0] * x[0] + 3.0 * (x[1] > 0.5) as u8 as f64 + x[0] * x[1];
        let xs: Vec<Vec<f64>> = (0..300)
            .map(|_| vec![rng.f64_in(-1.0, 1.0), rng.f64_in(0.0, 1.0)])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| f(x)).collect();
        let m = Gbt::fit(&xs, &ys, 80, 3, 0.2);
        // R² on training data should be high
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let ss_tot: f64 = ys.iter().map(|y| (y - mean).powi(2)).sum();
        let ss_res: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (y - m.predict(x)).powi(2))
            .sum();
        let r2 = 1.0 - ss_res / ss_tot;
        assert!(r2 > 0.9, "R² = {r2}");
    }

    #[test]
    fn ranking_quality_on_held_out_points() {
        let mut rng = SplitMix64::new(9);
        let f = |x: &[f64]| (x[0] - 0.5).abs() * 10.0 + x[1];
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![rng.f64_in(0.0, 1.0), rng.f64_in(0.0, 1.0)])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| f(x)).collect();
        let m = Gbt::fit(&xs, &ys, 60, 3, 0.2);
        // Pairwise ranking accuracy on fresh points
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..200 {
            let a = vec![rng.f64_in(0.0, 1.0), rng.f64_in(0.0, 1.0)];
            let b = vec![rng.f64_in(0.0, 1.0), rng.f64_in(0.0, 1.0)];
            if (f(&a) - f(&b)).abs() < 0.5 {
                continue;
            }
            total += 1;
            if (m.predict(&a) < m.predict(&b)) == (f(&a) < f(&b)) {
                correct += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.8, "ranking accuracy {acc}");
    }

    #[test]
    fn constant_targets_fit_exactly() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys = vec![2.5; 10];
        let m = Gbt::fit(&xs, &ys, 5, 2, 0.3);
        assert!((m.predict(&[4.0]) - 2.5).abs() < 1e-9);
    }

    /// The recursive builder the level-wise fit replaced, verbatim: it
    /// re-sorts every feature of every node.
    struct OracleTree {
        nodes: Vec<TreeNode>,
    }

    impl OracleTree {
        fn fit(xs: &[Vec<f64>], ys: &[f64], idx: &[usize], max_depth: usize, min_leaf: usize) -> Self {
            let mut tree = OracleTree { nodes: Vec::new() };
            tree.build(xs, ys, idx, max_depth, min_leaf);
            tree
        }

        fn build(&mut self, xs: &[Vec<f64>], ys: &[f64], idx: &[usize], depth: usize, min_leaf: usize) -> usize {
            let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len().max(1) as f64;
            if depth == 0 || idx.len() < 2 * min_leaf {
                self.nodes.push(TreeNode::Leaf(mean));
                return self.nodes.len() - 1;
            }
            // Best split: minimize weighted child variance.
            let dim = xs[0].len();
            let total_sq: f64 = idx.iter().map(|&i| ys[i] * ys[i]).sum();
            let total_sum: f64 = idx.iter().map(|&i| ys[i]).sum();
            let n = idx.len() as f64;
            let base_sse = total_sq - total_sum * total_sum / n;
            let mut best: Option<(usize, f64, f64)> = None; // (feature, thresh, sse)
            #[allow(clippy::needless_range_loop)] // `f` indexes each row `xs[i]`, not `xs`
            for f in 0..dim {
                let mut vals: Vec<(f64, f64)> = idx.iter().map(|&i| (xs[i][f], ys[i])).collect();
                vals.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut lsum = 0.0;
                let mut lsq = 0.0;
                let mut lcount = 0.0;
                for k in 0..vals.len() - 1 {
                    lsum += vals[k].1;
                    lsq += vals[k].1 * vals[k].1;
                    lcount += 1.0;
                    if vals[k].0 == vals[k + 1].0 {
                        continue; // can't split between equal feature values
                    }
                    if (lcount as usize) < min_leaf || (vals.len() - lcount as usize) < min_leaf {
                        continue;
                    }
                    let rsum = total_sum - lsum;
                    let rsq = total_sq - lsq;
                    let rcount = n - lcount;
                    let sse = (lsq - lsum * lsum / lcount) + (rsq - rsum * rsum / rcount);
                    if best.map_or(sse < base_sse - 1e-12, |(_, _, b)| sse < b) {
                        best = Some((f, (vals[k].0 + vals[k + 1].0) / 2.0, sse));
                    }
                }
            }
            let Some((feature, thresh, _)) = best else {
                self.nodes.push(TreeNode::Leaf(mean));
                return self.nodes.len() - 1;
            };
            let (li, ri): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| xs[i][feature] <= thresh);
            // Reserve our slot before children so the root is node 0.
            let slot = self.nodes.len();
            self.nodes.push(TreeNode::Leaf(0.0)); // placeholder
            let left = self.build(xs, ys, &li, depth - 1, min_leaf);
            let right = self.build(xs, ys, &ri, depth - 1, min_leaf);
            self.nodes[slot] = TreeNode::Split { feature, thresh, left, right };
            slot
        }

        fn predict(&self, x: &[f64]) -> f64 {
            walk(&self.nodes, 0, x)
        }

        /// How many levels hold both a split and a leaf, and how many
        /// splits have one child that splits again and one leaf.
        fn shape(&self) -> (usize, usize) {
            let (mut mixed, mut one_sided) = (0, 0);
            let mut level = vec![0];
            while !level.is_empty() {
                let split = |&i: &usize| matches!(self.nodes[i], TreeNode::Split { .. });
                mixed += (level.iter().any(split) && !level.iter().all(split)) as usize;
                let mut next = Vec::new();
                for &i in &level {
                    if let TreeNode::Split { left, right, .. } = self.nodes[i] {
                        one_sided += (split(&left) != split(&right)) as usize;
                        next.extend([left, right]);
                    }
                }
                level = next;
            }
            (mixed, one_sided)
        }
    }

    /// The ensemble fit the level-wise one replaced, verbatim.
    fn oracle_gbt(xs: &[Vec<f64>], ys: &[f64], n_trees: usize, depth: usize, lr: f64) -> impl Fn(&[f64]) -> f64 {
        let base = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut trees = Vec::new();
        let idx: Vec<usize> = (0..xs.len()).collect();
        let mut residual: Vec<f64> = ys.iter().map(|&y| y - base).collect();
        for _ in 0..n_trees {
            let tree = OracleTree::fit(xs, &residual, &idx, depth, 2);
            for (i, r) in residual.iter_mut().enumerate() {
                *r -= lr * tree.predict(&xs[i]);
            }
            trees.push(tree);
        }
        move |x| base + lr * trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    /// SplitMix64 stream keyed by the case number.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            splitmix64(self.0)
        }

        fn int(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo + 1) as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// How a feature column is drawn.
    #[derive(Clone, Copy)]
    enum Column {
        Continuous,
        /// One of `k` values: ties, and for `k == 1` an all-equal column.
        Levels(usize),
        /// Continuous with about one NaN in eight.
        Holes,
        /// Neighbours whose midpoint rounds onto one of them (adjacent
        /// floats, a finite value next to infinity), so samples sit exactly
        /// on a threshold.
        Edges,
    }

    fn draw_value(d: &mut Draw, column: Column) -> f64 {
        match column {
            Column::Continuous => d.unit() * 4.0 - 2.0,
            Column::Levels(k) => [0.0, -0.0, 1.0, 0.5, -3.0, 7.25][d.int(0, k - 1)],
            Column::Holes if d.int(0, 7) == 0 => f64::NAN,
            Column::Holes => d.unit(),
            Column::Edges => [1.0, 1.0 + f64::EPSILON, 7.25, f64::INFINITY][d.int(0, 3)],
        }
    }

    fn draw_target(d: &mut Draw, kind: usize) -> f64 {
        match kind {
            0 => -0.0,
            1 => [0.0, -0.0][d.int(0, 1)],
            2 if d.int(0, 15) == 0 => f64::INFINITY,
            _ => (d.unit() * 6.0 - 3.0).exp(),
        }
    }

    /// Draw case `case`'s dataset of `n` samples, then fit one tree and a
    /// small ensemble at a depth drawn from `depths` and compare them with
    /// the oracle's, bit for bit, on the samples and on fresh queries.
    /// Returns the oracle's tree.
    fn check_against_oracle(case: u64, n: usize, depths: (usize, usize)) -> OracleTree {
        let mut d = Draw(case.wrapping_mul(0xa076_1d64_78bd_642f));
        let dim = d.int(1, 14);
        let columns: Vec<Column> = (0..dim)
            .map(|_| match d.int(0, 4) {
                0 => Column::Continuous,
                1 => Column::Levels(d.int(1, 6)),
                2 => Column::Holes,
                3 => Column::Edges,
                _ => Column::Levels(d.int(2, 3)),
            })
            .collect();
        let point = |d: &mut Draw| -> Vec<f64> { columns.iter().map(|&c| draw_value(d, c)).collect() };
        let xs: Vec<Vec<f64>> = (0..n).map(|_| point(&mut d)).collect();
        let queries: Vec<Vec<f64>> = (0..16).map(|_| point(&mut d)).collect();
        let kind = d.int(0, 5);
        let ys: Vec<f64> = (0..n).map(|_| draw_target(&mut d, kind)).collect();
        let depth = d.int(depths.0, depths.1);
        let min_leaf = d.int(1, 3);

        let tree = tree(&xs, &ys, depth, min_leaf);
        let idx: Vec<usize> = (0..n).collect();
        let oracle_tree = OracleTree::fit(&xs, &ys, &idx, depth, min_leaf);
        for x in xs.iter().chain(&queries) {
            assert_eq!(
                tree(x).to_bits(),
                oracle_tree.predict(x).to_bits(),
                "case {case}: tree (n {n}, dim {dim}, depth {depth}, min_leaf {min_leaf}) at {x:?}"
            );
        }

        let n_trees = d.int(1, 6);
        let lr = [0.25, 0.1, 1.0][d.int(0, 2)];
        let model = Gbt::fit(&xs, &ys, n_trees, depth, lr);
        let oracle = oracle_gbt(&xs, &ys, n_trees, depth, lr);
        for x in xs.iter().chain(&queries) {
            assert_eq!(
                model.predict(x).to_bits(),
                oracle(x).to_bits(),
                "case {case}: ensemble (n {n}, dim {dim}, depth {depth}, {n_trees} trees) at {x:?}"
            );
        }
        oracle_tree
    }

    #[test]
    fn level_wise_fit_is_bit_identical_to_the_recursive_builder() {
        for case in 0..3000u64 {
            check_against_oracle(case, 1 + (case as usize % 130), (0, 4));
        }
    }

    /// Deep trees on up to 260 samples: runs partitioned four and five
    /// times, levels where some nodes split and others settle, and splits
    /// with one child that splits again beside one that settles.
    #[test]
    fn deep_level_wise_fits_are_bit_identical_to_the_recursive_builder() {
        let (mut mixed, mut one_sided) = (0, 0);
        for case in 3000..3400u64 {
            let (m, o) = check_against_oracle(case, 131 + (case as usize % 130), (5, 6)).shape();
            mixed += m;
            one_sided += o;
        }
        assert!(mixed >= 400 && one_sided >= 400, "{mixed} mixed levels, {one_sided} one-sided splits");
    }
}
