//! A kd-tree over cluster centers for effective-distance nearest-center
//! queries — the alternative the paper dismisses (Sec. 4.3: "Nearest-
//! neighbor data structures like kd-trees are outperformed by simpler
//! distance bounds in most published experiments"). We implement it so the
//! claim can be measured rather than assumed; this module is private to
//! the `ablation_kdtree` binary, its only user.
//!
//! The twist relative to a plain NN tree: the metric is the *effective*
//! distance `dist(p, center(c)) / influence(c)`. A subtree can only be
//! pruned when even its most favourable combination — closest possible
//! center position and largest influence in the subtree — cannot beat the
//! current best: `minDist(p, subtree_bbox) / max_influence ≥ best`.

use geographer_geometry::{Aabb, Point};

/// One node of the center tree (stored in a flat arena).
#[derive(Debug)]
struct Node<const D: usize> {
    /// Bounding box of the centers below this node.
    bbox: Aabb<D>,
    /// Largest influence value below this node.
    max_influence: f64,
    /// Children indices, or the leaf's center range.
    kind: NodeKind,
}

#[derive(Debug)]
enum NodeKind {
    /// Inner node: arena indices of the two children.
    Inner(usize, usize),
    /// Leaf: range into the permuted center index array.
    Leaf(usize, usize),
}

/// Centers are kept in a permutation array so the input order is preserved
/// for the caller.
#[derive(Debug)]
pub struct CenterTree<const D: usize> {
    nodes: Vec<Node<D>>,
    /// Permuted center ids; leaves reference contiguous ranges.
    perm: Vec<u32>,
    centers: Vec<Point<D>>,
    influence: Vec<f64>,
    root: usize,
}

/// Query result: the best center and the number of exact effective-distance
/// evaluations spent (for the ablation's accounting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearestCenter {
    /// Center index with the smallest effective distance.
    pub center: u32,
    /// Its effective distance.
    pub eff_dist: f64,
    /// Exact distance evaluations performed during the query.
    pub evals: u32,
}

const LEAF_SIZE: usize = 4;

/// Reusable explicit traversal stack for batched queries: one amortized
/// allocation across any number of [`CenterTree::nearest_with`] calls
/// instead of per-query recursion frames. Part of the cache-blocked query
/// path — a block of points walks the tree through one warm cursor.
#[derive(Debug, Default)]
pub struct TreeCursor {
    stack: Vec<usize>,
}

impl<const D: usize> CenterTree<D> {
    /// Build a tree over `centers` with the given `influence` values.
    ///
    /// # Panics
    /// On empty input or length mismatch.
    pub fn build(centers: &[Point<D>], influence: &[f64]) -> Self {
        assert!(!centers.is_empty(), "need at least one center");
        assert_eq!(centers.len(), influence.len());
        let mut tree = CenterTree {
            nodes: Vec::with_capacity(2 * centers.len() / LEAF_SIZE + 2),
            perm: (0..centers.len() as u32).collect(),
            centers: centers.to_vec(),
            influence: influence.to_vec(),
            root: 0,
        };
        let n = centers.len();
        tree.root = tree.build_node(0, n);
        tree
    }

    fn bbox_and_max_infl(&self, lo: usize, hi: usize) -> (Aabb<D>, f64) {
        let first = self.perm[lo] as usize;
        let mut bbox = Aabb { min: self.centers[first], max: self.centers[first] };
        let mut max_infl = self.influence[first];
        for &c in &self.perm[lo + 1..hi] {
            bbox.grow(&self.centers[c as usize]);
            max_infl = max_infl.max(self.influence[c as usize]);
        }
        (bbox, max_infl)
    }

    fn build_node(&mut self, lo: usize, hi: usize) -> usize {
        let (bbox, max_influence) = self.bbox_and_max_infl(lo, hi);
        if hi - lo <= LEAF_SIZE {
            self.nodes.push(Node { bbox, max_influence, kind: NodeKind::Leaf(lo, hi) });
            return self.nodes.len() - 1;
        }
        // Median split along the widest dimension of the bbox.
        let dim = bbox.widest_dim();
        let mid = lo + (hi - lo) / 2;
        let centers = &self.centers;
        self.perm[lo..hi].select_nth_unstable_by(mid - lo, |&a, &b| {
            centers[a as usize][dim].total_cmp(&centers[b as usize][dim])
        });
        let left = self.build_node(lo, mid);
        let right = self.build_node(mid, hi);
        self.nodes.push(Node { bbox, max_influence, kind: NodeKind::Inner(left, right) });
        self.nodes.len() - 1
    }

    /// Smallest possible effective distance from `p` to any center in node
    /// `n` (the pruning bound).
    #[inline]
    fn lower_bound(&self, n: usize, p: &Point<D>) -> f64 {
        self.nodes[n].bbox.min_dist(p) / self.nodes[n].max_influence
    }

    /// [`CenterTree::nearest_with`] by plain recursion — the reference the
    /// tests hold it to.
    #[cfg(test)]
    pub fn nearest(&self, p: &Point<D>) -> NearestCenter {
        let mut best = NearestCenter { center: 0, eff_dist: f64::INFINITY, evals: 0 };
        self.search(self.root, p, &mut best);
        best
    }

    /// Find the center with minimum effective distance to `p`, driven
    /// through a reusable explicit stack. The traversal is the exact
    /// depth-first order of the test-only recursive `nearest` (more
    /// promising child first, bound re-checked on entry), so results *and*
    /// eval counts are identical — only the per-query allocation is gone.
    pub fn nearest_with(&self, p: &Point<D>, cursor: &mut TreeCursor) -> NearestCenter {
        let mut best = NearestCenter { center: 0, eff_dist: f64::INFINITY, evals: 0 };
        cursor.stack.clear();
        cursor.stack.push(self.root);
        while let Some(n) = cursor.stack.pop() {
            if self.lower_bound(n, p) >= best.eff_dist {
                continue;
            }
            match self.nodes[n].kind {
                NodeKind::Leaf(lo, hi) => {
                    for &c in &self.perm[lo..hi] {
                        let e =
                            p.dist(&self.centers[c as usize]) / self.influence[c as usize];
                        best.evals += 1;
                        if e < best.eff_dist || (e == best.eff_dist && c < best.center) {
                            best.eff_dist = e;
                            best.center = c;
                        }
                    }
                }
                NodeKind::Inner(l, r) => {
                    let (first, second) = if self.lower_bound(l, p) <= self.lower_bound(r, p)
                    {
                        (l, r)
                    } else {
                        (r, l)
                    };
                    // Second below first: the whole first subtree is
                    // processed before the second is even bound-checked,
                    // matching the recursion.
                    cursor.stack.push(second);
                    cursor.stack.push(first);
                }
            }
        }
        best
    }

    /// Nearest center for every point of a block, appended to `out`: the
    /// batch entry point of the ablation. One cursor (and one output
    /// buffer) serves the whole batch, so a block of spatially adjacent
    /// points reuses the same hot tree nodes with zero allocation.
    pub fn nearest_batch(
        &self,
        points: &[Point<D>],
        cursor: &mut TreeCursor,
        out: &mut Vec<NearestCenter>,
    ) {
        out.clear();
        out.reserve(points.len());
        out.extend(points.iter().map(|p| self.nearest_with(p, cursor)));
    }

    #[cfg(test)]
    fn search(&self, n: usize, p: &Point<D>, best: &mut NearestCenter) {
        if self.lower_bound(n, p) >= best.eff_dist {
            return;
        }
        match self.nodes[n].kind {
            NodeKind::Leaf(lo, hi) => {
                for &c in &self.perm[lo..hi] {
                    let e = p.dist(&self.centers[c as usize]) / self.influence[c as usize];
                    best.evals += 1;
                    if e < best.eff_dist
                        || (e == best.eff_dist && c < best.center)
                    {
                        best.eff_dist = e;
                        best.center = c;
                    }
                }
            }
            NodeKind::Inner(l, r) => {
                // Visit the more promising child first.
                let (first, second) = if self.lower_bound(l, p) <= self.lower_bound(r, p) {
                    (l, r)
                } else {
                    (r, l)
                };
                self.search(first, p, best);
                self.search(second, p, best);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_geometry::SplitMix64;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The effective-distance kd-tree agrees with brute force for any
        /// center layout and influence assignment.
        #[test]
        fn kdtree_matches_bruteforce(
            centers in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..50),
            infl_raw in prop::collection::vec(0.1f64..5.0, 50),
            queries in prop::collection::vec((-0.5f64..1.5, -0.5f64..1.5), 20),
        ) {
            let pts: Vec<Point<2>> =
                centers.iter().map(|&(x, y)| Point::new([x, y])).collect();
            let infl = &infl_raw[..pts.len()];
            let tree = CenterTree::build(&pts, infl);
            let mut cursor = TreeCursor::default();
            for &(qx, qy) in &queries {
                let q = Point::new([qx, qy]);
                let want = brute_force(&q, &pts, infl).1;
                prop_assert!((tree.nearest(&q).eff_dist - want).abs() < 1e-12);
                prop_assert!((tree.nearest_with(&q, &mut cursor).eff_dist - want).abs() < 1e-12);
            }
        }
    }

    fn brute_force<const D: usize>(
        p: &Point<D>,
        centers: &[Point<D>],
        infl: &[f64],
    ) -> (u32, f64) {
        let mut best = (0u32, f64::INFINITY);
        for (c, (ctr, i)) in centers.iter().zip(infl).enumerate() {
            let e = p.dist(ctr) / i;
            if e < best.1 {
                best = (c as u32, e);
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_uniform_influence() {
        let mut rng = SplitMix64::new(1);
        let centers: Vec<Point<2>> =
            (0..40).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let infl = vec![1.0; 40];
        let tree = CenterTree::build(&centers, &infl);
        for _ in 0..500 {
            let p = Point::new([rng.next_f64(), rng.next_f64()]);
            let got = tree.nearest(&p);
            let want = brute_force(&p, &centers, &infl);
            assert_eq!(got.center, want.0);
            assert!((got.eff_dist - want.1).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_brute_force_warped_metric() {
        // The influence warp is where naive kd-tree pruning would go wrong.
        let mut rng = SplitMix64::new(2);
        let centers: Vec<Point<3>> = (0..60)
            .map(|_| Point::new([rng.next_f64(), rng.next_f64(), rng.next_f64()]))
            .collect();
        let infl: Vec<f64> = (0..60).map(|_| 0.2 + 2.0 * rng.next_f64()).collect();
        let tree = CenterTree::build(&centers, &infl);
        for _ in 0..500 {
            let p =
                Point::new([rng.next_f64() * 2.0 - 0.5, rng.next_f64(), rng.next_f64()]);
            let got = tree.nearest(&p);
            let want = brute_force(&p, &centers, &infl);
            assert!(
                (got.eff_dist - want.1).abs() < 1e-12,
                "eff dist mismatch: {} vs {}",
                got.eff_dist,
                want.1
            );
        }
    }

    #[test]
    fn prunes_most_of_the_tree() {
        let mut rng = SplitMix64::new(3);
        let k = 256;
        let centers: Vec<Point<2>> =
            (0..k).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let infl = vec![1.0; k];
        let tree = CenterTree::build(&centers, &infl);
        let mut total_evals = 0u32;
        let queries = 200;
        for _ in 0..queries {
            let p = Point::new([rng.next_f64(), rng.next_f64()]);
            total_evals += tree.nearest(&p).evals;
        }
        let avg = total_evals as f64 / queries as f64;
        assert!(avg < k as f64 / 4.0, "kd-tree should prune hard: {avg} evals/query");
    }

    #[test]
    fn cursor_traversal_matches_recursive_search() {
        let mut rng = SplitMix64::new(9);
        let centers: Vec<Point<2>> =
            (0..80).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let infl: Vec<f64> = (0..80).map(|_| 0.5 + rng.next_f64()).collect();
        let tree = CenterTree::build(&centers, &infl);
        let queries: Vec<Point<2>> =
            (0..300).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        let mut cursor = TreeCursor::default();
        let mut batch = Vec::new();
        tree.nearest_batch(&queries, &mut cursor, &mut batch);
        for (p, got) in queries.iter().zip(&batch) {
            let want = tree.nearest(p);
            // Same center, same distance, same eval count: the iterative
            // walk is the recursive walk.
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn single_center() {
        let tree = CenterTree::build(&[Point::new([0.5, 0.5])], &[2.0]);
        let r = tree.nearest(&Point::new([1.5, 0.5]));
        assert_eq!(r.center, 0);
        assert!((r.eff_dist - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two identical centers: the smaller id must win.
        let c = Point::new([0.3, 0.3]);
        let tree = CenterTree::build(&[c, c], &[1.0, 1.0]);
        assert_eq!(tree.nearest(&Point::new([0.9, 0.1])).center, 0);
    }
}
