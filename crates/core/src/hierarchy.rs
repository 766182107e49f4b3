//! Hierarchical processor-aware partitioning.
//!
//! The paper's tool targets *hierarchical* machines: blocks are mapped onto
//! a processor hierarchy (nodes × sockets × cores), so the expensive cut
//! should land on the cheap links — most boundary traffic between blocks
//! that share a node, little between nodes. [`HierarchySpec`] describes
//! such a hierarchy (e.g. `[4, 2]` = 4 nodes × 2 cores each, optionally
//! with per-level capacity fractions and a per-level ε), and
//! [`partition_hierarchical_spmd`] solves it recursively: partition into
//! the level-0 groups with the existing pipeline, then recurse *inside*
//! each group, flattening leaf paths to flat block ids in mixed-radix
//! (path-lexicographic) order. Because the flattening is lexicographic,
//! sibling leaves get *contiguous* flat ids, so the contiguous
//! block-to-rank mapping of `geographer_spmv` keeps subtrees together on
//! a node for free.
//!
//! Every node solve records its `(centers, influence)` pair, so a later
//! call handed that [`PreviousHierarchy`] warm-starts each node the same
//! way a flat warm solve does. See DESIGN.md §6 for the contract (per-level
//! ε semantics, warm-state reuse, per-level metric definitions).

use std::fmt;

use geographer_geometry::Point;
use geographer_parcomm::Comm;

use crate::config::{all_positive, normalized_fractions, require, Config, ConfigError};
use crate::kmeans::KMeansStats;
use crate::pipeline::{partition_spmd, PipelineResult, PipelineTimings};
use crate::repartition::PreviousPartition;

/// One level of a processor hierarchy.
#[derive(Debug, Clone)]
pub struct LevelSpec {
    /// Children per node at this level (4 nodes, 2 sockets, …).
    pub arity: usize,
    /// Per-level imbalance bound; `None` inherits the solve's
    /// `cfg.epsilon`. The bound is *relative to the parent group's
    /// weight*: every level-`l` group must weigh at most
    /// `max((1+ε_l)·target, target + w_max)` where `target` is its share
    /// of its parent's weight (see DESIGN.md §6 on how bounds compound
    /// across levels).
    pub epsilon: Option<f64>,
    /// Per-child capacity fractions (length = `arity`, positive, need not
    /// sum to 1 — they are normalized); `None` = uniform `1/arity`. Every
    /// node at this level uses the same fractions — the hierarchy is
    /// homogeneous per level, like the machines it models.
    pub fractions: Option<Vec<f64>>,
}

impl LevelSpec {
    /// Uniform level: equal capacity children, inherited ε.
    pub fn uniform(arity: usize) -> Self {
        LevelSpec { arity, epsilon: None, fractions: None }
    }

    /// The per-child capacity fractions normalized to sum 1 (uniform
    /// `1/arity` for `None`), of a level [`HierarchySpec::validate`] passed.
    pub fn normalized_fractions(&self) -> Vec<f64> {
        normalized_fractions(self.fractions.as_deref(), self.arity)
    }
}

/// A processor hierarchy: one [`LevelSpec`] per level, outermost (most
/// expensive links) first. `HierarchySpec::uniform(&[4, 2])` is 4 nodes of
/// 2 cores; the flat block count is the product of the arities.
#[derive(Debug, Clone)]
pub struct HierarchySpec {
    /// The levels, outermost first.
    pub levels: Vec<LevelSpec>,
}

impl HierarchySpec {
    /// Uniform hierarchy from arities alone (no per-level ε/fractions).
    pub fn uniform(arities: &[usize]) -> Self {
        HierarchySpec { levels: arities.iter().map(|&a| LevelSpec::uniform(a)).collect() }
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The arities alone, outermost first.
    pub fn arities(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.arity).collect()
    }

    /// Total number of leaf blocks: the product of the arities.
    pub fn total_blocks(&self) -> usize {
        self.levels.iter().map(|l| l.arity).product()
    }

    /// Number of groups at `level` (level 0 = outermost): the product of
    /// the arities up to and including that level.
    pub fn groups_at(&self, level: usize) -> usize {
        self.levels[..=level].iter().map(|l| l.arity).product()
    }

    /// Sanity-check the spec.
    ///
    /// # Errors
    /// A [`ConfigError::Parameter`] on an empty spec, a zero arity, a
    /// negative per-level ε, or fractions that are empty, non-positive, or
    /// of the wrong length.
    pub fn validate(&self) -> Result<(), ConfigError> {
        require(!self.levels.is_empty(), "hierarchy must have at least one level")?;
        for (l, lv) in self.levels.iter().enumerate() {
            let level = |holds, what: &dyn fmt::Display| {
                require(holds, format_args!("hierarchy level {l} {what}"))
            };
            level(lv.arity >= 1, &"arity must be at least 1")?;
            level(lv.epsilon.is_none_or(|e| e >= 0.0), &"epsilon must be non-negative")?;
            if let Some(f) = &lv.fractions {
                let (n, a) = (f.len(), lv.arity);
                level(
                    n == a,
                    &format_args!("fractions length must equal arity (got {n}, arity = {a})"),
                )?;
                level(all_positive(f), &"fractions must be positive")?;
            }
        }
        Ok(())
    }

    /// Whether `prev` can warm-start a solve of this spec: same arities
    /// (per-level ε and fractions may differ), and one node per node solve,
    /// in pre-order, with its level's arity of centers and influences.
    ///
    /// # Errors
    /// [`ConfigError::StateShape`] on other arities or another node count,
    /// else a [`ConfigError::Parameter`] naming the first node out of place.
    pub fn fits<const D: usize>(&self, prev: &PreviousHierarchy<D>) -> Result<(), ConfigError> {
        let (nodes, internal) = (prev.nodes.len(), self.internal_nodes());
        if !prev.arities.iter().eq(self.levels.iter().map(|l| &l.arity)) || nodes != internal {
            let (state, spec) = (prev.arities.clone(), self.arities());
            return Err(ConfigError::StateShape { state, spec, nodes, internal });
        }
        // Pre-order visits the children in index order, so it is ascending
        // path order, and `internal` ascending node paths are the spec's.
        let mut last = None;
        for (i, NodeState { path, state }) in prev.nodes.iter().enumerate() {
            let (c, f) = (state.centers.len(), state.influence.len());
            let digits = path.iter().zip(&self.levels).all(|(&d, l)| (d as usize) < l.arity);
            let sized = self.levels.get(path.len()).is_some_and(|l| c == l.arity && f == l.arity);
            require(
                last < Some(path) && digits && sized,
                format_args!(
                    "plan state node {i} (path {path:?}, {c} centers, {f} influences) \
                     is not the spec's pre-order node {i}"
                ),
            )?;
            last = Some(path);
        }
        Ok(())
    }

    /// Internal nodes of the hierarchy, each one node solve: the root, then
    /// every group above the leaf level.
    fn internal_nodes(&self) -> usize {
        1 + (0..self.depth().saturating_sub(1)).map(|l| self.groups_at(l)).sum::<usize>()
    }

    /// Hierarchy path of flat leaf block `b`: the child index taken at
    /// every level, outermost first (mixed-radix digits of `b`).
    pub fn path_of_block(&self, b: u32) -> Vec<u32> {
        assert!((b as usize) < self.total_blocks(), "block id {b} out of range");
        let mut rem = b as usize;
        let mut path = vec![0u32; self.depth()];
        for (l, lv) in self.levels.iter().enumerate().rev() {
            path[l] = (rem % lv.arity) as u32;
            rem /= lv.arity;
        }
        path
    }

    /// Flat leaf block id of a full hierarchy path (inverse of
    /// [`Self::path_of_block`]). Leaf paths in lexicographic order map to
    /// increasing flat ids.
    pub fn block_of_path(&self, path: &[u32]) -> u32 {
        assert_eq!(path.len(), self.depth(), "path length must equal hierarchy depth");
        let mut b = 0usize;
        for (lv, &c) in self.levels.iter().zip(path) {
            assert!((c as usize) < lv.arity, "path digit {c} out of range");
            b = b * lv.arity + c as usize;
        }
        b as u32
    }

    /// For every level `l`, the map from flat leaf block id to its level-`l`
    /// ancestor group (groups numbered in path-lexicographic order,
    /// `0..groups_at(l)`). This is the coarsening `geographer_graph`'s
    /// per-level metrics consume.
    pub fn level_groups(&self) -> Vec<Vec<u32>> {
        let total = self.total_blocks();
        (0..self.depth())
            .map(|l| {
                let below: usize = self.levels[l + 1..].iter().map(|lv| lv.arity).product();
                (0..total).map(|b| (b / below) as u32).collect()
            })
            .collect()
    }
}

/// The replicated solver state of one internal node of a hierarchical
/// solve: the node's path prefix plus the `(centers, influence)` pair of
/// its child split.
#[derive(Debug, Clone)]
pub struct NodeState<const D: usize> {
    /// Path from the root to this node (empty = root).
    pub path: Vec<u32>,
    /// Warm-start state of the node's child solve.
    pub state: PreviousPartition<D>,
}

/// The reusable state of a whole hierarchical solve: one
/// [`PreviousPartition`] per internal node, in depth-first pre-order (the
/// order the recursion visits them — fixed by the spec, so a warm re-solve
/// can consume them sequentially).
#[derive(Debug, Clone)]
pub struct PreviousHierarchy<const D: usize> {
    /// Arities of the spec this state was produced under.
    pub arities: Vec<usize>,
    /// Per-node warm state in pre-order.
    pub nodes: Vec<NodeState<D>>,
}

/// Result of a hierarchical solve on one rank. A flat k-way solve is the
/// one-level hierarchy `[k]`: one node, whose state and timings are the
/// flat pipeline's own.
#[derive(Debug, Clone)]
pub struct HierarchicalResult<const D: usize> {
    /// Flat leaf block id of every rank-local input point, in input order.
    pub assignment: Vec<u32>,
    /// Reusable per-node warm state for the next
    /// [`partition_hierarchical_spmd`] call.
    pub previous: PreviousHierarchy<D>,
    /// Work counters aggregated over all node solves (iterations and
    /// per-point counters summed; `converged`/`balance_achieved` are the
    /// conjunction; `final_imbalance` the worst node-local value).
    pub stats: KMeansStats,
    /// Worst node-local imbalance per level (each node's imbalance is
    /// relative to its own per-child targets).
    pub level_imbalance: Vec<f64>,
    /// Per-phase pipeline timings summed over the node solves; their
    /// `total()` is the paper-comparable solve time.
    pub timings: PipelineTimings,
}

/// Walk state threaded through the recursion.
struct Walk<'a, const D: usize> {
    spec: &'a HierarchySpec,
    cfg: &'a Config,
    /// Warm state to consume, in the pre-order [`HierarchySpec::fits`]
    /// checked, if any; the next node to consume is `nodes.len()`.
    prev: Option<&'a [NodeState<D>]>,
    nodes: Vec<NodeState<D>>,
    stats: KMeansStats,
    level_imbalance: Vec<f64>,
    timings: PipelineTimings,
}

impl<const D: usize> Walk<'_, D> {
    /// Fold one node solve into the walk — its counters, its phase times
    /// and its warm state — and return its child digits. The state is
    /// moved, not cloned: a clone would come from wherever this rank's
    /// allocator last freed a block of its size, and the caller that drops
    /// it could keep a thread rank's whole arena resident (DESIGN.md §9).
    fn record(&mut self, res: PipelineResult<D>, level: usize, path: &[u32]) -> Vec<u32> {
        let (t, s) = (&mut self.stats, &res.stats);
        t.movement_iterations += s.movement_iterations;
        t.balance_iterations += s.balance_iterations;
        t.distance_evals += s.distance_evals;
        t.hamerly_skips += s.hamerly_skips;
        t.bbox_breaks += s.bbox_breaks;
        t.points_visited += s.points_visited;
        t.assignment_seconds += s.assignment_seconds;
        t.converged &= s.converged;
        t.balance_achieved &= s.balance_achieved;
        t.final_imbalance = t.final_imbalance.max(s.final_imbalance);
        self.level_imbalance[level] = self.level_imbalance[level].max(s.final_imbalance);
        self.timings = self.timings.zip_with(res.timings, |a, b| a + b);
        let state = PreviousPartition { centers: res.centers, influence: res.influence };
        self.nodes.push(NodeState { path: path.to_vec(), state });
        res.assignment
    }
}

/// Solve the subtree rooted at `path` (at `level`) over this rank's member
/// points of the node, and return their leaf ids within the subtree, in
/// input order. Collective: every rank recurses through the same tree in
/// the same order.
fn solve_node<const D: usize, C: Comm>(
    comm: &C,
    points: &[Point<D>],
    weights: &[f64],
    level: usize,
    path: &mut Vec<u32>,
    walk: &mut Walk<'_, D>,
) -> Vec<u32> {
    let spec = walk.spec;
    let lv = &spec.levels[level];
    let level_cfg = walk.cfg.for_level(lv.epsilon, lv.fractions.clone());
    let node_prev = walk.prev.map(|nodes| &nodes[walk.nodes.len()].state);
    let res = partition_spmd(comm, points, weights, lv.arity, node_prev, &level_cfg);
    let digits = walk.record(res, level, path);
    if level + 1 == spec.depth() {
        return digits;
    }
    // Leaves under each child.
    let below = spec.levels[level + 1..].iter().map(|l| l.arity).product::<usize>() as u32;
    let mut leaves = vec![0u32; digits.len()];
    for c in 0..lv.arity as u32 {
        let members: Vec<usize> = (0..digits.len()).filter(|&i| digits[i] == c).collect();
        let sub_points: Vec<Point<D>> = members.iter().map(|&i| points[i]).collect();
        let sub_weights: Vec<f64> = members.iter().map(|&i| weights[i]).collect();
        path.push(c);
        let sub = solve_node(comm, &sub_points, &sub_weights, level + 1, path, walk);
        path.pop();
        for (&i, &b) in members.iter().zip(&sub) {
            leaves[i] = c * below + b;
        }
    }
    leaves
}

/// Partition a distributed point set for a processor hierarchy (SPMD
/// collective call): solve level 0 with the full Geographer pipeline on
/// the caller's slices, then recurse inside each group with per-level
/// ε/fractions from `spec`.
///
/// With `prev = Some(state)` every node solve resumes from the
/// `(centers, influence)` pair the previous hierarchical solve stored for
/// that node, so an unchanged point set reproduces its assignment and a
/// drifting one re-balances with low migration at *every* level — the
/// flat warm-start contract of DESIGN.md §5, applied per node. `prev` must
/// come from a solve with the same arities (per-level ε and fractions may
/// differ).
///
/// The returned assignment is input-aligned and carries flat leaf block
/// ids (`0..spec.total_blocks()`, path-lexicographic).
///
/// # Panics
/// With the [`ConfigError`] text on an invalid `spec`, if
/// `cfg.target_fractions` is set (per-level capacity fractions live in
/// the spec's [`LevelSpec::fractions`], and silently ignoring the flat
/// field would discard a requested balance), or if `prev` does not
/// [`HierarchySpec::fits`] the spec; on inconsistent input lengths; and
/// as a node solve does — on the node's invalid level config, or if its
/// global member count drops below its arity ([`crate::validate_k`]).
pub fn partition_hierarchical_spmd<const D: usize, C: Comm>(
    comm: &C,
    points: &[Point<D>],
    weights: &[f64],
    spec: &HierarchySpec,
    prev: Option<&PreviousHierarchy<D>>,
    cfg: &Config,
) -> HierarchicalResult<D> {
    let check = || {
        spec.validate()?;
        if cfg.target_fractions.is_some() {
            return Err(ConfigError::HierarchicalFlatFractions);
        }
        prev.map_or(Ok(()), |p| spec.fits(p))
    };
    check().unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(points.len(), weights.len());
    let (arities, internal) = (spec.arities(), spec.internal_nodes());

    // `arities` and the node states (reserved for every node) are made before
    // the root solve, so neither pins the solve's freed scratch (DESIGN.md §9).
    let mut walk = Walk {
        spec,
        cfg,
        prev: prev.map(|p| p.nodes.as_slice()),
        nodes: Vec::with_capacity(internal),
        stats: KMeansStats { converged: true, balance_achieved: true, ..KMeansStats::default() },
        level_imbalance: vec![0.0; spec.depth()],
        timings: PipelineTimings::default(),
    };
    let assignment = solve_node(comm, points, weights, 0, &mut Vec::new(), &mut walk);
    HierarchicalResult {
        assignment,
        previous: PreviousHierarchy { arities, nodes: walk.nodes },
        stats: walk.stats,
        level_imbalance: walk.level_imbalance,
        timings: walk.timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geographer_geometry::SplitMix64;
    use geographer_parcomm::{run_spmd, SelfComm};

    /// A point set with its weights.
    struct WeightedPoints {
        points: Vec<Point<2>>,
        weights: Vec<f64>,
    }

    /// Single-rank solve of a whole point set.
    fn solve(
        wp: &WeightedPoints,
        spec: &HierarchySpec,
        prev: Option<&PreviousHierarchy<2>>,
        cfg: &Config,
    ) -> HierarchicalResult<2> {
        partition_hierarchical_spmd(&SelfComm, &wp.points, &wp.weights, spec, prev, cfg)
    }

    fn uniform(n: usize, seed: u64) -> WeightedPoints {
        let mut rng = SplitMix64::new(seed);
        let points = (0..n).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
        WeightedPoints { points, weights: vec![1.0; n] }
    }

    /// Per-level balance check straight off the assignment: every level-l
    /// group must be within its bound *relative to its parent's weight*.
    fn assert_levels_balanced(
        asg: &[u32],
        weights: &[f64],
        spec: &HierarchySpec,
        eps_of: impl Fn(usize) -> f64,
    ) {
        let groups = spec.level_groups();
        let w_max = weights.iter().copied().fold(0.0, f64::max);
        // Parent weight at level 0 is the total.
        let mut parent_w = vec![weights.iter().sum::<f64>()];
        for (l, map) in groups.iter().enumerate() {
            let g = spec.groups_at(l);
            let mut gw = vec![0.0f64; g];
            for (&b, &w) in asg.iter().zip(weights) {
                gw[map[b as usize] as usize] += w;
            }
            let arity = spec.levels[l].arity;
            let eps = eps_of(l);
            for (gi, &w) in gw.iter().enumerate() {
                let target = parent_w[gi / arity] / arity as f64;
                let allowed = ((1.0 + eps) * target).max(target + w_max);
                assert!(
                    w <= allowed + 1e-9,
                    "level {l} group {gi}: weight {w} > allowed {allowed}"
                );
            }
            parent_w = gw;
        }
    }

    #[test]
    fn path_block_roundtrip_and_lexicographic_order() {
        for spec in [
            HierarchySpec::uniform(&[4, 2]),
            HierarchySpec::uniform(&[2, 2, 2]),
            HierarchySpec::uniform(&[3, 5]),
            HierarchySpec::uniform(&[1, 4]),
            HierarchySpec::uniform(&[6]),
        ] {
            let total = spec.total_blocks() as u32;
            let mut prev_path: Option<Vec<u32>> = None;
            for b in 0..total {
                let path = spec.path_of_block(b);
                assert_eq!(spec.block_of_path(&path), b);
                if let Some(p) = prev_path {
                    assert!(p < path, "paths must be lexicographically increasing");
                }
                prev_path = Some(path);
            }
        }
    }

    #[test]
    fn level_groups_are_path_prefixes() {
        let spec = HierarchySpec::uniform(&[3, 2, 2]);
        let groups = spec.level_groups();
        for b in 0..spec.total_blocks() as u32 {
            let path = spec.path_of_block(b);
            // Group id at level l is the flat number of the path prefix.
            let mut acc = 0usize;
            for (l, lv) in spec.levels.iter().enumerate() {
                acc = acc * lv.arity + path[l] as usize;
                assert_eq!(groups[l][b as usize], acc as u32, "level {l} block {b}");
            }
        }
        // Leaf level groups are the identity.
        let leaf = groups.last().unwrap();
        assert!(leaf.iter().enumerate().all(|(b, &g)| g == b as u32));
    }

    #[test]
    fn hierarchical_4x2_balances_every_level() {
        let wp = uniform(4000, 51);
        let spec = HierarchySpec::uniform(&[4, 2]);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let res = solve(&wp, &spec, None, &cfg);
        assert_eq!(res.assignment.len(), 4000);
        assert!(res.assignment.iter().all(|&b| b < 8));
        assert!(res.stats.balance_achieved, "every node solve must balance");
        assert_levels_balanced(&res.assignment, &wp.weights, &spec, |_| cfg.epsilon);
        assert_eq!(spec.path_of_block(5), vec![2, 1]);
        // 1 root + 4 level-0 nodes were solved.
        assert_eq!(res.previous.nodes.len(), 5);
        assert_eq!(res.level_imbalance.len(), 2);
    }

    #[test]
    fn per_level_epsilon_and_fractions_are_honored() {
        let wp = uniform(6000, 52);
        // Tight ε at the node level, loose inside; node capacities 2:1:1.
        let spec = HierarchySpec {
            levels: vec![
                LevelSpec { arity: 3, epsilon: Some(0.01), fractions: Some(vec![2.0, 1.0, 1.0]) },
                LevelSpec { arity: 2, epsilon: Some(0.10), fractions: None },
            ],
        };
        let cfg = Config { sampling_init: false, max_iterations: 200, ..Config::default() };
        let res = solve(&wp, &spec, None, &cfg);
        assert!(res.stats.balance_achieved);
        // Level-0 group weights follow the 2:1:1 capacities within ε=1%.
        let groups = spec.level_groups();
        let mut gw = [0.0f64; 3];
        for (&b, &w) in res.assignment.iter().zip(&wp.weights) {
            gw[groups[0][b as usize] as usize] += w;
        }
        let total: f64 = wp.weights.iter().sum();
        for (gi, frac) in [0.5, 0.25, 0.25].into_iter().enumerate() {
            let target = total * frac;
            assert!(
                gw[gi] <= ((1.01) * target).max(target + 1.0) + 1e-9,
                "group {gi}: {} vs target {target}",
                gw[gi]
            );
        }
        assert!(gw[0] > 1.8 * gw[1], "big node really is about twice the small ones");
    }

    #[test]
    fn warm_restart_of_unchanged_input_is_a_fixed_point() {
        let wp = uniform(2400, 53);
        let spec = HierarchySpec::uniform(&[2, 2]);
        let cfg = Config { sampling_init: false, max_iterations: 200, ..Config::default() };
        let cold = solve(&wp, &spec, None, &cfg);
        assert!(cold.stats.converged, "cold solve must converge for the fixed-point contract");
        let warm = solve(&wp, &spec, Some(&cold.previous), &cfg);
        assert_eq!(warm.assignment, cold.assignment, "unchanged input must not migrate");
        // One movement iteration per node: 1 root + 2 children.
        assert_eq!(warm.stats.movement_iterations, 3);
    }

    #[test]
    fn warm_restart_is_a_fixed_point_on_uneven_thread_ranks() {
        // Every node's warm solve orders its sub-points rank by rank: an
        // empty rank, one below a kernel block and one with the rest must
        // leave unchanged input where it was, in one iteration per node.
        let wp = uniform(2400, 59);
        let spec = HierarchySpec::uniform(&[2, 2]);
        let cfg = Config { sampling_init: false, max_iterations: 200, ..Config::default() };
        let cuts = [0, 0, 90, 2400];
        let solve_all = |prev: Option<&PreviousHierarchy<2>>| {
            run_spmd(3, |c| {
                let (lo, hi) = (cuts[c.rank()], cuts[c.rank() + 1]);
                let (points, weights) = (&wp.points[lo..hi], &wp.weights[lo..hi]);
                partition_hierarchical_spmd(&c, points, weights, &spec, prev, &cfg)
            })
        };
        let cold = solve_all(None);
        assert!(cold[0].stats.converged, "cold solve must converge for the fixed-point contract");
        let warm = solve_all(Some(&cold[0].previous));
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(w.assignment, c.assignment, "unchanged input must not migrate");
            assert_eq!(w.stats.movement_iterations, 3);
        }
    }

    #[test]
    fn warm_restart_tracks_drift_within_balance() {
        let wp = uniform(3000, 54);
        let spec = HierarchySpec::uniform(&[2, 2]);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let cold = solve(&wp, &spec, None, &cfg);
        let drifted = WeightedPoints {
            points: wp.points.iter().map(|p| Point::new([p[0] + 0.008, p[1] - 0.004])).collect(),
            weights: wp.weights.clone(),
        };
        let warm = solve(&drifted, &spec, Some(&cold.previous), &cfg);
        assert!(warm.stats.balance_achieved);
        assert_levels_balanced(&warm.assignment, &drifted.weights, &spec, |_| cfg.epsilon);
        let kept = warm.assignment.iter().zip(&cold.assignment).filter(|(a, b)| a == b).count();
        assert!(kept as f64 / 3000.0 > 0.9, "rigid drift migrated {} points", 3000 - kept);
    }

    #[test]
    fn spmd_and_serial_hierarchical_agree() {
        let wp = uniform(1600, 55);
        let spec = HierarchySpec::uniform(&[2, 2]);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let serial = solve(&wp, &spec, None, &cfg);
        let pts = wp.points.clone();
        let spec2 = spec.clone();
        let results = run_spmd(4, move |c| {
            let chunk = pts.len() / 4;
            let lo = c.rank() * chunk;
            let hi = lo + chunk;
            let w = vec![1.0; hi - lo];
            partition_hierarchical_spmd(&c, &pts[lo..hi], &w, &spec2, None, &cfg).assignment
        });
        let distributed: Vec<u32> = results.into_iter().flatten().collect();
        assert_eq!(distributed, serial.assignment);
    }

    #[test]
    fn depth_one_matches_flat_partition() {
        let wp = uniform(1500, 56);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let spec = HierarchySpec::uniform(&[5]);
        let hier = solve(&wp, &spec, None, &cfg);
        let flat = partition_spmd(&SelfComm, &wp.points, &wp.weights, 5, None, &cfg);
        assert_eq!(hier.assignment, flat.assignment);
    }

    #[test]
    fn invalid_specs_are_rejected_with_their_texts() {
        let text = |levels| HierarchySpec { levels }.validate().expect_err("invalid").to_string();
        assert_eq!(text(vec![]), "geographer config: hierarchy must have at least one level");
        let zero = text(vec![LevelSpec::uniform(2), LevelSpec::uniform(0)]);
        assert_eq!(zero, "geographer config: hierarchy level 1 arity must be at least 1");
        let short = LevelSpec { arity: 3, epsilon: None, fractions: Some(vec![1.0, 1.0]) };
        assert_eq!(
            text(vec![LevelSpec::uniform(2), short]),
            "geographer config: hierarchy level 1 fractions length must equal arity (got 2, arity = 3)"
        );
    }

    #[test]
    #[should_panic(expected = "Config::target_fractions must be None")]
    fn flat_target_fractions_rejected_not_silently_dropped() {
        // Heterogeneous targets go through LevelSpec::fractions; a flat
        // Config::target_fractions would otherwise be discarded without a
        // trace by the per-level config derivation.
        let wp = uniform(400, 58);
        let cfg = Config { target_fractions: Some(vec![0.5, 0.25, 0.25]), ..Config::default() };
        let _ = solve(&wp, &HierarchySpec::uniform(&[2, 2]), None, &cfg);
    }

    #[test]
    #[should_panic(
        expected = "geographer config: plan state arities [2, 2] do not match the spec's [4, 2]"
    )]
    fn mismatched_previous_hierarchy_rejected() {
        let wp = uniform(400, 57);
        let cfg = Config { sampling_init: false, ..Config::default() };
        let cold = solve(&wp, &HierarchySpec::uniform(&[2, 2]), None, &cfg);
        let _ = solve(&wp, &HierarchySpec::uniform(&[4, 2]), Some(&cold.previous), &cfg);
    }
}
