//! The five workloads: which instance family, which recipe, how many
//! ranks on which backend — and how an instance is made from the seed.
//!
//! A run does not solve one instance over and over: instance-to-instance
//! solve time varies by 15–30 % (iteration counts differ), so a run that
//! is to read the same under another seed has to average over many. Each
//! op therefore gets a fresh instance, `instance_seed(seed, workload, j)`
//! for the j-th, and sizes are chosen so that a run sees 40–100 of them.

use std::time::Instant;

use geographer::{Config, HierarchySpec};
use geographer_bench::{solve_plan_view, PlanRecipe, PlanRun, SpmdBackend, Tool};
use geographer_geometry::{Point, SplitMix64};
use geographer_graph::CsrGraph;
use geographer_mesh::density::{bubbles_density, sample_by_density};
use geographer_mesh::families::bubbles_like;
use geographer_mesh::{delaunay_edges, DynamicWorkload, Mesh, Scenario};
use geographer_planner::{MeshView, RefineMode};
use geographer_refine::MultilevelConfig;

/// Which generator makes the instance.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `sample_by_density` with a constant density; no graph.
    Uniform,
    /// `sample_by_density` under `bubbles_density` with four bubbles; no
    /// graph.
    FourBubbles,
    /// Uniform points drifting under `Scenario::ClusterDrift` for
    /// `steps` steps, plus the cold bootstrap the chain starts from.
    Drift { steps: usize },
    /// `families::bubbles_like`: five bubbles, Delaunay-triangulated (the
    /// recipe refines on the graph).
    BubblesMesh,
}

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Mirrors `BENCHMARK.json`.
    pub why: &'static str,
    pub family: Family,
    /// Points per instance.
    pub n: usize,
    /// Points per instance under `--smoke`.
    pub smoke_n: usize,
    pub k: usize,
    pub hierarchy: Option<&'static [usize]>,
    pub sampling_init: bool,
    pub p: usize,
    pub backend: SpmdBackend,
    /// How many of the run's first outputs have their quality evaluated
    /// (Delaunay graph, four baselines). A fixed count, so the quality
    /// metrics depend on the seed alone and not on how many ops the box
    /// fits into the run; larger where instances are small and their
    /// cut varies more.
    pub quality_instances: usize,
}

/// Clustered refinement regions of `cold_clustered_k64_p2` (centre x, y,
/// radius) — fixed, like the bubbles of `families::bubbles_like`.
const FOUR_BUBBLES: [(f64, f64, f64); 4] = [
    (0.25, 0.25, 0.2),
    (0.75, 0.3, 0.15),
    (0.5, 0.7, 0.2),
    (0.15, 0.8, 0.1),
];

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cold_uniform_p1",
        why: "plain single-rank baseline: every pipeline phase shows, k <= 24 takes the paired-batch SoA kernel and sampling rounds the AoS scan",
        family: Family::Uniform,
        n: 200_000,
        smoke_n: 20_000,
        k: 16,
        hierarchy: None,
        sampling_init: true,
        p: 1,
        backend: SpmdBackend::Thread,
        quality_instances: 2,
    },
    Workload {
        name: "cold_clustered_k64_p2",
        why: "non-uniform density puts the work in the balance loop, k > 24 takes the generic kernel, collectives cross parcomm::thread; sfc/dsort changes should barely show",
        family: Family::FourBubbles,
        n: 60_000,
        smoke_n: 20_000,
        k: 64,
        hierarchy: None,
        sampling_init: true,
        p: 2,
        backend: SpmdBackend::Thread,
        quality_instances: 4,
    },
    Workload {
        name: "proc_uniform_p2",
        why: "same solver over forked ranks: Tagged records and every collective go through Wire and Unix sockets; each op is checked bitwise against the thread backend",
        family: Family::Uniform,
        n: 200_000,
        smoke_n: 20_000,
        k: 16,
        hierarchy: None,
        sampling_init: true,
        p: 2,
        backend: SpmdBackend::Proc,
        quality_instances: 2,
    },
    Workload {
        name: "warm_drift_p1",
        why: "chain of 16 warm re-steps under cluster drift: repartition skips sfc and dsort and runs on generator-ordered points, so an sfc/dsort change must not move it",
        family: Family::Drift { steps: 16 },
        n: 50_000,
        smoke_n: 20_000,
        k: 16,
        hierarchy: None,
        sampling_init: false,
        p: 1,
        backend: SpmdBackend::Thread,
        quality_instances: 8,
    },
    Workload {
        name: "hier_refine_p2",
        why: "stacked planner path, 4x4 hierarchy plus multilevel refinement on a bubbles mesh: refine, hier_refine and coarsening dominate and the k-means kernels barely show",
        family: Family::BubblesMesh,
        n: 30_000,
        smoke_n: 8_000,
        k: 16,
        hierarchy: Some(&[4, 4]),
        sampling_init: false,
        p: 2,
        backend: SpmdBackend::Thread,
        quality_instances: 8,
    },
];

pub fn find(name: &str) -> Option<(usize, &'static Workload)> {
    WORKLOADS.iter().enumerate().find(|(_, w)| w.name == name)
}

impl Workload {
    /// The solver's own `Config::seed` stays default: the program
    /// receives only generated inputs.
    pub fn config(&self) -> Config {
        Config {
            sampling_init: self.sampling_init,
            ..Config::default()
        }
    }

    pub fn hierarchy_spec(&self) -> Option<HierarchySpec> {
        self.hierarchy.map(HierarchySpec::uniform)
    }

    /// The recipe an op solves: the hierarchical workload stacks the
    /// multilevel V-cycle on its solve.
    pub fn recipe(&self) -> PlanRecipe {
        let recipe = self.unrefined_recipe();
        if self.hierarchy.is_some() {
            recipe.with_refine(RefineMode::Multilevel(MultilevelConfig::default()))
        } else {
            recipe
        }
    }

    /// The op's recipe without its refinement post-pass (the same recipe
    /// for the flat workloads).
    pub fn unrefined_recipe(&self) -> PlanRecipe {
        match self.hierarchy_spec() {
            Some(h) => PlanRecipe::hierarchical(self.name, h, self.config()),
            None => PlanRecipe::flat(self.name, Tool::Geographer, self.k, self.config()),
        }
    }

    /// A flat baseline-tool recipe at this workload's block count.
    pub fn baseline_recipe(&self, tool: Tool) -> PlanRecipe {
        PlanRecipe::flat(tool.name(), tool, self.k, Config::default())
    }

    /// Balance levels `(arity, epsilon)`, outermost first; one level of
    /// arity k for a flat recipe.
    pub fn balance_levels(&self) -> Vec<(usize, f64)> {
        let eps = self.config().epsilon;
        match self.hierarchy_spec() {
            Some(h) => h
                .levels
                .iter()
                .map(|l| (l.arity, l.epsilon.unwrap_or(eps)))
                .collect(),
            None => vec![(self.k, eps)],
        }
    }

    /// Leaf block -> level group maps, outermost first; the identity for
    /// a flat recipe.
    pub fn level_groups(&self) -> Vec<Vec<u32>> {
        match self.hierarchy_spec() {
            Some(h) => h.level_groups(),
            None => vec![(0..self.k as u32).collect()],
        }
    }

    pub fn points(&self, smoke: bool) -> usize {
        if smoke {
            self.smoke_n
        } else {
            self.n
        }
    }
}

/// One generated input.
pub struct Instance {
    /// Step-0 coordinates.
    pub points: Vec<Point<2>>,
    pub weights: Vec<f64>,
    /// The mesh graph, for the family that has one.
    pub graph: Option<CsrGraph>,
    /// Coordinates at steps 1..=steps (drift family only).
    pub drift: Vec<Vec<Point<2>>>,
    /// The cold bootstrap solve a warm chain starts from (drift family
    /// only); part of set-up, not of the op.
    pub boot: Option<PlanRun<2>>,
}

impl Instance {
    /// A unit-weight point cloud: no graph, no drift.
    fn cloud(points: Vec<Point<2>>) -> Instance {
        Instance {
            weights: vec![1.0; points.len()],
            points,
            graph: None,
            drift: Vec::new(),
            boot: None,
        }
    }

    /// The coordinates the final assignment of an op belongs to.
    pub fn final_points(&self) -> &[Point<2>] {
        self.drift.last().unwrap_or(&self.points)
    }

    pub fn view(&self) -> MeshView<'_, 2> {
        MeshView {
            points: &self.points,
            weights: &self.weights,
            graph: self.graph.as_ref(),
        }
    }

    /// The graph quality is measured on: the instance's own, else the
    /// Delaunay triangulation of the coordinates the final assignment
    /// was computed on (the paper's DelaunayX family).
    pub fn quality_graph(&self) -> CsrGraph {
        match &self.graph {
            Some(g) => g.clone(),
            None => {
                let points = self.final_points();
                CsrGraph::from_edges(points.len(), &delaunay_edges(points))
            }
        }
    }
}

/// Seed of the j-th instance of workload `w` under run seed `seed`.
pub fn instance_seed(seed: u64, w: usize, j: usize) -> u64 {
    let mut rng =
        SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((w as u64) << 48) ^ j as u64);
    rng.next_u64()
}

/// Generate one instance and report how long that took: one `setup_s`
/// sample.
pub fn generate(w: &Workload, n: usize, seed: u64) -> (Instance, f64) {
    let t = Instant::now();
    let inst = match w.family {
        Family::Uniform => Instance::cloud(sample_by_density(n, seed, |_| 1.0)),
        Family::FourBubbles => {
            Instance::cloud(sample_by_density(n, seed, bubbles_density(&FOUR_BUBBLES)))
        }
        Family::Drift { steps } => {
            // The solver never reads the topology, so the base mesh
            // carries an edgeless graph; quality is measured on the
            // triangulation `Instance::quality_graph` builds.
            let base = Mesh {
                points: sample_by_density(n, seed, |_| 1.0),
                weights: vec![1.0; n],
                graph: CsrGraph::from_edges(n, &[]),
            };
            let wl = DynamicWorkload::new(
                base,
                Scenario::ClusterDrift {
                    clusters: 4,
                    speed: 0.01,
                },
                seed,
            );
            let drift: Vec<Vec<Point<2>>> = (1..=steps).map(|t| wl.points_at(t)).collect();
            let points = wl.points_at(0);
            let weights = wl.weights_at(0);
            let view = MeshView {
                points: &points,
                weights: &weights,
                graph: None,
            };
            let boot = solve_plan_view(view, &w.recipe(), w.p, None);
            Instance {
                points,
                weights,
                graph: None,
                drift,
                boot: Some(boot),
            }
        }
        Family::BubblesMesh => {
            let mesh = bubbles_like(n, seed);
            Instance {
                points: mesh.points,
                weights: mesh.weights,
                graph: Some(mesh.graph),
                drift: Vec::new(),
                boot: None,
            }
        }
    };
    (inst, t.elapsed().as_secs_f64())
}
