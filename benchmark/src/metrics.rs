//! The metric registry (names and units, in print order), the sample
//! statistics the benchmark reports, and the result line.
//!
//! `BENCHMARK.json` at the repo root names the same metrics with their
//! direction and bound; `tests/smoke.rs` holds the two lists equal.

use std::fmt::Write as _;

/// One named metric: what is printed, in which unit.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the partitioner sees; printed by the untraced run.
/// Every one is defined, and never 0, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("solve_s", "s"),
    m("peak_rss_mb", "MB"),
    m("edge_cut", "edges"),
    m("comm_volume", "vertices"),
    m("max_comm_volume", "vertices"),
    m("comm_volume_vs_best_baseline", "ratio"),
];

/// Single layers, measured from outside; printed by the traced run. A
/// metric with a time unit is measured for real on every workload; a
/// share, ratio or count reads 0 where the workload bypasses the layer.
pub const PER_LAYER: &[MetricDef] = &[
    m("mesh.delaunay_s", "s"),
    m("sfc.key_ns_per_point", "ns/point"),
    m("dsort.sort_ns_per_item", "ns/item"),
    m("dsort.alltoallv_bytes", "bytes"),
    m("pipeline.sfc_index_share", "ratio"),
    m("pipeline.redistribute_share", "ratio"),
    m("pipeline.kmeans_share", "ratio"),
    m("pipeline.writeback_share", "ratio"),
    m("kmeans.solve_ns_per_point", "ns/point"),
    m("kmeans.assignment_ns_per_point", "ns/point"),
    m("kmeans.other_ns_per_point", "ns/point"),
    m("kmeans.movement_iterations", "count"),
    m("kmeans.balance_iterations", "count"),
    m("kmeans.distance_evals_per_point", "count"),
    m("kmeans.hamerly_skip_rate", "ratio"),
    m("kmeans.bbox_breaks_per_point", "count"),
    m("kmeans.final_imbalance", "ratio"),
    m("repartition.warm_step_s", "s"),
    m("repartition.warm_movement_iterations", "count"),
    m("repartition.warm_over_cold", "ratio"),
    m("repartition.migrated_fraction", "ratio"),
    m("hierarchy.level0_comm_volume", "vertices"),
    m("refine.multilevel_s", "s"),
    m("refine.single_s", "s"),
    m("refine.cut_reduction_frac", "ratio"),
    m("graph.evaluate_s", "s"),
    m("graph.migration_s", "s"),
    m("baselines.rcb_s", "s"),
    m("baselines.hsfc_s", "s"),
    m("baselines.mj_s", "s"),
    m("baselines.rib_s", "s"),
    m("baselines.best_comm_volume", "vertices"),
    m("parcomm.thread.allreduce_us", "us"),
    m("parcomm.proc.allreduce_us", "us"),
    m("parcomm.thread.alltoallv_ns_per_byte", "ns/byte"),
    m("parcomm.proc.alltoallv_ns_per_byte", "ns/byte"),
    m("parcomm.proc.spawn_ms", "ms"),
    m("parcomm.proc.alpha_us", "us"),
    m("parcomm.proc.beta_ns_per_byte", "ns/byte"),
    m("parcomm.collectives", "count"),
    m("parcomm.rounds", "count"),
    m("parcomm.bytes_per_rank", "bytes"),
    m("parcomm.proc_over_thread_frac", "ratio"),
    m("planner.solve_share", "ratio"),
    m("planner.refine_share", "ratio"),
    m("planner.assembly_share", "ratio"),
    m("planner.launch_share", "ratio"),
    m("planner.solve_iqr_frac", "ratio"),
    m("planner.samples", "count"),
    m("planner.p1_solve_s", "s"),
    m("planner.p2_solve_s", "s"),
    m("planner.speedup_p2", "ratio"),
    m("trace.solve_s", "s"),
    m("trace.coverage_frac", "ratio"),
    m("trace.overhead_frac", "ratio"),
    m("trace.spans", "count"),
];

/// Values of one run, keyed by registry name.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// The outcome of one run of one workload.
pub struct RunResult {
    /// Ops run, warm-ups and re-solves included.
    pub attempted: u64,
    /// Ops whose output failed verification (or that errored or panicked).
    pub failed: u64,
    /// The first few failure messages, for the human reader.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// The timed op walls behind `solve_s` / `trace.solve_s`, in op
    /// order; their quartiles are printed beside the metric.
    pub walls: Vec<f64>,
}

impl RunResult {
    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, with every metric of `registry` in registry order. A
    /// missing or non-finite metric is a bug in the benchmark: the run
    /// reads as incorrect.
    pub fn result_line(&self, registry: &[MetricDef]) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut s = String::new();
        for (i, def) in registry.iter().enumerate() {
            let v = match self.metrics.get(def.name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    correct = false;
                    0.0
                }
            };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                def.name,
                v,
                def.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{s}}}}}",
            self.attempted, self.failed
        )
    }

    /// The table a person reads: every metric by name with its unit.
    pub fn table(&self, registry: &[MetricDef]) -> String {
        let mut s = String::new();
        for def in registry {
            let v = self.metrics.get(def.name).unwrap_or(f64::NAN);
            let _ = write!(s, "  {:<40} {:>16.6} {}", def.name, v, def.unit);
            if def.name == "solve_s" || def.name == "trace.solve_s" {
                let [q1, q2, q3] = quartiles(&self.walls);
                let _ = write!(
                    s,
                    "   (op wall q1 {q1:.4} median {q2:.4} q3 {q3:.4}, {} samples)",
                    self.walls.len()
                );
            }
            s.push('\n');
        }
        s
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The op wall a run reports: the interquartile mean (midmean) of its
/// timed ops. Every op solves another instance, and on top of the
/// spread of instance difficulty (15-60 % with a long upper tail: a few
/// instances need many more iterations) the box has slow spells that
/// hit runs of consecutive ops. The midmean discards both tails and
/// averages what is left: resampling measured op walls, it repeats
/// under another seed as well as the mean where the tails are light and
/// more than twice as well where they are not.
pub fn central(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// First quartile, median, third quartile — the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method), which the
/// repeatability criterion is stated in.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// Interquartile range as a share of the median.
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 > 0.0 {
        (q3 - q1) / q2
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn central_discards_both_tails() {
        assert_eq!(central(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]), 3.5);
        assert_eq!(central(&[7.0]), 7.0);
        assert_eq!(central(&[]), 0.0);
    }

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
