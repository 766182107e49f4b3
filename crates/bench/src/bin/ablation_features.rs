//! Ablation of the algorithmic features: influence erosion (Sec. 4.2) and
//! the sampling initialization (Sec. 4.5), on the heterogeneous climate
//! mesh where erosion matters ("In very heterogeneous point distributions
//! ... anomalies such as empty or absurdly large clusters might occur").

use geographer::{partition_spmd, Config};
use geographer_bench::{scaled, TextTable};
use geographer_graph::evaluate_partition;
use geographer_mesh::climate25d;
use geographer_parcomm::SelfComm;

fn main() {
    let n = scaled(25_000);
    let k = 16;
    println!("# Ablation: influence erosion & sampling init (climate mesh n = {n}, k = {k})");
    let mesh = climate25d(n, 40, 61);
    let wp = mesh.weighted_points();

    let variants: [(&str, Config); 4] = [
        ("erosion+sampling", Config::default()),
        ("no erosion", Config { influence_erosion: false, ..Config::default() }),
        ("no sampling", Config { sampling_init: false, ..Config::default() }),
        (
            "neither",
            Config {
                influence_erosion: false,
                sampling_init: false,
                ..Config::default()
            },
        ),
    ];

    let mut table = TextTable::new(vec![
        "variant", "wall", "iters", "balanceIters", "imbalance", "cut", "totCommVol",
        "emptyBlocks",
    ]);
    for (name, cfg) in &variants {
        let t = std::time::Instant::now();
        let res = partition_spmd(&SelfComm, &wp.points, &wp.weights, k, None, cfg);
        let wall = t.elapsed().as_secs_f64();
        let m = evaluate_partition(&mesh.graph, &res.assignment, &mesh.weights, k);
        let mut counts = vec![0usize; k];
        for &b in &res.assignment {
            counts[b as usize] += 1;
        }
        let empty = counts.iter().filter(|&&c| c == 0).count();
        table.row(vec![
            name.to_string(),
            format!("{wall:.3}s"),
            res.stats.movement_iterations.to_string(),
            res.stats.balance_iterations.to_string(),
            format!("{:.4}", res.stats.final_imbalance),
            m.edge_cut.to_string(),
            m.total_comm_volume.to_string(),
            empty.to_string(),
        ]);
    }
    table.print();
    println!("\n(expected: all variants balanced; erosion/sampling reduce iterations/time)");
}
