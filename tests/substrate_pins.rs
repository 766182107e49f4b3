//! Exact outputs of the dense-id substrate code, pinned: the Delaunay
//! triangulator's edge list, a density mesh's adjacency, and what the SpMV
//! halo exchange sends and computes. A rewrite of their bookkeeping (id
//! maps, membership sets, ghost storage) must leave every value here
//! bit for bit unchanged. The seeded generators' graphs — the random
//! geometric graph and both kNN clouds — are pinned too, so a change to
//! their `SplitMix64` draws shows here.

use geographer_geometry::{Point, SplitMix64};
use geographer_graph::CsrGraph;
use geographer_mesh::families::bubbles_like;
use geographer_mesh::knn3d::PointCloud;
use geographer_mesh::{delaunay_edges, delaunay_unit_square, knn3d, rgg2d};
use geographer_parcomm::run_spmd;
use geographer_spmv::spmv_comm_time_on_nodes;

/// FNV-1a over little-endian `u32` words.
fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    words
        .into_iter()
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Each vertex's degree followed by its neighbours, in vertex order.
fn adjacency_digest(g: &CsrGraph) -> u64 {
    fnv((0..g.n() as u32).flat_map(|v| {
        std::iter::once(g.neighbors(v).len() as u32).chain(g.neighbors(v).iter().copied())
    }))
}

#[test]
fn delaunay_edges_on_uniform_points_match_the_pin() {
    let mut rng = SplitMix64::new(2018);
    let points: Vec<_> =
        (0..20_000).map(|_| Point::new([rng.next_f64(), rng.next_f64()])).collect();
    let edges = delaunay_edges(&points);
    let digest = fnv(edges.iter().flat_map(|&(u, v)| [u, v]));
    assert_eq!((edges.len(), digest), (59_950, 0x73fe_0002_e649_a4c1), "digest {digest:#018x}");
}

#[test]
fn bubbles_adjacency_matches_the_pin() {
    let mesh = bubbles_like(6_000, 22);
    let digest = adjacency_digest(&mesh.graph);
    assert_eq!((mesh.m(), digest), (17_973, 0xcf56_d5d9_51dc_a19f), "digest {digest:#018x}");
}

#[test]
fn rgg_adjacency_matches_the_pin() {
    let mesh = rgg2d(3_000, None, 2018);
    let digest = adjacency_digest(&mesh.graph);
    assert_eq!((mesh.m(), digest), (23_041, 0x57e6_b69d_2c88_6387), "digest {digest:#018x}");
}

#[test]
fn knn_adjacency_matches_the_pin_on_both_clouds() {
    for (cloud, pinned) in [
        (PointCloud::Uniform, (7_221, 0xc2c5_2de6_800c_0a60)),
        (PointCloud::Clustered { clusters: 4 }, (7_693, 0x5982_084f_35a0_7768)),
    ] {
        let mesh = knn3d(2_000, 6, cloud, 2018);
        let digest = adjacency_digest(&mesh.graph);
        assert_eq!((mesh.m(), digest), pinned, "{cloud:?}: digest {digest:#018x}");
    }
}

#[test]
fn spmv_reports_on_a_fixed_partition_match_the_pin() {
    let mesh = delaunay_unit_square(2_000, 3);
    // A 4 × 2 grid of blocks over the unit square.
    let k = 8;
    let assignment: Vec<u32> = mesh
        .points
        .iter()
        .map(|q| ((q[0] * 4.0) as u32).min(3) + 4 * ((q[1] * 2.0) as u32).min(1))
        .collect();
    let mut reports = Vec::new();
    for p in [1, 3, 4] {
        let ranks = run_spmd(p, |c| spmv_comm_time_on_nodes(&c, &mesh.graph, &assignment, k, 3, 2));
        reports.extend(
            ranks.iter().map(|r| {
                (r.bytes_sent_per_iter, r.inter_node_bytes_per_iter, r.checksum.to_bits())
            }),
        );
    }
    // (bytes sent, of them inter-node, checksum bits) per rank: p = 1, then
    // the three ranks of p = 3, then the four of p = 4.
    let pinned: [(u64, u64, u64); 8] = [
        (0, 0, 0x409f_fb48_d60d_5ab8),
        (536, 104, 0x4088_39db_7758_c05b),
        (792, 344, 0x4087_766b_0884_41df),
        (456, 456, 0x4080_464b_2c3d_b36e),
        (368, 200, 0x4080_0fe9_811c_672b),
        (464, 256, 0x4080_1c87_f368_431f),
        (448, 248, 0x407f_07aa_16b0_afbf),
        (448, 200, 0x4080_464b_2c3d_b36e),
    ];
    assert_eq!(reports, pinned, "{reports:#x?}");
}
