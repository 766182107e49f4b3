//! Property tests over the substrate crates: CSR construction, induced
//! subgraphs, SPMD collectives, and the sort/rebalance pipeline under
//! arbitrary shard shapes.

use geographer_graph::{connected_components, CsrGraph};
use geographer_parcomm::{run_spmd, Comm};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CSR from arbitrary edge lists is symmetric, self-loop-free, and
    /// duplicate-free; edge count matches the distinct-edge count.
    #[test]
    fn csr_contract(n in 1usize..60, raw in prop::collection::vec((0u32..60, 0u32..60), 0..200)) {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let g = CsrGraph::from_edges(n, &edges);
        prop_assert!(g.is_symmetric());
        let mut distinct: std::collections::BTreeSet<(u32, u32)> = Default::default();
        for &(a, b) in &edges {
            if a != b {
                distinct.insert((a.min(b), a.max(b)));
            }
        }
        prop_assert_eq!(g.m(), distinct.len());
        for v in 0..n as u32 {
            prop_assert!(!g.neighbors(v).contains(&v), "self loop survived");
            let mut sorted = g.neighbors(v).to_vec();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), g.degree(v), "duplicate neighbour");
        }
    }

    /// Induced subgraphs never gain edges or components relative to what
    /// the vertex subset allows.
    #[test]
    fn induced_subgraph_contract(
        n in 2usize..40,
        raw in prop::collection::vec((0u32..40, 0u32..40), 0..120),
        subset_bits in prop::collection::vec(any::<bool>(), 40),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let g = CsrGraph::from_edges(n, &edges);
        let verts: Vec<u32> =
            (0..n as u32).filter(|&v| subset_bits[v as usize]).collect();
        if verts.is_empty() {
            return Ok(());
        }
        let sub = g.induced_subgraph(&verts);
        prop_assert_eq!(sub.n(), verts.len());
        prop_assert!(sub.m() <= g.m());
        prop_assert!(sub.is_symmetric());
        // Every subgraph edge must exist in the parent.
        for (i, &v) in verts.iter().enumerate() {
            for &j in sub.neighbors(i as u32) {
                let u = verts[j as usize];
                prop_assert!(g.neighbors(v).binary_search(&u).is_ok());
            }
        }
        let (cc_sub, _) = connected_components(&sub);
        prop_assert!(cc_sub >= 1);
    }

    /// Distributed sort + rebalance over arbitrary shard sizes equals the
    /// sequential sort, with exact n/p ownership.
    #[test]
    fn sort_rebalance_arbitrary_shards(
        shards in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..80), 1..5),
    ) {
        let p = shards.len();
        let shards_ref = &shards;
        let results = run_spmd(p, move |c| {
            let mine: Vec<u64> =
                shards_ref[c.rank()].iter().map(|&x| x as u64).collect();
            let sorted = geographer_dsort::sample_sort_by_key(&c, mine, |&x| x);
            geographer_dsort::rebalance(&c, sorted)
        });
        let mut expected: Vec<u64> =
            shards.iter().flatten().map(|&x| x as u64).collect();
        expected.sort_unstable();
        let got: Vec<u64> = results.iter().flatten().copied().collect();
        prop_assert_eq!(&got, &expected);
        // Ownership split: rank r owns the global positions g with
        // ⌊g·p/total⌋ = r (sizes differ by at most one).
        let total = expected.len() as u64;
        for (r, shard) in results.iter().enumerate() {
            let want = (0..total)
                .filter(|&g| ((g as u128 * p as u128) / total.max(1) as u128) as usize == r)
                .count();
            prop_assert_eq!(shard.len(), want, "rank {} owns wrong count", r);
        }
    }

    /// Allreduce results are bitwise identical on every rank (the
    /// butterfly applies one fixed reduction tree) and agree with the
    /// sequential reduction up to floating-point associativity, for any
    /// contribution pattern.
    #[test]
    fn allreduce_agreement(contribs in prop::collection::vec(-1e6f64..1e6, 2..6)) {
        let p = contribs.len();
        let c_ref = &contribs;
        let results = run_spmd(p, move |c| {
            let mut buf = vec![c_ref[c.rank()]];
            c.allreduce_sum_f64(&mut buf);
            buf[0]
        });
        for r in &results {
            prop_assert_eq!(r.to_bits(), results[0].to_bits(), "ranks disagree");
        }
        // The reduction tree is balanced, not rank-ordered, so require
        // agreement up to the usual summation-order slack.
        let expected = contribs.iter().fold(0.0, |a, b| a + b);
        let tol = 1e-9 * expected.abs().max(1.0);
        prop_assert!(
            (results[0] - expected).abs() <= tol,
            "butterfly sum {} too far from sequential {}", results[0], expected
        );
    }

    /// ISSUE-2 satellite: `sample_sort_by_key` over `ThreadComm` with
    /// p ∈ {2, 3, 8} produces the same multiset and globally sorted order
    /// as a sequential sort of the concatenated input.
    #[test]
    fn sample_sort_matches_sequential_sort(
        p_idx in 0usize..3,
        keys in prop::collection::vec(any::<u64>(), 0..600),
    ) {
        let p = [2usize, 3, 8][p_idx];
        let keys_ref = &keys;
        let results = run_spmd(p, move |c| {
            // Deal the concatenated input round-robin into p shards, so
            // shard sizes differ and every rank sees an arbitrary subset.
            let mine: Vec<u64> = keys_ref
                .iter()
                .enumerate()
                .filter(|(i, _)| i % p == c.rank())
                .map(|(_, &k)| k)
                .collect();
            geographer_dsort::sample_sort_by_key(&c, mine, |&x| x)
        });
        // Concatenating the per-rank outputs in rank order must equal the
        // sequential sort: same multiset, globally non-decreasing.
        let got: Vec<u64> = results.iter().flatten().copied().collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        prop_assert_eq!(&got, &expected, "p={}", p);
    }
}
