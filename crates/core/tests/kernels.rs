//! Differential tests of the production kernel: v3 must pick exactly
//! the same `(community, gain)` as the two-pass v1 reference on any
//! frozen state (both v3 tiers, every dispatch threshold, with and
//! without refinement bounds) and end to end under every
//! chunk-scheduling policy, and cache-aware relabeling must be
//! invisible in the reported result.
//! Running this suite with `--features gve-prim/scalar-scan` swaps the
//! lane fold for its scalar reference, covering both code paths.

use gve_graph::{CsrGraph, GraphBuilder};
use gve_leiden::kernel::{best_move, two_pass_best_move, v3_best_move};
use gve_leiden::{
    ChunkScheduling, KernelVersion, Leiden, LeidenConfig, Objective, Scheduling, VertexOrdering,
};
use gve_prim::atomics::{atomic_f64_from_slice, AtomicF64};
use gve_prim::{CommunityMap, HashScanMap, SmallScanMap};
use proptest::prelude::*;
use std::sync::atomic::AtomicU32;

/// Random small weighted graphs: every vertex's distinct neighbours stay
/// below the stack-map capacity (n ≤ 48 < HASH_SCAN_CAP), so v3's stack
/// tier is callable for all of them.
fn arb_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32, f32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, 1u32..6), 1..max_m).prop_map(move |edges| {
            (
                n,
                edges
                    .into_iter()
                    .map(|(u, v, w)| (u, v, w as f32))
                    .collect(),
            )
        })
    })
}

/// A frozen Leiden state for a membership labeling: atomic labels, the
/// per-vertex penalty (weighted degree), and the community totals Σ.
fn frozen_state(
    graph: &CsrGraph,
    membership: &[u32],
) -> (Vec<AtomicU32>, Vec<f64>, Vec<AtomicF64>) {
    let n = graph.num_vertices();
    let atomic: Vec<AtomicU32> = membership.iter().map(|&c| AtomicU32::new(c)).collect();
    let penalty: Vec<f64> = (0..n as u32).map(|u| graph.weighted_degree(u)).collect();
    let mut sigma = vec![0.0f64; n];
    for (v, &c) in membership.iter().enumerate() {
        sigma[c as usize] += penalty[v];
    }
    (atomic, penalty, atomic_f64_from_slice(&sigma))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On every vertex of any random weighted graph, under any
    /// membership, the default kernel behind the public `best_move`
    /// entry point and the two-pass reference return bit-identical
    /// `(community, gain)` — with and without refinement bounds, for
    /// both objectives.
    #[test]
    fn default_kernel_agrees_with_two_pass(
        (n, edges) in arb_graph(48, 220),
        labels_seed in 0u64..1000,
        cpm in 0u32..2,
    ) {
        let graph = GraphBuilder::from_edges(n as usize, &edges);
        // Deterministic pseudo-random labels from the seed.
        let labels: Vec<u32> = (0..n)
            .map(|v| {
                let mut x = labels_seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (x % n as u64) as u32
            })
            .collect();
        let bounds: Vec<u32> = labels.iter().map(|&c| c % 3).collect();
        let (membership, penalty, sigma) = frozen_state(&graph, &labels);
        let m = graph.total_arc_weight() / 2.0;
        let objective = if cpm == 1 {
            Objective::Cpm { resolution: 0.25 }
        } else {
            Objective::default()
        };
        let coeffs = objective.coeffs(m.max(f64::MIN_POSITIVE));
        let config = LeidenConfig::default();
        let mut ht = CommunityMap::new(n as usize);
        let mut small = SmallScanMap::new();
        let mut hash = HashScanMap::new();
        for i in 0..n {
            let current = labels[i as usize];
            let p_i = penalty[i as usize];
            for bound in [None, Some(bounds.as_slice())] {
                let v1 = two_pass_best_move(
                    &mut ht, &graph, &membership, bound, i, current, p_i, &sigma, coeffs,
                );
                let v3 = best_move(
                    &mut ht, &mut small, &mut hash, &graph, &membership, bound, i, current,
                    p_i, &sigma, coeffs, &config,
                );
                prop_assert_eq!(v1, v3, "vertex {} (bounded: {})", i, bound.is_some());
            }
        }
    }

    /// The degree-aware dispatcher equals the reference for every
    /// threshold, including ones that split the graph across both tiers.
    #[test]
    fn dispatch_is_threshold_invariant(
        (n, edges) in arb_graph(32, 120),
        threshold in 1usize..16,
    ) {
        let graph = GraphBuilder::from_edges(n as usize, &edges);
        let labels: Vec<u32> = (0..n).map(|v| v % 5).collect();
        let (membership, penalty, sigma) = frozen_state(&graph, &labels);
        let coeffs = Objective::default().coeffs((graph.total_arc_weight() / 2.0).max(f64::MIN_POSITIVE));
        let config = LeidenConfig::default().small_degree_threshold(threshold);
        let mut ht = CommunityMap::new(n as usize);
        let mut small = SmallScanMap::new();
        let mut hash = HashScanMap::new();
        for i in 0..n {
            let current = labels[i as usize];
            let p_i = penalty[i as usize];
            let reference = two_pass_best_move(
                &mut ht, &graph, &membership, None, i, current, p_i, &sigma, coeffs,
            );
            let dispatched = best_move(
                &mut ht, &mut small, &mut hash, &graph, &membership, None, i, current, p_i,
                &sigma, coeffs, &config,
            );
            prop_assert_eq!(reference, dispatched, "vertex {} threshold {}", i, threshold);
        }
    }

    /// The v3 kernel is bit-identical to the two-pass reference on any
    /// frozen state: both tiers (stack map and hashtable), with and
    /// without refinement bounds, for both objectives.
    #[test]
    fn v3_agrees_with_two_pass(
        (n, edges) in arb_graph(48, 220),
        labels_seed in 0u64..1000,
        cpm in 0u32..2,
    ) {
        let graph = GraphBuilder::from_edges(n as usize, &edges);
        let labels: Vec<u32> = (0..n)
            .map(|v| {
                let mut x = labels_seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (x % n as u64) as u32
            })
            .collect();
        let bounds: Vec<u32> = labels.iter().map(|&c| c % 3).collect();
        let (membership, penalty, sigma) = frozen_state(&graph, &labels);
        let m = graph.total_arc_weight() / 2.0;
        let objective = if cpm == 1 {
            Objective::Cpm { resolution: 0.25 }
        } else {
            Objective::default()
        };
        let coeffs = objective.coeffs(m.max(f64::MIN_POSITIVE));
        let mut ht = CommunityMap::new(n as usize);
        let mut hash = HashScanMap::new();
        for i in 0..n {
            let current = labels[i as usize];
            let p_i = penalty[i as usize];
            for bound in [None, Some(bounds.as_slice())] {
                let reference = two_pass_best_move(
                    &mut ht, &graph, &membership, bound, i, current, p_i, &sigma, coeffs,
                );
                for use_small in [false, true] {
                    let v3 = v3_best_move(
                        &mut ht, &mut hash, &graph, &membership, bound, i, current, p_i,
                        &sigma, coeffs, use_small,
                    );
                    prop_assert_eq!(
                        reference, v3,
                        "vertex {} (bounded: {}, small: {})",
                        i, bound.is_some(), use_small
                    );
                }
            }
        }
    }
}

/// Relabel → detect → inverse-map must be invisible: the membership is
/// reported in original vertex ids, with the same modularity and the
/// same community-size multiset as the un-relabeled run.
#[test]
fn relabeling_round_trips_through_detection() {
    let planted = gve_generate::PlantedPartition::new(2000, 20, 12.0, 0.5)
        .seed(7)
        .generate();
    let graph = &planted.graph;
    let base = LeidenConfig::default().scheduling(Scheduling::ColorSynchronous);

    let sizes = |membership: &[u32]| -> Vec<usize> {
        let k = membership.iter().copied().max().unwrap_or(0) as usize + 1;
        let mut counts = vec![0usize; k];
        for &c in membership {
            counts[c as usize] += 1;
        }
        counts.retain(|&c| c > 0);
        counts.sort_unstable();
        counts
    };

    let reference = Leiden::new(base.clone()).run(graph);
    let q_reference = gve_quality::modularity(graph, &reference.membership);
    assert!(q_reference > 0.5, "weak reference partition: {q_reference}");

    for ordering in [VertexOrdering::DegreeDesc, VertexOrdering::Bfs] {
        let config = base.clone().ordering(ordering);
        let result = Leiden::new(config).run(graph);
        assert_eq!(
            result.membership.len(),
            graph.num_vertices(),
            "{ordering:?}: membership length"
        );
        let q = gve_quality::modularity(graph, &result.membership);
        assert!(
            (q - q_reference).abs() < 1e-9,
            "{ordering:?}: modularity {q} != reference {q_reference}"
        );
        assert_eq!(
            sizes(&result.membership),
            sizes(&reference.membership),
            "{ordering:?}: community sizes differ"
        );
        // On this strongly separated SBM the planted communities are
        // recovered exactly, so co-membership must match ground truth.
        for (v, &c) in result.membership.iter().enumerate() {
            let rep = planted.labels[v];
            let first = planted.labels.iter().position(|&l| l == rep).unwrap();
            assert_eq!(
                c, result.membership[first],
                "vertex {v} not grouped with its planted community"
            );
        }
    }
}

/// Under the deterministic color-synchronous schedule, the default
/// configuration (kernel v3) is bit-identical to v1 end-to-end for
/// every chunk-scheduling policy (chunking only redistributes work
/// across workers; the per-vertex decisions are the same).
#[test]
fn v3_end_to_end_is_bitwise_identical_to_v1() {
    let planted = gve_generate::PlantedPartition::new(1500, 12, 10.0, 0.8)
        .seed(11)
        .generate();
    let base = LeidenConfig::default().scheduling(Scheduling::ColorSynchronous);
    assert_eq!(base.kernel, KernelVersion::V3);
    let v1 = Leiden::new(base.clone().kernel(KernelVersion::V1)).run(&planted.graph);
    for chunking in [
        ChunkScheduling::Static,
        ChunkScheduling::Guided,
        ChunkScheduling::Stealing,
    ] {
        let v3 = Leiden::new(base.clone().chunking(chunking)).run(&planted.graph);
        assert_eq!(
            v1.membership, v3.membership,
            "v3 diverged from v1 ({chunking:?})"
        );
    }
}

/// The asynchronous path under v3 reaches the same quality as v1 for
/// every chunk-scheduling policy, and the scheduler counters report the
/// work distribution the policy promises.
#[test]
fn v3_async_quality_and_sched_counters() {
    let planted = gve_generate::PlantedPartition::new(2000, 10, 14.0, 1.0)
        .seed(23)
        .generate();
    let g = &planted.graph;
    let q1 = gve_quality::modularity(
        g,
        &Leiden::new(LeidenConfig::default().kernel(KernelVersion::V1))
            .run(g)
            .membership,
    );
    for chunking in [
        ChunkScheduling::Static,
        ChunkScheduling::Guided,
        ChunkScheduling::Stealing,
    ] {
        let result = Leiden::new(LeidenConfig::default().chunking(chunking)).run(g);
        let q3 = gve_quality::modularity(g, &result.membership);
        assert!(
            (q1 - q3).abs() < 0.05,
            "{chunking:?}: v3 Q {q3} vs v1 Q {q1}"
        );
        assert_eq!(result.chunking, chunking);
        let chunks: u64 = result.pass_stats.iter().map(|p| p.sched_chunks).sum();
        assert!(chunks > 0, "{chunking:?}: no chunks recorded");
        if chunking != ChunkScheduling::Stealing {
            let steals: u64 = result.pass_stats.iter().map(|p| p.sched_steals).sum();
            assert_eq!(steals, 0, "{chunking:?}: impossible steals recorded");
        }
        let report = gve_quality::disconnected_communities(g, &result.membership);
        assert!(report.all_connected(), "{chunking:?}: disconnected output");
    }
}
