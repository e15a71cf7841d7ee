//! The neighbourhood-scan kernels: v3 in production, v1 as the oracle.
//!
//! The v1 scan (`scanCommunities` + `choose_best`) makes two passes per
//! vertex: one over the edges to accumulate `K_{i→c}` in the per-thread
//! collision-free table, and one over the touched keys to load each
//! candidate's `Σ'` and evaluate the gain. It is kept only as the
//! reference the differential tests compare against.
//!
//! Kernel **v3** restructures that scan for the memory system with a
//! degree-aware two-tier dispatch:
//!
//! * vertices with degree ≤ [`LeidenConfig::small_degree_threshold`]
//!   run an *accumulate-only* edge pass over the CSR row (no per-edge
//!   score evaluation) into a [`HashScanMap`], a stack-resident
//!   open-addressed map with O(1) probes whose aux slot *prefetches*
//!   each candidate's `Σ'` on first touch — the scattered sigma load is
//!   issued while the edge scan still has misses to hide behind. The
//!   choose pass then folds once over the map's dense key/weight/aux
//!   slices via [`gve_prim::simd::choose_prefetched`] with
//!   autovectorizable arithmetic and **zero** scattered loads;
//! * hubs keep the v1 two-pass path: measured head-to-head, the dense
//!   table plus v1's choose loop beats gathered folds once the
//!   candidate set is large.
//!
//! v3 is bit-identical to v1 on frozen state because the score/gain
//! arithmetic and tie-breaks are unchanged and the argmax is
//! order-independent (max score, ties to the smaller id) — the property
//! `tests/kernels.rs` checks move for move.

use crate::config::{KernelVersion, LeidenConfig};
use crate::localmove::choose_best;
use crate::objective::GainCoeffs;
use gve_graph::{CsrGraph, VertexId};
use gve_prim::atomics::AtomicF64;
use gve_prim::{simd, CommunityMap, HashScanMap, SmallScanMap};
use std::sync::atomic::{AtomicU32, Ordering};

/// The two-pass reference kernel (v1): scan into the per-thread table,
/// then pick the best community with [`choose_best`]. Also the hub tier
/// of kernel v3.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn two_pass_best_move(
    ht: &mut CommunityMap,
    graph: &CsrGraph,
    membership: &[AtomicU32],
    bounds: Option<&[VertexId]>,
    i: VertexId,
    current: VertexId,
    p_i: f64,
    sigma: &[AtomicF64],
    coeffs: GainCoeffs,
) -> Option<(VertexId, f64)> {
    ht.clear();
    scan(graph, membership, bounds, i, |c, w| ht.add(c, w));
    choose_best(ht, current, p_i, sigma, coeffs)
}

/// Accumulate-only edge scan shared by both kernels and random
/// refinement: feeds each retained `(community, weight)` contribution
/// of `i`'s row to `acc` (self-loops skipped; with `bounds`, only
/// neighbours sharing `i`'s bound). The bounds branch happens once per vertex, and the body is a
/// bare load → accumulate with no scoring, so the compiler keeps the
/// membership loads independent and the loop tight.
#[inline]
pub(crate) fn scan<F: FnMut(u32, f64)>(
    graph: &CsrGraph,
    membership: &[AtomicU32],
    bounds: Option<&[VertexId]>,
    i: VertexId,
    mut acc: F,
) {
    // Relaxed membership loads throughout: the asynchronous local-moving
    // design (paper §4.1) tolerates reading a neighbour's stale
    // community; convergence is driven by the outer iteration, not
    // per-load freshness.
    match bounds {
        None => {
            for (j, w) in graph.edges(i) {
                if j != i {
                    // Relaxed: asynchronous design, see above.
                    acc(membership[j as usize].load(Ordering::Relaxed), w as f64);
                }
            }
        }
        Some(b) => {
            let bound = b[i as usize];
            for (j, w) in graph.edges(i) {
                if j != i && b[j as usize] == bound {
                    // Relaxed: asynchronous design, see above.
                    acc(membership[j as usize].load(Ordering::Relaxed), w as f64);
                }
            }
        }
    }
}

/// Kernel v3: accumulate-only scan, then one lane-chunked choose pass.
///
/// `use_small` selects the stack mini-hash tier (callers pass the degree
/// dispatch result so the graph's degree lookup happens once); when set,
/// `i`'s distinct neighbour communities must fit
/// [`gve_prim::HASH_SCAN_CAP`] — guaranteed by any degree-based dispatch
/// threshold ≤ the cap, and debug-asserted by the map itself. The
/// final `(community, gain)` is bit-identical to v1 on frozen state:
/// the score is `lin·K_{i→c} − (quad·p_i)·Σ'_c` with v1's left-to-right
/// association, ties resolve to the smaller id, and the gain is
/// evaluated once at the end with the winner's saved `Σ'`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn v3_best_move(
    ht: &mut CommunityMap,
    hash: &mut HashScanMap,
    graph: &CsrGraph,
    membership: &[AtomicU32],
    bounds: Option<&[VertexId]>,
    i: VertexId,
    current: VertexId,
    p_i: f64,
    sigma: &[AtomicF64],
    coeffs: GainCoeffs,
    use_small: bool,
) -> Option<(VertexId, f64)> {
    let lin = coeffs.lin;
    let qp = coeffs.quad * p_i;
    let (best, k_to_current) = if use_small {
        hash.clear();
        scan(graph, membership, bounds, i, |c, w| {
            // Σ' prefetch: the aux callback runs on a candidate's first
            // touch, issuing its scattered load while the edge scan
            // still has misses to hide behind, so the choose pass below
            // touches only the stack.
            hash.add_with(c, w, |key| sigma[key as usize].load());
        });
        let best =
            simd::choose_prefetched(hash.keys(), hash.weights(), hash.aux(), current, lin, qp)?;
        (best, hash.weight(current))
    } else {
        // Hub tier: the dense table plus the v1 choose loop. Measured
        // head-to-head against a lane-gathered fold over the table's
        // key list, the v1 loop wins on hubs — the fold's weight
        // re-gather buffer costs more than its batched Σ' loads save —
        // so v3 keeps the reference path for the few high-degree rows
        // and spends its structure on the tier that dominates.
        return two_pass_best_move(
            ht, graph, membership, bounds, i, current, p_i, sigma, coeffs,
        );
    };
    let sigma_current = sigma[current as usize].load();
    let gain = coeffs.gain(best.weight, k_to_current, p_i, best.sigma, sigma_current);
    (gain > 0.0).then_some((best.key, gain))
}

/// The configured kernel for one vertex: v3's degree-aware dispatch, or
/// the v1 reference. This is the entry point the local-moving and
/// greedy-refinement loops use.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn dispatch(
    ht: &mut CommunityMap,
    hash: &mut HashScanMap,
    graph: &CsrGraph,
    membership: &[AtomicU32],
    bounds: Option<&[VertexId]>,
    i: VertexId,
    current: VertexId,
    p_i: f64,
    sigma: &[AtomicF64],
    coeffs: GainCoeffs,
    config: &LeidenConfig,
) -> Option<(VertexId, f64)> {
    match config.kernel {
        KernelVersion::V1 => two_pass_best_move(
            ht, graph, membership, bounds, i, current, p_i, sigma, coeffs,
        ),
        KernelVersion::V3 => {
            let use_small = graph.degree(i) <= config.small_degree_threshold;
            v3_best_move(
                ht, hash, graph, membership, bounds, i, current, p_i, sigma, coeffs, use_small,
            )
        }
    }
}

/// Public form of the kernel dispatch used by the phase loops.
///
/// `_small` is unused. It stays in the parameter list because the
/// repository benchmark (`perfbench/src/layers.rs`) calls this function
/// with it; drop it with the next change to the benchmark.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn best_move(
    ht: &mut CommunityMap,
    _small: &mut SmallScanMap,
    hash: &mut HashScanMap,
    graph: &CsrGraph,
    membership: &[AtomicU32],
    bounds: Option<&[VertexId]>,
    i: VertexId,
    current: VertexId,
    p_i: f64,
    sigma: &[AtomicF64],
    coeffs: GainCoeffs,
    config: &LeidenConfig,
) -> Option<(VertexId, f64)> {
    dispatch(
        ht, hash, graph, membership, bounds, i, current, p_i, sigma, coeffs, config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use gve_graph::GraphBuilder;
    use gve_prim::atomics::atomic_f64_from_slice;

    fn setup(
        graph: &CsrGraph,
        membership: &[u32],
    ) -> (Vec<AtomicU32>, Vec<f64>, Vec<AtomicF64>, GainCoeffs) {
        let n = graph.num_vertices();
        let atomic: Vec<AtomicU32> = membership.iter().map(|&c| AtomicU32::new(c)).collect();
        let penalty: Vec<f64> = (0..n as u32).map(|u| graph.weighted_degree(u)).collect();
        let mut sigma = vec![0.0f64; n];
        for (v, &c) in membership.iter().enumerate() {
            sigma[c as usize] += penalty[v];
        }
        let m = graph.total_arc_weight() / 2.0;
        let coeffs = Objective::default().coeffs(m.max(f64::MIN_POSITIVE));
        (atomic, penalty, atomic_f64_from_slice(&sigma), coeffs)
    }

    /// v3 must agree bit-for-bit with v1 on frozen state for every
    /// vertex, through both tiers, with and without refinement bounds;
    /// bounded moves must stay inside the vertex's bound.
    fn assert_v3_matches_v1(graph: &CsrGraph, labels: &[u32], bounds: &[u32]) {
        let n = graph.num_vertices();
        let (membership, penalty, sigma, coeffs) = setup(graph, labels);
        let mut ht = CommunityMap::new(n);
        let mut hash = HashScanMap::new();
        for bound in [None, Some(bounds)] {
            for i in 0..n as u32 {
                let current = labels[i as usize];
                let v1 = two_pass_best_move(
                    &mut ht,
                    graph,
                    &membership,
                    bound,
                    i,
                    current,
                    penalty[i as usize],
                    &sigma,
                    coeffs,
                );
                if let (Some(b), Some((target, _))) = (bound, v1) {
                    assert_eq!(
                        b[target as usize], b[i as usize],
                        "vertex {i} escaped its bound"
                    );
                }
                for use_small in [false, true] {
                    if use_small && graph.degree(i) > gve_prim::HASH_SCAN_CAP {
                        continue;
                    }
                    let v3 = v3_best_move(
                        &mut ht,
                        &mut hash,
                        graph,
                        &membership,
                        bound,
                        i,
                        current,
                        penalty[i as usize],
                        &sigma,
                        coeffs,
                        use_small,
                    );
                    assert_eq!(
                        v1,
                        v3,
                        "vertex {i} use_small={use_small} bounded={}",
                        bound.is_some()
                    );
                }
            }
        }
    }

    /// A weighted hub with leaves and a few leaf-leaf edges.
    #[test]
    fn v3_matches_two_pass_on_frozen_state() {
        let edges: Vec<(u32, u32, f32)> = (1..12u32)
            .map(|v| (0, v, 0.5 + v as f32))
            .chain([(1, 2, 1.0), (3, 4, 2.0), (5, 6, 1.5), (7, 8, 0.25)])
            .collect();
        let graph = GraphBuilder::from_edges(12, &edges);
        let labels = [0u32, 0, 0, 3, 3, 3, 6, 6, 6, 9, 9, 9];
        let bounds = [0u32, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1];
        assert_v3_matches_v1(&graph, &labels, &bounds);
    }

    /// Two triangles joined by a bridge, each triangle one community.
    #[test]
    fn v3_matches_two_pass_on_two_triangles() {
        let graph = GraphBuilder::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 3, 1.0),
                (2, 3, 1.0),
            ],
        );
        let labels = [0u32, 0, 0, 3, 3, 3];
        let bounds = [0u32, 0, 0, 1, 1, 1];
        assert_v3_matches_v1(&graph, &labels, &bounds);
    }

    /// Singletons over two triangles joined by a heavy bridge: unbounded,
    /// the bridge endpoints want each other; bounded, they must not.
    #[test]
    fn v3_matches_two_pass_with_heavy_bridge_and_bounds() {
        let graph = GraphBuilder::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 3, 1.0),
                (2, 3, 5.0),
            ],
        );
        let singleton: Vec<u32> = (0..6).collect();
        let bounds = [0u32, 0, 0, 1, 1, 1];
        assert_v3_matches_v1(&graph, &singleton, &bounds);
    }

    /// The dispatch threshold routes hubs to the table path; both tiers
    /// answer like the reference.
    #[test]
    fn dispatch_respects_threshold() {
        // Star: hub 0 with 5 leaves, weights 1..=5.
        let edges: Vec<(u32, u32, f32)> = (1..6).map(|v| (0, v, v as f32)).collect();
        let graph = GraphBuilder::from_edges(6, &edges);
        let singleton: Vec<u32> = (0..6).collect();
        let (membership, penalty, sigma, coeffs) = setup(&graph, &singleton);
        let mut ht = CommunityMap::new(6);
        let mut hash = HashScanMap::new();
        // Hub (degree 5 > 2) and leaves (degree 1 ≤ 2).
        let config = LeidenConfig::default().small_degree_threshold(2);
        for i in 0..6u32 {
            let got = dispatch(
                &mut ht,
                &mut hash,
                &graph,
                &membership,
                None,
                i,
                i,
                penalty[i as usize],
                &sigma,
                coeffs,
                &config,
            );
            let reference = two_pass_best_move(
                &mut ht,
                &graph,
                &membership,
                None,
                i,
                i,
                penalty[i as usize],
                &sigma,
                coeffs,
            );
            assert_eq!(got, reference, "vertex {i}");
        }
    }

    /// Regression: with the threshold at the cap (a legal config), a
    /// degree-64 vertex over singleton memberships fills the v3 stack
    /// hash completely, and the kernel then looks up its own — absent —
    /// community. The map's half-loaded slot table must terminate that
    /// probe (it used to spin forever when slots == entries).
    #[test]
    fn v3_full_stack_hash_at_threshold_cap() {
        let cap = gve_prim::HASH_SCAN_CAP as u32;
        // Star: hub 0 with exactly `cap` leaves, every membership a
        // singleton — the normal first local-moving iteration.
        let edges: Vec<(u32, u32, f32)> = (1..=cap).map(|v| (0, v, 1.0)).collect();
        let graph = GraphBuilder::from_edges(cap as usize + 1, &edges);
        let singleton: Vec<u32> = (0..=cap).collect();
        let (membership, penalty, sigma, coeffs) = setup(&graph, &singleton);
        let mut ht = CommunityMap::new(cap as usize + 1);
        let mut hash = HashScanMap::new();
        let config = LeidenConfig::default().small_degree_threshold(gve_prim::HASH_SCAN_CAP);
        config.validate().expect("threshold at the cap is legal");
        assert!(graph.degree(0) <= config.small_degree_threshold);
        let got = dispatch(
            &mut ht,
            &mut hash,
            &graph,
            &membership,
            None,
            0,
            0,
            penalty[0],
            &sigma,
            coeffs,
            &config,
        );
        let reference = two_pass_best_move(
            &mut ht,
            &graph,
            &membership,
            None,
            0,
            0,
            penalty[0],
            &sigma,
            coeffs,
        );
        assert_eq!(got, reference, "full-occupancy hub");
    }

    /// Isolated vertices and vertices whose only neighbour shares their
    /// community yield no move in both kernels.
    #[test]
    fn no_candidates_is_none() {
        let graph = GraphBuilder::from_edges(3, &[(0, 1, 1.0)]);
        let labels = [0u32, 0, 2];
        let (membership, penalty, sigma, coeffs) = setup(&graph, &labels);
        let mut ht = CommunityMap::new(3);
        let mut hash = HashScanMap::new();
        for i in 0..3u32 {
            let v1 = two_pass_best_move(
                &mut ht,
                &graph,
                &membership,
                None,
                i,
                labels[i as usize],
                penalty[i as usize],
                &sigma,
                coeffs,
            );
            assert_eq!(v1, None, "vertex {i}");
            for use_small in [false, true] {
                let v3 = v3_best_move(
                    &mut ht,
                    &mut hash,
                    &graph,
                    &membership,
                    None,
                    i,
                    labels[i as usize],
                    penalty[i as usize],
                    &sigma,
                    coeffs,
                    use_small,
                );
                assert_eq!(v3, None, "vertex {i} use_small={use_small}");
            }
        }
    }
}
