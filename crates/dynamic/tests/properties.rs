//! Property-based tests: `apply_batch` against a naive reference model.

use gve_dynamic::{apply_batch, BatchUpdate};
use gve_graph::{CsrGraph, GraphBuilder};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Non-integer weights, so a different summation order of repeated
/// insertions shows up in the low bits.
fn arb_weight() -> impl Strategy<Value = f32> {
    (1u32..40).prop_map(|k| k as f32 * 0.1)
}

/// Deletions: a random pair, or (when the selector is 0) the edge at
/// `pick` modulo the edge count, so some deletions hit real edges.
fn arb_deletes(n: u32, max: usize) -> impl Strategy<Value = Vec<(u32, u32, u32, usize)>> {
    proptest::collection::vec((0..n, 0..n, 0u32..2, 0usize..1 << 20), 0..max)
}

/// Assembles the graph and the batch from the generated edit lists.
/// The graph keeps one weight per undirected pair: the builder may sum
/// repeated pairs in a different order per direction, which would make
/// the input itself asymmetric in the low bits.
fn graph_and_batch(
    n: u32,
    edges: Vec<(u32, u32, f32)>,
    inserts: Vec<(u32, u32, f32)>,
    deletes: Vec<(u32, u32, u32, usize)>,
) -> (CsrGraph, BatchUpdate) {
    let mut unique = BTreeMap::new();
    for &(u, v, w) in &edges {
        unique.entry(key(u, v)).or_insert(w);
    }
    let unique: Vec<(u32, u32, f32)> = unique.into_iter().map(|((u, v), w)| (u, v, w)).collect();
    let graph = GraphBuilder::from_edges(n as usize, &unique);
    let mut batch = BatchUpdate::new();
    for (u, v, w) in inserts {
        batch.insert(u, v, w);
    }
    for (u, v, selector, pick) in deletes {
        if selector == 0 && !edges.is_empty() {
            let (a, b, _) = edges[pick % edges.len()];
            batch.delete(b, a);
        } else {
            batch.delete(u, v);
        }
    }
    (graph, batch)
}

/// Small dense graphs with many edits per row.
fn arb_graph_and_batch() -> impl Strategy<Value = (CsrGraph, BatchUpdate)> {
    (3u32..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, arb_weight()), 0..80);
        let inserts = proptest::collection::vec((0..n + 4, 0..n + 4, arb_weight()), 0..20);
        (Just(n), edges, inserts, arb_deletes(n, 20))
            .prop_map(|(n, edges, inserts, deletes)| graph_and_batch(n, edges, inserts, deletes))
    })
}

/// Larger sparse graphs with a handful of edits, so most rows sit in
/// long untouched runs; insert endpoints favour the last old row and
/// ids past it, so a touched last row and trailing new vertices occur.
fn arb_sparse_graph_and_batch() -> impl Strategy<Value = (CsrGraph, BatchUpdate)> {
    (200u32..2000).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, arb_weight()), 0..3000);
        let inserts = proptest::collection::vec((endpoint(n), endpoint(n), arb_weight()), 0..6);
        (Just(n), edges, inserts, arb_deletes(n, 6))
            .prop_map(|(n, edges, inserts, deletes)| graph_and_batch(n, edges, inserts, deletes))
    })
}

/// An insert endpoint: the last old vertex, a new id past it, or (half
/// the time) any old vertex.
fn endpoint(n: u32) -> impl Strategy<Value = u32> {
    (0u32..4, 0..n).prop_map(move |(selector, x)| match selector {
        0 => n - 1,
        1 => n + x % 6,
        _ => x,
    })
}

/// Reference model: undirected weight map keyed by normalized pairs.
fn weight_map(graph: &CsrGraph) -> BTreeMap<(u32, u32), f32> {
    let mut map = BTreeMap::new();
    for (u, v, w) in graph.arcs() {
        if u <= v {
            map.insert((u, v), w);
        }
    }
    map
}

fn key(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

/// Checks `apply_batch` bit-exactly against the model: deletions drop
/// pairs from the old map, then insertions add their weights in batch
/// order.
fn check_against_model(graph: &CsrGraph, batch: &BatchUpdate) -> Result<(), TestCaseError> {
    let updated = apply_batch(graph, batch);
    updated.validate().unwrap();
    prop_assert!(updated.is_symmetric());

    let grown = batch.max_inserted_vertex().map_or(0, |v| v as usize + 1);
    prop_assert_eq!(
        updated.num_vertices(),
        graph.num_vertices().max(grown),
        "vertex count"
    );
    for u in 0..updated.num_vertices() as u32 {
        let row = updated.neighbors(u);
        prop_assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "row {} not strictly sorted: {:?}",
            u,
            row
        );
    }

    let mut expected = weight_map(graph);
    for &(u, v) in &batch.deletions {
        expected.remove(&key(u, v));
    }
    for &(u, v, w) in &batch.insertions {
        *expected.entry(key(u, v)).or_insert(0.0) += w;
    }
    // Every arc, in both directions, carries the model's exact bits.
    for (u, v, w) in updated.arcs() {
        let want = expected.get(&key(u, v)).copied();
        prop_assert!(want.is_some(), "unexpected arc {} -> {}", u, v);
        prop_assert_eq!(
            w.to_bits(),
            want.unwrap().to_bits(),
            "arc {} -> {}: {} vs {:?}",
            u,
            v,
            w,
            want
        );
    }
    // Self-loops are stored once, other edges as two arcs.
    let loops = expected.keys().filter(|&&(u, v)| u == v).count();
    prop_assert_eq!(updated.num_arcs(), 2 * expected.len() - loops);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// apply_batch ≡ editing the undirected weight map directly.
    #[test]
    fn apply_batch_matches_model((graph, batch) in arb_graph_and_batch()) {
        check_against_model(&graph, &batch)?;
    }

    /// The same model on larger graphs with a handful of edits.
    #[test]
    fn apply_batch_matches_model_on_sparse_batches(
        (graph, batch) in arb_sparse_graph_and_batch()
    ) {
        check_against_model(&graph, &batch)?;
    }

    /// Applying the inverse batch restores the original edge set (when
    /// insertions touch only new pairs).
    #[test]
    fn insert_only_batches_are_invertible((graph, batch) in arb_graph_and_batch()) {
        // Keep only insertions on pairs absent from the graph, without
        // duplicates inside the batch.
        let mut seen = std::collections::BTreeSet::new();
        let mut add = BatchUpdate::new();
        for &(u, v, w) in &batch.insertions {
            let exists = (u as usize) < graph.num_vertices()
                && (v as usize) < graph.num_vertices()
                && graph.has_arc(u, v);
            if !exists && seen.insert(key(u, v)) {
                add.insert(u, v, w);
            }
        }
        let mut remove = BatchUpdate::new();
        for &(u, v, _) in &add.insertions {
            remove.delete(u, v);
        }
        let there = apply_batch(&graph, &add);
        let back = apply_batch(&there, &remove);
        // Vertex count may have grown (new ids); compare edge maps.
        prop_assert_eq!(weight_map(&back), weight_map(&graph));
    }
}
