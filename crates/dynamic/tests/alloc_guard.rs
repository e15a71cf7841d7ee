//! Allocation guard for `apply_batch`: the row-patching pass allocates
//! a fixed set of buffers per call, independent of graph size.
//!
//! This binary installs [`CountingAllocator`] process-wide, so the
//! counts below are measured, not inferred. The same 80-edit batch
//! costs exactly 5 allocations on a 1k-vertex and on a 50k-vertex
//! graph: the directed insertion and deletion lists and the output
//! `offsets`, `targets` and `weights` (the stable sort's scratch for
//! 128 directed insertions stays on the stack).
//! A per-row `Vec`, a hash map, or a buffer that grows instead of being
//! preallocated would make the count scale with the graph.

use gve_dynamic::{apply_batch, BatchUpdate};
use gve_generate::PlantedPartition;
use gve_prim::alloc_count::{self, CountingAllocator};
use gve_prim::Xorshift32;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The measured per-call constant (see the module docs).
const ALLOCS_PER_CALL: u64 = 5;

/// 64 insertions and 16 deletions over vertices `0..1000`, so the batch
/// is valid for both graphs; every fourth deletion names an edge of the
/// small graph.
fn batch(small: &gve_graph::CsrGraph) -> BatchUpdate {
    let mut rng = Xorshift32::new(11);
    let mut batch = BatchUpdate::new();
    for i in 0..64 {
        let u = rng.next_bounded(1000);
        let v = rng.next_bounded(1000);
        batch.insert(u, v, 0.5 + i as f32 * 0.25);
    }
    for i in 0..16 {
        let u = rng.next_bounded(1000);
        let row = small.neighbors(u);
        if i % 4 == 0 && !row.is_empty() {
            batch.delete(u, row[0]);
        } else {
            batch.delete(u, rng.next_bounded(1000));
        }
    }
    batch
}

fn allocs_of_apply(graph: &gve_graph::CsrGraph, batch: &BatchUpdate) -> u64 {
    let before = alloc_count::snapshot();
    let updated = apply_batch(graph, batch);
    let allocs = alloc_count::snapshot().allocs_since(&before);
    assert!(updated.num_arcs() > 0);
    drop(updated);
    allocs
}

#[test]
fn apply_batch_allocations_do_not_scale_with_the_graph() {
    let small = PlantedPartition::new(1_000, 10, 10.0, 0.8)
        .seed(3)
        .generate()
        .graph;
    let large = PlantedPartition::new(50_000, 10, 10.0, 0.8)
        .seed(3)
        .generate()
        .graph;
    let batch = batch(&small);

    let on_small = allocs_of_apply(&small, &batch);
    let on_large = allocs_of_apply(&large, &batch);
    assert_eq!(
        on_small, on_large,
        "apply_batch allocations grew with the graph: {on_small} at 1k vertices, \
         {on_large} at 50k"
    );
    assert_eq!(
        on_small, ALLOCS_PER_CALL,
        "apply_batch performed {on_small} allocations; expected the fixed {ALLOCS_PER_CALL}"
    );
}
