//! Batch edge updates applied to an immutable CSR graph.
//!
//! A [`BatchUpdate`] collects undirected insertions and deletions;
//! [`apply_batch`] produces the updated graph in one serial row-patching
//! pass over preallocated CSR arrays: the batch is expanded into sorted
//! directed edits, runs of untouched rows are copied with one slice copy
//! each, and only the touched rows are merged (old neighbours −
//! deletions + insertions).

use gve_graph::{CsrGraph, EdgeWeight, VertexId};
use std::collections::HashSet;

/// A batch of undirected edge updates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchUpdate {
    /// Edges to insert (undirected; also used to update weights of
    /// existing edges — the weights add).
    pub insertions: Vec<(VertexId, VertexId, EdgeWeight)>,
    /// Edges to delete (undirected; deleting a missing edge is a no-op).
    pub deletions: Vec<(VertexId, VertexId)>,
}

impl BatchUpdate {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an undirected insertion.
    pub fn insert(&mut self, u: VertexId, v: VertexId, w: EdgeWeight) -> &mut Self {
        self.insertions.push((u, v, w));
        self
    }

    /// Queues an undirected deletion.
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.deletions.push((u, v));
        self
    }

    /// True when the batch holds no updates.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }

    /// Total number of queued updates.
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }

    /// Highest vertex id referenced by the batch, if any.
    pub fn max_vertex(&self) -> Option<VertexId> {
        self.insertions
            .iter()
            .map(|&(u, v, _)| u.max(v))
            .chain(self.deletions.iter().map(|&(u, v)| u.max(v)))
            .max()
    }

    /// Highest vertex id referenced by an **insertion**, if any. This —
    /// not [`max_vertex`](Self::max_vertex) — is what decides how far
    /// the vertex set grows under [`apply_batch`]: deleting an edge of
    /// a vertex the graph has never seen is a no-op, so deletions must
    /// never allocate vertices.
    pub fn max_inserted_vertex(&self) -> Option<VertexId> {
        self.insertions.iter().map(|&(u, v, _)| u.max(v)).max()
    }

    /// Folds `later` into `self`, producing one batch equivalent to
    /// applying `self` then `later` (the ingest-queue coalescing rule):
    ///
    /// * insertions concatenate — repeated weights add at apply time;
    /// * a deletion in `later` cancels every **queued** insertion of the
    ///   same undirected pair in `self` and is then queued itself, so it
    ///   still removes any pre-existing edge;
    /// * insertions in `later` survive deletions queued before them,
    ///   because [`apply_batch`] removes deleted pairs from the old
    ///   graph *before* adding insertions.
    pub fn merge(&mut self, later: &BatchUpdate) {
        if !later.deletions.is_empty() && !self.insertions.is_empty() {
            let cancelled: HashSet<(VertexId, VertexId)> = later
                .deletions
                .iter()
                .map(|&(u, v)| (u.min(v), u.max(v)))
                .collect();
            self.insertions
                .retain(|&(u, v, _)| !cancelled.contains(&(u.min(v), u.max(v))));
        }
        self.deletions.extend_from_slice(&later.deletions);
        self.insertions.extend_from_slice(&later.insertions);
    }
}

/// Applies a batch to a graph, returning the updated graph. The vertex
/// set grows to cover any new ids referenced by **insertions** (deleting
/// an edge of an unknown vertex is a no-op, like deleting a missing
/// edge); weights of repeated insertions (and of insertions over
/// existing edges) add up.
///
/// Expects the input rows sorted by target, as every builder and reader
/// in the workspace produces them; the output keeps them sorted.
pub fn apply_batch(graph: &CsrGraph, batch: &BatchUpdate) -> CsrGraph {
    if batch.is_empty() {
        return graph.clone();
    }
    let old_n = graph.num_vertices();
    let n = old_n.max(batch.max_inserted_vertex().map_or(0, |v| v as usize + 1));

    // Directed edits sorted by (source, target). The insertions' sort is
    // *stable*: repeated insertions of one pair keep batch order, so
    // their weights accumulate left-to-right exactly as they would
    // applying the batch one edge at a time. Deletions naming a vertex
    // the old graph lacks are no-ops and are dropped here.
    let mut ins: Vec<(VertexId, VertexId, EdgeWeight)> =
        Vec::with_capacity(2 * batch.insertions.len());
    for &(u, v, w) in &batch.insertions {
        ins.push((u, v, w));
        if u != v {
            ins.push((v, u, w));
        }
    }
    ins.sort_by_key(|&(u, v, _)| (u, v));
    let known = |x: VertexId| (x as usize) < old_n;
    let mut dels: Vec<(VertexId, VertexId)> = Vec::with_capacity(2 * batch.deletions.len());
    for &(u, v) in &batch.deletions {
        if known(u) && known(v) {
            dels.push((u, v));
            if u != v {
                dels.push((v, u));
            }
        }
    }
    dels.sort_unstable();

    let mut out = RowPatch {
        old: graph,
        offsets: Vec::with_capacity(n + 1),
        targets: Vec::with_capacity(graph.num_arcs() + ins.len()),
        weights: Vec::with_capacity(graph.num_arcs() + ins.len()),
    };
    out.offsets.push(0);
    let (mut ii, mut di, mut next) = (0usize, 0usize, 0usize);
    loop {
        let u = match (ins.get(ii), dels.get(di)) {
            (Some(i), Some(d)) => i.0.min(d.0),
            (Some(i), None) => i.0,
            (None, Some(d)) => d.0,
            (None, None) => break,
        };
        let ie = ii + ins[ii..].iter().take_while(|e| e.0 == u).count();
        let de = di + dels[di..].iter().take_while(|e| e.0 == u).count();
        out.copy_rows(next, u as usize);
        out.merge_row(u, &ins[ii..ie], &dels[di..de]);
        (ii, di, next) = (ie, de, u as usize + 1);
    }
    out.copy_rows(next, n);
    CsrGraph::from_raw_trusted(out.offsets, out.targets, out.weights)
}

/// The output arrays of [`apply_batch`], filled front to back.
struct RowPatch<'g> {
    old: &'g CsrGraph,
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Vec<EdgeWeight>,
}

impl RowPatch<'_> {
    /// Copies the untouched rows `lo..hi` verbatim: one slice copy for
    /// the old rows, shifted offsets, and empty rows past the old `N`.
    fn copy_rows(&mut self, lo: usize, hi: usize) {
        let old_n = self.old.num_vertices();
        if lo < old_n {
            let old_offsets = self.old.offsets();
            let end = hi.min(old_n);
            let (a, b) = (old_offsets[lo] as usize, old_offsets[end] as usize);
            let base = self.targets.len() as u64;
            self.targets.extend_from_slice(&self.old.targets()[a..b]);
            self.weights.extend_from_slice(&self.old.weights()[a..b]);
            self.offsets.extend(
                old_offsets[lo + 1..=end]
                    .iter()
                    .map(|&o| o - a as u64 + base),
            );
        }
        let empty = hi.saturating_sub(lo.max(old_n));
        let len = self.offsets.len();
        self.offsets.resize(len + empty, self.targets.len() as u64);
    }

    /// Appends row `u`: its old arcs minus `dels`, plus `ins` (both
    /// sorted by target) in one linear merge.
    fn merge_row(
        &mut self,
        u: VertexId,
        ins: &[(VertexId, VertexId, EdgeWeight)],
        dels: &[(VertexId, VertexId)],
    ) {
        let start = self.targets.len();
        let (targets, weights) = (&mut self.targets, &mut self.weights);
        // Append an insertion, folding its weight into the previous
        // entry of this row when it targets the same vertex (sorted
        // input makes duplicates adjacent).
        let push_ins = |targets: &mut Vec<VertexId>, weights: &mut Vec<EdgeWeight>, v, w| {
            if targets.len() > start && targets.last() == Some(&v) {
                *weights
                    .last_mut()
                    .expect("targets and weights grow together") += w;
            } else {
                targets.push(v);
                weights.push(w);
            }
        };
        let (mut di, mut ii) = (0usize, 0usize);
        if (u as usize) < self.old.num_vertices() {
            for (v, w) in self.old.edges(u) {
                // Deleted pair? (dels may hold duplicates; advance past
                // everything smaller first.)
                while di < dels.len() && dels[di].1 < v {
                    di += 1;
                }
                if di < dels.len() && dels[di].1 == v {
                    continue;
                }
                // Insertions targeting ids before v land first…
                while ii < ins.len() && ins[ii].1 < v {
                    push_ins(targets, weights, ins[ii].1, ins[ii].2);
                    ii += 1;
                }
                // …then the old arc, and insertions over it add weight.
                targets.push(v);
                weights.push(w);
                while ii < ins.len() && ins[ii].1 == v {
                    push_ins(targets, weights, v, ins[ii].2);
                    ii += 1;
                }
            }
        }
        for &(_, v, w) in &ins[ii..] {
            push_ins(targets, weights, v, w);
        }
        self.offsets.push(self.targets.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gve_graph::GraphBuilder;

    fn path_graph() -> CsrGraph {
        GraphBuilder::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    }

    #[test]
    fn insertion_adds_both_arcs() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.insert(0, 3, 2.0);
        let updated = apply_batch(&g, &batch);
        assert_eq!(updated.num_arcs(), g.num_arcs() + 2);
        assert!(updated.has_arc(0, 3));
        assert!(updated.has_arc(3, 0));
        assert!(updated.is_symmetric());
    }

    #[test]
    fn deletion_removes_both_arcs() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.delete(1, 2);
        let updated = apply_batch(&g, &batch);
        assert_eq!(updated.num_arcs(), g.num_arcs() - 2);
        assert!(!updated.has_arc(1, 2));
        assert!(!updated.has_arc(2, 1));
    }

    #[test]
    fn deleting_missing_edge_is_noop() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.delete(0, 3);
        assert_eq!(apply_batch(&g, &batch), g);
    }

    #[test]
    fn inserting_existing_edge_adds_weight() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.insert(0, 1, 0.5);
        let updated = apply_batch(&g, &batch);
        assert_eq!(updated.num_arcs(), g.num_arcs());
        assert_eq!(updated.edges(0).collect::<Vec<_>>(), vec![(1, 1.5)]);
        assert_eq!(updated.edges(1).next(), Some((0, 1.5)));
    }

    #[test]
    fn new_vertices_are_appended() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.insert(3, 6, 1.0);
        let updated = apply_batch(&g, &batch);
        assert_eq!(updated.num_vertices(), 7);
        assert!(updated.has_arc(6, 3));
        assert_eq!(updated.degree(5), 0);
    }

    #[test]
    fn self_loop_insertion() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.insert(2, 2, 4.0);
        let updated = apply_batch(&g, &batch);
        // Self-loop stored once.
        assert_eq!(updated.degree(2), 3);
        assert!(updated.has_arc(2, 2));
        assert_eq!(updated.weighted_degree(2), 2.0 + 4.0);
    }

    #[test]
    fn empty_batch_returns_clone() {
        let g = path_graph();
        assert_eq!(apply_batch(&g, &BatchUpdate::new()), g);
    }

    #[test]
    fn mixed_batch_and_accessors() {
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.insert(0, 2, 1.0).delete(0, 1).insert(1, 3, 1.0);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(batch.max_vertex(), Some(3));
        let updated = apply_batch(&g, &batch);
        assert!(updated.has_arc(0, 2));
        assert!(updated.has_arc(1, 3));
        assert!(!updated.has_arc(0, 1));
        assert!(updated.is_symmetric());
    }

    #[test]
    fn deletions_do_not_grow_the_vertex_set() {
        // Regression: `delete(0, 100)` on a 4-vertex graph used to yield
        // a 101-vertex graph because `apply_batch` sized N from
        // `max_vertex()`, which chains deletions. Deleting an edge of an
        // unknown vertex must be a plain no-op.
        let g = path_graph();
        let mut batch = BatchUpdate::new();
        batch.delete(0, 100);
        let updated = apply_batch(&g, &batch);
        assert_eq!(updated.num_vertices(), 4);
        assert_eq!(updated, g);

        // Mixed batch: only insertions decide how far N grows.
        let mut mixed = BatchUpdate::new();
        mixed.insert(3, 5, 1.0).delete(2, 50);
        assert_eq!(mixed.max_vertex(), Some(50));
        assert_eq!(mixed.max_inserted_vertex(), Some(5));
        assert_eq!(apply_batch(&g, &mixed).num_vertices(), 6);
    }

    #[test]
    fn merge_matches_sequential_application() {
        let g = path_graph();
        let mut first = BatchUpdate::new();
        first.insert(0, 3, 1.0).delete(1, 2).insert(2, 5, 2.0);
        let mut second = BatchUpdate::new();
        second.insert(1, 2, 0.5).delete(0, 3).insert(0, 3, 4.0);

        let sequential = apply_batch(&apply_batch(&g, &first), &second);
        let mut merged = first.clone();
        merged.merge(&second);
        assert_eq!(apply_batch(&g, &merged), sequential);
    }

    #[test]
    fn merge_deletion_cancels_queued_insertion() {
        let g = path_graph();
        // Queue an insertion, then delete the same (undirected) pair in a
        // later batch: the pair must not exist afterwards, matching the
        // sequential insert-then-delete outcome.
        let mut first = BatchUpdate::new();
        first.insert(3, 0, 2.0);
        let mut second = BatchUpdate::new();
        second.delete(0, 3);
        let mut merged = first.clone();
        merged.merge(&second);
        assert!(merged.insertions.is_empty());
        assert_eq!(apply_batch(&g, &merged), g);

        // And the reverse order: a deletion queued before an insertion
        // leaves the inserted edge in place with the *batch* weight (the
        // deletion removed the pre-existing edge first).
        let mut del_first = BatchUpdate::new();
        del_first.delete(0, 1);
        let mut ins_second = BatchUpdate::new();
        ins_second.insert(0, 1, 7.0);
        let sequential = apply_batch(&apply_batch(&g, &del_first), &ins_second);
        let mut merged = del_first.clone();
        merged.merge(&ins_second);
        let via_merge = apply_batch(&g, &merged);
        assert_eq!(via_merge, sequential);
        assert_eq!(via_merge.edges(0).collect::<Vec<_>>(), vec![(1, 7.0)]);
    }

    #[test]
    fn insert_then_delete_round_trips() {
        let g = path_graph();
        let mut add = BatchUpdate::new();
        add.insert(0, 3, 1.0);
        let mut remove = BatchUpdate::new();
        remove.delete(0, 3);
        assert_eq!(apply_batch(&apply_batch(&g, &add), &remove), g);
    }
}
