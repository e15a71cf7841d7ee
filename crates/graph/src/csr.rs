//! Immutable weighted CSR graph.
//!
//! Edges of an undirected graph are stored as directed *arcs* in both
//! directions, so a graph with `M` undirected edges holds `2M` arcs (the
//! paper's `|E|` counts arcs "after adding reverse edges", Table 2).

use crate::{EdgeWeight, VertexId};

/// Compressed-sparse-row weighted graph.
///
/// Invariants (checked by [`CsrGraph::validate`]):
/// * `offsets` is monotonically non-decreasing with
///   `offsets.len() == num_vertices + 1`;
/// * `targets.len() == weights.len() == offsets[num_vertices]`;
/// * every target is `< num_vertices`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Vec<EdgeWeight>,
}

impl CsrGraph {
    /// Builds a graph from raw CSR arrays.
    ///
    /// # Panics
    /// Panics when the arrays violate the CSR invariants.
    pub fn from_raw(offsets: Vec<u64>, targets: Vec<VertexId>, weights: Vec<EdgeWeight>) -> Self {
        Self::try_from_raw(offsets, targets, weights).expect("invalid CSR arrays")
    }

    /// Fallible variant of [`CsrGraph::from_raw`] for untrusted input
    /// (e.g. deserialization).
    pub fn try_from_raw(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
        weights: Vec<EdgeWeight>,
    ) -> Result<Self, String> {
        let graph = Self {
            offsets,
            targets,
            weights,
        };
        graph.validate().map(|()| graph)
    }

    /// Builds a graph from raw CSR arrays **without** the O(N + E)
    /// validation scan, for builders whose output satisfies the CSR
    /// invariants by construction (e.g. the holey-CSR squeeze, whose
    /// targets are dense community ids `< k` and whose offsets come from
    /// a prefix sum). Skipping the serial validate pass matters on the
    /// per-pass aggregation path.
    ///
    /// Violating the invariants here cannot cause undefined behaviour —
    /// accessors index through checked slices — but will panic or
    /// return nonsense later, so this is debug-asserted and reserved
    /// for trusted construction sites.
    pub fn from_raw_trusted(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
        weights: Vec<EdgeWeight>,
    ) -> Self {
        let graph = Self {
            offsets,
            targets,
            weights,
        };
        debug_assert!(graph.validate().is_ok(), "from_raw_trusted invariants");
        graph
    }

    /// Decomposes the graph into its raw `(offsets, targets, weights)`
    /// arrays. The workspace arena
    /// uses this to recycle a retired super-vertex graph's buffers into
    /// the next aggregation instead of allocating fresh ones.
    pub fn into_raw(self) -> (Vec<u64>, Vec<VertexId>, Vec<EdgeWeight>) {
        (self.offsets, self.targets, self.weights)
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Checks the CSR invariants, returning a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets must have at least one entry".into());
        }
        if self.offsets[0] != 0 {
            return Err("offsets[0] must be 0".into());
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be non-decreasing".into());
        }
        let arcs = *self.offsets.last().unwrap() as usize;
        if self.targets.len() != arcs {
            return Err(format!(
                "targets length {} != offsets total {arcs}",
                self.targets.len()
            ));
        }
        if self.weights.len() != arcs {
            return Err(format!(
                "weights length {} != offsets total {arcs}",
                self.weights.len()
            ));
        }
        let n = self.num_vertices() as u64;
        if let Some(&bad) = self.targets.iter().find(|&&t| t as u64 >= n) {
            return Err(format!("target {bad} out of range for {n} vertices"));
        }
        Ok(())
    }

    /// Number of vertices `N`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed arcs (`2M` for an undirected graph stored with
    /// reverse edges; this matches the `|E|` column of Table 2).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of vertex `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        let u = u as usize;
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Iterates over `(neighbor, weight)` pairs of vertex `u`.
    #[inline]
    pub fn edges(&self, u: VertexId) -> impl Iterator<Item = (VertexId, EdgeWeight)> + '_ {
        let u = u as usize;
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Neighbor slice of vertex `u` (without weights).
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        let u = u as usize;
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Weight slice of vertex `u`, parallel to [`CsrGraph::neighbors`].
    #[inline]
    pub fn edge_weights(&self, u: VertexId) -> &[EdgeWeight] {
        let u = u as usize;
        &self.weights[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// The raw offsets array (length `N + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw arc target array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The raw arc weight array.
    #[inline]
    pub fn weights(&self) -> &[EdgeWeight] {
        &self.weights
    }

    /// Weighted degree `K_u = Σ_{v ∈ J_u} w_uv` of vertex `u`,
    /// accumulated in `f64` per the paper's configuration.
    pub fn weighted_degree(&self, u: VertexId) -> f64 {
        self.edge_weights(u).iter().map(|&w| w as f64).sum()
    }

    /// Sum of all arc weights. For an undirected graph stored with
    /// reverse arcs this is `2m` where `m` is the paper's total edge
    /// weight (§3); self-loops stored once contribute their weight once.
    pub fn total_arc_weight(&self) -> f64 {
        use rayon::prelude::*;
        if self.weights.len() < 1 << 16 {
            self.weights.iter().map(|&w| w as f64).sum()
        } else {
            self.weights.par_iter().map(|&w| w as f64).sum()
        }
    }

    /// True when vertex `u` has an arc to `v`.
    pub fn has_arc(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).contains(&v)
    }

    /// Iterates over every directed arc as `(source, target, weight)`.
    pub fn arcs(&self) -> impl Iterator<Item = (VertexId, VertexId, EdgeWeight)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |u| self.edges(u).map(move |(v, w)| (u, v, w)))
    }

    /// Checks structural symmetry: every arc `(u, v, w)` has a matching
    /// reverse arc `(v, u, w)`. O(arcs · log) — intended for tests.
    pub fn is_symmetric(&self) -> bool {
        let mut fwd: Vec<(VertexId, VertexId, u32)> =
            self.arcs().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        let mut rev: Vec<(VertexId, VertexId, u32)> =
            self.arcs().map(|(u, v, w)| (v, u, w.to_bits())).collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        fwd == rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle 0-1-2 with unit weights plus a pendant vertex 3 on 2.
    fn sample() -> CsrGraph {
        // arcs: 0:{1,2} 1:{0,2} 2:{0,1,3} 3:{2}
        CsrGraph::from_raw(
            vec![0, 2, 4, 7, 8],
            vec![1, 2, 0, 2, 0, 1, 3, 2],
            vec![1.0; 8],
        )
    }

    #[test]
    fn basic_accessors() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_arcs(), 8);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.edges(3).collect::<Vec<_>>(), vec![(2, 1.0)]);
        assert_eq!(g.weighted_degree(2), 3.0);
        assert_eq!(g.total_arc_weight(), 8.0);
        assert!(g.has_arc(0, 1));
        assert!(!g.has_arc(0, 3));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.degree(4), 0);
        assert!(g.is_symmetric());
        let g0 = CsrGraph::empty(0);
        assert_eq!(g0.num_vertices(), 0);
    }

    #[test]
    fn symmetry_check() {
        let g = sample();
        assert!(g.is_symmetric());
        let asym = CsrGraph::from_raw(vec![0, 1, 1], vec![1], vec![1.0]);
        assert!(!asym.is_symmetric());
    }

    #[test]
    fn arcs_iterator_enumerates_all() {
        let g = sample();
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs.len(), 8);
        assert_eq!(arcs[0], (0, 1, 1.0));
        assert_eq!(arcs[7], (3, 2, 1.0));
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn rejects_bad_offsets() {
        CsrGraph::from_raw(vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn rejects_out_of_range_target() {
        CsrGraph::from_raw(vec![0, 1], vec![3], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid CSR")]
    fn rejects_mismatched_weights() {
        CsrGraph::from_raw(vec![0, 1], vec![0], vec![]);
    }

    #[test]
    fn validate_reports_first_offset() {
        let g = CsrGraph {
            offsets: vec![1, 2],
            targets: vec![0],
            weights: vec![1.0],
        };
        assert!(g.validate().unwrap_err().contains("offsets[0]"));
    }

    #[test]
    fn raw_roundtrip_and_trusted_rebuild() {
        let g = sample();
        let (offsets, targets, weights) = g.into_raw();
        let rebuilt = CsrGraph::from_raw_trusted(offsets, targets, weights);
        assert_eq!(rebuilt, sample());
    }
}
