//! Pass-resident workspace arena.
//!
//! The paper's headline engineering discipline is *preallocation*:
//! every per-pass buffer is sized once at the input graph's `(N, E)`
//! and reused across all ≤ 10 passes — pass `k` views a shrinking
//! prefix of the same memory, and atomic buffers are reinitialized in
//! place with parallel fills instead of serial `collect`s. The
//! [`PassWorkspace`] owns those buffers; [`crate::Leiden::run_in`]
//! threads one through the pass loop, and a resident service keeps a
//! pool of them so steady-state detect requests perform **zero**
//! allocation in the Leiden hot path.
//!
//! Buffer lifetimes (see DESIGN.md §10 for the full memory plan):
//!
//! * `membership`/`sigma` — the async phases' atomic state; after
//!   refinement their prefix is re-staged with the dense community ids
//!   for aggregation (replacing the old serial `dense_atomic` rebuild);
//! * `penalty`, `bounds`, `refined`, `dense` — per-pass plain views;
//! * `first_seen`/`rank` — scratch for the parallel first-seen
//!   renumber ([`crate::dendrogram::renumber_into`]); `first_seen`
//!   doubles as the scatter target of the move-based `label_of` map;
//! * `labels`/`init_labels` — super-vertex labels carried into the
//!   next pass;
//! * `sizes`/`sizes_next` — the CPM vertex-size double buffer (swapped
//!   per pass instead of cloned);
//! * `unprocessed` — one capacity-`N` pruning bitset, prefix-reset per
//!   pass with [`AtomicBitset::set_first`];
//! * `plain_membership`/`plain_sigma`/`sync_decisions` — the
//!   color-synchronous path's plain state;
//! * `aggregate` — the fused grouped + holey CSR scratch, including
//!   the double-buffered super-vertex CSR recycle stack.

use gve_graph::{AggregateScratch, VertexId};
use gve_prim::atomics::AtomicF64;
use gve_prim::{AtomicBitset, CommunityMap, PerThread};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-pass decision record of the color-synchronous path.
pub(crate) type Decision = Option<(VertexId, f64)>;

/// Reusable arena for every per-pass buffer of the Leiden pass loop.
///
/// Grow-only: [`PassWorkspace::ensure`] sizes it for a graph, and later
/// runs on graphs no larger perform no allocation. A workspace is plain
/// owned memory — `Send`, independent of any graph, and safely reusable
/// across configurations (every run reinitializes the prefixes it
/// reads). Reuse is bit-identical to a fresh workspace by construction:
/// [`crate::Leiden::run`] itself just calls
/// [`crate::Leiden::run_in`] with a temporary one.
#[derive(Debug)]
pub struct PassWorkspace {
    /// Vertex capacity every vertex-indexed buffer is sized for.
    pub(crate) cap_vertices: usize,
    /// Async-path community assignment (atomic; also re-staged with
    /// dense ids for aggregation).
    pub(crate) membership: Vec<AtomicU32>,
    /// Async-path community penalty totals Σ' (atomic; also the CPM
    /// size-fold accumulator).
    pub(crate) sigma: Vec<AtomicF64>,
    /// Per-vertex penalty weights (weighted degrees, or CPM sizes).
    pub(crate) penalty: Vec<f64>,
    /// Local-moving result: refinement bounds.
    pub(crate) bounds: Vec<VertexId>,
    /// Refinement result snapshot.
    pub(crate) refined: Vec<VertexId>,
    /// Dense renumbering of `refined`.
    pub(crate) dense: Vec<VertexId>,
    /// Staging for the move-based `label_of` values (length `k`).
    pub(crate) labels: Vec<VertexId>,
    /// Initial labels of the next pass (move-based labeling or seeds).
    pub(crate) init_labels: Vec<VertexId>,
    /// First-occurrence scratch of the parallel renumber; doubles as
    /// the `label_of` scatter target between renumber calls.
    pub(crate) first_seen: Vec<AtomicU32>,
    /// Prefix-sum scratch of the parallel renumber.
    pub(crate) rank: Vec<u64>,
    /// CPM vertex sizes (current pass).
    pub(crate) sizes: Vec<f64>,
    /// CPM vertex sizes (next pass) — the double buffer.
    pub(crate) sizes_next: Vec<f64>,
    /// Color-synchronous plain membership.
    pub(crate) plain_membership: Vec<VertexId>,
    /// Color-synchronous plain Σ'.
    pub(crate) plain_sigma: Vec<f64>,
    /// Color-synchronous per-class decision buffer.
    pub(crate) sync_decisions: Vec<Decision>,
    /// Pruning flags, prefix-reset per pass.
    pub(crate) unprocessed: AtomicBitset,
    /// Fused grouped/holey aggregation scratch + CSR recycle stack.
    pub(crate) aggregate: AggregateScratch,
    /// One collision-free scan hashtable per worker — the `O(T·N)`
    /// memory term — lazily materialized and reused across phases,
    /// passes, *and* runs.
    pub(crate) tables: PerThread<CommunityMap>,
    /// Capacity newly materialized tables must cover (grow-only; shared
    /// with the `tables` factory closure).
    table_capacity: Arc<AtomicUsize>,
}

impl Default for PassWorkspace {
    fn default() -> Self {
        let table_capacity = Arc::new(AtomicUsize::new(0));
        let capacity = Arc::clone(&table_capacity);
        Self {
            cap_vertices: 0,
            membership: Vec::new(),
            sigma: Vec::new(),
            penalty: Vec::new(),
            bounds: Vec::new(),
            refined: Vec::new(),
            dense: Vec::new(),
            labels: Vec::new(),
            init_labels: Vec::new(),
            first_seen: Vec::new(),
            rank: Vec::new(),
            sizes: Vec::new(),
            sizes_next: Vec::new(),
            plain_membership: Vec::new(),
            plain_sigma: Vec::new(),
            sync_decisions: Vec::new(),
            unprocessed: AtomicBitset::new(0),
            aggregate: AggregateScratch::new(),
            tables: PerThread::new(move || {
                // Relaxed: `ensure` stores the capacity under `&mut self`
                // before any parallel region can materialize a table, and
                // the spawn of those workers publishes the store.
                CommunityMap::new(capacity.load(Ordering::Relaxed))
            }),
            table_capacity,
        }
    }
}

impl PassWorkspace {
    /// An empty workspace; buffers grow on first run and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for graphs up to `vertices`/`arcs`, so the
    /// first run already performs no pass-loop allocation.
    pub fn with_capacity(vertices: usize, arcs: usize) -> Self {
        let mut ws = Self::new();
        ws.ensure(vertices, arcs);
        ws
    }

    /// Vertex capacity the workspace is currently sized for.
    pub fn capacity(&self) -> usize {
        self.cap_vertices
    }

    /// Grows (never shrinks) every buffer to cover a graph with
    /// `vertices` and `arcs`. No-op when already large enough.
    pub fn ensure(&mut self, vertices: usize, arcs: usize) {
        if self.cap_vertices < vertices {
            let n = vertices;
            self.membership.resize_with(n, || AtomicU32::new(0));
            self.sigma.resize_with(n, || AtomicF64::new(0.0));
            self.penalty.resize(n, 0.0);
            self.bounds.resize(n, 0);
            self.refined.resize(n, 0);
            self.dense.resize(n, 0);
            self.labels.resize(n, 0);
            self.init_labels.resize(n, 0);
            self.first_seen.resize_with(n, || AtomicU32::new(0));
            self.rank.resize(n, 0);
            self.plain_membership.resize(n, 0);
            self.plain_sigma.resize(n, 0.0);
            self.unprocessed = AtomicBitset::new(n);
            // Relaxed: stored under `&mut self`; worker threads that read
            // it are spawned afterwards (spawn publishes the store).
            self.table_capacity.store(n, Ordering::Relaxed);
            self.tables.for_each_mut(|table| table.ensure_capacity(n));
            self.cap_vertices = n;
        }
        self.aggregate.reserve(vertices, arcs);
    }

    /// Grows the CPM size double buffer (only the CPM objective carries
    /// vertex sizes across aggregations).
    pub(crate) fn ensure_sizes(&mut self, vertices: usize) {
        if self.sizes.len() < vertices {
            self.sizes.resize(vertices, 0.0);
            self.sizes_next.resize(vertices, 0.0);
        }
    }
}

/// Sentinel written into poisoned `membership` suffix slots (a vertex
/// id this large cannot occur: ids are `< N < 2^32 - 16`).
#[cfg(feature = "analysis")]
pub const POISON_LABEL: u32 = u32::MAX - 7;

/// Sentinel NaN bit pattern written into poisoned `sigma` suffix slots.
/// Compared by bits: no legitimate phase produces this exact payload.
#[cfg(feature = "analysis")]
pub const POISON_SIGMA_BITS: u64 = 0x7FF8_DEAD_BEEF_0105;

/// Poisons the workspace suffixes beyond the live prefix. Called after
/// each pass shrink (and once at run start for the initial capacity
/// overhang), so [`assert_suffix_poisoned`] can prove that no phase
/// ever writes past its pass's prefix — i.e. that the shrinking prefix
/// views never alias stale suffix state.
#[cfg(feature = "analysis")]
pub fn poison_suffix(membership: &[AtomicU32], sigma: &[AtomicF64]) {
    use rayon::prelude::*;
    use std::sync::atomic::Ordering;
    // Relaxed: bulk sentinel stores between phases, published by the
    // surrounding joins (same contract as the in-place reinits).
    membership
        .par_iter()
        .for_each(|c| c.store(POISON_LABEL, Ordering::Relaxed));
    sigma
        .par_iter()
        .for_each(|s| s.store(f64::from_bits(POISON_SIGMA_BITS)));
}

/// Asserts that a previously poisoned suffix is still intact — no
/// local-moving, refinement, or staging write escaped the pass's prefix
/// view. Runs under `--features analysis` only.
///
/// # Panics
/// Panics naming the first clobbered slot.
#[cfg(feature = "analysis")]
pub fn assert_suffix_poisoned(
    membership: &[AtomicU32],
    sigma: &[AtomicF64],
    pass: usize,
    prefix: usize,
) {
    use std::sync::atomic::Ordering;
    for (i, c) in membership.iter().enumerate() {
        // Relaxed: post-join read-back of sentinel values.
        let got = c.load(Ordering::Relaxed);
        assert!(
            got == POISON_LABEL,
            "pass {pass}: membership[{}] escaped the prefix view (found {got})",
            prefix + i
        );
    }
    for (i, s) in sigma.iter().enumerate() {
        let got = s.load().to_bits();
        assert!(
            got == POISON_SIGMA_BITS,
            "pass {pass}: sigma[{}] escaped the prefix view (found bits {got:#x})",
            prefix + i
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_is_grow_only() {
        let mut ws = PassWorkspace::new();
        ws.ensure(100, 400);
        assert_eq!(ws.capacity(), 100);
        assert_eq!(ws.membership.len(), 100);
        assert_eq!(ws.unprocessed.len(), 100);
        let membership_ptr = ws.membership.as_ptr();
        // Shrinking request: nothing moves.
        ws.ensure(10, 20);
        assert_eq!(ws.capacity(), 100);
        assert_eq!(ws.membership.as_ptr(), membership_ptr);
        // Growing request: capacity follows.
        ws.ensure(200, 800);
        assert_eq!(ws.capacity(), 200);
        assert_eq!(ws.sigma.len(), 200);
    }

    #[test]
    fn with_capacity_presizes() {
        let ws = PassWorkspace::with_capacity(64, 256);
        assert_eq!(ws.capacity(), 64);
        assert_eq!(ws.rank.len(), 64);
    }

    #[test]
    fn sizes_buffer_is_lazy() {
        let mut ws = PassWorkspace::new();
        ws.ensure(50, 100);
        assert!(ws.sizes.is_empty());
        ws.ensure_sizes(50);
        assert_eq!(ws.sizes.len(), 50);
        assert_eq!(ws.sizes_next.len(), 50);
    }

    #[cfg(feature = "analysis")]
    #[test]
    fn poison_roundtrip_detects_clobber() {
        use std::sync::atomic::Ordering;
        let ws = PassWorkspace::with_capacity(8, 8);
        poison_suffix(&ws.membership[4..], &ws.sigma[4..]);
        assert_suffix_poisoned(&ws.membership[4..], &ws.sigma[4..], 0, 4);
        ws.membership[5].store(3, Ordering::Relaxed);
        let caught = std::panic::catch_unwind(|| {
            assert_suffix_poisoned(&ws.membership[4..], &ws.sigma[4..], 0, 4);
        });
        assert!(caught.is_err(), "clobbered suffix must be detected");
    }
}
