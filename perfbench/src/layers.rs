//! Layer measurements every workload takes in its traced run, on its
//! own graph: the `core` figures of the Leiden runs the workload makes,
//! direct calls into the kernel, aggregation and `prim` primitives, and
//! `graph` reads of the workload's input file.

use crate::common::{ms_since, Ctx, Report};
use crate::stats::{median, ratio};
use gve_graph::props::vertex_weights;
use gve_graph::{CsrGraph, VertexId};
use gve_leiden::{aggregate, kernel, Leiden, LeidenConfig, LeidenResult, Objective};
use gve_prim::atomics::atomic_f64_from_slice;
use gve_prim::{CommunityMap, HashScanMap, PerThread, SmallScanMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicU32;
use std::time::Instant;

/// Repetitions of each per-layer micro-measurement.
const LAYER_REPS: usize = 5;

/// Per-run figures taken from the program's own `LeidenResult`.
#[derive(Default)]
pub struct RunFigures {
    local_move_ms: Vec<f64>,
    refine_ms: Vec<f64>,
    aggregate_ms: Vec<f64>,
    other_ms: Vec<f64>,
    first_pass_share: Vec<f64>,
    passes: Vec<f64>,
    move_iterations: Vec<f64>,
    pruning_skipped: u64,
    pruning_seen: u64,
    steals: u64,
    chunks: u64,
}

impl RunFigures {
    /// Adds one run's figures.
    pub fn add(&mut self, result: &LeidenResult) {
        let t = &result.timings;
        self.local_move_ms.push(t.local_move.as_secs_f64() * 1e3);
        self.refine_ms.push(t.refinement.as_secs_f64() * 1e3);
        self.aggregate_ms.push(t.aggregation.as_secs_f64() * 1e3);
        self.other_ms.push(t.other.as_secs_f64() * 1e3);
        if let Some(first) = result.pass_stats.first() {
            self.first_pass_share
                .push(first.duration.as_secs_f64() / t.total().as_secs_f64());
        }
        self.passes.push(result.passes as f64);
        self.move_iterations.push(result.move_iterations as f64);
        for pass in &result.pass_stats {
            self.pruning_skipped += pass.pruning_skipped;
            self.pruning_seen += pass.pruning_processed + pass.pruning_skipped;
            self.steals += pass.sched_steals;
            self.chunks += pass.sched_chunks;
        }
    }

    /// Reports the `core.*` metrics over every run added.
    pub fn report(&self, report: &mut Report) {
        report.metric("core.local_move_ms", "ms", median(&self.local_move_ms));
        report.metric("core.refine_ms", "ms", median(&self.refine_ms));
        report.metric("core.aggregate_ms", "ms", median(&self.aggregate_ms));
        report.metric("core.other_ms", "ms", median(&self.other_ms));
        report.metric(
            "core.first_pass_share",
            "fraction",
            median(&self.first_pass_share),
        );
        report.metric("core.passes", "count", median(&self.passes));
        report.metric(
            "core.move_iterations",
            "count",
            median(&self.move_iterations),
        );
        report.metric(
            "core.pruning_skip_ratio",
            "fraction",
            ratio(self.pruning_skipped as f64, self.pruning_seen as f64),
        );
        report.metric(
            "core.steals_per_chunk",
            "ratio",
            ratio(self.steals as f64, self.chunks as f64),
        );
    }
}

/// `gve_graph::io::read_path` of the workload's input file.
pub fn read(ctx: &Ctx, report: &mut Report, path: &Path) {
    let mut samples = Vec::new();
    for _ in 0..LAYER_REPS {
        let _span = ctx.spans.root("graph.read_path");
        let start = Instant::now();
        match gve_graph::io::read_path(path) {
            Ok(graph) => {
                samples.push(ms_since(start));
                black_box(graph);
            }
            Err(e) => report.fail(format!("read_path: {e}")),
        }
    }
    report.metric("graph.read_ms", "ms", median(&samples));
}

/// Median of `LAYER_REPS` timings of `body`, in nanoseconds per `units`.
fn ns_per(units: f64, mut body: impl FnMut()) -> Result<f64, crate::stats::StatError> {
    let samples: Vec<f64> = (0..LAYER_REPS)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_secs_f64() * 1e9 / units
        })
        .collect();
    median(&samples)
}

/// Kernel, aggregation and primitive costs measured by calling each
/// layer's public functions directly on the workload's graph.
pub fn micro(ctx: &Ctx, report: &mut Report, leiden: &Leiden, graph: &CsrGraph) {
    let n = graph.num_vertices();
    let arcs = graph.num_arcs() as f64;
    let config = leiden.config().clone();

    // Best move of every vertex on frozen singleton state.
    let weights = vertex_weights(graph);
    let coeffs = Objective::default().coeffs(graph.total_arc_weight() / 2.0);
    let membership: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let sigma = atomic_f64_from_slice(&weights);
    let mut table = CommunityMap::new(n);
    let mut small = SmallScanMap::new();
    let mut hash = HashScanMap::new();
    let best_move = ns_per(arcs, || {
        let _span = ctx.spans.root("kernel.best_move");
        for i in 0..n as VertexId {
            black_box(kernel::best_move(
                &mut table,
                &mut small,
                &mut hash,
                graph,
                &membership,
                None,
                i,
                i,
                weights[i as usize],
                &sigma,
                coeffs,
                &config,
            ));
        }
    });
    report.metric("kernel.best_move_ns_per_arc", "ns/arc", best_move);

    // The first pass's aggregation, replayed on the input graph.
    let recorded = Leiden::new(LeidenConfig {
        record_dendrogram: true,
        ..config.clone()
    });
    let result = ctx.pool.install(|| recorded.run(graph));
    if result.dendrogram.is_empty() {
        report.fail("aggregate: the run recorded no dendrogram level".into());
    } else {
        let (dense, k) = gve_quality::renumber(&result.membership_at_level(1));
        let atomic: Vec<AtomicU32> = dense.iter().map(|&c| AtomicU32::new(c)).collect();
        let tables = PerThread::new(move || CommunityMap::new(n));
        let chunk = (config.chunk_size / 4).max(1);
        let threshold = Some(config.small_degree_threshold);
        let cost = ns_per(arcs, || {
            let _span = ctx.spans.root("aggregate.aggregate");
            black_box(ctx.pool.install(|| {
                aggregate::aggregate(graph, &atomic, &dense, k, chunk, &tables, threshold)
            }));
        });
        report.metric("aggregate.ns_per_arc", "ns/arc", cost);
    }

    // Parallel exclusive scan over an arcs-sized array.
    let mut values = vec![0u64; graph.num_arcs()];
    let scan = ns_per(arcs, || {
        values.iter_mut().for_each(|v| *v = 1);
        let _span = ctx.spans.root("prim.scan");
        black_box(
            ctx.pool
                .install(|| gve_prim::parallel_exclusive_scan(&mut values)),
        );
    });
    report.metric("prim.scan_ns_per_elem", "ns/elem", scan);

    // CommunityMap accumulate + clear over every row (singleton keys).
    let mut map = CommunityMap::new(n);
    let accumulate = ns_per(arcs, || {
        let _span = ctx.spans.root("prim.community_map");
        for u in 0..n as VertexId {
            for (v, w) in graph.edges(u) {
                map.add(v, f64::from(w));
            }
            black_box(map.len());
            map.clear();
        }
    });
    report.metric("prim.community_map_ns_per_arc", "ns/arc", accumulate);
}
