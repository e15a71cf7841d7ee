//! `static-lfr`: the library path. Read an LFR graph from `.mtx`, then
//! run `Leiden::run_in` on a warm `PassWorkspace` until the budget is
//! spent, checking every partition.
//!
//! End-to-end metrics here: an operation is one warm run, so
//! `op_ms_p50`/`op_ms_p90` are its median and tail and
//! `throughput_per_s` is arcs ÷ `op_ms_p50` (the paper's processing
//! rate). `setup_s` is a read plus a cold first run on a fresh
//! workspace, `reload_ms_p50` the read alone, and `peak_bytes_per_arc`
//! the peak live heap of a warm run above the resident graph.

use crate::common::{check_partition, csr_bytes, ms_since, write_input, Ctx, Report};
use crate::layers::{self, RunFigures};
use crate::stats::{median, tail_percentile};
use gve_graph::{CsrGraph, VertexId};
use gve_leiden::{Leiden, LeidenConfig, PassWorkspace};
use gve_prim::alloc_count;
use std::time::{Duration, Instant};

const VERTICES: usize = 150_000;
const AVG_DEGREE: f64 = 16.0;
const MIXING: f64 = 0.3;
/// Community sizes. The generator's default range reaches n/4, so a
/// few giant communities drawn by the seed move Q by ±5% between seeds;
/// capping sizes at 1000 keeps Q within ±1.5% and the pass count at 5.
const COMMUNITY_SIZES: (usize, usize) = (24, 1000);
/// Cold set-ups per run; `setup_s` and `reload_ms_p50` are their
/// medians (with five, `reload_ms_p50` moved by 10% between seeds).
const SETUPS: usize = 9;
/// Modularity floor for every partition: reference runs on this commit
/// read Q = 0.661–0.677 over seeds 1–6.
const MODULARITY_FLOOR: f64 = 0.62;
/// Untraced runs keep going past the budget until `op_ms_p90` has ten
/// samples beyond it, but never longer than `MAX_LOOP`.
const MIN_RUNS: usize = 100;
const MAX_LOOP: Duration = Duration::from_secs(120);

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mtx = ctx.work.join("lfr.mtx");
    {
        let lfr = gve_generate::Lfr::new(VERTICES, AVG_DEGREE, MIXING)
            .community_sizes(COMMUNITY_SIZES.0, COMMUNITY_SIZES.1)
            .seed(ctx.seed)
            .generate();
        write_input(&mtx, &lfr.graph);
    }
    let leiden = Leiden::new(LeidenConfig::default());
    ctx.spans.set_enabled(ctx.traced);

    // Set-up: read the file and finish a cold first run, several times;
    // only the last graph and workspace stay resident.
    let mut setup_s = Vec::new();
    let mut read_ms = Vec::new();
    let mut cold_bytes = Vec::new();
    let mut resident: Option<(CsrGraph, PassWorkspace, u64)> = None;
    for _ in 0..SETUPS {
        drop(resident.take());
        let root = ctx.spans.root("bench.setup");
        let start = Instant::now();
        let graph = {
            let _span = ctx.spans.child("graph.read_path", &root);
            gve_graph::io::read_path(&mtx)
        };
        let graph = match graph {
            Ok(graph) => graph,
            Err(e) => {
                report.fail(format!("read_path: {e}"));
                return;
            }
        };
        read_ms.push(ms_since(start));
        let graph_live = alloc_count::snapshot().current;
        let before = alloc_count::snapshot();
        let mut workspace = PassWorkspace::new();
        let result = {
            let _span = ctx.spans.child("core.run_in", &root);
            ctx.pool.install(|| leiden.run_in(&graph, &mut workspace))
        };
        setup_s.push(start.elapsed().as_secs_f64());
        drop(root);
        let arcs = graph.num_arcs() as f64;
        cold_bytes.push(alloc_count::snapshot().bytes_since(&before) as f64 / arcs);
        check(ctx, report, &graph, &result.membership, "cold run");
        drop(result);
        resident = Some((graph, workspace, graph_live));
    }
    let (graph, mut workspace, graph_live) = resident.expect("at least one set-up");
    let arcs = graph.num_arcs() as f64;
    {
        let mut env = ctx.env.borrow_mut();
        env.working_set_bytes = csr_bytes(&graph);
    }

    // Measurement: warm runs until the budget is spent.
    let mut run_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut modularity = Vec::new();
    let mut peak_per_arc = Vec::new();
    let mut steady_peak_per_arc = Vec::new();
    let mut steady_allocs = Vec::new();
    let mut figures = RunFigures::default();
    for (traced, window) in ctx.phases() {
        ctx.spans.set_enabled(traced);
        let start = Instant::now();
        let needed = if ctx.traced { 1 } else { MIN_RUNS };
        while (start.elapsed() < window || run_ms[usize::from(traced)].len() < needed)
            && start.elapsed() < MAX_LOOP
        {
            let root = ctx.spans.root("bench.run");
            alloc_count::reset_watermarks();
            let before = alloc_count::snapshot();
            let start = Instant::now();
            let result = {
                let _span = ctx.spans.child("core.run_in", &root);
                ctx.pool.install(|| leiden.run_in(&graph, &mut workspace))
            };
            run_ms[usize::from(traced)].push(ms_since(start));
            let after = alloc_count::snapshot();
            drop(root);
            peak_per_arc.push(after.peak.saturating_sub(graph_live) as f64 / arcs);
            steady_peak_per_arc.push(after.peak.saturating_sub(before.current) as f64 / arcs);
            steady_allocs.push(after.allocs_since(&before) as f64);
            figures.add(&result);
            if let Some(q) = check(ctx, report, &graph, &result.membership, "warm run") {
                modularity.push(q);
            }
        }
    }
    ctx.spans.set_enabled(ctx.traced);

    if !ctx.traced {
        let plain = &run_ms[0];
        report.metric("setup_s", "s", median(&setup_s));
        report.metric("op_ms_p50", "ms", median(plain));
        report.metric("op_ms_p90", "ms", tail_percentile(plain, 0.9));
        report.metric(
            "throughput_per_s",
            "1/s",
            median(plain).map(|p50| arcs / (p50 / 1e3)),
        );
        report.metric("modularity", "Q", median(&modularity));
        report.metric("peak_bytes_per_arc", "B/arc", median(&peak_per_arc));
        report.metric("reload_ms_p50", "ms", median(&read_ms));
        report.note("runs", "count", plain.len() as f64);
        report.note("arcs", "count", arcs);
        return;
    }

    figures.report(report);
    report.metric("alloc.allocs_per_op", "count", median(&steady_allocs));
    report.metric(
        "alloc.steady_peak_bytes_per_arc",
        "B/arc",
        median(&steady_peak_per_arc),
    );
    report.metric("graph.read_ms", "ms", median(&read_ms));
    report.metric("alloc.cold_bytes_per_arc", "B/arc", median(&cold_bytes));
    report.metric(
        "trace.overhead_frac",
        "fraction",
        median(&run_ms[1]).and_then(|t| Ok(t / median(&run_ms[0])? - 1.0)),
    );
    for (half, samples) in ["untraced", "traced"].iter().zip(&run_ms) {
        if let Ok(p50) = median(samples) {
            report.note(&format!("run_ms_p50 {half}"), "ms", p50);
        }
    }
    layers::micro(ctx, report, &leiden, &graph);
}

/// Runs the partition checks outside every timed region (the checker's
/// time is never part of an end-to-end metric).
fn check(
    ctx: &Ctx,
    report: &mut Report,
    graph: &CsrGraph,
    membership: &[VertexId],
    what: &str,
) -> Option<f64> {
    let _span = ctx.spans.root("quality.check");
    match check_partition(graph, membership, MODULARITY_FLOOR, what) {
        Ok(q) => {
            report.op(Ok(()));
            Some(q)
        }
        Err(problem) => {
            report.op(Err(problem));
            None
        }
    }
}
