//! Kernel v1 vs v3 comparison runner. Runs full GVE-Leiden under each
//! kernel variant on an R-MAT web graph (skewed degrees), a
//! planted-partition SBM (near-uniform degrees), and a Barabási–Albert
//! power-law graph (heavy hub skew), takes the **minimum** wall time over `--reps`
//! repetitions (the stable statistic on a shared box), and emits a
//! machine-readable JSON report.
//!
//! ```text
//! cargo run --release -p gve-bench --bin kernels -- --reps 5
//! cargo run --release -p gve-bench --bin kernels -- --quick --reps 2 --json BENCH_kernels.json
//! ```
//!
//! Without `--json` the report is written to `BENCH_kernels.json` in the
//! working directory. Variants:
//!
//! * `v1` — two-pass table-only scan (the reference kernel);
//! * `v3` — the default kernel: stack hash tier with prefetched `Σ'`
//!   and a lane-chunked choose for low-degree vertices, the v1 table for
//!   hubs (static chunking);
//! * `v3_guided` — v3 under guided (arc-balanced, shrinking-chunk)
//!   scheduling;
//! * `v3_steal` — v3 under per-worker-deque work stealing;
//! * `degree` — the default kernel plus degree-descending vertex
//!   relabeling;
//! * `bfs` — the default kernel plus BFS vertex relabeling.
//!
//! `--assert-v3-beats-v1` turns the comparison into a hard gate: on
//! every suite graph the best v3 variant (`v3`, `v3_guided`,
//! `v3_steal`; the relabeling rows are not candidates) must be strictly
//! faster than the v1 reference (exit 1 otherwise). `--v3-tolerance <f64>` relaxes
//! the gate to `best < v1 * tolerance` so CI on noisy shared runners
//! can grant a small margin (e.g. 1.02) instead of failing on jitter.
//!
//! This binary installs the counting global allocator and runs every
//! variant inside one pass-resident [`PassWorkspace`], so the report
//! also carries the preallocation discipline's receipts: allocations
//! and bytes of the first (cold) run vs the steady state, plus the
//! live-byte high-water mark. `--assert-steady-allocs <n>` turns the
//! steady-state column into a hard gate (exit 1 on violation) — run it
//! with `--threads 1`, where the rayon shim executes parallel regions
//! inline; at higher thread counts the shim spawns scoped OS threads
//! per region and those spawns are counted too.

use gve_bench::{report, report::Table, BenchArgs};
use gve_graph::CsrGraph;
use gve_leiden::{
    ChunkScheduling, KernelVersion, Leiden, LeidenConfig, PassWorkspace, VertexOrdering,
};
use gve_obs::json::Json;
use gve_prim::alloc_count::{self, CountingAllocator};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn variants() -> Vec<(&'static str, LeidenConfig)> {
    let base = LeidenConfig::default();
    vec![
        ("v1", base.clone().kernel(KernelVersion::V1)),
        ("v3", base.clone()),
        ("v3_guided", base.clone().chunking(ChunkScheduling::Guided)),
        ("v3_steal", base.clone().chunking(ChunkScheduling::Stealing)),
        // Relabeling rows run the default kernel; their names stay off
        // the `v3` prefix so the gate's candidate set is the kernel and
        // its chunk policies only.
        ("degree", base.clone().ordering(VertexOrdering::DegreeDesc)),
        ("bfs", base.clone().ordering(VertexOrdering::Bfs)),
    ]
}

fn graphs(args: &BenchArgs) -> Vec<(String, CsrGraph)> {
    // --quick halves the R-MAT scale and the SBM size on top of --scale.
    let rmat_scale = if args.quick { 12 } else { 14 } + (args.scale.log2().round() as i32).max(-8);
    let sbm_n = (((if args.quick { 20_000 } else { 100_000 }) as f64) * args.scale) as usize;
    let pld_n = (((if args.quick { 15_000 } else { 75_000 }) as f64) * args.scale) as usize;
    vec![
        (
            format!("rmat_web_{rmat_scale}"),
            gve_generate::rmat::Rmat::web(rmat_scale.max(8) as u32, 8.0)
                .seed(args.seed)
                .generate(),
        ),
        (
            format!("sbm_{sbm_n}"),
            gve_generate::PlantedPartition::new(sbm_n.max(1000), sbm_n.max(1000) / 250, 8.0, 2.0)
                .seed(args.seed)
                .generate()
                .graph,
        ),
        // Power-law-degree graph with heavy hub skew: preferential
        // attachment concentrates a large fraction of the arcs on a few
        // early vertices, which is exactly what guided/stealing
        // scheduling (and the v3 hub-gather path) are built for.
        (
            format!("pld_cross_web_{pld_n}"),
            gve_generate::ba::barabasi_albert(pld_n.max(1000), 8, args.seed),
        ),
    ]
}

struct Row {
    graph: String,
    vertices: usize,
    arcs: usize,
    variant: &'static str,
    seconds: f64,
    modularity: f64,
    passes: usize,
    phases: [f64; 4], // local_move, refinement, aggregation, other
    allocs_fresh: u64,
    allocs_steady: u64,
    alloc_bytes_fresh: u64,
    alloc_bytes_steady: u64,
    peak_bytes: u64,
}

fn main() {
    let args = BenchArgs::parse();
    args.install_threads();

    let mut rows: Vec<Row> = Vec::new();
    let mut table = Table::new(
        "Kernel v1 vs v3 (min wall time over reps)",
        &[
            "Graph",
            "Variant",
            "Time",
            "vs v1",
            "Modularity",
            "Passes",
            "Allocs fresh\u{2192}steady",
        ],
    );

    for (graph_name, graph) in graphs(&args) {
        // Round-robin the repetitions across variants (after one warmup
        // run each) so slow drift on a shared box biases every variant
        // equally instead of whichever ran last. Every variant owns one
        // pass-resident arena for the whole graph, so the warmup run is
        // the *cold* allocation measurement and every timed rep is a
        // *steady-state* one.
        let runners: Vec<(&'static str, Leiden)> = variants()
            .into_iter()
            .map(|(name, config)| (name, Leiden::new(config)))
            .collect();
        let mut workspaces: Vec<PassWorkspace> =
            runners.iter().map(|_| PassWorkspace::new()).collect();
        let mut best = vec![f64::INFINITY; runners.len()];
        // (allocs, bytes) of the cold run; (allocs, bytes, peak) of the
        // quietest steady rep.
        let mut fresh = vec![(0u64, 0u64); runners.len()];
        let mut steady = vec![(u64::MAX, 0u64, 0u64); runners.len()];
        let mut results = Vec::new();
        for (i, (_, runner)) in runners.iter().enumerate() {
            let before = alloc_count::snapshot();
            results.push(runner.run_in(&graph, &mut workspaces[i])); // warmup, keep the result
            let after = alloc_count::snapshot();
            fresh[i] = (after.allocs_since(&before), after.bytes_since(&before));
        }
        for _ in 0..args.reps {
            for (i, (_, runner)) in runners.iter().enumerate() {
                // Scope the live-byte high-water mark to this rep. The
                // base includes whatever is resident (the graph and all
                // variants' arenas), which is exactly the footprint a
                // resident service would carry.
                alloc_count::reset_watermarks();
                let before = alloc_count::snapshot();
                let start = Instant::now();
                let result = runner.run_in(&graph, &mut workspaces[i]);
                let seconds = start.elapsed().as_secs_f64();
                let after = alloc_count::snapshot();
                if seconds < best[i] {
                    best[i] = seconds;
                    results[i] = result; // keep the min-time rep's stats
                }
                let allocs = after.allocs_since(&before);
                if allocs < steady[i].0 {
                    steady[i] = (allocs, after.bytes_since(&before), after.peak);
                }
            }
        }
        let mut v1_seconds = f64::NAN;
        for (i, (variant, _)) in runners.iter().enumerate() {
            let variant = *variant;
            let best = best[i];
            let result = &results[i];
            if variant == "v1" {
                v1_seconds = best;
            }
            let modularity = gve_quality::modularity(&graph, &result.membership);
            table.push(vec![
                graph_name.clone(),
                variant.to_string(),
                report::fmt_secs(best),
                report::fmt_speedup(v1_seconds / best),
                format!("{modularity:.4}"),
                result.passes.to_string(),
                format!("{}\u{2192}{}", fresh[i].0, steady[i].0),
            ]);
            rows.push(Row {
                graph: graph_name.clone(),
                vertices: graph.num_vertices(),
                arcs: graph.num_arcs(),
                variant,
                seconds: best,
                modularity,
                passes: result.passes,
                phases: [
                    result.timings.local_move.as_secs_f64(),
                    result.timings.refinement.as_secs_f64(),
                    result.timings.aggregation.as_secs_f64(),
                    result.timings.other.as_secs_f64(),
                ],
                allocs_fresh: fresh[i].0,
                allocs_steady: steady[i].0,
                alloc_bytes_fresh: fresh[i].1,
                alloc_bytes_steady: steady[i].1,
                peak_bytes: steady[i].2,
            });
        }
    }
    table.print();
    if let Some(csv) = &args.csv {
        table.write_csv(csv).expect("failed to write CSV");
    }

    let round6 = |x: f64| (x * 1e6).round() / 1e6;
    let json = report::render_report(&[
        ("suite", Json::from("kernels")),
        ("reps", Json::from(args.reps)),
        ("seed", Json::from(args.seed)),
        ("scale", Json::from(args.scale)),
        ("quick", Json::from(args.quick)),
        ("statistic", Json::from("min")),
        (
            "results",
            Json::Arr(
                rows.iter()
                    .map(|row| {
                        Json::obj([
                            ("graph", Json::from(row.graph.as_str())),
                            ("vertices", Json::from(row.vertices)),
                            ("arcs", Json::from(row.arcs)),
                            ("variant", Json::from(row.variant)),
                            ("seconds", Json::from(round6(row.seconds))),
                            ("modularity", Json::from(round6(row.modularity))),
                            ("passes", Json::from(row.passes)),
                            ("local_move", Json::from(round6(row.phases[0]))),
                            ("refinement", Json::from(round6(row.phases[1]))),
                            ("aggregation", Json::from(round6(row.phases[2]))),
                            ("other", Json::from(round6(row.phases[3]))),
                            ("allocs_fresh", Json::from(row.allocs_fresh)),
                            ("allocs_steady", Json::from(row.allocs_steady)),
                            ("alloc_bytes_fresh", Json::from(row.alloc_bytes_fresh)),
                            ("alloc_bytes_steady", Json::from(row.alloc_bytes_steady)),
                            ("peak_bytes", Json::from(row.peak_bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    let path = args.json.as_deref().unwrap_or("BENCH_kernels.json");
    std::fs::write(path, json).expect("failed to write JSON report");
    eprintln!("wrote {path}");

    // The zero-steady-state-allocation regression gate (CI bench-smoke).
    if let Some(bound) = args.assert_steady_allocs {
        let mut violated = false;
        for row in &rows {
            if row.allocs_steady > bound {
                violated = true;
                eprintln!(
                    "alloc gate FAILED: {}/{} performed {} steady-state allocations \
                     (bound {bound}, cold run {})",
                    row.graph, row.variant, row.allocs_steady, row.allocs_fresh
                );
            }
        }
        if violated {
            std::process::exit(1);
        }
        eprintln!(
            "alloc gate passed: every steady-state run stayed within \
             {bound} allocations"
        );
    }

    // The kernel-v3 performance gate (CI bench-smoke): on every graph
    // the best v3 variant must beat v1 within the configured noise
    // tolerance (`best < v1 * tolerance`; tolerance 1.0 = strictly
    // faster). CI passes a small margin so a scheduler hiccup on a
    // shared runner can't fail the gate nondeterministically.
    if args.assert_v3_beats_v1 {
        let tolerance = args.v3_tolerance;
        let mut graphs: Vec<&str> = rows.iter().map(|r| r.graph.as_str()).collect();
        graphs.dedup();
        let mut violated = false;
        for graph in graphs {
            let v1 = rows
                .iter()
                .find(|r| r.graph == graph && r.variant == "v1")
                .expect("v1 row missing")
                .seconds;
            let (best_variant, best) = rows
                .iter()
                .filter(|r| r.graph == graph && r.variant.starts_with("v3"))
                .map(|r| (r.variant, r.seconds))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("v3 rows missing");
            if best < v1 * tolerance {
                eprintln!(
                    "v3 gate: {graph}: {best_variant} {} vs v1 {} ({:.2}x)",
                    report::fmt_secs(best),
                    report::fmt_secs(v1),
                    v1 / best
                );
            } else {
                violated = true;
                eprintln!(
                    "v3 gate FAILED: {graph}: best v3 variant {best_variant} {} \
                     is not faster than v1 {} (tolerance {tolerance:.2})",
                    report::fmt_secs(best),
                    report::fmt_secs(v1)
                );
            }
        }
        if violated {
            std::process::exit(1);
        }
        eprintln!(
            "v3 gate passed: v3 beats v1 on every suite graph \
             (tolerance {tolerance:.2})"
        );
    }
}
