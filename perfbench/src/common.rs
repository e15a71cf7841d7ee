//! Run context, the result report, and the partition checks every
//! workload shares.

use crate::env::Environment;
use crate::stats::StatError;
use crate::trace::{self, Recorder};
use gve_graph::{CsrGraph, VertexId};
use gve_obs::trace::Value;
use gve_serve::json::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Leiden threads for every library-path run. The benchmark is sized
/// for a two-core host, where the serving tier's workers use the same
/// count.
pub const LEIDEN_THREADS: usize = 2;

/// Directory (relative to the checkout root) for generated inputs and
/// data dirs; each run uses and removes its own subdirectory.
const WORK_ROOT: &str = ".perfbench-work";
/// Directory for traced runs' span files.
const TRACE_ROOT: &str = "perfbench-out";

/// End-to-end metrics of an untraced run, `(name, unit)`. Every
/// workload reports every one of them, in the sense its module docs
/// give; they are the names `BENCHMARK.json` lists under `end_to_end`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
    ("modularity", "Q"),
    ("peak_bytes_per_arc", "B/arc"),
    ("reload_ms_p50", "ms"),
];

/// Per-layer metrics every workload's traced run reports; the names
/// `BENCHMARK.json` lists under `per_layer`. The `core` figures come
/// from the Leiden runs the workload makes (warm runs on static-lfr,
/// the warm detect repeated in-process on serve-read, the
/// frontier-seeded refreshes on update-churn); the kernel, aggregation,
/// `prim` and `graph` figures from direct calls on the workload's own
/// graph and input file; `alloc.allocs_per_op` counts the process's
/// allocations per operation (run, read or update). A workload's other
/// layer figures (serving, reactor, update path, WAL) are printed in
/// its report but left out of the result line.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("core.local_move_ms", "ms"),
    ("core.refine_ms", "ms"),
    ("core.aggregate_ms", "ms"),
    ("core.other_ms", "ms"),
    ("core.first_pass_share", "fraction"),
    ("core.passes", "count"),
    ("core.move_iterations", "count"),
    ("core.pruning_skip_ratio", "fraction"),
    ("core.steals_per_chunk", "ratio"),
    ("kernel.best_move_ns_per_arc", "ns/arc"),
    ("aggregate.ns_per_arc", "ns/arc"),
    ("prim.scan_ns_per_elem", "ns/elem"),
    ("prim.community_map_ns_per_arc", "ns/arc"),
    ("graph.read_ms", "ms"),
    ("alloc.allocs_per_op", "count"),
    ("alloc.cold_bytes_per_arc", "B/arc"),
    ("trace.overhead_frac", "fraction"),
    ("self_ms.graph", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.prim", "ms"),
    ("self_ms.quality", "ms"),
];

/// Everything a workload needs from the command line and the process.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub traced: bool,
    /// This run's private scratch directory.
    pub work: PathBuf,
    /// Span recorder (enabled only in traced runs, and there not during
    /// the untraced first half of the measurement).
    pub spans: Recorder,
    /// Pool pinning library-path Leiden runs to [`LEIDEN_THREADS`].
    pub pool: rayon::ThreadPool,
    /// Environment stanza, completed by the workload.
    pub env: std::cell::RefCell<Environment>,
}

impl Ctx {
    /// Creates the context and the run's work directory.
    pub fn new(workload: &str, seed: u64, seconds: f64, traced: bool) -> std::io::Result<Ctx> {
        let work =
            PathBuf::from(WORK_ROOT).join(format!("{workload}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work)?;
        Ok(Ctx {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            work,
            spans: Recorder::new(),
            pool: rayon::ThreadPoolBuilder::new()
                .num_threads(LEIDEN_THREADS)
                .build()
                .expect("the rayon stand-in never fails to build a pool"),
            env: std::cell::RefCell::new(Environment::probe(LEIDEN_THREADS)),
        })
    }

    /// The measurement windows: the whole budget in an untraced run; in
    /// a traced run an untraced first half (the reference for the
    /// tracing overhead) and a traced second half.
    pub fn phases(&self) -> Vec<(bool, Duration)> {
        let total = Duration::from_secs_f64(self.seconds);
        if self.traced {
            vec![(false, total / 2), (true, total / 2)]
        } else {
            vec![(false, total)]
        }
    }

    /// Prints the report and the result line, writes the trace, removes
    /// the work directory, and returns whether every check passed.
    pub fn finish(&self, mut report: Report) -> bool {
        let _ = std::fs::remove_dir_all(&self.work);
        if let Ok(mut entries) = std::fs::read_dir(WORK_ROOT) {
            if entries.next().is_none() {
                let _ = std::fs::remove_dir(WORK_ROOT);
            }
        }
        let env = self.env.borrow().to_json();
        let mut trace_line = None;
        if self.traced {
            let spans = self.spans.spans();
            for (layer, ms) in trace::layer_self_ms(&spans) {
                if layer != "bench" {
                    report.metric(&format!("self_ms.{layer}"), "ms", Ok(ms));
                }
            }
            let _ = std::fs::create_dir_all(TRACE_ROOT);
            // One file per workload: the latest traced run replaces it.
            let path = PathBuf::from(TRACE_ROOT).join(format!("{}.jsonl", self.workload));
            let header = [
                ("workload", Value::from(self.workload.as_str())),
                ("seed", Value::from(self.seed)),
                ("environment", Value::from(env.render())),
            ];
            trace_line = Some(match trace::write_jsonl(&path, &spans, &header) {
                Ok(()) => format!("spans written to {}", path.display()),
                Err(e) => format!("could not write spans to {}: {e}", path.display()),
            });
        }
        println!(
            "perfbench {} seed={} seconds={} trace={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced)
        );
        // Figures outside the result line are marked with a `+`.
        for (name, value, unit) in &report.metrics {
            let listed = END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| n == name);
            let mark = if listed { ' ' } else { '+' };
            println!(" {mark}{name:<36} {value:>16.6} {unit}");
        }
        for (name, value, unit) in &report.notes {
            println!("  ({name}) {value:.6} {unit}");
        }
        let error_rate = if report.attempted > 0 {
            report.failed as f64 / report.attempted as f64
        } else {
            1.0
        };
        println!(
            "  error_rate = {} failed / {} attempted = {error_rate}",
            report.failed, report.attempted
        );
        for problem in &report.problems {
            println!("  FAILED: {problem}");
        }
        let shown = report.problems.len();
        if let Some(line) = trace_line {
            println!("  {line}");
        }
        println!("environment {}", env.render());
        let listed: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let mut result_metrics = Vec::new();
        for &(name, unit) in listed {
            match report.metrics.iter().find(|(n, _, _)| n == name) {
                Some((_, value, reported)) if *reported == unit => result_metrics.push((
                    name.to_string(),
                    Json::obj([("value", Json::from(*value)), ("unit", Json::from(unit))]),
                )),
                Some((_, _, reported)) => report
                    .problems
                    .push(format!("{name} reported in {reported}, listed in {unit}")),
                None => report.problems.push(format!("{name} was not reported")),
            }
        }
        for problem in report.problems.iter().skip(shown) {
            println!("  FAILED: {problem}");
        }
        let correct = report.problems.is_empty() && report.failed == 0 && report.attempted > 0;
        let result = Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(report.attempted.max(1))),
            ("failed", Json::from(report.failed)),
            ("metrics", Json::Obj(result_metrics)),
        ]);
        println!("{}", result.render());
        correct
    }
}

/// Metrics, operation counts and failures of one run.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra figures printed for the reader but not reported.
    pub notes: Vec<(String, f64, &'static str)>,
    /// Operations attempted (runs, requests, boots, checks).
    pub attempted: u64,
    /// Operations that failed: a failed check, a non-2xx or refused
    /// request, a connection error, or a metric that could not be
    /// computed.
    pub failed: u64,
    /// Human-readable reason of every failure.
    pub problems: Vec<String>,
}

impl Report {
    /// Records a metric, or a failure when it could not be computed.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: Result<f64, StatError>) {
        match value {
            Ok(v) if v.is_finite() => self.metrics.push((name.to_string(), v, unit)),
            Ok(v) => self.fail(format!("{name}: non-finite value {v}")),
            Err(e) => self.fail(format!("{name}: {e}")),
        }
    }

    /// Records a figure for the human-readable output only.
    pub fn note(&mut self, name: &str, unit: &'static str, value: f64) {
        self.notes.push((name.to_string(), value, unit));
    }

    /// Counts one operation and its outcome.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = outcome {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(problem);
            }
        }
    }

    /// Counts a failure that is not tied to one operation.
    pub fn fail(&mut self, problem: String) {
        self.op(Err(problem));
    }
}

/// Checks one partition: it covers every vertex, no community is
/// internally disconnected, and its modularity is at least `floor`.
/// Returns the modularity.
pub fn check_partition(
    graph: &CsrGraph,
    membership: &[VertexId],
    floor: f64,
    what: &str,
) -> Result<f64, String> {
    if membership.len() != graph.num_vertices() {
        return Err(format!(
            "{what}: membership has {} entries for {} vertices",
            membership.len(),
            graph.num_vertices()
        ));
    }
    let connectivity = gve_quality::disconnected_communities(graph, membership);
    if connectivity.disconnected != 0 {
        return Err(format!(
            "{what}: {} of {} communities are disconnected",
            connectivity.disconnected, connectivity.communities
        ));
    }
    let q = gve_quality::modularity(graph, membership);
    if q.is_nan() || q < floor {
        return Err(format!("{what}: modularity {q} below the floor {floor}"));
    }
    Ok(q)
}

/// Writes a generated graph to `path` as Matrix Market and waits until
/// it is on disk, so that write-back does not overlap the timed reads.
pub fn write_input(path: &std::path::Path, graph: &CsrGraph) {
    let file = std::fs::File::create(path).expect("create the input file");
    gve_graph::io::write_matrix_market(graph, &file).expect("write the input file");
    file.sync_all().expect("sync the input file");
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Bytes a CSR holds: offsets, targets and weights.
pub fn csr_bytes(graph: &CsrGraph) -> u64 {
    (graph.offsets().len() * 8 + graph.targets().len() * 4 + graph.weights().len() * 4) as u64
}

/// Parses a `membership` array out of a `GET .../membership` body.
pub fn parse_membership(body: &str) -> Result<Vec<VertexId>, String> {
    let json = gve_serve::json::parse(body).map_err(|e| format!("membership body: {e}"))?;
    json.get("membership")
        .and_then(Json::as_array)
        .ok_or("membership body has no 'membership' array")?
        .iter()
        .map(|c| {
            c.as_u64()
                .and_then(|c| VertexId::try_from(c).ok())
                .ok_or_else(|| "membership entry is not a community id".to_string())
        })
        .collect()
}
