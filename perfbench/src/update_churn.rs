//! `update-churn`: a durable server (fsync on, default compaction
//! period) holding a 50k-vertex planted SBM. One writer connection
//! POSTs `ChurnStream` windows to `/updates` with `dynamic-frontier` in
//! a closed loop while one follower connection polls `/delta`; then the
//! server stops and cold `Server::start` calls recover its data dir.
//!
//! Churn length. The server writes one batch record and one partition
//! record per update and compacts when a batch append brings the WAL to
//! `snapshot_every` = 64 records, so it compacts every 32 updates, and
//! recovery replays only the records since the last snapshot: one
//! epoch bump, the compacting update's partition, and two records per
//! later update. A run that stopped on a compaction would time only the
//! snapshot load. The churn is therefore a fixed 176 updates, 16 past
//! the fifth compaction, so every run recovers the same 34-record tail
//! and ends on the same graph (a time-bounded churn made the final
//! modularity depend on how many updates fit). At this commit the churn
//! takes about the run budget; it does not stretch or shrink with it.
//!
//! End-to-end metrics here: an operation is one `POST /updates`, so
//! `op_ms_p50`/`op_ms_p90` are the writer's client-side latencies and
//! `throughput_per_s` is edits acked per second until the ingest queue
//! is idle. `setup_s` is a durable boot + register + warm detect,
//! `reload_ms_p50` the median cold `Server::start` recovering the
//! churned data dir, `modularity` the final served partition's, and
//! `peak_bytes_per_arc` the process's peak live heap during the churn
//! above the heap at its start. The follower's delta-poll latencies are
//! printed beside them.

use crate::client::{self, boot_and_warm, request_ok, scrape, GRAPH};
use crate::common::{
    check_partition, csr_bytes, ms_since, parse_membership, write_input, Ctx, Report,
};
use crate::layers::{self, RunFigures};
use crate::stats::{block_median, median, ratio, tail_percentile, StatError};
use gve_dynamic::{apply_batch, collect_windows, dynamic_frontier, BatchUpdate, ChurnStream};
use gve_dynamic::{DynamicLeiden, DynamicStrategy};
use gve_graph::{CsrGraph, VertexId};
use gve_leiden::{Leiden, LeidenConfig, PassWorkspace};
use gve_net::http::ClientConn;
use gve_prim::alloc_count;
use gve_serve::cache::{CachedPartition, PartitionKey, PartitionOrigin};
use gve_serve::jobs::DetectRequest;
use gve_serve::wal::{DurabilityConfig, DurabilityStore};
use gve_serve::Server;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const VERTICES: usize = 50_000;
const BLOCKS: usize = 10;
/// Churn: 400 insertions and 100 deletions per simulated second, cut
/// into half-second windows (about 250 edits per update).
const INSERT_RATE: f64 = 400.0;
const DELETE_RATE: f64 = 100.0;
const WINDOW_SECONDS: f64 = 0.5;
/// Updates per run: 5 × 32 + 16 (see the module docs); more than the
/// 100 that `update_ms_p90` needs for ten samples beyond it.
const CHURN_UPDATES: usize = 176;
/// Cold set-ups and cold restarts per run; reported as medians.
const SETUPS: usize = 5;
const RESTARTS: usize = 11;
/// Floor for every partition. Reference runs on this commit: the
/// default two-thread detect on this graph read Q = 0.684–0.769 over
/// 20 runs on each of 12 seeds (about one run in ten settles near 0.69
/// with 11–12 communities; the planted partition reads 0.83), and
/// refreshed and final partitions read 0.73–0.80.
const MODULARITY_FLOOR: f64 = 0.64;
/// How far the final served partition's modularity may fall below a
/// full static recompute on the final graph. The check is one-sided: on
/// this graph the incremental partition reads Q ≈ 0.77 while a static
/// recompute reads 0.53–0.62, and being better is not a failure.
const STATIC_TOLERANCE: f64 = 0.01;
/// Windows replayed in-process for the per-layer figures (crosses one
/// compaction at update 32).
const REPLAY_WINDOWS: usize = 40;
/// Think time between the follower's polls. A follower spinning with no
/// pause keeps a whole core busy on a two-core host and starves the
/// refresh it is meant to run beside; with this pause it still polls
/// about 1500 times a second.
const FOLLOWER_THINK: Duration = Duration::from_micros(500);
/// Time blocks of the churn: the follower's read metrics are medians
/// of their per-block values.
const TIME_BLOCKS: usize = 10;
/// Direct `DeltaRing::since` calls.
const SINCE_CALLS: usize = 2000;

fn batch_body(batch: &BatchUpdate) -> String {
    let mut body = String::with_capacity(batch.len() * 20 + 64);
    body.push_str("{\"strategy\":\"dynamic-frontier\",\"insertions\":[");
    for (i, &(u, v, w)) in batch.insertions.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "[{u},{v},{w}]");
    }
    body.push_str("],\"deletions\":[");
    for (i, &(u, v)) in batch.deletions.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "[{u},{v}]");
    }
    body.push_str("]}");
    body
}

/// The writer's view of the churn.
#[derive(Default)]
struct WriterOutcome {
    latencies_ms: [Vec<f64>; 2],
    elapsed_s: f64,
    updates: usize,
    edits: usize,
    deferred: usize,
    failed: u64,
    problems: Vec<String>,
}

/// The follower's view.
#[derive(Default)]
struct FollowerOutcome {
    /// `(completion offset in seconds, latency in ms)`, untraced and
    /// traced.
    samples: [Vec<(f64, f64)>; 2],
    failed: u64,
    problems: Vec<String>,
}

fn note_problem(problems: &mut Vec<String>, failed: &mut u64, problem: String) {
    *failed += 1;
    if problems.len() < 5 {
        problems.push(problem);
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let planted = gve_generate::PlantedPartition::new(VERTICES, BLOCKS, 10.0, 0.8)
        .seed(ctx.seed)
        .generate();
    let input = ctx.work.join("sbm.mtx");
    write_input(&input, &planted.graph);
    let windows: Vec<BatchUpdate> = collect_windows(
        ChurnStream::new(&planted.graph, INSERT_RATE, DELETE_RATE, ctx.seed),
        WINDOW_SECONDS,
        2 * CHURN_UPDATES,
    )
    .into_iter()
    .filter(|w| !w.is_empty())
    .take(CHURN_UPDATES)
    .collect();
    if windows.len() < CHURN_UPDATES {
        report.fail(format!("the stream yielded only {} windows", windows.len()));
        return;
    }
    let bodies: Vec<String> = windows.iter().map(batch_body).collect();
    {
        let mut env = ctx.env.borrow_mut();
        env.client_connections = 2;
        env.working_set_bytes = csr_bytes(&planted.graph);
    }
    ctx.spans.set_enabled(ctx.traced);

    let data_dir = ctx.work.join("data");
    let mut setup_s = Vec::new();
    let mut setup_bytes = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            old.stop();
        }
        let _ = std::fs::remove_dir_all(&data_dir);
        let span = ctx.spans.root("bench.setup");
        match boot_and_warm(Some(&data_dir), &input) {
            Ok(booted) => {
                setup_s.push(booted.setup_ms / 1e3);
                setup_bytes.push(booted.allocated_bytes as f64);
                server = Some(booted.server);
            }
            Err(problem) => {
                report.fail(format!("set-up: {problem}"));
                return;
            }
        }
        drop(span);
        report.op(Ok(()));
    }
    let server = server.expect("at least one set-up");
    let addr = client::addr(&server);
    let Some((_, warm)) = server.state().cache.latest(GRAPH) else {
        report.fail("set-up left no cached partition".into());
        return;
    };
    let warm_membership: Vec<VertexId> = warm.membership.as_ref().clone();
    {
        let _span = ctx.spans.root("quality.check");
        let checked = check_partition(
            &planted.graph,
            &warm_membership,
            MODULARITY_FLOOR,
            "warm partition",
        );
        report.op(checked.map(|_| ()));
    }

    let mut conn = match ClientConn::connect(&addr) {
        Ok(conn) => conn,
        Err(e) => {
            report.fail(format!("connect: {e}"));
            return;
        }
    };
    let before = scrape(&mut conn);
    drop(conn);

    // The churn: writer and follower, each on its own connection.
    alloc_count::reset_watermarks();
    let heap = alloc_count::snapshot();
    let churn_start = Instant::now();
    let (writer, follower) = churn(ctx, &addr, &bodies, &windows);
    let idle = server.state().ingest.wait_idle(Duration::from_secs(120));
    let churn_s = churn_start.elapsed().as_secs_f64();
    let churned = alloc_count::snapshot();
    let arcs = planted.graph.num_arcs() as f64;
    let peak_per_arc = ratio(churned.peak.saturating_sub(heap.current) as f64, arcs);
    let allocs_per_update = ratio(churned.allocs_since(&heap) as f64, writer.updates as f64);
    if !idle {
        report.fail("ingest queue never went idle".into());
    }
    report.attempted +=
        (writer.updates + follower.samples.iter().map(Vec::len).sum::<usize>()) as u64;
    report.failed += writer.failed + follower.failed;
    report.problems.extend(writer.problems.iter().cloned());
    report.problems.extend(follower.problems.iter().cloned());

    let mut conn = match ClientConn::connect(&addr) {
        Ok(conn) => conn,
        Err(e) => {
            report.fail(format!("connect: {e}"));
            return;
        }
    };
    let after = scrape(&mut conn);
    let served = request_ok(
        &mut conn,
        "GET",
        &format!("/graphs/{GRAPH}/membership"),
        None,
    );
    drop(conn);
    let final_modularity = check_final(ctx, report, &server, &served);
    let final_epoch = server
        .state()
        .registry
        .snapshot(GRAPH)
        .map(|e| e.epoch)
        .unwrap_or(0);
    let since_us = if ctx.traced {
        Some(delta_since(ctx, &server, final_epoch))
    } else {
        None
    };
    server.stop();
    drop(server);

    // Cold restarts on the data dir the churn left behind.
    let mut recovery_ms = Vec::new();
    let mut replayed = Vec::new();
    for restart in 0..RESTARTS {
        let span = ctx.spans.root("serve.cold_start");
        let start = Instant::now();
        let booted = Server::start(&client::config(Some(&data_dir)));
        let ms = ms_since(start);
        drop(span);
        let server = match booted {
            Ok(server) => server,
            Err(e) => {
                report.fail(format!("cold start: {e}"));
                continue;
            }
        };
        recovery_ms.push(ms);
        let outcome = ClientConn::connect(client::addr(&server))
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut conn| {
                let metrics = scrape(&mut conn)?;
                replayed.push(
                    metrics
                        .get("gve_wal_recovered_records_total", &[])
                        .map_err(|e| e.to_string())?,
                );
                if restart > 0 {
                    return Ok(());
                }
                // The recovered server must serve exactly the partition
                // the churned server served last.
                let recovered = request_ok(
                    &mut conn,
                    "GET",
                    &format!("/graphs/{GRAPH}/membership"),
                    None,
                )?;
                match &served {
                    Ok(served) if same_membership(served, &recovered) => Ok(()),
                    Ok(_) => Err("recovered membership differs from the served one".into()),
                    Err(problem) => Err(problem.clone()),
                }
            });
        report.op(outcome);
        server.stop();
    }

    let edits_per_s = ratio(writer.edits as f64, churn_s);
    if !ctx.traced {
        let updates = &writer.latencies_ms[0];
        let reads = &follower.samples[0];
        let blocks = |stat: fn(&[f64], f64) -> Result<f64, StatError>| {
            block_median(reads, writer.elapsed_s, TIME_BLOCKS, stat)
        };
        report.metric("setup_s", "s", median(&setup_s));
        report.metric("op_ms_p50", "ms", median(updates));
        report.metric("op_ms_p90", "ms", tail_percentile(updates, 0.9));
        report.metric("throughput_per_s", "1/s", edits_per_s);
        report.metric("modularity", "Q", final_modularity);
        report.metric("peak_bytes_per_arc", "B/arc", peak_per_arc);
        report.metric("reload_ms_p50", "ms", median(&recovery_ms));
        report.metric("read_ms_p50", "ms", blocks(|v, _| median(v)));
        report.metric("read_ms_p99", "ms", blocks(|v, _| tail_percentile(v, 0.99)));
        report.metric("wal.records_replayed", "count", median(&replayed));
        report.note("updates", "count", writer.updates as f64);
        report.note("delta polls", "count", reads.len() as f64);
        if let (Ok(before), Ok(after)) = (&before, &after) {
            if let Ok(records) = before.delta(after, "gve_wal_records_total", &[]) {
                report.note(
                    "wal records per update",
                    "ratio",
                    records / writer.updates.max(1) as f64,
                );
            }
        }
        return;
    }

    let (before, after) = match (before, after) {
        (Ok(before), Ok(after)) => (before, after),
        (Err(problem), _) | (_, Err(problem)) => {
            report.fail(format!("/metrics: {problem}"));
            return;
        }
    };
    let batches = writer.updates as f64;
    let delta = |name: &str| before.delta(&after, name, &[]);
    report.metric(
        "wal.bytes_per_edit",
        "B/edit",
        delta("gve_wal_bytes_total").and_then(|b| ratio(b, writer.edits as f64)),
    );
    report.metric(
        "ingest.deferred_frac",
        "fraction",
        delta("gve_ingest_deferred_total").and_then(|d| ratio(d, batches)),
    );
    report.metric(
        "updates.incremental_frac",
        "fraction",
        delta("gve_updates_incremental_refreshes_total").and_then(|r| ratio(r, batches)),
    );
    report.metric(
        "serve.update_handle_ms",
        "ms",
        before
            .histogram_mean(
                &after,
                "gve_http_request_seconds",
                &[&[("endpoint", "updates")]],
            )
            .map(|s| s * 1e3),
    );
    report.metric("wal.records_replayed", "count", median(&replayed));
    if let Some(since_us) = since_us {
        report.metric("delta.since_us", "us", since_us);
    }
    report.metric(
        "trace.overhead_frac",
        "fraction",
        median(&writer.latencies_ms[1])
            .and_then(|t| Ok(t / median(&writer.latencies_ms[0])? - 1.0)),
    );
    for (half, samples) in ["untraced", "traced"].iter().zip(&writer.latencies_ms) {
        if let Ok(p50) = median(samples) {
            report.note(&format!("update_ms_p50 {half}"), "ms", p50);
        }
    }
    report.note(
        "deferred updates seen by the writer",
        "count",
        writer.deferred as f64,
    );

    let recover_ms = recover_copy(ctx, report, &data_dir);
    if let (Ok(cold), Ok(recover)) = (median(&recovery_ms), &recover_ms) {
        report.metric("serve.boot_other_ms", "ms", Ok(cold - recover));
    }
    report.metric("wal.recover_ms", "ms", recover_ms);
    report.metric("alloc.allocs_per_op", "count", allocs_per_update);
    report.metric(
        "alloc.cold_bytes_per_arc",
        "B/arc",
        median(&setup_bytes).and_then(|b| ratio(b, arcs)),
    );
    replay(
        ctx,
        report,
        &planted.graph,
        &warm_membership,
        &windows,
        &bodies,
    );
    layers::micro(
        ctx,
        report,
        &Leiden::new(LeidenConfig::default()),
        &planted.graph,
    );
    layers::read(ctx, report, &input);
}

/// Runs the writer and the follower until the writer stops.
fn churn(
    ctx: &Ctx,
    addr: &str,
    bodies: &[String],
    windows: &[BatchUpdate],
) -> (WriterOutcome, FollowerOutcome) {
    let done = AtomicBool::new(false);
    let spans = &ctx.spans;
    let traced_run = ctx.traced;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let writer = {
            let done = &done;
            scope.spawn(move || {
                let mut out = WriterOutcome::default();
                let mut conn = match ClientConn::connect(addr) {
                    Ok(conn) => conn,
                    Err(e) => {
                        note_problem(&mut out.problems, &mut out.failed, format!("connect: {e}"));
                        done.store(true, Ordering::SeqCst);
                        return out;
                    }
                };
                let path = format!("/graphs/{GRAPH}/updates");
                for (index, (body, window)) in bodies.iter().zip(windows).enumerate() {
                    // A traced run traces the second half of the churn.
                    let traced = traced_run && index >= CHURN_UPDATES / 2;
                    spans.set_enabled(traced);
                    let span = spans.root("net.update_request");
                    let sent = Instant::now();
                    let response = conn.request("POST", &path, Some(body));
                    let latency = sent.elapsed().as_secs_f64() * 1e3;
                    drop(span);
                    out.updates += 1;
                    match response {
                        Ok((status @ (200 | 202), text)) => {
                            if status == 202 {
                                out.deferred += 1;
                            } else if let Err(problem) = check_update(&text) {
                                note_problem(&mut out.problems, &mut out.failed, problem);
                                continue;
                            }
                            out.latencies_ms[usize::from(traced)].push(latency);
                            out.edits += window.len();
                        }
                        Ok((status, text)) => note_problem(
                            &mut out.problems,
                            &mut out.failed,
                            format!(
                                "update: status {status}: {}",
                                text.chars().take(200).collect::<String>()
                            ),
                        ),
                        Err(e) => {
                            note_problem(
                                &mut out.problems,
                                &mut out.failed,
                                format!("update: {e}"),
                            );
                            match ClientConn::connect(addr) {
                                Ok(fresh) => conn = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                }
                out.elapsed_s = start.elapsed().as_secs_f64();
                done.store(true, Ordering::SeqCst);
                out
            })
        };
        let follower = {
            let done = &done;
            scope.spawn(move || {
                let mut out = FollowerOutcome::default();
                let mut conn = match ClientConn::connect(addr) {
                    Ok(conn) => conn,
                    Err(e) => {
                        note_problem(&mut out.problems, &mut out.failed, format!("connect: {e}"));
                        return out;
                    }
                };
                let mut since = 0u64;
                while !done.load(Ordering::SeqCst) {
                    std::thread::sleep(FOLLOWER_THINK);
                    let traced = spans.enabled();
                    let span = spans.root("net.delta_request");
                    let sent = Instant::now();
                    let response =
                        conn.request("GET", &format!("/graphs/{GRAPH}/delta?since={since}"), None);
                    let latency = sent.elapsed().as_secs_f64() * 1e3;
                    drop(span);
                    match response {
                        Ok((200, text)) => match client::json_u64(&text, "epoch") {
                            Ok(epoch) => {
                                since = epoch;
                                out.samples[usize::from(traced)]
                                    .push((start.elapsed().as_secs_f64(), latency));
                            }
                            Err(problem) => {
                                note_problem(&mut out.problems, &mut out.failed, problem)
                            }
                        },
                        Ok((status, _)) => note_problem(
                            &mut out.problems,
                            &mut out.failed,
                            format!("delta: status {status}"),
                        ),
                        Err(e) => {
                            note_problem(&mut out.problems, &mut out.failed, format!("delta: {e}"));
                            match ClientConn::connect(addr) {
                                Ok(fresh) => conn = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                }
                out
            })
        };
        (
            writer.join().expect("writer thread panicked"),
            follower.join().expect("follower thread panicked"),
        )
    })
}

/// A synchronous update must have refreshed the cached partition to a
/// modularity at or above the floor.
fn check_update(body: &str) -> Result<(), String> {
    let json = gve_serve::json::parse(body).map_err(|e| format!("update body: {e}"))?;
    if json.get("refreshed").and_then(|r| r.as_bool()) != Some(true) {
        return Err("update did not refresh the cached partition".into());
    }
    match json.get("modularity").and_then(|q| q.as_f64()) {
        Some(q) if q >= MODULARITY_FLOOR => Ok(()),
        Some(q) => Err(format!(
            "refreshed modularity {q} below the floor {MODULARITY_FLOOR}"
        )),
        None => Err("update body has no modularity".into()),
    }
}

/// Checks the final served membership: full coverage, no disconnected
/// community, modularity at the floor and no more than
/// [`STATIC_TOLERANCE`] below a static recompute on the final graph.
/// Returns the served modularity.
fn check_final(
    ctx: &Ctx,
    report: &mut Report,
    server: &Server,
    served: &Result<String, String>,
) -> Result<f64, crate::stats::StatError> {
    let _span = ctx.spans.root("quality.check");
    let outcome = (|| {
        let graph = server
            .state()
            .registry
            .snapshot(GRAPH)
            .map_err(|e| format!("registry: {e}"))?
            .graph;
        let membership = parse_membership(served.as_ref().map_err(Clone::clone)?)?;
        let q = check_partition(
            &graph,
            &membership,
            MODULARITY_FLOOR,
            "final served partition",
        )?;
        let fresh = ctx
            .pool
            .install(|| Leiden::new(LeidenConfig::default()).run(&graph));
        let q_static = gve_quality::modularity(&graph, &fresh.membership);
        if q < q_static - STATIC_TOLERANCE {
            return Err(format!(
                "final served modularity {q} is more than {STATIC_TOLERANCE} below the static recompute {q_static}"
            ));
        }
        Ok(q)
    })();
    match outcome {
        Ok(q) => {
            report.op(Ok(()));
            Ok(q)
        }
        Err(problem) => {
            report.op(Err(problem));
            Err(crate::stats::StatError::Empty)
        }
    }
}

fn same_membership(a: &str, b: &str) -> bool {
    matches!((parse_membership(a), parse_membership(b)), (Ok(x), Ok(y)) if x == y)
}

/// Median cost of `DeltaRing::since` at the follower's usual distance
/// (one epoch behind).
fn delta_since(ctx: &Ctx, server: &Server, epoch: u64) -> Result<f64, crate::stats::StatError> {
    let ring = &server.state().delta;
    let samples: Vec<f64> = (0..SINCE_CALLS)
        .map(|_| {
            let _span = ctx.spans.root("delta.since");
            let start = Instant::now();
            std::hint::black_box(ring.since(GRAPH, epoch.saturating_sub(1)));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// `DurabilityStore::open` + `recover` on a copy of the data dir.
fn recover_copy(
    ctx: &Ctx,
    report: &mut Report,
    data_dir: &Path,
) -> Result<f64, crate::stats::StatError> {
    let copy = ctx.work.join("data-copy");
    if let Err(e) = copy_dir(data_dir, &copy) {
        report.fail(format!("copying the data dir: {e}"));
        return Err(crate::stats::StatError::Empty);
    }
    let mut samples = Vec::new();
    for _ in 0..RESTARTS {
        let _span = ctx.spans.root("wal.recover");
        let start = Instant::now();
        let recovered = DurabilityStore::open(DurabilityConfig {
            root: copy.clone(),
            snapshot_every: client::config(None).snapshot_every,
            fsync: true,
        })
        .and_then(|store| store.recover());
        let ms = ms_since(start);
        report.op(match recovered {
            Ok(graphs) if graphs.len() == 1 => {
                samples.push(ms);
                Ok(())
            }
            Ok(graphs) => Err(format!("recovered {} graphs instead of 1", graphs.len())),
            Err(e) => Err(format!("recover: {e}")),
        });
    }
    median(&samples)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Replays the first windows in-process through each layer of the
/// update path: `apply_batch`, the frontier, the `DynamicLeiden`
/// refresh, the JSON parse of the body, and WAL appends on a scratch
/// store with fsync on.
fn replay(
    ctx: &Ctx,
    report: &mut Report,
    base: &CsrGraph,
    warm: &[VertexId],
    windows: &[BatchUpdate],
    bodies: &[String],
) {
    let config = LeidenConfig::default();
    let mut dynamic = match DynamicLeiden::from_state(
        base.clone(),
        warm.to_vec(),
        config,
        DynamicStrategy::DynamicFrontier,
    ) {
        Ok(dynamic) => dynamic,
        Err(e) => {
            report.fail(format!("DynamicLeiden::from_state: {e}"));
            return;
        }
    };
    let store_dir = ctx.work.join("wal-probe");
    let store = match DurabilityStore::open(DurabilityConfig {
        root: store_dir,
        snapshot_every: client::config(None).snapshot_every,
        fsync: true,
    }) {
        Ok(store) => store,
        Err(e) => {
            report.fail(format!("scratch WAL: {e}"));
            return;
        }
    };
    let request = DetectRequest::default();
    let partition = |membership: &[VertexId], origin| CachedPartition {
        membership: Arc::new(membership.to_vec()),
        num_communities: gve_quality::community_count(membership),
        modularity: 0.0,
        seconds: 0.0,
        origin,
        request: request.clone(),
    };
    let key = |epoch| PartitionKey {
        graph: GRAPH.to_string(),
        epoch,
        fingerprint: request.fingerprint(),
    };
    // Mirror the server's log: a registration, then the warm partition.
    if let Err(e) = store
        .register_graph(GRAPH, base, "generated:sbm")
        .and_then(|()| {
            store.append_partition(&key(0), &partition(warm, PartitionOrigin::Detection))
        })
    {
        report.fail(format!("scratch WAL: {e}"));
        return;
    }

    let n = base.num_vertices() as f64;
    let mut workspace = PassWorkspace::new();
    let mut apply_ms = Vec::new();
    let mut frontier_frac = Vec::new();
    let mut refresh_ms = Vec::new();
    let mut iterations = Vec::new();
    let mut parse_us = Vec::new();
    let mut append_ms = Vec::new();
    let mut compaction_ms = Vec::new();
    let mut figures = RunFigures::default();
    for (epoch, (window, body)) in (1u64..).zip(windows.iter().zip(bodies).take(REPLAY_WINDOWS)) {
        let start = Instant::now();
        let parsed = {
            let _span = ctx.spans.root("json.parse");
            gve_serve::json::parse(body)
        };
        parse_us.push(start.elapsed().as_secs_f64() * 1e6);
        report.op(parsed.map(|_| ()).map_err(|e| format!("batch body: {e}")));

        let start = Instant::now();
        let applied = {
            let _span = ctx.spans.root("dynamic.apply_batch");
            apply_batch(dynamic.graph(), window)
        };
        let apply = ms_since(start);
        apply_ms.push(apply);
        let frontier = {
            let _span = ctx.spans.root("dynamic.frontier");
            dynamic_frontier(&applied, dynamic.membership(), window)
        };
        frontier_frac.push(frontier.len() as f64 / n);
        drop(applied);

        let start = Instant::now();
        let result = {
            let _span = ctx.spans.root("dynamic.refresh");
            ctx.pool
                .install(|| dynamic.apply_in(window, &mut workspace))
        };
        refresh_ms.push(ms_since(start) - apply);
        iterations.push(result.move_iterations as f64);
        figures.add(&result);

        let snapshots = store.stats.snapshots_written.get();
        let start = Instant::now();
        let appended = {
            let _span = ctx.spans.root("wal.append_batch");
            store.append_batch(GRAPH, epoch, window, dynamic.graph())
        };
        let ms = ms_since(start);
        if store.stats.snapshots_written.get() > snapshots {
            compaction_ms.push(ms);
        } else {
            append_ms.push(ms);
        }
        let logged = appended.and_then(|()| {
            store.append_partition(
                &key(epoch),
                &partition(&result.membership, PartitionOrigin::IncrementalRefresh),
            )
        });
        report.op(logged.map_err(|e| format!("scratch WAL append: {e}")));
    }
    report.metric("dynamic.apply_batch_ms", "ms", median(&apply_ms));
    report.metric("dynamic.frontier_frac", "fraction", median(&frontier_frac));
    report.metric("dynamic.refresh_ms", "ms", median(&refresh_ms));
    report.metric(
        "dynamic.refresh_move_iterations",
        "count",
        median(&iterations),
    );
    report.metric("serve.json_parse_us.update", "us", median(&parse_us));
    report.metric("wal.append_ms", "ms", median(&append_ms));
    report.metric("wal.compaction_ms", "ms", median(&compaction_ms));
    // The `core` figures of the frontier-seeded refreshes.
    figures.report(report);
}
