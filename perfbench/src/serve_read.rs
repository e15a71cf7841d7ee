//! `serve-read`: two keep-alive clients in a closed loop against the
//! event-loop server, reading a cached partition of a 5k-vertex SBM.
//!
//! Mix per client, repeating every ten requests: seven
//! `POST /graphs/g/detect {}` (cache hit, tiny body), one
//! `GET /graphs/g/communities/{id}` (medium body) and two
//! `GET /graphs/g/membership` (large body). With two large reads in
//! ten, the 90th percentile falls inside the membership reads rather
//! than on the step between the two body sizes.
//!
//! End-to-end metrics here: an operation is one read, so
//! `op_ms_p50`/`op_ms_p90` are client-side read latencies and
//! `throughput_per_s` completed reads per second, each the median of
//! its per-time-block values. `setup_s` is boot + register + a finished
//! warm detect, `reload_ms_p50` boot + register alone, `modularity` the
//! served partition's, and `peak_bytes_per_arc` the process's peak live
//! heap during the reads above the heap at their start.

use crate::client::{self, boot_and_warm, request_ok, scrape, Booted, GRAPH};
use crate::common::{check_partition, csr_bytes, parse_membership, write_input, Ctx, Report};
use crate::layers::{self, RunFigures};
use crate::stats::{block_median, median, ratio, tail_percentile, Scrape, StatError};
use crate::trace::Recorder;
use gve_graph::CsrGraph;
use gve_leiden::{Leiden, LeidenConfig, PassWorkspace};
use gve_net::http::{ClientConn, HttpLimits, RequestBuffer};
use gve_prim::alloc_count;
use gve_serve::Server;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const VERTICES: usize = 5_000;
const BLOCKS: usize = 10;
/// Client connections, each a closed loop.
const CLIENTS: usize = 2;
/// Cold set-ups per run; `setup_s` and `reload_ms_p50` are their
/// medians. Each takes about 30 ms; with fewer than about 40 the
/// medians moved by more than 10% between seeds.
const SETUPS: usize = 41;
/// Modularity floor of the served partition: reference runs on this
/// commit read Q = 0.784–0.793 over seeds 1–8.
const MODULARITY_FLOOR: f64 = 0.75;
/// Time blocks per run: every end-to-end read metric is the median of
/// its per-block values.
const TIME_BLOCKS: usize = 10;
/// Direct calls per handler-level measurement.
const HANDLER_CALLS: usize = 300;
/// Endpoint labels of the read mix in `gve_http_request_seconds`.
const READ_ENDPOINTS: [&str; 3] = ["detect", "communities", "membership"];

#[derive(Clone, Copy, PartialEq)]
enum Read {
    Detect,
    Communities,
    Membership,
}

/// The repeating ten-request mix (7 : 1 : 2).
const MIX: [Read; 10] = [
    Read::Detect,
    Read::Detect,
    Read::Detect,
    Read::Membership,
    Read::Communities,
    Read::Detect,
    Read::Detect,
    Read::Detect,
    Read::Detect,
    Read::Membership,
];
/// Warm in-process Leiden runs on the served graph whose `core`
/// figures a traced run reports (the warm detect's work).
const CORE_RUNS: usize = 5;

fn target(kind: Read, community: u32) -> (&'static str, String, Option<&'static str>) {
    match kind {
        Read::Detect => ("POST", format!("/graphs/{GRAPH}/detect"), Some("{}")),
        Read::Communities => (
            "GET",
            format!("/graphs/{GRAPH}/communities/{community}"),
            None,
        ),
        Read::Membership => ("GET", format!("/graphs/{GRAPH}/membership"), None),
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientOutcome {
    /// `(completion offset in seconds, latency in ms)` per good read.
    samples: Vec<(f64, f64)>,
    body_bytes: u64,
    failed: u64,
    problems: Vec<String>,
}

impl ClientOutcome {
    fn failure(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(problem);
        }
    }
}

/// One closed-loop client until `window` has passed.
fn client_loop(
    addr: &str,
    spans: &Recorder,
    start: Instant,
    window: Duration,
    offset: usize,
    communities: &[u32],
    reference_membership: &str,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let mut conn = match ClientConn::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            out.failure(format!("connect: {e}"));
            return out;
        }
    };
    let mut i = offset;
    while start.elapsed() < window {
        let kind = MIX[i % MIX.len()];
        let community = communities[(i / MIX.len()) % communities.len()];
        i += 1;
        let (method, path, body) = target(kind, community);
        let span = spans.root("net.request");
        let sent = Instant::now();
        let response = conn.request(method, &path, body);
        let latency = sent.elapsed().as_secs_f64() * 1e3;
        drop(span);
        let body = match response {
            Ok((status, body)) if (200..300).contains(&status) => body,
            Ok((status, _)) => {
                out.failure(format!("{method} {path}: status {status}"));
                continue;
            }
            Err(e) => {
                out.failure(format!("{method} {path}: {e}"));
                match ClientConn::connect(addr) {
                    Ok(fresh) => conn = fresh,
                    Err(_) => break,
                }
                continue;
            }
        };
        let valid = match kind {
            Read::Detect => body.contains("\"cached\":true"),
            Read::Communities => body.contains(&format!("\"community\":{community}")),
            Read::Membership => body == reference_membership,
        };
        if !valid {
            out.failure(format!("{method} {path}: unexpected body"));
            continue;
        }
        out.samples.push((start.elapsed().as_secs_f64(), latency));
        out.body_bytes += body.len() as u64;
    }
    out
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let input = ctx.work.join("sbm.mtx");
    {
        let planted = gve_generate::PlantedPartition::new(VERTICES, BLOCKS, 10.0, 0.8)
            .seed(ctx.seed)
            .generate();
        write_input(&input, &planted.graph);
    }
    ctx.env.borrow_mut().client_connections = CLIENTS;
    ctx.spans.set_enabled(ctx.traced);

    let mut setups = Setups::default();
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            old.stop();
        }
        let span = ctx.spans.root("bench.setup");
        match boot_and_warm(None, &input) {
            Ok(booted) => {
                setups.add(&booted);
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
    measure(ctx, report, &server, &addr, &setups, &input);
    server.stop();
}

fn measure(
    ctx: &Ctx,
    report: &mut Report,
    server: &Server,
    addr: &str,
    setups: &Setups,
    input: &Path,
) {
    let state = server.state();
    let graph = match state.registry.snapshot(GRAPH) {
        Ok(entry) => entry.graph,
        Err(e) => {
            report.fail(format!("registry: {e}"));
            return;
        }
    };
    ctx.env.borrow_mut().working_set_bytes = csr_bytes(&graph);

    // The served partition, checked once; every later membership read
    // must return exactly these bytes.
    let mut conn = match ClientConn::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            report.fail(format!("connect: {e}"));
            return;
        }
    };
    let reference = match request_ok(
        &mut conn,
        "GET",
        &format!("/graphs/{GRAPH}/membership"),
        None,
    ) {
        Ok(body) => body,
        Err(problem) => {
            report.fail(problem);
            return;
        }
    };
    let membership = match parse_membership(&reference) {
        Ok(m) => m,
        Err(problem) => {
            report.fail(problem);
            return;
        }
    };
    let served_modularity = {
        let _span = ctx.spans.root("quality.check");
        let checked = check_partition(&graph, &membership, MODULARITY_FLOOR, "served partition");
        let q = checked.clone().map_err(|_| StatError::Empty);
        report.op(checked.map(|_| ()));
        q
    };
    let mut communities: Vec<u32> = membership.clone();
    communities.sort_unstable();
    communities.dedup();
    let before = scrape(&mut conn);
    drop(conn);

    let mut phases: Vec<(bool, f64, Vec<ClientOutcome>)> = Vec::new();
    let mut peak_bytes = Vec::new();
    let mut allocs = 0u64;
    for (traced, window) in ctx.phases() {
        ctx.spans.set_enabled(traced);
        alloc_count::reset_watermarks();
        let heap = alloc_count::snapshot();
        let start = Instant::now();
        let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let spans = &ctx.spans;
                    let communities = &communities;
                    let reference = &reference;
                    // Clients start at different points of the mix and
                    // of the community list, both fixed by the seed.
                    let offset = (ctx.seed as usize).wrapping_mul(7) % 1000 + client * 5;
                    scope.spawn(move || {
                        client_loop(addr, spans, start, window, offset, communities, reference)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let after = alloc_count::snapshot();
        peak_bytes.push(after.peak.saturating_sub(heap.current) as f64);
        allocs += after.allocs_since(&heap);
        phases.push((traced, window.as_secs_f64(), outcomes));
    }
    ctx.spans.set_enabled(ctx.traced);
    let after = ClientConn::connect(addr)
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut conn| scrape(&mut conn));

    let mut latencies: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut completed = 0u64;
    let mut body_bytes = 0u64;
    let mut elapsed_s = 0.0f64;
    for (traced, window_s, outcomes) in &phases {
        for outcome in outcomes {
            latencies[usize::from(*traced)].extend(outcome.samples.iter().map(|s| s.1));
            completed += outcome.samples.len() as u64;
            body_bytes += outcome.body_bytes;
            report.attempted += outcome.samples.len() as u64 + outcome.failed;
            report.failed += outcome.failed;
            report.problems.extend(outcome.problems.iter().cloned());
        }
        elapsed_s += window_s;
    }

    if !ctx.traced {
        let (_, window_s, outcomes) = &phases[0];
        let samples: Vec<(f64, f64)> = outcomes.iter().flat_map(|o| o.samples.clone()).collect();
        let blocks = |stat: fn(&[f64], f64) -> Result<f64, StatError>| {
            block_median(&samples, *window_s, TIME_BLOCKS, stat)
        };
        report.metric("setup_s", "s", median(&setups.setup_s));
        report.metric("op_ms_p50", "ms", blocks(|v, _| median(v)));
        report.metric("op_ms_p90", "ms", blocks(|v, _| tail_percentile(v, 0.9)));
        report.metric(
            "throughput_per_s",
            "1/s",
            blocks(|v, secs| ratio(v.len() as f64, secs)),
        );
        report.metric("modularity", "Q", served_modularity);
        report.metric(
            "peak_bytes_per_arc",
            "B/arc",
            ratio(peak_bytes[0], graph.num_arcs() as f64),
        );
        report.metric("reload_ms_p50", "ms", median(&setups.loaded_ms));
        report.metric("read_ms_p99", "ms", blocks(|v, _| tail_percentile(v, 0.99)));
        report.note("reads", "count", samples.len() as f64);
        return;
    }

    let (before, after) = match (before, after) {
        (Ok(before), Ok(after)) => (before, after),
        (Err(problem), _) | (_, Err(problem)) => {
            report.fail(format!("/metrics: {problem}"));
            return;
        }
    };
    // Means, not medians: they subtract exactly, and the server's
    // latency histogram cannot resolve a median below its 500 µs bucket.
    let all: Vec<f64> = latencies.concat();
    let client_mean_us = ratio(all.iter().sum::<f64>() * 1e3, all.len() as f64);
    let endpoint_sets: Vec<[(&str, &str); 1]> =
        READ_ENDPOINTS.iter().map(|e| [("endpoint", *e)]).collect();
    let label_sets: Vec<&[(&str, &str)]> = endpoint_sets.iter().map(|s| &s[..]).collect();
    let server_mean_us = before
        .histogram_mean(&after, "gve_http_request_seconds", &label_sets)
        .map(|s| s * 1e6);
    report.metric(
        "net.wire_overhead_us",
        "us",
        client_mean_us.and_then(|c| Ok(c - server_mean_us?)),
    );
    net_counters(report, &before, &after, elapsed_s);
    report.metric(
        "serve.response_bytes_mean",
        "bytes",
        ratio(body_bytes as f64, completed as f64),
    );
    report.metric(
        "trace.overhead_frac",
        "fraction",
        median(&latencies[1]).and_then(|t| Ok(t / median(&latencies[0])? - 1.0)),
    );
    for (half, samples) in ["untraced", "traced"].iter().zip(&latencies) {
        if let Ok(p50) = median(samples) {
            report.note(&format!("read_ms_p50 {half}"), "ms", p50);
        }
    }
    report.metric(
        "alloc.allocs_per_op",
        "count",
        ratio(allocs as f64, completed as f64),
    );
    report.metric(
        "alloc.cold_bytes_per_arc",
        "B/arc",
        median(&setups.allocated_bytes).and_then(|b| ratio(b, graph.num_arcs() as f64)),
    );
    layer_micro(ctx, report, server, addr, &reference, communities[0]);
    core_runs(ctx, report, &graph);
    layers::read(ctx, report, input);
}

/// Per-set-up figures, reported as medians.
#[derive(Default)]
struct Setups {
    setup_s: Vec<f64>,
    loaded_ms: Vec<f64>,
    allocated_bytes: Vec<f64>,
}

impl Setups {
    fn add(&mut self, booted: &Booted) {
        self.setup_s.push(booted.setup_ms / 1e3);
        self.loaded_ms.push(booted.loaded_ms);
        self.allocated_bytes.push(booted.allocated_bytes as f64);
    }
}

/// The `core` and primitive figures of the detection the set-up runs,
/// repeated in-process on the served graph with the default config.
fn core_runs(ctx: &Ctx, report: &mut Report, graph: &CsrGraph) {
    let leiden = Leiden::new(LeidenConfig::default());
    let mut workspace = PassWorkspace::new();
    let mut figures = RunFigures::default();
    for _ in 0..=CORE_RUNS {
        let result = {
            let _span = ctx.spans.root("core.run_in");
            ctx.pool.install(|| leiden.run_in(graph, &mut workspace))
        };
        figures.add(&result);
        let _span = ctx.spans.root("quality.check");
        report.op(check_partition(
            graph,
            &result.membership,
            MODULARITY_FLOOR,
            "in-process run",
        )
        .map(|_| ()));
    }
    figures.report(report);
    layers::micro(ctx, report, &leiden, graph);
}

/// Reactor and cache ratios from `/metrics` counter deltas.
fn net_counters(report: &mut Report, before: &Scrape, after: &Scrape, wall_s: f64) {
    let delta = |name: &str| before.delta(after, name, &[]);
    let requests = delta("gve_net_requests_total");
    let per_request =
        |name: &str| -> Result<f64, StatError> { ratio(delta(name)?, requests.clone()?) };
    report.metric(
        "net.inline_frac",
        "fraction",
        per_request("gve_net_inline_total"),
    );
    report.metric(
        "net.keepalive_reuse_frac",
        "fraction",
        per_request("gve_net_keepalive_reuses_total"),
    );
    report.metric(
        "net.wakeups_per_req",
        "ratio",
        per_request("gve_net_wakeups_total"),
    );
    report.metric(
        "net.loop_busy_frac",
        "fraction",
        delta("gve_net_loop_seconds_sum").and_then(|busy| ratio(busy, wall_s)),
    );
    let hits = delta("gve_cache_hits_total");
    let misses = delta("gve_cache_misses_total");
    report.metric(
        "cache.hit_ratio",
        "fraction",
        hits.clone().and_then(|h| ratio(h, h + misses?)),
    );
}

/// Raw request bytes exactly as the load clients send them.
fn raw_request(addr: &str, kind: Read, community: u32) -> Vec<u8> {
    let (method, path, body) = target(kind, community);
    let body = body.unwrap_or("");
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Parse, handler and render costs measured by calling each layer
/// directly on the live server state.
fn layer_micro(
    ctx: &Ctx,
    report: &mut Report,
    server: &Server,
    addr: &str,
    reference: &str,
    community: u32,
) {
    let limits = HttpLimits::default();
    let raw: Vec<Vec<u8>> = MIX
        .iter()
        .map(|&k| raw_request(addr, k, community))
        .collect();
    let parse_reps = 2000;
    let mut samples = Vec::new();
    // One buffer per connection, as the reactor keeps it.
    let mut buffer = RequestBuffer::new();
    for _ in 0..5 {
        let start = Instant::now();
        let _span = ctx.spans.root("net.parse");
        for _ in 0..parse_reps {
            for bytes in &raw {
                buffer.extend(bytes);
                black_box(buffer.try_next(&limits).ok());
            }
        }
        samples.push(start.elapsed().as_secs_f64() * 1e9 / (parse_reps * raw.len()) as f64);
    }
    report.metric("net.parse_ns", "ns", median(&samples));

    let state = server.state();
    for (kind, name) in [
        (Read::Detect, "serve.handle_us.detect"),
        (Read::Membership, "serve.handle_us.membership"),
        (Read::Communities, "serve.handle_us.communities"),
    ] {
        let mut buffer = RequestBuffer::new();
        buffer.extend(&raw_request(addr, kind, community));
        let request = match buffer.try_next(&limits) {
            Ok(Some(request)) => request,
            _ => {
                report.fail(format!("{name}: the request bytes did not parse"));
                continue;
            }
        };
        let mut samples = Vec::with_capacity(HANDLER_CALLS);
        for _ in 0..HANDLER_CALLS {
            let _span = ctx.spans.root("serve.handle");
            let start = Instant::now();
            let response = gve_serve::handlers::handle(state, &request);
            samples.push(start.elapsed().as_secs_f64() * 1e6);
            report.op(if response.status == 200 {
                Ok(())
            } else {
                Err(format!("{name}: status {}", response.status))
            });
            black_box(response);
        }
        report.metric(name, "us", median(&samples));
    }

    match gve_serve::json::parse(reference) {
        Ok(json) => {
            let samples: Vec<f64> = (0..HANDLER_CALLS)
                .map(|_| {
                    let _span = ctx.spans.root("json.render");
                    let start = Instant::now();
                    black_box(json.render());
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            report.metric("serve.json_render_us.membership", "us", median(&samples));
        }
        Err(e) => report.fail(format!("membership body: {e}")),
    }
}
