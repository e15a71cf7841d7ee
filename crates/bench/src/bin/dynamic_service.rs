//! Dynamic-service benchmark: sustained churn through the serving
//! tier's update path, per strategy, plus recovery-time scaling.
//!
//! Phase 1 drives identical [`ChurnStream`] windows through a resident
//! server's `POST /graphs/{name}/updates` endpoint once per dynamic
//! strategy (the partition is pre-warmed, so every batch takes the
//! incremental-refresh path) and reports sustained updates/sec plus
//! refresh latency p50/p99 — `full-static` doubling as the
//! recompute-from-scratch baseline the three incremental strategies
//! are compared against.
//!
//! Phase 2 measures durability: boot on a data dir, apply N batches,
//! drop the server, and time a cold [`Server::start`] that recovers the
//! graph from snapshot + WAL replay, for increasing WAL lengths. Each
//! row also reports the WAL records the cold start replayed (from
//! `gve_wal_recovered_records_total`): recovery costs one snapshot load
//! plus one `apply_batch` row-patch per batch logged since the last
//! compaction, so a short WAL that ends mid-interval can replay more
//! than a long one that ends on a compaction.
//!
//! ```text
//! cargo run --release -p gve-bench --bin dynamic_service -- \
//!     --vertices 50000 --windows 16 --json BENCH_dynamic.json
//! ```
//!
//! Gates (used by the CI `dynamic-bench-smoke` job):
//! * `--assert-speedup <f>` — fail unless the best incremental
//!   strategy's p50 refresh beats f × the full-static p50.
//! * `--assert-recovery-ms <f>` — fail if the longest measured recovery
//!   exceeds the floor.

use gve_bench::report::{render_report, Table};
use gve_dynamic::{collect_windows, BatchUpdate, ChurnStream};
use gve_obs::json::Json;
use gve_serve::jobs::DetectRequest;
use gve_serve::registry::GraphSource;
use gve_serve::{client_request, ServeConfig, Server};
use std::fmt::Write as _;
use std::process::exit;
use std::time::{Duration, Instant};

struct Args {
    vertices: usize,
    windows: usize,
    insert_rate: f64,
    delete_rate: f64,
    window_seconds: f64,
    wal_lengths: Vec<usize>,
    json: String,
    assert_speedup: Option<f64>,
    assert_recovery_ms: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        vertices: 2000,
        windows: 16,
        insert_rate: 400.0,
        delete_rate: 100.0,
        window_seconds: 0.5,
        wal_lengths: vec![8, 32, 128],
        json: "BENCH_dynamic.json".to_string(),
        assert_speedup: None,
        assert_recovery_ms: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .clone()
        };
        match flag.as_str() {
            "--vertices" => args.vertices = value("--vertices").parse().expect("bad --vertices"),
            "--windows" => args.windows = value("--windows").parse().expect("bad --windows"),
            "--insert-rate" => {
                args.insert_rate = value("--insert-rate").parse().expect("bad --insert-rate")
            }
            "--delete-rate" => {
                args.delete_rate = value("--delete-rate").parse().expect("bad --delete-rate")
            }
            "--window-seconds" => {
                args.window_seconds = value("--window-seconds")
                    .parse()
                    .expect("bad --window-seconds")
            }
            "--wal-lengths" => {
                args.wal_lengths = value("--wal-lengths")
                    .split(',')
                    .map(|c| c.trim().parse().expect("bad --wal-lengths"))
                    .collect();
            }
            "--json" => args.json = value("--json"),
            "--assert-speedup" => {
                args.assert_speedup = Some(value("--assert-speedup").parse().expect("bad float"))
            }
            "--assert-recovery-ms" => {
                args.assert_recovery_ms =
                    Some(value("--assert-recovery-ms").parse().expect("bad float"))
            }
            other => {
                eprintln!("unknown flag {other}");
                exit(2);
            }
        }
    }
    args
}

const STRATEGIES: [&str; 4] = [
    "full-static",
    "naive",
    "delta-screening",
    "dynamic-frontier",
];

fn boot(data_dir: Option<&str>) -> Server {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        shards: 2,
        data_dir: data_dir.map(str::to_string),
        ..ServeConfig::default()
    })
    .expect("bind bench server")
}

/// Registers the planted graph and pre-warms its default partition so
/// every update batch takes the incremental-refresh path.
fn seed_graph(server: &Server, vertices: usize) {
    let planted = gve_generate::PlantedPartition::new(vertices, 10, 10.0, 0.8)
        .seed(42)
        .generate();
    server
        .state()
        .registry
        .register("bench", planted.graph, GraphSource::Generated("sbm".into()))
        .expect("register bench graph");
    if let Some(store) = &server.state().durability {
        let entry = server.state().registry.snapshot("bench").expect("entry");
        store
            .register_graph("bench", &entry.graph, &entry.source.label())
            .expect("persist bench graph");
    }
    let job = server
        .state()
        .jobs
        .submit("bench", DetectRequest::default())
        .expect("warm submit");
    let deadline = Instant::now() + Duration::from_secs(120);
    while server.state().cache.latest("bench").is_none() {
        assert!(Instant::now() < deadline, "warm detect never finished");
        assert!(
            server.state().jobs.job(job.id).is_some(),
            "warm job disappeared"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn batch_body(batch: &BatchUpdate, strategy: &str) -> String {
    let mut body = String::with_capacity(batch.len() * 16 + 64);
    body.push_str("{\"strategy\":\"");
    body.push_str(strategy);
    body.push_str("\",\"insertions\":[");
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

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

struct StrategyReport {
    strategy: &'static str,
    updates_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    total_edits: usize,
}

/// One strategy's sustained-churn run on a fresh memory-only server.
fn run_strategy(strategy: &'static str, args: &Args, windows: &[BatchUpdate]) -> StrategyReport {
    let server = boot(None);
    seed_graph(&server, args.vertices);
    let addr = format!("127.0.0.1:{}", server.port());

    let mut latencies: Vec<f64> = Vec::with_capacity(windows.len());
    let mut total_edits = 0usize;
    let started = Instant::now();
    for window in windows {
        if window.is_empty() {
            continue;
        }
        total_edits += window.len();
        let body = batch_body(window, strategy);
        let sent = Instant::now();
        let (status, response) =
            client_request(&addr, "POST", "/graphs/bench/updates", Some(&body))
                .expect("update request");
        assert!(status == 200 || status == 202, "{status} {response}");
        latencies.push(sent.elapsed().as_secs_f64() * 1e3);
    }
    assert!(
        server.state().ingest.wait_idle(Duration::from_secs(120)),
        "ingest queue never drained"
    );
    let elapsed = started.elapsed().as_secs_f64();
    server.stop();

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    StrategyReport {
        strategy,
        updates_per_sec: total_edits as f64 / elapsed,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        total_edits,
    }
}

struct RecoveryReport {
    wal_records: usize,
    replayed_records: u64,
    recovery_ms: f64,
}

/// Applies `batches` update batches against a durable server, then
/// times a cold boot that recovers the graph from snapshot + WAL.
fn run_recovery(args: &Args, windows: &[BatchUpdate], batches: usize) -> RecoveryReport {
    let dir = std::env::temp_dir().join(format!(
        "gve-bench-dynamic-{}-{batches}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.display().to_string();
    {
        let server = boot(Some(&dir_str));
        seed_graph(&server, args.vertices);
        let addr = format!("127.0.0.1:{}", server.port());
        for i in 0..batches {
            let window = &windows[i % windows.len()];
            if window.is_empty() {
                continue;
            }
            let body = batch_body(window, "dynamic-frontier");
            let (status, response) =
                client_request(&addr, "POST", "/graphs/bench/updates", Some(&body))
                    .expect("update request");
            assert!(status == 200 || status == 202, "{status} {response}");
        }
        assert!(server.state().ingest.wait_idle(Duration::from_secs(120)));
        server.stop();
    }
    let started = Instant::now();
    let server = boot(Some(&dir_str));
    let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        server.state().registry.snapshot("bench").is_ok(),
        "bench graph did not recover"
    );
    let replayed_records = server
        .state()
        .durability
        .as_ref()
        .expect("durable server")
        .stats
        .recovered_records
        .get();
    server.stop();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    RecoveryReport {
        wal_records: batches,
        replayed_records,
        recovery_ms,
    }
}

fn main() {
    let args = parse_args();

    // One fixed window stream so every strategy sees identical churn.
    let planted = gve_generate::PlantedPartition::new(args.vertices, 10, 10.0, 0.8)
        .seed(42)
        .generate();
    let stream = ChurnStream::new(&planted.graph, args.insert_rate, args.delete_rate, 7);
    let windows = collect_windows(stream, args.window_seconds, args.windows);

    let mut table = Table::new(
        "Dynamic service tier: sustained churn through POST /updates",
        &[
            "Strategy",
            "Updates/s",
            "p50 ms",
            "p99 ms",
            "Speedup vs static",
        ],
    );
    let reports: Vec<StrategyReport> = STRATEGIES
        .iter()
        .map(|s| run_strategy(s, &args, &windows))
        .collect();
    let static_p50 = reports
        .iter()
        .find(|r| r.strategy == "full-static")
        .map(|r| r.p50_ms)
        .unwrap_or(0.0);
    let speedup_of = |r: &StrategyReport| {
        if r.p50_ms > 0.0 {
            static_p50 / r.p50_ms
        } else {
            0.0
        }
    };
    for report in &reports {
        let speedup = speedup_of(report);
        table.push(vec![
            report.strategy.to_string(),
            format!("{:.0}", report.updates_per_sec),
            format!("{:.2}", report.p50_ms),
            format!("{:.2}", report.p99_ms),
            format!("{speedup:.2}x"),
        ]);
    }
    table.print();

    let mut recovery_table = Table::new(
        "Recovery time vs WAL length (snapshot + replay)",
        &["WAL records", "Replayed records", "Recovery ms"],
    );
    let recoveries: Vec<RecoveryReport> = args
        .wal_lengths
        .iter()
        .map(|&n| run_recovery(&args, &windows, n))
        .collect();
    for r in &recoveries {
        recovery_table.push(vec![
            r.wal_records.to_string(),
            r.replayed_records.to_string(),
            format!("{:.1}", r.recovery_ms),
        ]);
    }
    recovery_table.print();

    // ------------------------------------------------------------ JSON
    let round3 = |x: f64| (x * 1e3).round() / 1e3;
    let json = render_report(&[
        ("bench", Json::from("dynamic_service")),
        ("vertices", Json::from(args.vertices)),
        ("windows", Json::from(args.windows)),
        (
            "strategies",
            Json::Arr(
                reports
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("strategy", Json::from(r.strategy)),
                            ("updates_per_sec", Json::from(r.updates_per_sec.round())),
                            ("p50_ms", Json::from(round3(r.p50_ms))),
                            ("p99_ms", Json::from(round3(r.p99_ms))),
                            ("total_edits", Json::from(r.total_edits)),
                            ("speedup_vs_full_static", Json::from(round3(speedup_of(r)))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "recovery",
            Json::Arr(
                recoveries
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("wal_records", Json::from(r.wal_records)),
                            ("replayed_records", Json::from(r.replayed_records)),
                            ("recovery_ms", Json::from(round3(r.recovery_ms))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&args.json, &json).expect("write json");
    eprintln!("wrote {}", args.json);

    // ------------------------------------------------------------ gates
    let mut failed = false;
    if let Some(floor) = args.assert_speedup {
        let best = reports
            .iter()
            .filter(|r| r.strategy != "full-static")
            .map(speedup_of)
            .fold(0.0f64, f64::max);
        if best < floor {
            eprintln!("GATE FAIL: best incremental speedup {best:.2}x < required {floor:.2}x");
            failed = true;
        } else {
            eprintln!("gate ok: best incremental speedup {best:.2}x >= {floor:.2}x");
        }
    }
    if let Some(floor) = args.assert_recovery_ms {
        let worst = recoveries.iter().map(|r| r.recovery_ms).fold(0.0, f64::max);
        if worst > floor {
            eprintln!("GATE FAIL: worst recovery {worst:.1} ms > allowed {floor:.1} ms");
            failed = true;
        } else {
            eprintln!("gate ok: worst recovery {worst:.1} ms <= {floor:.1} ms");
        }
    }
    if failed {
        exit(1);
    }
}
