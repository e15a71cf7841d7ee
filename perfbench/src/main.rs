//! End-to-end and per-layer benchmark of GVE-Leiden and its serving
//! tier.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload static-lfr --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--workload all` runs the three workloads one after another, each
//! with its own report and result line.
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `static-lfr`   — read an LFR `.mtx`, then warm `Leiden::run_in`
//!   in a loop (library path only);
//! * `serve-read`   — two keep-alive clients reading a cached partition
//!   from the event-loop server;
//! * `update-churn` — a durable server taking `ChurnStream` update
//!   batches while a follower polls `/delta`, then cold restarts.
//!
//! Every workload reports the same metric names, so that each run's
//! result line holds every metric `BENCHMARK.json` lists: `--trace 0`
//! prints the end-to-end metrics ([`common::END_TO_END`]; each
//! workload's module docs say what an operation is there), `--trace 1`
//! runs the same loop half untraced and half traced, adds the
//! per-layer measurements ([`common::PER_LAYER`]), and writes the
//! spans to `perfbench-out/`. Figures only one workload has (serving,
//! reactor, update path, WAL) are printed in its report, marked `+`,
//! but left out of the result line. Every partition the workload
//! produces is checked; a failed check makes the run exit 1. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod client;
mod common;
mod env;
mod layers;
mod serve_read;
mod static_lfr;
mod stats;
mod trace;
mod update_churn;

use common::{Ctx, Report};
use gve_prim::alloc_count::CountingAllocator;
use std::process::ExitCode;

// The `gve` binary installs the same allocator, so the serving tier
// runs here as it does there; static-lfr reads its memory figures from
// it.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const WORKLOADS: [&str; 3] = ["static-lfr", "serve-read", "update-churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected {}|all)",
            WORKLOADS.join("|")
        ));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let workloads = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut correct = true;
    for workload in workloads {
        let ctx = match Ctx::new(workload, args.seed, args.seconds, args.trace) {
            Ok(ctx) => ctx,
            Err(e) => {
                eprintln!("perfbench: cannot create the work directory: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut report = Report::default();
        match workload {
            "static-lfr" => static_lfr::run(&ctx, &mut report),
            "serve-read" => serve_read::run(&ctx, &mut report),
            _ => update_churn::run(&ctx, &mut report),
        }
        correct &= ctx.finish(report);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
