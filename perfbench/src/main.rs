//! The benchmark of record for the fdm workspace.
//!
//! ```text
//! perfbench --workload core_batch|durable_ingest|cluster_refresh
//!           --seed N --seconds S --trace 0|1 --server-bin PATH --work-dir DIR
//! ```
//!
//! Usually started through `perfbench/run.sh`, which builds the release
//! `fdm-serve` and this program first. Prints one JSON result line last on
//! stdout: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. A failed correctness check prints `"correct": false`
//! with no metrics and exits 1. See `perfbench/README.md`.

mod cluster_refresh;
mod common;
mod core_batch;
mod durable_ingest;
mod heap;
mod layers;
mod lineconn;
mod replay;
mod server;
mod stats;

use std::path::PathBuf;

use common::{result_line, Metrics, Outcome, Run};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "ingest_eps",
    "insert_p50_us",
    "query_p50_ms",
    "peak_mem_mb",
    "diversity",
];

/// Per-layer metrics reported with `--trace 1`, with their units. A layer
/// that a workload does not run reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.distance_ns", "ns"),
    ("streaming.insert_ns", "ns"),
    ("streaming.stored", "count"),
    ("streaming.finalize_ms", "ms"),
    ("streaming.merge_parts_ms", "ms"),
    ("persist.capture_us", "us"),
    ("persist.encode_us", "us"),
    ("persist.decode_us", "us"),
    ("persist.restore_us", "us"),
    ("persist.checkpoints_full", "count"),
    ("persist.checkpoints_delta", "count"),
    ("persist.compactions", "count"),
    ("persist.bytes_full", "bytes"),
    ("persist.bytes_delta", "bytes"),
    ("protocol.render_ns", "ns"),
    ("protocol.parse_ns", "ns"),
    ("protocol.bytes_per_elem", "bytes"),
    ("client.rtt_insert_us", "us"),
    ("client.rtt_query_us", "us"),
    ("net.self_us", "us"),
    ("session.self_us", "us"),
    ("engine.insert_us", "us"),
    ("engine.self_us", "us"),
    ("engine.wal_records", "count"),
    ("engine.busy_rejections", "count"),
    ("coordinator.insertb_us", "us"),
    ("coordinator.query_ms", "ms"),
    ("coordinator.cached_query_us", "us"),
    ("coordinator.merge_bytes_full", "bytes"),
    ("coordinator.merge_bytes_delta", "bytes"),
    ("coordinator.reanchors", "count"),
    ("coordinator.cache_hit_ratio", "ratio"),
    ("coordinator.worker_failures", "count"),
    ("generator.lag_p99_ms", "ms"),
    ("generator.backlog_max", "count"),
    ("generator.max_rate_eps", "el/s"),
    ("server.cpu_ms_per_kop", "ms"),
    ("recovery_s", "s"),
    ("tail.insert_p99_us", "us"),
    ("tail.query_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: &[&str] = &["core_batch", "durable_ingest", "cluster_refresh"];

struct Args {
    workload: String,
    run: Run,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "--seed: not a number")?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let server_bin = server_bin.ok_or("--server-bin is required")?;
    if !server_bin.is_file() {
        return Err(format!(
            "--server-bin {} is not a file",
            server_bin.display()
        ));
    }
    let work_dir = work_dir.ok_or("--work-dir is required")?;
    let run_dir = work_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    Ok(Args {
        workload,
        run: Run {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            server_bin,
            work_dir: run_dir,
            trace_dir: work_dir,
        },
    })
}

/// Runs the workload and shapes its metrics into the reported set.
fn measure(args: &Args) -> Result<Outcome, String> {
    let mut outcome = match args.workload.as_str() {
        "core_batch" => core_batch::run(&args.run)?,
        "durable_ingest" => durable_ingest::run(&args.run)?,
        "cluster_refresh" => cluster_refresh::run(&args.run)?,
        other => unreachable!("workload {other} passed validation"),
    };
    let mut shaped = Metrics::default();
    if args.run.trace {
        for (name, unit) in PER_LAYER {
            shaped.put(name, outcome.metrics.get(name).unwrap_or(0.0), unit);
        }
    } else {
        for name in END_TO_END {
            let (_, value, unit) = outcome
                .metrics
                .0
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or(format!("workload did not measure {name}"))?;
            shaped.put(name, *value, unit);
        }
    }
    outcome.metrics = shaped;
    Ok(outcome)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A panic unwinds through every `Server` guard, so the servers are
    // gone before the stray check either way.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| measure(&args)))
        .unwrap_or_else(|_| Err("panicked".to_string()));
    let result = match (result, server::assert_no_strays()) {
        (Ok(outcome), Ok(())) => Ok(outcome),
        (Err(e), _) | (Ok(_), Err(e)) => Err(e),
    };
    let _ = std::fs::remove_dir_all(&args.run.work_dir);
    let line = result
        .and_then(|o| result_line(true, o.attempted, o.failed, &o.metrics).map(|l| (l, o.failed)));
    match line {
        Ok((line, failed)) => {
            println!("{line}");
            if failed > 0 {
                eprintln!("perfbench: {failed} requests failed");
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            let line = result_line(false, 1, 1, &Metrics::default()).expect("empty metrics render");
            println!("{line}");
            std::process::exit(1);
        }
    }
}
