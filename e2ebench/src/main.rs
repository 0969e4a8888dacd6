//! End-to-end benchmark of the CPM suite: one generator timestamp makes
//! one batch, and the next batch goes in only after every subscriber
//! replica has applied the previous cycle's deltas (a closed loop, the
//! paper's per-timestamp model).
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload city_single --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced). The lines before it are the run's report.
//! The process exits non-zero on any output mismatch or failed
//! operation. See `README.md` for the workloads and metrics.

mod city;
mod cluster;
mod common;
mod durable;
mod reference;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;

use common::{span_means, Args, Run};
use trace::Tracer;

/// Measured cycles a run needs at least, so that ten lie beyond the 90th
/// percentile.
pub const MIN_CYCLES: usize = 100;

/// Identical set-ups a run needs at least; `setup_s` is their median.
pub const MIN_SETUPS: usize = 5;

/// The workloads. `BENCHMARK.json` lists the last two; `city_single`
/// runs on demand (see README.md for why it is not listed).
const WORKLOADS: [&str; 3] = ["city_single", "depots_cluster", "hotspot_durable"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0_f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &Run) -> Vec<(String, f64, &'static str)> {
    let cycles = run.cycle_ms.len() as f64;
    let busy_s: f64 = run.cycle_ms.iter().sum::<f64>() / 1e3;
    vec![
        ("setup_s".into(), stats::median(&run.setup_s), "s"),
        ("cycle_ms_p50".into(), stats::median(&run.cycle_ms), "ms"),
        (
            "cycle_ms_p90".into(),
            stats::p90(&run.cycle_ms).unwrap_or(f64::NAN),
            "ms",
        ),
        (
            "updates_per_s".into(),
            run.object_events as f64 / busy_s,
            "1/s",
        ),
        (
            "delta_bytes_per_cycle".into(),
            run.delta_bytes as f64 / cycles,
            "B",
        ),
        (
            "peak_rss_mb".into(),
            sys::peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
        ),
        ("restart_ms".into(), stats::median(&run.restart_ms), "ms"),
        (
            "journal_bytes_per_cycle".into(),
            run.journal_bytes as f64 / cycles,
            "B",
        ),
    ]
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") || name.ends_with("_ms_p50") {
        "ms"
    } else if name.ends_with("_share")
        || name.ends_with("coverage")
        || name == "cluster.replication"
    {
        "ratio"
    } else if name == "snapshot.bytes" {
        "B"
    } else {
        "count"
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(run: &Run, tracer: &Tracer) -> Vec<(String, f64, &'static str)> {
    let mut out: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    for name in common::layer_metric_names() {
        out.insert(name, 0.0);
    }
    for (name, v) in span_means(tracer) {
        out.insert(name, v);
    }
    for (name, (sum, n)) in &run.layer {
        out.insert(name.clone(), if *n == 0 { 0.0 } else { sum / *n as f64 });
    }
    let cycle_total = tracer.total_ms("cycle");
    let cycle_self = tracer.self_ms().get("cycle").copied().unwrap_or(0.0);
    out.insert(
        "trace.span_coverage".into(),
        if cycle_total > 0.0 {
            1.0 - cycle_self / cycle_total
        } else {
            0.0
        },
    );
    out.insert("trace.cycle_ms_p50".into(), stats::median(&run.cycle_ms));
    out.into_iter()
        .map(|(name, v)| {
            let unit = unit_of(&name);
            (name, v, unit)
        })
        .collect()
}

fn report(args: &Args, run: &Run) {
    println!(
        "e2ebench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: nproc={} cpu=\"{}\"", sys::nproc(), sys::cpu_model());
    println!(
        "threads started by the workload: {} besides the main thread; at most {} busy at once",
        run.threads_started,
        run.busy_threads.max(1)
    );
    println!(
        "operations attempted/failed: cycles {}/{}, set-ups {}/{}, recoveries {}/{}",
        run.cycles.attempted,
        run.cycles.failed,
        run.setups.attempted,
        run.setups.failed,
        run.recoveries.attempted,
        run.recoveries.failed
    );
    println!(
        "checks: {} compared, {} mismatched",
        run.checks,
        run.mismatches.len()
    );
    for m in &run.mismatches {
        println!("  MISMATCH {m}");
    }
    for (check, n) in &run.ties {
        println!(
            "  boundary ties ({check}): {n} results keep a different object at exactly the k-th distance than the (dist, id) tie-break"
        );
    }
    let cycles = run.cycles.attempted.max(1) as f64;
    for (name, n) in &run.adaptations {
        println!(
            "load adaptation: {name}: {n} ({:.2} per cycle)",
            *n as f64 / cycles
        );
    }
    println!(
        "measured cycles: {}; generator time: {:.3} s",
        run.cycle_ms.len(),
        run.generator_s
    );
    let restarts: Vec<String> = run.restart_ms.iter().map(|ms| format!("{ms:.1}")).collect();
    println!("restarts (ms): {}", restarts.join(" "));
    let setups: Vec<String> = run.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("set-ups (s): {}", setups.join(" "));
    for n in &run.notes {
        println!("note: {n}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = reference::self_test() {
        eprintln!("e2ebench: reference self-test failed: {e}");
        return ExitCode::from(3);
    }
    let mut tracer = Tracer::new(args.trace);
    let mut run = Run::default();
    let outcome = match args.workload.as_str() {
        "city_single" => city::run(&args, &mut tracer, &mut run),
        "depots_cluster" => cluster::run(&args, &mut tracer, &mut run),
        "hotspot_durable" => durable::run(&args, &mut tracer, &mut run),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    if let Err(e) = &outcome {
        eprintln!("e2ebench: {}: {e}", args.workload);
        run.mismatches.push(format!("run stopped: {e}"));
    }
    report(&args, &run);
    let metrics = if args.trace {
        let path = std::path::PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("e2ebench: could not write spans: {e}"),
        }
        per_layer(&run, &tracer)
    } else {
        end_to_end(&run)
    };
    let attempted = run.cycles.attempted + run.setups.attempted + run.recoveries.attempted;
    let failed = run.cycles.failed + run.setups.failed + run.recoveries.failed;
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = run.mismatches.is_empty() && finite;
    if !finite {
        println!("a metric could not be measured (too few samples)");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| json_metric(n, if v.is_finite() { *v } else { 0.0 }, u))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
