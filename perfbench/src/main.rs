//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this (fresh) process and prints one summary line
//! per metric, then the result as a single JSON line: `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones and writes the spans
//! to `--trace-dir` (default `.bench_build/perfbench-trace`).
//!
//! `perfbench --make-reference <fine_transient|mc_campaign>` regenerates a
//! committed reference file at the tight solver profile.

use perfbench::trace::Tracer;
use perfbench::workloads::{
    fine_transient, mc_campaign, serve_mixed, RunArgs, END_TO_END, PER_LAYER, WORKLOADS,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n       \
         perfbench --make-reference <fine_transient|mc_campaign>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };

    if let Some(name) = value("--make-reference") {
        match name {
            "fine_transient" => fine_transient::make_reference(),
            "mc_campaign" => mc_campaign::make_reference(),
            other => return usage(&format!("no reference for {other:?}")),
        }
        return ExitCode::SUCCESS;
    }

    let Some(workload) = value("--workload") else {
        return usage("missing --workload");
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("missing or invalid --seed");
    };
    let Some(seconds) = value("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s >= 0.0)
    else {
        return usage("missing or invalid --seconds");
    };
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return usage(&format!("--trace must be 0 or 1, got {other:?}")),
    };
    let run_args = RunArgs {
        seed,
        seconds,
        trace,
    };
    let tracer = Tracer::new(trace);
    let mut report = match workload {
        "fine_transient" => fine_transient::run(&run_args, &tracer),
        "mc_campaign" => mc_campaign::run(&run_args, &tracer),
        "serve_mixed" => serve_mixed::run(&run_args, &tracer),
        other => return usage(&format!("unknown workload {other:?}")),
    };
    if !trace {
        // Failed or wrong operations over attempted ones, as the share that
        // succeeded (a ratio that is never 0 on a working engine).
        let ratio = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.push("success_ratio", ratio, "ratio");
    } else {
        let dir = value("--trace-dir").map_or_else(
            || PathBuf::from(".bench_build").join("perfbench-trace"),
            PathBuf::from,
        );
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    // Every run reports exactly the metrics BENCHMARK.json lists for it.
    let listed: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = report.conform(listed) {
        eprintln!("perfbench: {workload}: {e}");
        return ExitCode::FAILURE;
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# workload {workload}, seed {seed}, available parallelism {threads}");
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
