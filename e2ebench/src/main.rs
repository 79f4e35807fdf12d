//! End-to-end benchmark of diffusion-based placement migration: the time
//! from an inflated placement to a legal one, on three workloads, with
//! the quality of the result beside the time.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload global-centered-20k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it is a report with the environment, the workload parameters
//! and every metric's sample count; the report (and, for traced runs, a
//! Chrome/Perfetto trace) is also written under `--out`.

mod eco;
mod env;
mod flow;
mod metrics;
mod quality;
mod run;
mod stats;
mod trace;

use run::Run;
use stats::{json_num, json_str, result_line};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["global-centered-20k", "local-centered-20k", "ctl-eco-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--out" => args.out = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let environment = env::describe();
    let mut run = Run::default();
    match args.workload.as_str() {
        "global-centered-20k" | "local-centered-20k" => {
            let algo = if args.workload.starts_with("global") {
                flow::Algo::Global
            } else {
                flow::Algo::Local
            };
            flow::run(algo, args.seed, args.seconds, args.trace, &mut run);
        }
        _ => {
            eco::run(args.seed, args.seconds, args.trace, &mut run);
        }
    }
    run.sheet
        .set("peak_rss_mb", env::peak_rss_mb().unwrap_or(0.0), 1);

    let list = if args.trace {
        metrics::LAYERS
    } else {
        metrics::E2E
    };
    let metrics = match run.sheet.collect(list) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("e2ebench: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let mut trace_file = String::from("null");
    if args.trace {
        let path = args.out.join(format!("{stem}.trace.jsonl"));
        if let Err(e) = trace::export(&run.spans, &args.workload, &path) {
            eprintln!("e2ebench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        trace_file = json_str(&path.to_string_lossy());
    }

    let acc = &run.acc;
    let samples: Vec<String> = metrics
        .iter()
        .map(|m| format!("{}: {}", json_str(m.name), m.samples))
        .collect();
    let notes: Vec<String> = run
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let report = format!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"environment\": {environment}, \"workload_params\": {{{}}}, \
         \"accounting\": {{\"attempted\": {}, \"rejected\": {}, \"transport\": {}, \
         \"check_failures\": {}, \"failed_frac\": {}}}, \"samples\": {{{}}}, \"trace_file\": {trace_file}}}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        notes.join(", "),
        acc.attempted,
        acc.rejected,
        acc.transport,
        acc.check_failures,
        json_num(acc.failed_frac()),
        samples.join(", "),
    );
    let result = result_line(acc, &metrics);
    let path = args.out.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&path, format!("{report}\n{result}\n")) {
        eprintln!("e2ebench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{report}");
    println!("{result}");
    ExitCode::SUCCESS
}
