//! The environment recorded next to every result: hardware threads,
//! toolchain, source version, a calibration loop and peak memory.

use crate::stats::{json_num, json_str};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Iterations of the calibration chain (about 20-40 ms on a current core).
const CALIBRATION_ITERS: u64 = 20_000_000;

/// A serial floating-point dependency chain, the same loop as
/// `perf_kernels`' calibration: nanoseconds per iteration measure the
/// core's speed independent of memory, so figures from different
/// machines can be compared after dividing by it.
pub fn ns_per_iter(iters: u64) -> f64 {
    let mut x = std::hint::black_box(1.0f64);
    let t0 = Instant::now();
    for _ in 0..iters {
        x = x * 1.000_000_1 + 1e-9;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(x);
    ns / iters as f64
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the paths and contents of the library and benchmark
/// sources, sorted: names the code version where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("e2ebench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The environment as one JSON object.
pub fn describe() -> String {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nproc = command_output("nproc", &[]).unwrap_or_else(|| "unknown".into());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Only a checkout's own `.git` names its commit; git would otherwise
    // report an enclosing repository.
    let commit = Path::new(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unavailable (not a git checkout)".into());
    let cal = ns_per_iter(CALIBRATION_ITERS);
    format!(
        "{{\"hardware_threads\": {hw}, \"nproc\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"source_fnv\": {}, \"calibration\": {{\"iters\": {CALIBRATION_ITERS}, \"ns_per_iter\": {}}}}}",
        json_str(&nproc),
        json_str(&rustc),
        json_str(&commit),
        json_str(&source_digest()),
        json_num(cal)
    )
}
