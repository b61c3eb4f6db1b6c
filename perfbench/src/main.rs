//! The repository benchmark: three seeded workloads against the public
//! API of the real system, every answer checked against an independent
//! oracle, and a traced run that places the time layer by layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload short_tcp_fetch --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/NOTES.md` for why each workload exists
//! and which metric each layer should move.

mod common;
mod cpu;
mod inputs;
mod long;
mod oracle;
mod report;
mod short;
mod stats;
mod trace;
mod zipf;

use std::path::PathBuf;
use std::sync::OnceLock;

use report::Report;

const WORKLOADS: [&str; 3] = ["short_tcp_fetch", "long_inproc_mixed", "zipf_ingest"];

static HEADER: OnceLock<String> = OnceLock::new();

/// The provenance line every output of this run starts with.
pub fn header() -> String {
    HEADER.get().cloned().unwrap_or_default()
}

/// Where spans and scratch stores go, inside the checkout.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive integer")?,
        trace: trace.unwrap_or(false),
    })
}

fn settings(workload: &str) -> String {
    let common = format!(
        "\"k\": {}, \"closed_loop_clients\": 1, \"pinned_cpus\": 1, \"clock\": \"process CPU, scaled to the reference CPU\", \"reference_kernel_us\": {}",
        common::K,
        cpu::REFERENCE.as_micros()
    );
    match workload {
        "short_tcp_fetch" => common,
        "long_inproc_mixed" => format!(
            "{common}, \"ci_group_size\": {}, \"ci_k_prime\": {}",
            long::CI.group_size,
            long::CI.k_prime,
        ),
        _ => format!(
            "{common}, \"reads_per_batch\": {}, \"pool\": {}, \"zipf_s\": {}, \"batch_docs\": {}",
            zipf::READS_PER_BATCH,
            zipf::POOL,
            zipf::ZIPF_S,
            common::BATCH_DOCS
        ),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed N --seconds N --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Before any thread starts, so that every thread inherits it.
    let pinned = cpu::pin_to_one_cpu();
    let header = report::provenance(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &settings(&args.workload),
    );
    println!("{header}");
    HEADER.set(header).expect("header set once");

    let mut report = Report::default();
    match pinned {
        Some(cpu) => report.line(format!("pinned to CPU {cpu}")),
        None => report.fail("could not pin to one CPU".into()),
    }
    match args.workload.as_str() {
        "short_tcp_fetch" => short::run(&mut report, args.seed, args.seconds, args.trace),
        "long_inproc_mixed" => long::run(&mut report, args.seed, args.seconds, args.trace),
        _ => zipf::run(&mut report, args.seed, args.seconds, args.trace),
    }
    report.e2e("peak_rss_mb", report::peak_rss_mb(), "MB");
    report.print(args.trace);
}
