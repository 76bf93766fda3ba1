//! End-to-end and per-layer benchmark of the keybridge keyword-search
//! service.
//!
//! ```text
//! perfbench --workload <hot-x1|cold-x50|ingest-x10|sharded-x10>
//!           --seed <n> --seconds <s> --trace <0|1> [--knee <0|1>]
//!           [--state-dir <dir>]
//! ```
//!
//! Prints every metric by name and unit (timings with their sample
//! counts), then one JSON result line: the `end_to_end` metrics of
//! `BENCHMARK.json` untraced, its `per_layer` metrics traced. Exit codes:
//! 0 correct, 1 a reply or durability check failed (the result line says
//! `"correct": false`), 2 usage, 3 the run is invalid (the generator fell
//! behind, or the insert plan ran short) and prints no result.
//!
//! The gated end-to-end metrics are CPU time per operation, set-up CPU
//! time and peak RSS. On a shared virtual machine whose CPUs are stolen
//! for a fifth to a half of the time, wall-clock latencies of one seed
//! vary two- to threefold from run to run, so they are printed, not gated.

mod load;
mod report;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

/// `end_to_end` metrics of `BENCHMARK.json`: reported by every workload,
/// and steady under the CPU steal of a shared virtual machine (wall-clock
/// latencies, printed too, are not).
pub const END_TO_END: [&str; 3] = ["setup_s", "cpu_ms_per_op", "peak_rss_mb"];

/// `per_layer` metrics of `BENCHMARK.json`: reported by every traced run.
pub const PER_LAYER: [&str; 29] = [
    "datagen.fixture_s",
    "textindex.build_s",
    "core.catalog_s",
    "core.generate.ms",
    "core.generate.materialized",
    "core.generate.expanded",
    "core.generate.nonempty_probes",
    "core.generate.nonempty_hit_ratio",
    "textindex.probe.us",
    "core.exec.predicate_hit_ratio",
    "core.exec.result_hit_ratio",
    "core.service.wait_ms",
    "core.service.gen_lag_ms",
    "core.pipeline.answers.ms",
    "core.pipeline.answers.self_ms",
    "core.pipeline.answers.waves",
    "core.pipeline.answers.nonempty_per_executed",
    "textindex.predicate.ms",
    "textindex.predicate.rows",
    "relstore.reduce.ms",
    "relstore.reduce.rows_given",
    "relstore.reduce.rows_out",
    "relstore.reduce.share_of_answers",
    "relstore.join.ms",
    "relstore.join.probes",
    "relstore.join.bindings",
    "relstore.join.batch_allocs",
    "core.pipeline.answers.multiwave_share",
    "perfbench.check_cpu_ms_per_op",
];

fn usage(why: &str) -> ! {
    eprintln!(
        "perfbench: {why}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> [--knee <0|1>] [--state-dir <dir>]",
        workloads::WORKLOADS.map(|w| w.0).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut knee = false;
    let mut state_dir = PathBuf::from(".perfbench_state");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bit = || match value.as_str() {
            "0" => false,
            "1" => true,
            _ => usage(&format!("{flag} takes 0 or 1")),
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => traced = Some(bit()),
            "--knee" => knee = bit(),
            "--state-dir" => state_dir = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let name = workload.unwrap_or_else(|| usage("--workload is required"));
    let run =
        workloads::by_name(&name).unwrap_or_else(|| usage(&format!("unknown workload {name}")));
    let traced = traced.unwrap_or_else(|| usage("--trace is required"));
    let opts = workloads::Opts {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        traced,
        knee,
        state_dir,
    };
    std::fs::create_dir_all(&opts.state_dir).expect("create the state directory");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {name}: seed {}, {} s, trace {}, {cores} cores, {} workers per pool",
        opts.seed,
        opts.seconds,
        u8::from(traced),
        workloads::WORKERS
    );
    let t = Instant::now();
    let report = run(&opts);
    println!("{}", report.lines().trim_end());
    println!("  (run took {:.1} s)", t.elapsed().as_secs_f64());
    for f in report.failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    if !report.invalid.is_empty() {
        for why in &report.invalid {
            eprintln!("INVALID: {why}");
        }
        std::process::exit(3);
    }
    let names: &[&str] = if traced { &PER_LAYER } else { &END_TO_END };
    match report.json(names) {
        Ok(line) => println!("{line}"),
        Err(why) => {
            eprintln!("INVALID: {why}");
            std::process::exit(3);
        }
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads and metric names this binary knows are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn emitted_names_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // a bare copy of the benchmark directory
        };
        let declared = |section: &str| -> Vec<String> {
            let body = &text[text.find(&format!("\"{section}\"")).expect(section)..];
            let body = &body[..body.find(']').expect("list end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quote")].to_owned())
                .collect()
        };
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(declared("workloads"), names);
        assert_eq!(declared("end_to_end"), END_TO_END);
        assert_eq!(declared("per_layer"), PER_LAYER);
    }
}
