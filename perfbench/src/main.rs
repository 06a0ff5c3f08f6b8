//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1-fine|table1-coarse|replay|service> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process. With `--trace 0` the run times warm,
//! untraced code and its result line holds the gated end-to-end metrics;
//! with `--trace 1` half the time is an untraced pass and half a traced
//! pass, and the result line holds the per-layer metrics. Every output is
//! checked; a wrong one is counted, printed, and makes the exit code 1.
//! The last line of standard output is the JSON result. Spans of a traced
//! run go to `.perfbench/spans-<workload>.jsonl` and every run appends a
//! line to `.perfbench/history.jsonl`. See `perfbench/README.md`.

mod jobs;
mod replay;
mod report;
mod spans;
mod stats;
mod table1;

use std::path::Path;
use std::time::Instant;

use report::{Report, END_TO_END};
use spans::{TaskLayers, Tracer};
use stats::{median, percentile};

const WORKLOADS: [&str; 4] = ["table1-fine", "table1-coarse", "replay", "service"];
/// A run's untraced measuring time is split into this many blocks, each on
/// freshly set-up runtimes, so that a runtime's chance thread placement and
/// layout average out over the run instead of deciding it.
pub const BLOCKS: usize = 5;
/// Set-ups per run. Each block's set-up follows `SETUPS / BLOCKS - 1` that
/// are shut down unmeasured, so that set-ups sample the whole run. `setup_s`
/// is the median of all of them.
pub const SETUPS: usize = 50;

/// The block that set-up `i` of a run is measured in, if any.
pub fn block_of(i: usize) -> Option<usize> {
    let per = SETUPS / BLOCKS;
    (i % per == per - 1).then_some(i / per)
}
const OUT_DIR: &str = ".perfbench";

/// The arguments of one run.
pub struct RunConfig {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Time zero of every span and job timestamp.
    pub epoch: Instant,
}

impl RunConfig {
    /// Measuring time of one untraced block: a traced run spends half its
    /// time on the traced pass.
    pub fn block_seconds(&self) -> f64 {
        let untraced = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        untraced / BLOCKS as f64
    }
}

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| **w == name)
        .ok_or(format!("unknown workload {name}; one of {WORKLOADS:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(RunConfig {
        workload,
        seed,
        seconds,
        trace,
        epoch: Instant::now(),
    })
}

/// Layer metrics every traced pass derives the same way: task-event
/// distributions, span self times, and the span file.
pub fn finish_trace(tracer: &Tracer, layers: &TaskLayers, cfg: &RunConfig, out: &mut Report) {
    let n = layers.body_us.len();
    out.add(
        "graph.dep_wait_us.p50",
        "us",
        percentile(&layers.dep_wait_us, 50.0),
        n,
    );
    out.add(
        "graph.dep_wait_us.p90",
        "us",
        percentile(&layers.dep_wait_us, 90.0),
        n,
    );
    out.add(
        "scheduler.queue_delay_us.p50",
        "us",
        percentile(&layers.queue_delay_us, 50.0),
        n,
    );
    out.add(
        "scheduler.queue_delay_us.p90",
        "us",
        percentile(&layers.queue_delay_us, 90.0),
        n,
    );
    out.add(
        "worker.body_us.p50",
        "us",
        percentile(&layers.body_us, 50.0),
        n,
    );
    out.add(
        "worker.gap_us.p50",
        "us",
        percentile(&layers.gap_us, 50.0),
        layers.gap_us.len(),
    );
    println!("  span self times (us): name, spans, median, total");
    for (name, selfs) in tracer.self_us_by_name() {
        let total: f64 = selfs.iter().sum();
        println!(
            "    {name:<24} {:>8} {:>12.2} {:>14.1}",
            selfs.len(),
            median(&selfs),
            total
        );
        if !name.starts_with("graph.")
            && !name.starts_with("scheduler.")
            && !name.starts_with("worker.")
        {
            out.add(format!("self_us.{name}"), "us", median(&selfs), selfs.len());
        }
    }
    let path = Path::new(OUT_DIR).join(format!("spans-{}.jsonl", cfg.workload));
    match std::fs::create_dir_all(OUT_DIR).and_then(|_| tracer.write_jsonl(&path)) {
        Ok(()) => println!(
            "  {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let (load_start, ticks_start) = (report::loadavg(), report::cpu_ticks());
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    let mut out = Report::default();
    match cfg.workload {
        "table1-fine" => table1::run(false, &cfg, &mut out),
        "table1-coarse" => table1::run(true, &cfg, &mut out),
        "replay" => replay::run(&cfg, &mut out),
        _ => jobs::run(&cfg, &mut out),
    }
    out.add(
        "failed_share",
        "share",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted as usize,
    );
    if let Some(mb) = report::peak_rss_mb() {
        out.add("peak_rss_mb", "MB", mb, 1);
    }

    println!("  metrics (value unit, samples):");
    for m in &out.metrics {
        println!(
            "    {:<36} {:>16.6} {:<11} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = [
        ("workload", cfg.workload.to_string()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", (cfg.trace as u8).to_string()),
        ("nproc", nproc.to_string()),
        ("commit", report::commit_id()),
        ("loadavg_start", load_start),
        ("loadavg_end", report::loadavg()),
        ("cpu_steal_share", {
            let mut steal = report::Steal::default();
            steal.add(&ticks_start, &report::cpu_ticks());
            format!("{:.3}", steal.share())
        }),
        (
            "wall_s",
            format!("{:.3}", cfg.epoch.elapsed().as_secs_f64()),
        ),
    ];
    for (k, v) in &provenance {
        println!("  {k}: {v}");
    }
    println!(
        "  checks: {} attempted, {} failed, {} wrong",
        out.attempted, out.failed, out.wrong
    );
    for m in &out.mismatches {
        println!("  MISMATCH {m}");
    }
    if let Err(e) =
        report::append_history(&Path::new(OUT_DIR).join("history.jsonl"), &provenance, &out)
    {
        eprintln!("perfbench: could not append to the history: {e}");
    }

    let line = if cfg.trace {
        out.result_json(&report::per_layer(), false)
    } else {
        let names: Vec<(String, &'static str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        out.result_json(&names, true)
    };
    println!("{line}");
    if !line.starts_with("{\"correct\": true") {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_follows_one_set_up_and_the_last_set_up_is_measured() {
        let blocks: Vec<usize> = (0..SETUPS).filter_map(block_of).collect();
        assert_eq!(blocks, (0..BLOCKS).collect::<Vec<_>>());
        assert_eq!(block_of(SETUPS - 1), Some(BLOCKS - 1));
    }
}
