//! Metric names, the per-run report, counter deltas and provenance.

use std::io::Write;
use std::path::Path;

use ompss::RuntimeStats;

use crate::table1::{program, PROGRAMS_FINE};

/// The gated end-to-end metrics, printed in the result line of an untraced
/// run. Every workload reports each of them.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("ompss_ms", "ms"), ("peak_rss_mb", "MB")];

/// Layer metrics that are not per program, in result-line order.
const LAYER_METRICS: [(&str, &str); 66] = [
    // End-to-end rows of single workloads, from the untraced half of a
    // traced run; ungated (see README).
    ("speedup_vs_pthreads", "ratio"),
    ("spawn_tasks_per_s", "tasks/s"),
    ("replay_tasks_per_s", "tasks/s"),
    ("fused_tasks_per_s", "tasks/s"),
    ("job_p50_ms.low", "ms"),
    ("job_p90_ms.low", "ms"),
    ("job_p50_ms.high", "ms"),
    ("job_p90_ms.high", "ms"),
    ("failed_share", "share"),
    ("runtime.new_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    ("runtime.shutdown_ms", "ms"),
    ("runtime.spawn_ns", "ns"),
    ("runtime.taskwait_ms", "ms"),
    ("runtime.insert_share", "share"),
    ("capture.finish_us", "us"),
    ("capture.replay_ns", "ns"),
    ("capture.fused_ns", "ns"),
    ("graph.edges_per_task", "edges/task"),
    ("graph.immediately_ready_share", "share"),
    ("graph.lock_contention_per_ktask", "count/ktask"),
    ("graph.fast_path_hit_share", "share"),
    ("graph.dep_wait_us.p50", "us"),
    ("graph.dep_wait_us.p90", "us"),
    ("task.recycle_share", "share"),
    ("task.nodes_allocated", "count/run"),
    ("task.body_spills", "count/run"),
    ("access.inline_spills", "count/run"),
    ("rename.renames_per_run", "count/run"),
    ("rename.recycled_share", "share"),
    ("rename.elided_per_run", "count/run"),
    ("rename.fallbacks", "count/run"),
    ("scheduler.local_pop_share", "share"),
    ("scheduler.steals_per_ktask", "count/ktask"),
    ("scheduler.wakeups_per_task", "count/task"),
    ("scheduler.queue_delay_us.p50", "us"),
    ("scheduler.queue_delay_us.p90", "us"),
    ("worker.body_us.p50", "us"),
    ("worker.gap_us.p50", "us"),
    ("worker.busy_share", "share"),
    ("service.submit_us.p50", "us"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p90", "ms"),
    ("service.run_ms.p50", "ms"),
    ("service.rejected_queue_full", "count"),
    ("service.rejected_budget", "count"),
    ("service.dispatcher_utilisation", "share"),
    ("service.peak_queue_depth", "count"),
    ("service.job_p99_ms", "ms"),
    ("service.generator_late_ms.p50", "ms"),
    ("service.generator_late_ms.p90", "ms"),
    ("service.generator_late_ms.max", "ms"),
    ("trace_overhead_share", "share"),
    ("host.steal_share", "share"),
    ("self_us.runtime.new", "us"),
    ("self_us.trial.seq", "us"),
    ("self_us.trial.pthreads", "us"),
    ("self_us.trial.ompss", "us"),
    ("self_us.iteration", "us"),
    ("self_us.spawn_batch", "us"),
    ("self_us.replay", "us"),
    ("self_us.replay_fused", "us"),
    ("self_us.taskwait", "us"),
    ("self_us.job", "us"),
    ("self_us.submit", "us"),
    ("self_us.job.body", "us"),
];

/// Every per-layer metric, printed in the result line of a traced run. A
/// metric a workload does not exercise reads 0. Per-program rows cover the
/// gated `table1-fine` programs; `table1-coarse` prints its own rows.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for p in PROGRAMS_FINE {
        out.push((format!("kernels.seq_ms.{p}"), "ms"));
    }
    for p in PROGRAMS_FINE.iter().filter(|p| program(p, 0).has_input()) {
        out.push((format!("kernels.input_ms.{p}"), "ms"));
    }
    for p in PROGRAMS_FINE {
        out.push((format!("threadkit.pthreads_ms.{p}"), "ms"));
    }
    for p in PROGRAMS_FINE {
        out.push((format!("ompss_ms.{p}"), "ms"));
    }
    for p in PROGRAMS_FINE {
        out.push((format!("runtime.tasks_per_run.{p}"), "tasks"));
    }
    out.extend(LAYER_METRICS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted (trials, iterations, jobs offered).
    pub attempted: u64,
    /// Operations that failed a check, were lost, refused or cancelled.
    pub failed: u64,
    /// Failed operations whose output was wrong or whose bookkeeping did
    /// not balance (refusals are failures, not wrong outputs).
    pub wrong: u64,
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    /// Count one attempted operation; a failed `ok` also counts a failure
    /// and keeps `what` for the printout.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count a wrong result: of an operation already counted as attempted,
    /// or of a whole-block check such as an audit.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.wrong += 1;
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    /// Count a refusal of an operation already counted as attempted.
    pub fn refuse(&mut self) {
        self.failed += 1;
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// The result line: the named metrics in order, each from this report
    /// (0 for a layer metric the workload does not exercise). A name the
    /// report lacks or cannot state as a finite number marks the run
    /// incorrect when `required`.
    pub fn result_json(&self, names: &[(String, &'static str)], required: bool) -> String {
        let mut correct = self.correct();
        let mut fields = Vec::new();
        for (name, unit) in names {
            let value = match self.get(name).map(|m| m.value) {
                Some(v) if v.is_finite() => v,
                _ => {
                    correct &= !required;
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// Per-run sums of runtime counter deltas, and the ratios the layer
/// metrics take from them.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    runs: u64,
    spawned: u64,
    edges: u64,
    immediately_ready: u64,
    contention: u64,
    fast_hits: u64,
    fast_fallbacks: u64,
    nodes_allocated: u64,
    nodes_recycled: u64,
    body_spills: u64,
    inline_spills: u64,
    renames: u64,
    renames_recycled: u64,
    renames_elided: u64,
    rename_fallbacks: u64,
    local_pops: u64,
    all_pops: u64,
    steals: u64,
    wakeups: u64,
}

impl Counters {
    /// Add the difference between two snapshots covering `runs` runs.
    pub fn add(&mut self, before: &RuntimeStats, after: &RuntimeStats, runs: u64) {
        let d = |f: fn(&RuntimeStats) -> u64| f(after).saturating_sub(f(before));
        self.runs += runs;
        self.spawned += d(|s| s.tasks_spawned);
        self.edges += d(|s| s.edges_added);
        self.immediately_ready += d(|s| s.immediately_ready);
        self.contention += d(|s| s.tracker_lock_contention);
        self.fast_hits += d(|s| s.tracker_fast_path_hits);
        self.fast_fallbacks += d(|s| s.tracker_fast_path_fallbacks);
        self.nodes_allocated += d(|s| s.task_nodes_allocated);
        self.nodes_recycled += d(|s| s.task_nodes_recycled);
        self.body_spills += d(|s| s.spawn_body_spills);
        self.inline_spills += d(|s| s.access_inline_spills);
        self.renames += d(|s| s.renames);
        self.renames_recycled += d(|s| s.renames_recycled);
        self.renames_elided += d(|s| s.renames_elided);
        self.rename_fallbacks += d(|s| s.rename_fallbacks);
        self.local_pops += d(|s| s.sched_local_pops);
        self.all_pops += d(|s| s.sched_local_pops + s.sched_global_pops + s.sched_steals);
        self.steals += d(|s| s.sched_steals);
        self.wakeups += d(|s| s.sched_local_wakeups + s.sched_global_wakeups);
    }

    /// Count runs whose deltas were added with `runs == 0`.
    pub fn add_runs(&mut self, runs: u64) {
        self.runs += runs;
    }

    /// The graph, task, rename and scheduler layer metrics.
    pub fn report(&self, out: &mut Report) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let (runs, tasks) = (self.runs as usize, self.spawned);
        let per_run = |a: u64| ratio(a, self.runs);
        out.add(
            "graph.edges_per_task",
            "edges/task",
            ratio(self.edges, tasks),
            runs,
        );
        out.add(
            "graph.immediately_ready_share",
            "share",
            ratio(self.immediately_ready, tasks),
            runs,
        );
        out.add(
            "graph.lock_contention_per_ktask",
            "count/ktask",
            1e3 * ratio(self.contention, tasks),
            runs,
        );
        out.add(
            "graph.fast_path_hit_share",
            "share",
            ratio(self.fast_hits, self.fast_hits + self.fast_fallbacks),
            runs,
        );
        out.add(
            "task.recycle_share",
            "share",
            ratio(
                self.nodes_recycled,
                self.nodes_recycled + self.nodes_allocated,
            ),
            runs,
        );
        out.add(
            "task.nodes_allocated",
            "count/run",
            per_run(self.nodes_allocated),
            runs,
        );
        out.add(
            "task.body_spills",
            "count/run",
            per_run(self.body_spills),
            runs,
        );
        out.add(
            "access.inline_spills",
            "count/run",
            per_run(self.inline_spills),
            runs,
        );
        out.add(
            "rename.renames_per_run",
            "count/run",
            per_run(self.renames),
            runs,
        );
        out.add(
            "rename.recycled_share",
            "share",
            ratio(self.renames_recycled, self.renames),
            runs,
        );
        out.add(
            "rename.elided_per_run",
            "count/run",
            per_run(self.renames_elided),
            runs,
        );
        out.add(
            "rename.fallbacks",
            "count/run",
            per_run(self.rename_fallbacks),
            runs,
        );
        out.add(
            "scheduler.local_pop_share",
            "share",
            ratio(self.local_pops, self.all_pops),
            runs,
        );
        out.add(
            "scheduler.steals_per_ktask",
            "count/ktask",
            1e3 * ratio(self.steals, tasks),
            runs,
        );
        out.add(
            "scheduler.wakeups_per_task",
            "count/task",
            ratio(self.wakeups, tasks),
            runs,
        );
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// The machine-wide CPU time counters of `/proc/stat` (user, nice, system,
/// idle, iowait, irq, softirq, steal, …), in clock ticks.
pub fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            Some(
                line.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default()
}

/// Hypervisor steal summed over time windows, each bounded by two
/// [`cpu_ticks`] readings. On a shared host steal is the main cause of slow
/// runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Steal {
    stolen: u64,
    busy: u64,
}

impl Steal {
    /// Add the window between two readings.
    pub fn add(&mut self, before: &[u64], after: &[u64]) {
        let d = |i: usize| {
            after
                .get(i)
                .zip(before.get(i))
                .map_or(0, |(a, b)| a.saturating_sub(*b))
        };
        // user, nice, system, irq, softirq and steal: the time the CPUs
        // wanted to run.
        self.busy += [0, 1, 2, 5, 6, 7].iter().map(|&i| d(i)).sum::<u64>();
        self.stolen += d(7);
    }

    /// The share of the CPUs' non-idle time that the hypervisor stole; 0
    /// without the counters.
    pub fn share(&self) -> f64 {
        if self.busy == 0 {
            0.0
        } else {
            self.stolen as f64 / self.busy as f64
        }
    }
}

/// The commit the checkout is at, read from `.git` in the working
/// directory without running git; "unknown" outside a git checkout.
pub fn commit_id() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Append one JSON line with the run's provenance and every metric to
/// `history`, creating it if needed.
pub fn append_history(
    history: &Path,
    provenance: &[(&str, String)],
    report: &Report,
) -> std::io::Result<()> {
    if let Some(dir) = history.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let prov: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name, m.unit, m.samples
            )
        })
        .collect();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)?;
    writeln!(
        f,
        "{{{}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        prov.join(", "),
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists in `BENCHMARK.json` are the ones this program
    /// prints, in the same order and with the same units.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = start + json[start..].find(']').expect("list closes");
            json[start..end]
                .split("{\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry.split('"').next().unwrap().to_string();
                    let unit = entry.split("\"unit\": \"").nth(1).unwrap();
                    (name, unit.split('"').next().unwrap().to_string())
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("per_layer"), layers);
    }

    #[test]
    fn result_line_fills_unexercised_layers_with_zero() {
        let mut r = Report::default();
        r.add("setup_s", "s", 1.5, 3);
        r.check(true, String::new);
        let names = vec![("setup_s".to_string(), "s"), ("other".to_string(), "ms")];
        assert_eq!(
            r.result_json(&names, false),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"other\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
        assert!(r
            .result_json(&names, true)
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn per_layer_names_are_unique() {
        let names = per_layer();
        let mut sorted: Vec<&String> = names.iter().map(|(n, _)| n).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.len() <= 128);
    }
}
