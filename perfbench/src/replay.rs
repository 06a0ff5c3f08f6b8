//! `replay`: the graph-replay batch shape stamped three ways on one warm
//! runtime — fresh `TaskBuilder::spawn`, `Runtime::replay` of the frozen
//! template, and `Runtime::replay_fused(&t, 4)` — in rotating order. Each
//! iteration is timed from its first stamp to the return of
//! `Runtime::taskwait`.

use std::time::{Duration, Instant};

use ompss::{Data, GraphTemplate, ReplayBindings, Runtime, RuntimeConfig};

use crate::jobs::splitmix64;
use crate::report::{Counters, Report};
use crate::spans::{self, Tracer};
use crate::stats::{geomean, median, rotation};
use crate::{block_of, RunConfig, SETUPS};

/// Tasks per batch.
const BATCH: usize = 256;
/// Cells the batch chains over: task `i` reads cell `i-1` and writes cell
/// `i` (mod `CELLS`), so the batch is RAW/WAW chains and renames nothing.
const CELLS: usize = 16;
/// Iterations one `replay_fused` call stamps.
const FUSE: usize = 4;
const WORKERS: usize = 2;
const WARMUP_ROUNDS: usize = 8;
/// Rounds of the traced half are capped to bound the trace's memory.
const MAX_TRACED_ROUNDS: usize = 50;

const MODES: [&str; 3] = ["spawn_batch", "replay", "replay_fused"];

/// The task body: about fifty dependent multiplies.
pub fn step(prev: u64, i: u64) -> u64 {
    let mut x = prev ^ i;
    for _ in 0..50 {
        x = x.rotate_left(5).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
    }
    x
}

/// One batch applied sequentially to `cells`.
fn fold_batch(cells: &mut [u64; CELLS]) {
    for i in 0..BATCH {
        cells[i % CELLS] = step(cells[(i + CELLS - 1) % CELLS], i as u64);
    }
}

fn spawn_batch(rt: &Runtime, cells: &[Data<u64>]) {
    for i in 0..BATCH {
        let c = cells[i % CELLS].clone();
        let prev = cells[(i + CELLS - 1) % CELLS].clone();
        rt.task().input(&prev).output(&c).spawn(move |ctx| {
            let v = step(*ctx.read(&prev), i as u64);
            *ctx.write(&c) = v;
        });
    }
}

/// Capture the batch; returns the template and the time `finish` took.
fn capture(rt: &Runtime, cells: &[Data<u64>]) -> (GraphTemplate, Duration) {
    let mut scope = rt.capture();
    for i in 0..BATCH {
        let c = cells[i % CELLS].clone();
        let prev = cells[(i + CELLS - 1) % CELLS].clone();
        scope.task().input(&prev).output(&c).spawn(move |ctx| {
            let v = step(*ctx.read(&prev), i as u64);
            *ctx.write(&c) = v;
        });
    }
    let t = Instant::now();
    let template = scope.finish();
    (template, t.elapsed())
}

/// A runtime with its cells and frozen template.
struct Bench {
    rt: Runtime,
    cells: Vec<Data<u64>>,
    template: GraphTemplate,
    bindings: ReplayBindings,
    /// Batches stamped so far, capture included.
    batches: u64,
    finish_us: f64,
}

impl Bench {
    fn new(rt: Runtime, seed: u64) -> Self {
        let cells: Vec<Data<u64>> = (0..CELLS)
            .map(|k| rt.data(splitmix64(seed ^ k as u64)))
            .collect();
        let (template, finish) = capture(&rt, &cells);
        let finish_us = finish.as_secs_f64() * 1e6;
        rt.taskwait();
        Bench {
            rt,
            cells,
            template,
            bindings: ReplayBindings::new(),
            batches: 1,
            finish_us,
        }
    }

    /// Run a few rounds of every mode unmeasured.
    fn warm_up(&mut self) {
        for round in 0..WARMUP_ROUNDS {
            for mode in rotation(round, 3) {
                self.iteration(mode);
            }
        }
    }

    /// Stamp one iteration of `mode` and wait for it. Returns the tasks
    /// stamped and the stamp and taskwait times.
    fn iteration(&mut self, mode: usize) -> (usize, Duration, Duration) {
        let start = Instant::now();
        let tasks = match mode {
            0 => {
                spawn_batch(&self.rt, &self.cells);
                BATCH
            }
            1 => {
                self.rt.replay(&self.template, &self.bindings);
                BATCH
            }
            _ => {
                self.rt.replay_fused(&self.template, FUSE);
                FUSE * BATCH
            }
        };
        let stamped = Instant::now();
        self.rt.taskwait();
        let end = Instant::now();
        self.batches += (tasks / BATCH) as u64;
        (tasks, stamped - start, end - stamped)
    }

    /// Final cells against the sequential fold of every batch stamped.
    fn check_cells(&self, seed: u64, out: &mut Report) {
        let mut expect = [0u64; CELLS];
        for (k, e) in expect.iter_mut().enumerate() {
            *e = splitmix64(seed ^ k as u64);
        }
        for _ in 0..self.batches {
            fold_batch(&mut expect);
        }
        let got: Vec<u64> = self.cells.iter().map(|c| self.rt.fetch(c)).collect();
        out.check(got == expect, || {
            format!(
                "replay: cells differ from the sequential fold of {} batches",
                self.batches
            )
        });
        self.rt.taskwait();
        if let Err(v) = self.rt.audit() {
            out.fail(format!("replay: runtime audit: {v:?}"));
        }
    }
}

/// Per-mode samples of one measured pass.
#[derive(Default)]
struct Samples {
    total_s: [Vec<f64>; 3],
    stamp_s: [Vec<f64>; 3],
    taskwait_s: Vec<f64>,
    counters: Counters,
}

/// Iterations in rotating mode order from round `round` until `seconds`
/// have passed (one round at least). Returns the next round.
fn measure(
    bench: &mut Bench,
    seconds: f64,
    mut round: usize,
    s: &mut Samples,
    out: &mut Report,
) -> usize {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let first = round;
    while round == first || Instant::now() < deadline {
        for mode in rotation(round, 3) {
            let before = bench.rt.stats();
            let (tasks, stamp, wait) = bench.iteration(mode);
            let after = bench.rt.stats();
            s.total_s[mode].push((stamp + wait).as_secs_f64());
            s.stamp_s[mode].push(stamp.as_secs_f64());
            s.taskwait_s.push(wait.as_secs_f64());
            s.counters.add(&before, &after, 1);
            let spawned = after.tasks_spawned - before.tasks_spawned;
            let executed = after.tasks_executed - before.tasks_executed;
            out.check(spawned == tasks as u64 && executed == tasks as u64, || {
                format!(
                    "replay {}: stamped {tasks}, spawned {spawned}, executed {executed}",
                    MODES[mode]
                )
            });
        }
        round += 1;
    }
    round
}

fn tasks_in(mode: usize) -> f64 {
    if mode == 2 {
        (FUSE * BATCH) as f64
    } else {
        BATCH as f64
    }
}

pub fn run(cfg: &RunConfig, out: &mut Report) {
    let (mut setup_s, mut new_ms, mut shutdown_ms, mut finish_us, mut warmup_ms) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut s = Samples::default();
    let mut round = 0;
    for setup in 0..SETUPS {
        // Set-up: the runtime, its cells and the captured template.
        let start = Instant::now();
        let rt = Runtime::new(RuntimeConfig::default().with_workers(WORKERS));
        new_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let mut bench = Bench::new(rt, cfg.seed);
        setup_s.push(start.elapsed().as_secs_f64());
        finish_us.push(bench.finish_us);
        if block_of(setup).is_some() {
            let t = Instant::now();
            bench.warm_up();
            warmup_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.check(bench.template.is_frozen(), || {
                "replay: warm template did not freeze".into()
            });
            round = measure(&mut bench, cfg.block_seconds(), round, &mut s, out);
        }
        bench.check_cells(cfg.seed, out);
        let t = Instant::now();
        bench.rt.shutdown();
        shutdown_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.add("setup_s", "s", median(&setup_s), setup_s.len());

    let med_total: Vec<f64> = (0..3).map(|m| median(&s.total_s[m])).collect();
    let rates: Vec<f64> = (0..3).map(|m| tasks_in(m) / med_total[m]).collect();
    let n = s.total_s.iter().map(Vec::len).min().unwrap_or(0);
    for (name, rate) in [
        "spawn_tasks_per_s",
        "replay_tasks_per_s",
        "fused_tasks_per_s",
    ]
    .iter()
    .zip(&rates)
    {
        out.add(*name, "tasks/s", *rate, n);
    }
    // Milliseconds per BATCH tasks, stamp to drained, geomean over modes.
    let per_batch_ms: Vec<f64> = (0..3)
        .map(|m| 1e3 * med_total[m] * BATCH as f64 / tasks_in(m))
        .collect();
    out.add("ompss_ms", "ms", geomean(&per_batch_ms), n);
    if !cfg.trace {
        return;
    }

    out.add("runtime.new_ms", "ms", median(&new_ms), new_ms.len());
    out.add(
        "runtime.shutdown_ms",
        "ms",
        median(&shutdown_ms),
        shutdown_ms.len(),
    );
    out.add("setup.warmup_ms", "ms", median(&warmup_ms), warmup_ms.len());
    out.add(
        "capture.finish_us",
        "us",
        median(&finish_us),
        finish_us.len(),
    );
    out.add(
        "runtime.spawn_ns",
        "ns",
        1e9 * median(&s.stamp_s[0]) / BATCH as f64,
        s.stamp_s[0].len(),
    );
    out.add(
        "capture.replay_ns",
        "ns",
        1e9 * median(&s.stamp_s[1]) / BATCH as f64,
        s.stamp_s[1].len(),
    );
    out.add(
        "capture.fused_ns",
        "ns",
        1e9 * median(&s.stamp_s[2]) / (FUSE * BATCH) as f64,
        s.stamp_s[2].len(),
    );
    out.add(
        "runtime.taskwait_ms",
        "ms",
        1e3 * median(&s.taskwait_s),
        s.taskwait_s.len(),
    );
    let stamp: f64 = s.stamp_s.iter().flatten().sum();
    let total: f64 = s.total_s.iter().flatten().sum();
    out.add(
        "runtime.insert_share",
        "share",
        stamp / total,
        s.taskwait_s.len(),
    );
    for ((mode, stamp), total) in MODES.iter().zip(&s.stamp_s).zip(&s.total_s) {
        let share = stamp.iter().sum::<f64>() / total.iter().sum::<f64>();
        println!("  {mode:<14} insertion share {share:.3}");
    }
    s.counters.report(out);
    traced(cfg, &med_total, out);
}

/// The traced half: spans around every stamp and taskwait, task events
/// attached to the iteration that stamped them.
fn traced(cfg: &RunConfig, untraced_total: &[f64], out: &mut Report) {
    let mut tracer = Tracer::new(cfg.epoch);
    let t0 = Instant::now();
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(WORKERS)
            .with_tracing(true),
    );
    tracer.record("runtime.new", 0, None, t0, Instant::now());
    let offset = spans::calibrate(&rt, cfg.epoch);
    let mut bench = Bench::new(rt, cfg.seed);
    bench.warm_up();
    let mut total_s: [Vec<f64>; 3] = Default::default();
    let mut windows = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / 2.0);
    let mut id = 0u64;
    for round in 0..MAX_TRACED_ROUNDS {
        if round >= 3 && Instant::now() >= deadline {
            break;
        }
        for mode in rotation(round, 3) {
            id += 1;
            let start = Instant::now();
            let (_, stamp, wait) = bench.iteration(mode);
            let (stamped, end) = (start + stamp, start + stamp + wait);
            let it = tracer.record("iteration", id, None, start, end);
            tracer.record(MODES[mode], id, Some(it), start, stamped);
            tracer.record("taskwait", id, Some(it), stamped, end);
            windows.push((tracer.ns(start), tracer.ns(end), it));
            total_s[mode].push((stamp + wait).as_secs_f64());
        }
    }
    bench.check_cells(cfg.seed, out);
    let events = bench.rt.trace();
    bench.rt.shutdown();

    let tasks = spans::task_times(&events, offset);
    let parents = spans::assign_by_start(&tasks, &windows);
    tracer.attach_tasks(&tasks, &parents);
    let layers = spans::task_layers(&tasks, &parents);
    let wall_ns: f64 = windows.iter().map(|w| (w.1 - w.0) as f64).sum();
    let overhead: Vec<f64> = (0..3)
        .map(|m| median(&total_s[m]) / untraced_total[m])
        .collect();
    out.add(
        "trace_overhead_share",
        "share",
        geomean(&overhead) - 1.0,
        windows.len(),
    );
    out.add(
        "worker.busy_share",
        "share",
        layers.busy_ns as f64 / (WORKERS as f64 * wall_ns),
        windows.len(),
    );
    crate::finish_trace(&tracer, &layers, cfg, out);
}
