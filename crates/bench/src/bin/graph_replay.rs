//! Template replay vs full spawning: the insertion-side payoff of graph
//! capture (`ompss::CaptureScope` / `Runtime::replay`).
//!
//! The workload is a steady-state insertion storm in the ≤2-access shape
//! the allocation diet pins:
//! batches of `BATCH` tasks, each writing one of a small set of shared
//! cells and reading the neighbouring one, so consecutive writers chain on
//! WAW hazards, readers hang RAW/WAR edges off every write, and every
//! registration contends on the tracker lock. Four ways to stamp
//! the same stream of batches:
//!
//! 1. **full-spawn** — `SPAWNERS` OS threads hammer `rt.task()` concurrently
//!    (the per-task insertion hot path: one tracker lock acquisition, one
//!    in-flight/stat update and one wakeup per task).
//! 2. **resolved replay** — the batch is captured once into a
//!    `GraphTemplate` and every subsequent batch is stamped with
//!    `Runtime::replay` under `with_replay_prewiring(false)`: clause
//!    re-resolution and a full `register_batch` history scan per task, but
//!    one lock acquisition and one batched wakeup per 256 tasks.
//! 3. **pre-wired replay** — same call under the default config: the first
//!    pure pass froze the template, so each batch stamps through the
//!    `FrozenPlan` (baked intra-batch edges, frontier-only live scan,
//!    bulk interior publish).
//! 4. **fused replay** — `Runtime::replay_fused(&template, FUSE)` stamps
//!    `FUSE` iterations as one super-batch: carried inter-iteration
//!    dependences, one lock acquisition and one wakeup per `FUSE * 256`
//!    tasks.
//!
//! All sides drain between timed stamps outside the timed window; the
//! timers cover insertion only. Two claims are asserted at the bottom and
//! the rates land in `BENCH_replay.json` so the trajectory is tracked
//! across PRs:
//!
//! * warm replay beats the 8-spawner full-spawn insertion throughput by
//!   ≥2× (relaxed to 1.1× when the host has fewer than 4 hardware
//!   threads, where the spawner storm cannot actually run concurrently);
//! * pre-wired replay beats resolved-per-pass replay by ≥1.5× on the warm
//!   renaming-free 256-task batch.
//!
//! Run with `cargo run --release -p bench-harness --bin graph_replay
//! [batches]`.

use std::time::{Duration, Instant};

use bench_harness::update_bench_json;
use ompss::{Data, ReplayBindings, Runtime, RuntimeConfig};

/// Tasks per batch (matching the allocation-diet pin in spawn_alloc.rs).
const BATCH: usize = 256;
/// Shared cells the batch writes (WAW chains, 16 tracker-contended regions).
const CELLS: usize = 16;
/// Concurrently spawning threads on the full-spawn side.
const SPAWNERS: usize = 8;
/// Iterations folded into one super-batch on the fused side.
const FUSE: usize = 4;

fn runtime(prewiring: bool) -> Runtime {
    Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_tracker_gc_interval(0)
            .with_replay_prewiring(prewiring),
    )
}

/// Busy-wait for the graph to drain without entering `taskwait` (which runs
/// a GC sweep and would disturb the warmed tracker maps).
fn drain(rt: &Runtime) {
    while rt.in_flight_tasks() > 0 {
        std::thread::yield_now();
    }
}

/// Insertion rate of `batches * BATCH` tasks spawned from `SPAWNERS`
/// concurrent threads; the timer covers the spawn phase only.
fn full_spawn_rate(batches: usize) -> f64 {
    let rt = runtime(true);
    let cells: Vec<Data<u64>> = (0..CELLS).map(|_| rt.data(0u64)).collect();
    let per_spawner = batches * BATCH / SPAWNERS;
    // Warm the slab, queues and tracker maps like the replay side warms its
    // template scratch.
    for i in 0..BATCH {
        let c = cells[i % CELLS].clone();
        let prev = cells[(i + CELLS - 1) % CELLS].clone();
        rt.task().input(&prev).output(&c).spawn(move |ctx| {
            *ctx.write(&c) = i as u64 + *ctx.read(&prev);
        });
    }
    drain(&rt);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for s in 0..SPAWNERS {
            let rt = &rt;
            let cells = &cells;
            scope.spawn(move || {
                for i in 0..per_spawner {
                    let c = cells[(s + i) % CELLS].clone();
                    let prev = cells[(s + i + CELLS - 1) % CELLS].clone();
                    rt.task().input(&prev).output(&c).spawn(move |ctx| {
                        *ctx.write(&c) = i as u64 + *ctx.read(&prev);
                    });
                }
            });
        }
    });
    let spawn_time = start.elapsed();
    drain(&rt);
    let stats = rt.stats();
    assert_eq!(
        stats.tasks_spawned as usize,
        BATCH + SPAWNERS * per_spawner,
        "full-spawn run lost tasks"
    );
    rt.shutdown();
    (SPAWNERS * per_spawner) as f64 / spawn_time.as_secs_f64()
}

/// Which replay flavour a [`replay_rate`] run measures.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Per-pass clause resolution and history scans (prewiring disabled).
    Resolved,
    /// The frozen fast path: frontier stamp + bulk interior publish.
    Prewired,
    /// `replay_fused`: `FUSE` iterations per lock acquisition.
    Fused,
}

/// Insertion rate of `batches` warm replays of a captured `BATCH`-task
/// batch in the given mode; the timer covers the stamping calls only.
fn replay_rate(batches: usize, mode: Mode) -> f64 {
    let rt = runtime(mode != Mode::Resolved);
    let cells: Vec<Data<u64>> = (0..CELLS).map(|_| rt.data(0u64)).collect();
    let mut scope = rt.capture();
    for i in 0..BATCH {
        let c = cells[i % CELLS].clone();
        let prev = cells[(i + CELLS - 1) % CELLS].clone();
        scope.task().input(&prev).output(&c).spawn(move |ctx| {
            *ctx.write(&c) = i as u64 + *ctx.read(&prev);
        });
    }
    let template = scope.finish();
    drain(&rt);
    let mut spawned = BATCH;

    let bindings = ReplayBindings::new();
    for _ in 0..4 {
        rt.replay(&template, &bindings);
        drain(&rt);
        spawned += BATCH;
    }
    match mode {
        Mode::Resolved => assert!(
            !template.is_frozen(),
            "prewiring is disabled, the template must stay on the resolved path"
        ),
        Mode::Prewired => assert!(
            template.is_frozen(),
            "a warm renaming-free batch must freeze under the default config"
        ),
        Mode::Fused => {
            // One warm fused pass widens the node working set to
            // FUSE * BATCH before the timed window.
            rt.replay_fused(&template, FUSE);
            drain(&rt);
            spawned += FUSE * BATCH;
        }
    }

    let mut stamping = Duration::ZERO;
    let calls = if mode == Mode::Fused { batches / FUSE } else { batches };
    for _ in 0..calls {
        match mode {
            Mode::Fused => {
                let start = Instant::now();
                rt.replay_fused(&template, FUSE);
                stamping += start.elapsed();
                spawned += FUSE * BATCH;
            }
            _ => {
                let start = Instant::now();
                rt.replay(&template, &bindings);
                stamping += start.elapsed();
                spawned += BATCH;
            }
        }
        drain(&rt);
    }
    let stats = rt.stats();
    assert_eq!(stats.tasks_spawned as usize, spawned, "replay run lost tasks");
    rt.shutdown();
    let measured = if mode == Mode::Fused { calls * FUSE * BATCH } else { calls * BATCH };
    measured as f64 / stamping.as_secs_f64()
}

fn best_of_3(f: impl Fn() -> f64) -> f64 {
    (0..3).map(|_| f()).fold(0.0f64, f64::max)
}

fn main() {
    let batches: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("batches must be a number"))
        .unwrap_or(32);
    assert!(
        (batches * BATCH).is_multiple_of(SPAWNERS),
        "batches * {BATCH} must divide evenly over {SPAWNERS} spawners"
    );
    assert!(
        batches.is_multiple_of(FUSE),
        "batches must divide evenly into fused super-batches of {FUSE}"
    );

    println!(
        "graph_replay: {batches} batches of {BATCH} read-write chain tasks over {CELLS} cells"
    );
    println!();

    let spawn = best_of_3(|| full_spawn_rate(batches));
    let resolved = best_of_3(|| replay_rate(batches, Mode::Resolved));
    let prewired = best_of_3(|| replay_rate(batches, Mode::Prewired));
    let fused = best_of_3(|| replay_rate(batches, Mode::Fused));

    println!(
        "  {:<28} {:>14} {:>10}",
        "insertion side", "tasks/sec", "speedup"
    );
    println!(
        "  {:<28} {:>14.0} {:>10}",
        format!("full-spawn ({SPAWNERS} threads)"),
        spawn,
        "1.00x"
    );
    for (label, rate) in [
        ("resolved replay", resolved),
        ("pre-wired replay", prewired),
        (&format!("fused replay (x{FUSE})")[..], fused),
    ] {
        println!("  {:<28} {:>14.0} {:>9.2}x", label, rate, rate / spawn);
    }

    update_bench_json(
        "graph_replay",
        &format!(
            "{{\"batch\": {BATCH}, \"full_spawn_tasks_per_sec\": {spawn:.0}, \
             \"resolved_replay_tasks_per_sec\": {resolved:.0}, \
             \"prewired_replay_tasks_per_sec\": {prewired:.0}, \
             \"fused_replay_tasks_per_sec\": {fused:.0}}}"
        ),
    );
    println!();
    println!("  rates recorded in BENCH_replay.json");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = if cores >= 4 { 2.0 } else { 1.1 };
    let speedup = prewired / spawn;
    println!();
    println!("  {cores} hardware threads -> required replay-vs-spawn speedup >= {floor:.1}x");
    assert!(
        speedup >= floor,
        "warm replay must beat {SPAWNERS}-spawner full-spawn insertion by \
         {floor:.1}x, measured {speedup:.2}x"
    );
    let prewire_gain = prewired / resolved;
    println!("  required pre-wired-vs-resolved speedup >= 1.5x (measured {prewire_gain:.2}x)");
    assert!(
        prewire_gain >= 1.5,
        "pre-wired replay must beat resolved-per-pass replay by 1.5x on the \
         warm renaming-free batch, measured {prewire_gain:.2}x"
    );
    println!("  ok");
}
