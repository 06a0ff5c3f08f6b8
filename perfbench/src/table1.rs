//! `table1-fine` and `table1-coarse`: the paper's Table 1 programs at
//! `Params::large()`, OmpSs on a warm 2-worker runtime against Pthreads
//! with 2 threads, trials interleaved and the leading side alternated.

use std::hint::black_box;
use std::time::{Duration, Instant};

use benchsuite::benchmarks::*;
use ompss::{Runtime, RuntimeConfig};

use crate::report::{cpu_ticks, Counters, Report, Steal};
use crate::spans::{self, Tracer};
use crate::stats::{geomean, median, quartiles, rotation};
use crate::{block_of, RunConfig, SETUPS};

/// Five or more tasks per ms of sequential work: runtime overhead matters.
pub const PROGRAMS_FINE: [&str; 6] = [
    "streamcluster",
    "bodytrack",
    "kmeans",
    "md5",
    "c-ray",
    "ray-rot",
];
/// Three or fewer tasks per ms: the kernels do almost all the work.
pub const PROGRAMS_COARSE: [&str; 4] = ["rotate", "rot-cc", "rgbcmy", "h264dec"];

/// Runtime workers and Pthreads threads.
const THREADS: usize = 2;
/// Rounds of the traced half are capped to bound the trace's memory.
const MAX_TRACED_ROUNDS: usize = 4;

/// One Table 1 program with its three variants bound to one input.
pub struct Program {
    pub name: &'static str,
    /// Whether the seed reached the input (c-ray and ray-rot render fixed
    /// scenes and have no seed).
    pub seeded: bool,
    seq: Box<dyn Fn() -> u64>,
    pthreads: Box<dyn Fn(usize) -> u64>,
    ompss: Box<dyn Fn(&Runtime) -> u64>,
    input: Option<Box<dyn Fn()>>,
}

macro_rules! program {
    ($name:expr, $m:ident $(, seed: $seed:expr => $($field:ident).+)? $(, input: $input:ident)?) => {{
        #[allow(unused_mut)]
        let mut p = $m::Params::large();
        #[allow(unused_mut)]
        let mut seeded = false;
        $( p.$($field).+ = $seed; seeded = true; )?
        #[allow(unused_mut)]
        let mut input: Option<Box<dyn Fn()>> = None;
        $( let q = p.clone(); input = Some(Box::new(move || { black_box(q.$input()); })); )?
        let (a, b, c) = (p.clone(), p.clone(), p);
        Program {
            name: $name,
            seeded,
            seq: Box::new(move || $m::run_seq(&a)),
            pthreads: Box::new(move |t| $m::run_pthreads(&b, t)),
            ompss: Box::new(move |rt| $m::run_ompss(&c, rt)),
            input,
        }
    }};
}

/// The program called `name` at `Params::large()`, with `seed` in place of
/// the input seed where the program has one.
#[allow(unused_assignments)]
pub fn program(name: &'static str, seed: u64) -> Program {
    match name {
        "streamcluster" => program!(name, streamcluster, seed: seed => seed, input: input),
        "bodytrack" => program!(name, bodytrack, seed: seed => seed),
        "kmeans" => program!(name, kmeans, seed: seed => seed, input: input),
        "md5" => program!(name, md5, seed: seed => seed, input: input),
        "c-ray" => program!(name, cray),
        "ray-rot" => program!(name, rayrot),
        "rotate" => program!(name, rotate, seed: seed => seed, input: input),
        "rot-cc" => program!(name, rotcc, seed: seed => seed, input: input),
        "rgbcmy" => program!(name, rgbcmy, seed: seed => seed, input: input),
        "h264dec" => program!(name, h264dec, seed: seed => video.seed),
        other => panic!("not a Table 1 program: {other}"),
    }
}

impl Program {
    /// Whether `Params` exposes the input generator as `input()`.
    pub fn has_input(&self) -> bool {
        self.input.is_some()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Per-program samples of one measured pass.
struct Samples {
    ompss_ms: Vec<Vec<f64>>,
    pthreads_ms: Vec<Vec<f64>>,
    tasks: Vec<Vec<f64>>,
    counters: Counters,
    /// Steal over the OmpSs trials.
    steal: Steal,
}

/// Run `table1-fine` (`coarse == false`) or `table1-coarse`.
pub fn run(coarse: bool, cfg: &RunConfig, out: &mut Report) {
    let names: &[&'static str] = if coarse {
        &PROGRAMS_COARSE
    } else {
        &PROGRAMS_FINE
    };
    let programs: Vec<Program> = names.iter().map(|n| program(n, cfg.seed)).collect();
    for p in &programs {
        println!(
            "  input of {:<14} {}",
            p.name,
            if p.seeded {
                format!("seed {}", cfg.seed)
            } else {
                "fixed scene (no seed)".into()
            }
        );
    }

    // Each set-up builds a runtime; that construction is `setup_s`. A
    // measured block then computes the sequential reference checksums (the
    // benchmark's own oracle, kernel-bound and not part of `setup_s`), runs
    // one warm-up OmpSs trial per program, and measures. Pthreads keeps no
    // state between calls and needs no warm-up.
    let (mut setup_s, mut shutdown_ms, mut warmup_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut seq_ms: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    let mut samples = Samples {
        ompss_ms: vec![Vec::new(); programs.len()],
        pthreads_ms: vec![Vec::new(); programs.len()],
        tasks: vec![Vec::new(); programs.len()],
        counters: Counters::default(),
        steal: Steal::default(),
    };
    let mut reference = Vec::new();
    let mut round = 0;
    for setup in 0..SETUPS {
        let (rt, d) = timed(|| Runtime::new(RuntimeConfig::default().with_workers(THREADS)));
        setup_s.push(d.as_secs_f64());
        if block_of(setup).is_some() {
            reference.clear();
            for (i, p) in programs.iter().enumerate() {
                let (sum, d) = timed(|| (p.seq)());
                seq_ms[i].push(ms(d));
                reference.push(sum);
            }
            let start = Instant::now();
            for (p, sum) in programs.iter().zip(&reference) {
                out.check((p.ompss)(&rt) == *sum, || {
                    format!("{}: warm-up OmpSs checksum", p.name)
                });
            }
            warmup_ms.push(ms(start.elapsed()));
            round = measure(
                &programs,
                &reference,
                &rt,
                cfg.block_seconds(),
                round,
                &mut samples,
                out,
            );
            rt.taskwait();
            if let Err(v) = rt.audit() {
                out.fail(format!("runtime audit after the block's last trial: {v:?}"));
            }
        }
        shutdown_ms.push(ms(timed(|| rt.shutdown()).1));
    }
    out.add("setup_s", "s", median(&setup_s), setup_s.len());

    // End-to-end.
    let ompss_med: Vec<f64> = samples.ompss_ms.iter().map(|s| median(s)).collect();
    let pth_med: Vec<f64> = samples.pthreads_ms.iter().map(|s| median(s)).collect();
    let n = samples.ompss_ms.iter().map(Vec::len).min().unwrap_or(0);
    println!(
        "  {:<14} {:>26} {:>26} {:>8}",
        "program", "ompss ms q1/med/q3", "pthreads ms q1/med/q3", "pth/omp"
    );
    for (i, p) in programs.iter().enumerate() {
        let q = |v: &[f64]| {
            quartiles(v).map_or("-".into(), |q| {
                format!("{:.2}/{:.2}/{:.2}", q[0], q[1], q[2])
            })
        };
        println!(
            "  {:<14} {:>26} {:>26} {:>8.3}  n={}",
            p.name,
            q(&samples.ompss_ms[i]),
            q(&samples.pthreads_ms[i]),
            pth_med[i] / ompss_med[i],
            samples.ompss_ms[i].len()
        );
    }
    // Trials last 5 ms or more, long enough that hypervisor steal spreads over
    // every one of them and stretches the medians by 1 / (1 - steal share).
    // `ompss_ms` takes that stretch out, so that it measures the code and not
    // the host's steal; the raw medians are the `ompss_ms.<program>` rows.
    let steal = samples.steal.share();
    println!(
        "  OmpSs geomean {:.3} ms raw, steal share during OmpSs trials {steal:.4}",
        geomean(&ompss_med)
    );
    out.add("ompss_ms", "ms", geomean(&ompss_med) * (1.0 - steal), n);
    let ratios: Vec<f64> = pth_med.iter().zip(&ompss_med).map(|(p, o)| p / o).collect();
    out.add("speedup_vs_pthreads", "ratio", geomean(&ratios), n);

    if !cfg.trace {
        return;
    }
    // Layers, from the untraced half.
    for (i, p) in programs.iter().enumerate() {
        out.add(
            format!("ompss_ms.{}", p.name),
            "ms",
            ompss_med[i],
            samples.ompss_ms[i].len(),
        );
        out.add(
            format!("threadkit.pthreads_ms.{}", p.name),
            "ms",
            pth_med[i],
            samples.pthreads_ms[i].len(),
        );
        out.add(
            format!("runtime.tasks_per_run.{}", p.name),
            "tasks",
            median(&samples.tasks[i]),
            samples.tasks[i].len(),
        );
        out.add(
            format!("kernels.seq_ms.{}", p.name),
            "ms",
            median(&seq_ms[i]),
            seq_ms[i].len(),
        );
    }
    out.add(
        "runtime.new_ms",
        "ms",
        median(&setup_s) * 1e3,
        setup_s.len(),
    );
    out.add("setup.warmup_ms", "ms", median(&warmup_ms), warmup_ms.len());
    out.add("host.steal_share", "share", steal, n);
    out.add(
        "runtime.shutdown_ms",
        "ms",
        median(&shutdown_ms),
        shutdown_ms.len(),
    );
    samples.counters.report(out);
    traced(&programs, &reference, &ompss_med, cfg, out);
}

/// Interleaved OmpSs/Pthreads trials of every program, starting at round
/// `round`, until `seconds` have passed (one round at least), each checked
/// against its reference. Returns the next round.
fn measure(
    programs: &[Program],
    reference: &[u64],
    rt: &Runtime,
    seconds: f64,
    first_round: usize,
    s: &mut Samples,
    out: &mut Report,
) -> usize {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for round in first_round.. {
        for (i, p) in programs.iter().enumerate() {
            if round > first_round && Instant::now() >= deadline {
                return round + 1;
            }
            for side in rotation(round + i, 2) {
                if side == 0 {
                    let (before, ticks) = (rt.stats(), cpu_ticks());
                    let (sum, d) = timed(|| (p.ompss)(rt));
                    let after = rt.stats();
                    s.steal.add(&ticks, &cpu_ticks());
                    s.ompss_ms[i].push(ms(d));
                    s.tasks[i]
                        .push(after.tasks_spawned.saturating_sub(before.tasks_spawned) as f64);
                    s.counters.add(&before, &after, 1);
                    out.check(sum == reference[i], || {
                        format!("{}: OmpSs checksum {sum:#x}", p.name)
                    });
                } else {
                    let (sum, d) = timed(|| (p.pthreads)(THREADS));
                    s.pthreads_ms[i].push(ms(d));
                    out.check(sum == reference[i], || {
                        format!("{}: Pthreads checksum {sum:#x}", p.name)
                    });
                }
            }
        }
    }
    unreachable!("the round loop only ends by returning")
}

/// The traced half: a traced runtime, spans around every trial, the
/// runtime's task events attached to the OmpSs trial that ran them.
fn traced(
    programs: &[Program],
    reference: &[u64],
    untraced_ms: &[f64],
    cfg: &RunConfig,
    out: &mut Report,
) {
    let mut tracer = Tracer::new(cfg.epoch);
    let t0 = Instant::now();
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(THREADS)
            .with_tracing(true),
    );
    tracer.record("runtime.new", 0, None, t0, Instant::now());
    let offset = spans::calibrate(&rt, cfg.epoch);
    for (p, sum) in programs.iter().zip(reference) {
        out.check((p.ompss)(&rt) == *sum, || {
            format!("{}: traced warm-up checksum", p.name)
        });
    }
    let mut ompss_ms: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    let mut input_ms: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    let mut windows = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / 2.0);
    let mut trial = 0u64;
    for round in 0..MAX_TRACED_ROUNDS {
        if round >= 1 && Instant::now() >= deadline {
            break;
        }
        for (i, p) in programs.iter().enumerate() {
            for side in rotation(round + i, 3) {
                trial += 1;
                let start = Instant::now();
                let sum = match side {
                    0 => (p.ompss)(&rt),
                    1 => (p.pthreads)(THREADS),
                    _ => (p.seq)(),
                };
                let end = Instant::now();
                let name = ["trial.ompss", "trial.pthreads", "trial.seq"][side];
                let span = tracer.record(name, trial, None, start, end);
                if side == 0 {
                    ompss_ms[i].push(ms(end - start));
                    windows.push((tracer.ns(start), tracer.ns(end), span));
                }
                out.check(sum == reference[i], || {
                    format!("{}: traced {name} checksum {sum:#x}", p.name)
                });
            }
            if let Some(input) = &p.input {
                input_ms[i].push(ms(timed(input).1));
            }
        }
    }
    rt.taskwait();
    if let Err(v) = rt.audit() {
        out.fail(format!("traced runtime audit: {v:?}"));
    }
    let events = rt.trace();
    rt.shutdown();

    let tasks = spans::task_times(&events, offset);
    let parents = spans::assign_by_start(&tasks, &windows);
    tracer.attach_tasks(&tasks, &parents);
    let layers = spans::task_layers(&tasks, &parents);
    let ompss_wall_ns: f64 = windows.iter().map(|w| (w.1 - w.0) as f64).sum();
    let traced_med: Vec<f64> = ompss_ms.iter().map(|v| median(v)).collect();
    let overhead: Vec<f64> = traced_med
        .iter()
        .zip(untraced_ms)
        .map(|(t, u)| t / u)
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
        layers.busy_ns as f64 / (THREADS as f64 * ompss_wall_ns),
        windows.len(),
    );
    for (i, p) in programs.iter().enumerate() {
        if p.input.is_some() {
            out.add(
                format!("kernels.input_ms.{}", p.name),
                "ms",
                median(&input_ms[i]),
                input_ms[i].len(),
            );
        }
    }
    crate::finish_trace(&tracer, &layers, cfg, out);
}
