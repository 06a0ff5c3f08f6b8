//! `service`: an open loop against the job service. One generator thread
//! (the main thread) sends a seeded Poisson arrival schedule, alternating
//! segments at a low and a high fixed rate, sleeping until each due time.
//! Two tenants — `interactive` on the latency lane, `bulk` on the bulk
//! lane — each own one 1-worker runtime; the service runs 2 dispatchers.
//! Most jobs spawn an 8-task `inout` chain; one in ten replays a template
//! captured in set-up. A job's latency runs from its scheduled send time to
//! the finish of its last task; a refused or failed job misses every limit.
//! `ompss_ms` times jobs from their `submit` call instead, leaving the
//! generator's wake-up lateness out.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use ompss::{Data, RuntimeConfig, RuntimeStats, TraceEvent};
use service::{
    JobService, JobSpec, JobStatus, JobTicket, Lane, ServiceConfig, TenantId, TenantSpec,
};

use crate::replay::step;
use crate::report::{Counters, Report};
use crate::spans::{self, Tracer};
use crate::stats::{geomean, median, percentile, tail};
use crate::{block_of, RunConfig, BLOCKS, SETUPS};

/// Offered load of the low and the high segments, in jobs per second,
/// frozen from saturation points measured on a 2-vCPU virtual machine. With
/// the host quiet this job mix saturates near 20k jobs/s. With 15-35 % of
/// the CPU stolen by the hypervisor, 10k and 14k already saturated (job p50
/// 2-32 ms). Both rates stay below saturation in that contended state, so
/// the medians measure the service and not a backlog.
pub const RATES: [f64; 2] = [2_000.0, 4_000.0];
const RATE_NAMES: [&str; 2] = ["low", "high"];
/// Tasks per spawn job, and in the captured template.
const CHAIN: usize = 8;
/// One job in `REPLAY_ONE_IN` replays the tenant's template.
const REPLAY_ONE_IN: u64 = 10;
const TENANTS: [(&str, Lane); 2] = [("interactive", Lane::Latency), ("bulk", Lane::Bulk)];
const DISPATCHERS: usize = 2;
/// Queue and budgets sized so host hiccups are absorbed, not shed: a
/// refusal here means the service could not keep up.
const QUEUE_CAPACITY: usize = 8_192;
const IN_FLIGHT_BUDGET: usize = 4_096;
const WARMUP_JOBS: usize = 100;
/// The traced half runs one low and one high segment of at most this long.
const MAX_TRACED_SEGMENT_S: f64 = 0.5;

/// SplitMix64: the benchmark's seeded generator.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One scheduled job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub segment: u32,
    /// Index into [`RATES`].
    pub rate: u8,
    /// Due time, from the start of its segment.
    pub due_ns: u64,
    pub tenant: u8,
    pub replay: bool,
    /// Seed value of a spawn job's chain.
    pub value: u64,
}

/// The arrival schedule of `segments` segments of `segment_s` seconds,
/// alternating the low and high rate, drawn from `seed` alone.
pub fn schedule(seed: u64, segments: usize, segment_s: f64) -> Vec<Arrival> {
    let mut rng = Rng(splitmix64(seed));
    let mut out = Vec::new();
    for segment in 0..segments {
        let rate = segment % 2;
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.unit()).ln() / RATES[rate];
            if t >= segment_s {
                break;
            }
            out.push(Arrival {
                segment: segment as u32,
                rate: rate as u8,
                due_ns: (t * 1e9) as u64,
                tenant: (rng.next() & 1) as u8,
                replay: rng.next().is_multiple_of(REPLAY_ONE_IN),
                value: rng.next(),
            });
        }
    }
    out
}

/// A schedule as bytes, for identity checks.
#[cfg(test)]
fn schedule_bytes(arrivals: &[Arrival]) -> Vec<u8> {
    let mut out = Vec::with_capacity(arrivals.len() * 23);
    for a in arrivals {
        out.extend_from_slice(&a.segment.to_le_bytes());
        out.push(a.rate);
        out.extend_from_slice(&a.due_ns.to_le_bytes());
        out.push(a.tenant);
        out.push(a.replay as u8);
        out.extend_from_slice(&a.value.to_le_bytes());
    }
    out
}

fn chain_fold(mut v: u64) -> u64 {
    for k in 0..CHAIN {
        v = step(v, k as u64);
    }
    v
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// What a spawn job records about itself.
#[derive(Default)]
struct Slot {
    start: AtomicU64,
    body_end: AtomicU64,
    finish: AtomicU64,
    effects: AtomicU32,
    wrong: AtomicBool,
}

/// A job that spawns an 8-task `inout` chain over a fresh cell; the last
/// task checks the chain's value and applies the job's side effect.
fn spawn_job(slots: &Arc<Vec<Slot>>, j: usize, value: u64, epoch: Instant) -> JobSpec {
    let slots = Arc::clone(slots);
    JobSpec::spawn(move |cx| {
        slots[j].start.store(ns_since(epoch), Ordering::Relaxed);
        let cell = cx.runtime.data(value);
        for k in 0..CHAIN {
            let c = cell.clone();
            let slots = (k == CHAIN - 1).then(|| Arc::clone(&slots));
            cx.runtime.task().inout(&c).spawn(move |ctx| {
                let mut w = ctx.write(&c);
                *w = step(*w, k as u64);
                if let Some(slots) = &slots {
                    let slot = &slots[j];
                    slot.wrong.store(*w != chain_fold(value), Ordering::Relaxed);
                    slot.effects.fetch_add(1, Ordering::Relaxed);
                    slot.finish.store(ns_since(epoch), Ordering::Relaxed);
                }
            });
        }
        slots[j].body_end.store(ns_since(epoch), Ordering::Relaxed);
    })
}

/// Start and finish times of each replay pass of a tenant's template.
struct PassLog {
    start: Vec<AtomicU64>,
    finish: Vec<AtomicU64>,
}

/// The benchmark's view of one tenant.
struct Tenant {
    id: TenantId,
    log: Arc<PassLog>,
    /// The template's cell and its initial value.
    cell: Arc<Mutex<Option<Data<u64>>>>,
    init: u64,
    /// Replay passes run in set-up.
    setup_passes: usize,
}

/// A service with its tenants and their captured templates.
struct Svc {
    svc: JobService,
    tenants: Vec<Tenant>,
}

/// Build the service and capture each tenant's template (slot 0). Pushes the interval of each `register_tenant` (which
/// builds the tenant's runtime) onto `registered` and each template's
/// capture time onto `finish_us`.
fn start(
    cfg: &RunConfig,
    traced: bool,
    replay_jobs: usize,
    registered: &mut Vec<(Instant, Instant)>,
    finish_us: &mut Vec<f64>,
) -> Svc {
    let svc = JobService::new(
        ServiceConfig::default()
            .with_dispatchers(DISPATCHERS)
            .with_queue_capacity(QUEUE_CAPACITY),
    );
    let epoch = cfg.epoch;
    let mut tenants = Vec::new();
    for (k, (name, lane)) in TENANTS.iter().enumerate() {
        let t = Instant::now();
        let id = svc
            .register_tenant(
                TenantSpec::new(name)
                    .with_lane(*lane)
                    .with_in_flight_budget(IN_FLIGHT_BUDGET)
                    .with_runtime_config(
                        RuntimeConfig::default()
                            .with_workers(1)
                            .with_tracing(traced),
                    ),
            )
            .expect("a fresh service registers its tenants");
        registered.push((t, Instant::now()));
        let passes = 1 + WARMUP_JOBS + replay_jobs;
        let log = Arc::new(PassLog {
            start: (0..passes).map(|_| AtomicU64::new(0)).collect(),
            finish: (0..passes).map(|_| AtomicU64::new(0)).collect(),
        });
        let cell = Arc::new(Mutex::new(None));
        let init = splitmix64(cfg.seed ^ (k as u64 + 1) << 32);
        let capture_us = Arc::new(AtomicU64::new(0));
        let (l, c, us) = (Arc::clone(&log), Arc::clone(&cell), Arc::clone(&capture_us));
        let ticket = svc
            .submit(
                id,
                JobSpec::spawn(move |cx| {
                    let data = cx.runtime.data(init);
                    let mut scope = cx.runtime.capture();
                    for k in 0..CHAIN {
                        let (d, l) = (data.clone(), Arc::clone(&l));
                        scope.task().inout(&d).spawn(move |ctx| {
                            let pass = ctx.replay_pass() as usize;
                            if k == 0 {
                                if let Some(s) = l.start.get(pass) {
                                    s.store(ns_since(epoch), Ordering::Relaxed);
                                }
                            }
                            let mut w = ctx.write(&d);
                            *w = step(*w, k as u64);
                            if k == CHAIN - 1 {
                                if let Some(f) = l.finish.get(pass) {
                                    f.store(ns_since(epoch), Ordering::Relaxed);
                                }
                            }
                        });
                    }
                    let t = Instant::now();
                    let template = scope.finish();
                    us.store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    cx.templates.store(0, template);
                    *c.lock().expect("cell lock") = Some(data);
                }),
            )
            .expect("an idle service admits the capture job");
        assert!(ticket.wait().is_completed(), "capture job failed");
        finish_us.push(capture_us.load(Ordering::Relaxed) as f64 / 1e3);
        tenants.push(Tenant {
            id,
            log,
            cell,
            init,
            setup_passes: 0,
        });
    }
    Svc { svc, tenants }
}

/// Run both job kinds on every tenant, one at a time, unmeasured.
fn warm_up(s: &mut Svc, epoch: Instant) {
    let svc = &s.svc;
    let warm_slots = Arc::new(
        (0..WARMUP_JOBS)
            .map(|_| Slot::default())
            .collect::<Vec<_>>(),
    );
    for j in 0..WARMUP_JOBS {
        for t in s.tenants.iter_mut() {
            let spawn = spawn_job(&warm_slots, j, j as u64, epoch);
            let ok = svc.submit(t.id, spawn).map(|k| k.wait().is_completed());
            let replay = svc
                .submit(t.id, JobSpec::replay(0, 1))
                .map(|k| k.wait().is_completed());
            assert!(
                matches!((ok, replay), (Ok(true), Ok(true))),
                "warm-up job failed"
            );
            t.setup_passes += 1;
        }
    }
    // A ticket resolves just before the ledger counts it; draining settles
    // the ledger before the measured pass snapshots it.
    svc.drain();
}

/// Per-job record of one pass.
struct Sent {
    arrival: Arrival,
    due_ns: u64,
    submit_ns: (u64, u64),
    accepted: bool,
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    sent: Vec<Sent>,
    /// (start, body_end, finish) per job; zeros where it did not run.
    times: Vec<(u64, u64, u64)>,
    latency_ms: [Vec<f64>; 2],
    /// Per rate, each job's latency from its `submit` call instead of its
    /// due time: the generator's wake-up lateness left out.
    service_ms: [Vec<f64>; 2],
    wall_ns: u64,
    /// Each tenant runtime's statistics before and after.
    stats: Vec<(RuntimeStats, RuntimeStats)>,
    /// Each tenant runtime's trace and clock offset, when traced.
    events: Vec<(Vec<TraceEvent>, i64)>,
    rejected_queue_full: u64,
    rejected_budget: u64,
    peak_queue_depth: usize,
}

impl Pass {
    fn merge(&mut self, other: Pass) {
        self.sent.extend(other.sent);
        self.times.extend(other.times);
        for (a, b) in self.latency_ms.iter_mut().zip(other.latency_ms) {
            a.extend(b);
        }
        for (a, b) in self.service_ms.iter_mut().zip(other.service_ms) {
            a.extend(b);
        }
        self.wall_ns += other.wall_ns;
        self.stats.extend(other.stats);
        self.events.extend(other.events);
        self.rejected_queue_full += other.rejected_queue_full;
        self.rejected_budget += other.rejected_budget;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
    }
}

/// Send `arrivals` open-loop, drain after each segment, then check every
/// job and the service ledger.
fn drive(s: &Svc, arrivals: &[Arrival], cfg: &RunConfig, traced: bool, out: &mut Report) -> Pass {
    let epoch = cfg.epoch;
    let slots = Arc::new(
        (0..arrivals.len())
            .map(|_| Slot::default())
            .collect::<Vec<_>>(),
    );
    let before = s.svc.metrics();
    let mut sent = Vec::with_capacity(arrivals.len());
    let mut tickets = Vec::with_capacity(arrivals.len());
    let mut wall_ns = 0;
    let mut next = 0;
    while next < arrivals.len() {
        let segment = arrivals[next].segment;
        let seg_start = Instant::now();
        while next < arrivals.len() && arrivals[next].segment == segment {
            let a = arrivals[next];
            let due = seg_start + Duration::from_nanos(a.due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let job = if a.replay {
                JobSpec::replay(0, 1)
            } else {
                spawn_job(&slots, next, a.value, epoch)
            };
            let s0 = ns_since(epoch);
            let result = s.svc.submit(s.tenants[a.tenant as usize].id, job);
            let s1 = ns_since(epoch);
            sent.push(Sent {
                arrival: a,
                due_ns: due.saturating_duration_since(epoch).as_nanos() as u64,
                submit_ns: (s0, s1),
                accepted: result.is_ok(),
            });
            tickets.push(result.ok());
            next += 1;
        }
        s.svc.drain();
        wall_ns += seg_start.elapsed().as_nanos() as u64;
    }
    let after = s.svc.metrics();

    // A tenant's jobs run one at a time on its runtime, nearly always in
    // admission order, so the k-th completed replay job is taken to have run
    // the k-th pass after set-up. When both dispatchers pop the same
    // tenant's jobs at once, two neighbours can swap; their times are then
    // off by one job's run time.
    let mut next_pass: Vec<usize> = s.tenants.iter().map(|t| t.setup_passes).collect();
    let mut times = Vec::with_capacity(sent.len());
    let mut latency_ms: [Vec<f64>; 2] = Default::default();
    let mut service_ms: [Vec<f64>; 2] = Default::default();
    let mut replays_done = vec![0u64; s.tenants.len()];
    for (j, (x, ticket)) in sent.iter().zip(tickets).enumerate() {
        let a = x.arrival;
        let status = ticket.as_ref().map(JobTicket::status);
        let completed = matches!(status, Some(JobStatus::Completed));
        let mut t = (0, 0, 0);
        if !completed {
            out.attempted += 1;
            match status {
                None => out.refuse(),
                Some(st) => out.fail(format!("job {j}: ended {st:?}")),
            }
        } else if a.replay {
            let k = a.tenant as usize;
            next_pass[k] += 1;
            replays_done[k] += 1;
            let log = &s.tenants[k].log;
            let load =
                |v: &[AtomicU64]| v.get(next_pass[k]).map_or(0, |x| x.load(Ordering::Relaxed));
            t = (load(&log.start), 0, load(&log.finish));
            // Checked as a whole by the template-cell probe below.
            out.attempted += 1;
        } else {
            let slot = &slots[j];
            let effects = slot.effects.load(Ordering::Relaxed);
            let wrong = slot.wrong.load(Ordering::Relaxed);
            out.check(effects == 1 && !wrong, || {
                format!("job {j}: side effect applied {effects} times, wrong value {wrong}")
            });
            t = (
                slot.start.load(Ordering::Relaxed),
                slot.body_end.load(Ordering::Relaxed),
                slot.finish.load(Ordering::Relaxed),
            );
        }
        let ms_from = |t0: u64| {
            if completed && t.2 > 0 {
                t.2.saturating_sub(t0) as f64 / 1e6
            } else {
                f64::INFINITY
            }
        };
        latency_ms[a.rate as usize].push(ms_from(x.due_ns));
        service_ms[a.rate as usize].push(ms_from(x.submit_ns.0));
        times.push(t);
    }
    for (i, slot) in slots.iter().enumerate() {
        if !sent[i].accepted && slot.effects.load(Ordering::Relaxed) != 0 {
            out.fail(format!("refused job {i} still ran"));
        }
    }

    // Ledger: every offered job was submitted; the terminal states account
    // for every admitted one.
    let d = |f: fn(&service::ServiceMetrics) -> u64| f(&after) - f(&before);
    let offered = sent.len() as u64;
    let balanced = d(|m| m.submitted) == offered
        && d(|m| m.accepted) + d(|m| m.rejected()) == offered
        && d(|m| m.completed) + d(|m| m.failed) + d(|m| m.cancelled) + d(|m| m.expired)
            == d(|m| m.accepted);
    out.check(balanced, || {
        format!(
            "service ledger: offered {offered}, submitted {}, accepted {}, rejected {}, completed {}, failed {}, cancelled {}, expired {}",
            d(|m| m.submitted), d(|m| m.accepted), d(|m| m.rejected()), d(|m| m.completed),
            d(|m| m.failed), d(|m| m.cancelled), d(|m| m.expired)
        )
    });

    // Per tenant: the template's cell went through exactly the passes run,
    // and the runtime audits clean.
    let mut events = Vec::new();
    for (k, t) in s.tenants.iter().enumerate() {
        let (tx, rx) = mpsc::channel();
        let cell = t
            .cell
            .lock()
            .expect("cell lock")
            .clone()
            .expect("captured in set-up");
        let ticket = s
            .svc
            .submit(
                t.id,
                JobSpec::spawn(move |cx| {
                    let value = cx.runtime.fetch(&cell);
                    cx.runtime.taskwait();
                    let audit = cx.runtime.audit().err().map(|v| format!("{v:?}"));
                    let trace =
                        traced.then(|| (cx.runtime.trace(), spans::calibrate(cx.runtime, epoch)));
                    tx.send((value, audit, trace)).expect("probe result");
                }),
            )
            .expect("an idle service admits the probe job");
        let status = ticket.wait();
        let (value, audit, trace) = rx.recv().expect("probe job ran");
        let passes = 1 + t.setup_passes as u64 + replays_done[k];
        let mut expect = t.init;
        for _ in 0..passes {
            expect = chain_fold(expect);
        }
        out.check(status.is_completed() && value == expect, || {
            format!("tenant {k}: template cell after {passes} passes is wrong")
        });
        if let Some(v) = audit {
            out.fail(format!("tenant {k}: runtime audit: {v}"));
        }
        events.extend(trace);
    }
    let stats = before
        .tenants
        .iter()
        .zip(&after.tenants)
        .map(|(b, a)| (b.runtime.clone(), a.runtime.clone()))
        .collect();
    Pass {
        sent,
        times,
        latency_ms,
        service_ms,
        wall_ns,
        stats,
        events,
        rejected_queue_full: after.rejected_queue_full - before.rejected_queue_full,
        rejected_budget: after.rejected_tenant_budget - before.rejected_tenant_budget,
        peak_queue_depth: after.peak_queue_depth,
    }
}

fn replay_count(arrivals: &[Arrival]) -> usize {
    arrivals.iter().filter(|a| a.replay).count()
}

pub fn run(cfg: &RunConfig, out: &mut Report) {
    // Each block starts a fresh service and runs one low and one high
    // segment.
    let arrivals = schedule(cfg.seed, 2 * BLOCKS, cfg.block_seconds() / 2.0);
    let (mut setup_s, mut registered, mut shutdown_ms, mut finish_us, mut warmup_ms) =
        (vec![], vec![], vec![], vec![], vec![]);
    // Sized up front: growing these while jobs run would copy them and make
    // `peak_rss_mb` depend on where a reallocation happened to land.
    let mut pass = Pass::default();
    pass.sent.reserve_exact(arrivals.len());
    pass.times.reserve_exact(arrivals.len());
    for r in 0..RATES.len() {
        let n = arrivals.iter().filter(|a| a.rate as usize == r).count();
        pass.latency_ms[r].reserve_exact(n);
        pass.service_ms[r].reserve_exact(n);
    }
    for setup in 0..SETUPS {
        // Set-up: the service, its tenants and their templates. A set-up
        // with no block is shut down unmeasured.
        let block = block_of(setup);
        let jobs: Vec<Arrival> = arrivals
            .iter()
            .filter(|a| Some(a.segment as usize / 2) == block)
            .copied()
            .collect();
        let t = Instant::now();
        let mut s = start(
            cfg,
            false,
            replay_count(&jobs),
            &mut registered,
            &mut finish_us,
        );
        setup_s.push(t.elapsed().as_secs_f64());
        if block.is_some() {
            let t = Instant::now();
            warm_up(&mut s, cfg.epoch);
            warmup_ms.push(t.elapsed().as_secs_f64() * 1e3);
            pass.merge(drive(&s, &jobs, cfg, false, out));
        }
        let t = Instant::now();
        s.svc.shutdown();
        shutdown_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.add("setup_s", "s", median(&setup_s), setup_s.len());

    // `ompss_ms` times a job from its `submit` call, so that the
    // generator's wake-up lateness (reported below) is not counted as the
    // service's; `job_p50_ms.*` time it from the due time.
    let mut p50 = Vec::new();
    for (r, name) in RATE_NAMES.iter().enumerate() {
        let lat = &pass.latency_ms[r];
        let (q50, q90) = (percentile(lat, 50.0), percentile(lat, 90.0));
        out.add(format!("job_p50_ms.{name}"), "ms", q50, lat.len());
        out.add(format!("job_p90_ms.{name}"), "ms", q90, lat.len());
        if let Some((p, v)) = tail(lat, 10) {
            println!(
                "  {name:<5} {:>6.0} jobs/s  p{p} {v:.3} ms over {} jobs",
                RATES[r],
                lat.len()
            );
        }
        p50.push(percentile(&pass.service_ms[r], 50.0));
    }
    out.add("ompss_ms", "ms", geomean(&p50), pass.sent.len());
    let late: Vec<f64> = pass
        .sent
        .iter()
        .map(|x| x.submit_ns.0.saturating_sub(x.due_ns) as f64 / 1e6)
        .collect();
    for p in [50.0, 90.0] {
        out.add(
            format!("service.generator_late_ms.p{p}"),
            "ms",
            percentile(&late, p),
            late.len(),
        );
    }
    out.add(
        "service.generator_late_ms.max",
        "ms",
        late.iter().cloned().fold(0.0, f64::max),
        late.len(),
    );
    if !cfg.trace {
        return;
    }

    let new_ms: Vec<f64> = registered
        .iter()
        .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3)
        .collect();
    out.add("runtime.new_ms", "ms", median(&new_ms), new_ms.len());
    out.add("setup.warmup_ms", "ms", median(&warmup_ms), warmup_ms.len());
    out.add(
        "runtime.shutdown_ms",
        "ms",
        median(&shutdown_ms),
        shutdown_ms.len(),
    );
    out.add(
        "capture.finish_us",
        "us",
        median(&finish_us),
        finish_us.len(),
    );
    let submit_us: Vec<f64> = pass
        .sent
        .iter()
        .map(|x| (x.submit_ns.1 - x.submit_ns.0) as f64 / 1e3)
        .collect();
    out.add(
        "service.submit_us.p50",
        "us",
        median(&submit_us),
        submit_us.len(),
    );
    let ran: Vec<(&Sent, &(u64, u64, u64))> = pass
        .sent
        .iter()
        .zip(&pass.times)
        .filter(|(_, t)| t.2 > 0)
        .collect();
    let wait_ms: Vec<f64> = ran
        .iter()
        .map(|(x, t)| t.0.saturating_sub(x.due_ns) as f64 / 1e6)
        .collect();
    let run_ms: Vec<f64> = ran
        .iter()
        .map(|(_, t)| t.2.saturating_sub(t.0) as f64 / 1e6)
        .collect();
    out.add(
        "service.queue_wait_ms.p50",
        "ms",
        percentile(&wait_ms, 50.0),
        wait_ms.len(),
    );
    out.add(
        "service.queue_wait_ms.p90",
        "ms",
        percentile(&wait_ms, 90.0),
        wait_ms.len(),
    );
    out.add(
        "service.run_ms.p50",
        "ms",
        percentile(&run_ms, 50.0),
        run_ms.len(),
    );
    let busy_ms: f64 = run_ms.iter().sum();
    out.add(
        "service.dispatcher_utilisation",
        "share",
        busy_ms * 1e6 / (DISPATCHERS as f64 * pass.wall_ns as f64),
        run_ms.len(),
    );
    out.add(
        "service.rejected_queue_full",
        "count",
        pass.rejected_queue_full as f64,
        BLOCKS,
    );
    out.add(
        "service.rejected_budget",
        "count",
        pass.rejected_budget as f64,
        BLOCKS,
    );
    out.add(
        "service.peak_queue_depth",
        "count",
        pass.peak_queue_depth as f64,
        BLOCKS,
    );
    let all: Vec<f64> = pass.latency_ms.iter().flatten().cloned().collect();
    out.add(
        "service.job_p99_ms",
        "ms",
        percentile(&all, 99.0),
        all.len(),
    );
    let spawn_ns: Vec<f64> = ran
        .iter()
        .filter(|(x, _)| !x.arrival.replay)
        .map(|(_, t)| t.1.saturating_sub(t.0) as f64 / CHAIN as f64)
        .collect();
    out.add("runtime.spawn_ns", "ns", median(&spawn_ns), spawn_ns.len());
    // Runs are jobs; the counters are summed over every tenant runtime.
    let mut counters = Counters::default();
    for (b, a) in &pass.stats {
        counters.add(b, a, 0);
    }
    counters.add_runs(ran.len() as u64);
    counters.report(out);
    traced(cfg, &p50, out);
}

/// The traced half: a traced service, one low and one high segment, spans
/// around every submit and job body, task events attached to their job.
fn traced(cfg: &RunConfig, untraced_p50: &[f64], out: &mut Report) {
    let segment_s = (cfg.seconds / 4.0).min(MAX_TRACED_SEGMENT_S);
    let arrivals = schedule(cfg.seed ^ 0x7472_6163_6564, 2, segment_s);
    let mut tracer = Tracer::new(cfg.epoch);
    let mut registered = Vec::new();
    let mut s = start(
        cfg,
        true,
        replay_count(&arrivals),
        &mut registered,
        &mut Vec::new(),
    );
    warm_up(&mut s, cfg.epoch);
    for (k, (a, b)) in registered.into_iter().enumerate() {
        tracer.record("runtime.new", k as u64, None, a, b);
    }
    let pass = drive(&s, &arrivals, cfg, true, out);
    s.svc.shutdown();

    let mut windows: Vec<Vec<(u64, u64, usize)>> = vec![Vec::new(); TENANTS.len()];
    let p50: Vec<f64> = pass
        .service_ms
        .iter()
        .map(|lat| percentile(lat, 50.0))
        .collect();
    for (j, (x, t)) in pass.sent.iter().zip(&pass.times).enumerate() {
        let end = if t.2 > 0 { t.2 } else { x.submit_ns.1 };
        let job = tracer.record_ns("job", j as u64, None, x.due_ns, end);
        tracer.record_ns("submit", j as u64, Some(job), x.submit_ns.0, x.submit_ns.1);
        if t.1 > 0 {
            tracer.record_ns("job.body", j as u64, Some(job), t.0, t.1);
        }
        if t.2 > 0 {
            windows[x.arrival.tenant as usize].push((t.0, t.2, job));
        }
    }
    let mut all = spans::TaskLayers::default();
    let mut wall_ns = 0.0;
    for (k, (events, offset)) in pass.events.iter().enumerate() {
        windows[k].sort_unstable();
        let tasks = spans::task_times(events, *offset);
        let parents = spans::assign_by_start(&tasks, &windows[k]);
        tracer.attach_tasks(&tasks, &parents);
        let layers = spans::task_layers(&tasks, &parents);
        all.dep_wait_us.extend(layers.dep_wait_us);
        all.queue_delay_us.extend(layers.queue_delay_us);
        all.body_us.extend(layers.body_us);
        all.gap_us.extend(layers.gap_us);
        all.busy_ns += layers.busy_ns;
        wall_ns += pass.wall_ns as f64;
    }
    let overhead: Vec<f64> = p50.iter().zip(untraced_p50).map(|(t, u)| t / u).collect();
    out.add(
        "trace_overhead_share",
        "share",
        geomean(&overhead) - 1.0,
        pass.sent.len(),
    );
    // One worker per tenant runtime.
    out.add(
        "worker.busy_share",
        "share",
        all.busy_ns as f64 / wall_ns,
        pass.sent.len(),
    );
    crate::finish_trace(&tracer, &all, cfg, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_schedule() {
        let a = schedule_bytes(&schedule(42, 4, 0.25));
        let b = schedule_bytes(&schedule(42, 4, 0.25));
        assert_eq!(a, b);
        assert_ne!(a, schedule_bytes(&schedule(43, 4, 0.25)));
    }

    #[test]
    fn schedule_alternates_rates_at_about_the_offered_load() {
        let s = schedule(7, 4, 1.0);
        for seg in 0..4u32 {
            let jobs: Vec<&Arrival> = s.iter().filter(|a| a.segment == seg).collect();
            let rate = RATES[seg as usize % 2];
            assert!(jobs.iter().all(|a| a.rate as usize == seg as usize % 2));
            assert!(jobs.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
            let n = jobs.len() as f64;
            assert!(
                (n - rate).abs() < 5.0 * rate.sqrt(),
                "segment {seg}: {n} jobs at {rate}/s"
            );
        }
        let replays = s.iter().filter(|a| a.replay).count() as f64 / s.len() as f64;
        assert!((replays - 0.1).abs() < 0.01, "replay share {replays}");
    }
}
