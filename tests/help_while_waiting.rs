//! Waiting threads run ready tasks: root `taskwait`, `taskwait_on` and
//! `fetch` execute queued tasks on the calling thread instead of idling.
//!
//! Each test parks the only worker of a 1-worker runtime on a gate task, so
//! the waiting thread is the only one that can run what is queued behind it
//! and the test is deterministic without any timing bound. The three wait
//! tests queue a chain of `N` tasks whose last task opens the gate. Should
//! helping regress, a watchdog opens the gate after 30 s and the test fails
//! on the watchdog having fired, instead of hanging.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ompss::{Data, Runtime, RuntimeConfig, TaskId, TraceRecorder};

/// Length of the chain queued behind the gate.
const N: usize = 8;

struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<bool>,
}

impl Watchdog {
    /// Open `gate` after 30 s unless stopped first.
    fn arm(gate: &Arc<AtomicBool>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (gate, stop2) = (gate.clone(), stop.clone());
        let handle = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !stop2.load(Ordering::Acquire) {
                if Instant::now() >= deadline {
                    gate.store(true, Ordering::Release);
                    return true;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            false
        });
        Watchdog { stop, handle }
    }

    /// Stop the watchdog; whether it had to open the gate.
    fn fired(self) -> bool {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("watchdog thread")
    }
}

/// The parked set-up: a traced 1-worker runtime whose worker runs a gate
/// task, and a chain of `N` `inout` tasks on `cell` queued behind it. Each
/// chain task records the worker id it ran on; the last one opens the gate.
struct Parked {
    rt: Runtime,
    cell: Data<u64>,
    chain: Vec<TaskId>,
    seen: Arc<Mutex<Vec<Option<usize>>>>,
    watchdog: Watchdog,
}

/// A traced 1-worker runtime whose worker is busy in a task that spins
/// until `gate` opens.
fn parked_runtime() -> (Runtime, Arc<AtomicBool>) {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(1).with_tracing(true));
    let gate = Arc::new(AtomicBool::new(false));
    let running = Arc::new(AtomicBool::new(false));
    {
        let (gate, running) = (gate.clone(), running.clone());
        rt.task().name("gate").spawn(move |_| {
            running.store(true, Ordering::Release);
            while !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
    }
    // Return only once the worker holds the gate task, so the waiting
    // thread cannot pick the gate task up itself.
    while !running.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    (rt, gate)
}

fn park() -> Parked {
    let (rt, gate) = parked_runtime();
    let watchdog = Watchdog::arm(&gate);
    let cell = rt.data(0u64);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let chain = (0..N)
        .map(|i| {
            let (cell, seen, gate) = (cell.clone(), seen.clone(), gate.clone());
            rt.task().inout(&cell).spawn(move |ctx| {
                *ctx.write(&cell) += 1;
                seen.lock().unwrap().push(ctx.worker_id());
                if i == N - 1 {
                    gate.store(true, Ordering::Release);
                }
            })
        })
        .collect();
    Parked {
        rt,
        cell,
        chain,
        seen,
        watchdog,
    }
}

impl Parked {
    /// Drain, then check that the waiting thread ran the whole chain on the
    /// helper lane and that the runtime audits clean.
    fn check(self) {
        assert!(
            !self.watchdog.fired(),
            "the waiting thread did not run the queued tasks; the watchdog opened the gate"
        );
        self.rt.taskwait();
        assert_eq!(*self.seen.lock().unwrap(), vec![None; N]);
        // Lane 0 is the worker, lane 1 (= workers) the helper lane.
        let lanes = TraceRecorder::new(true);
        for event in self.rt.trace() {
            if self.chain.contains(&event.task()) {
                lanes.record(event);
            }
        }
        assert_eq!(lanes.tasks_per_worker()[1], N as u64);
        assert_eq!(self.rt.busy_ns_per_worker().len(), 2);
        if let Err(violation) = self.rt.audit() {
            panic!("{violation}");
        }
    }
}

#[test]
fn root_taskwait_runs_queued_tasks_on_the_calling_thread() {
    let p = park();
    p.rt.taskwait();
    assert_eq!(p.rt.fetch(&p.cell), N as u64);
    p.check();
}

#[test]
fn taskwait_on_runs_queued_tasks_on_the_calling_thread() {
    let p = park();
    p.rt.taskwait_on(&p.cell);
    assert_eq!(
        p.seen.lock().unwrap().len(),
        N,
        "taskwait_on returned early"
    );
    p.check();
}

#[test]
fn fetch_runs_queued_tasks_on_the_calling_thread() {
    let p = park();
    assert_eq!(p.rt.fetch(&p.cell), N as u64);
    p.check();
}

/// A helper runs the successor its last task woke next, unless its wait is
/// over by then: the successor then goes back to the scheduler.
#[test]
fn successor_held_when_the_wait_ends_goes_back_to_the_scheduler() {
    let (rt, gate) = parked_runtime();
    let (x, y) = (rt.data(0u64), rt.data(0u64));
    {
        let (x, y) = (x.clone(), y.clone());
        rt.task().inout(&x).inout(&y).spawn(move |ctx| {
            *ctx.write(&x) += 1;
            *ctx.write(&y) += 1;
        });
    }
    {
        let y = y.clone();
        rt.task().inout(&y).spawn(move |ctx| *ctx.write(&y) += 1);
    }
    // The calling thread runs the first task, which wakes the second; the
    // wait on `x` ends right there.
    rt.taskwait_on(&x);
    assert_eq!(rt.in_flight_tasks(), 2, "the gate task and the successor");
    gate.store(true, Ordering::Release);
    // Only the worker can run the successor now: poll without helping.
    let deadline = Instant::now() + Duration::from_secs(30);
    while rt.in_flight_tasks() > 0 {
        if Instant::now() >= deadline {
            // Dropping the runtime would wait for the lost task forever.
            std::mem::forget(rt);
            panic!("the woken successor was lost");
        }
        std::thread::yield_now();
    }
    assert_eq!(rt.fetch(&y), 2);
    rt.taskwait();
    if let Err(violation) = rt.audit() {
        panic!("{violation}");
    }
}
