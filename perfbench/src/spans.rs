//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! (`Runtime::new`, a trial, `replay`, `taskwait`, `submit`, a job body).
//! The runtime's own per-task trace events (`Spawned`, `Ready`, `Started`,
//! `Finished`) are attached afterwards as child spans, so each benchmark
//! span's *self time* — its duration minus the part its children cover —
//! is the time spent outside any task of that call. Spans stay in memory
//! until the run ends and are then written out as JSON lines.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use ompss::{Runtime, TraceEvent};

/// One timed interval on the benchmark's clock (nanoseconds since the
/// tracer's epoch).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Trial, iteration, job or task id the span belongs to.
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span between two instants; returns its index for use as a
    /// parent.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, id, parent, start_ns, end_ns)
    }

    pub fn record_ns(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Attach each task's dependence wait (`Spawned`→`Ready`), queue delay
    /// (`Ready`→`Started`) and body (`Started`→`Finished`) as children of
    /// the span `parent_of` picks for it; tasks it maps to `None` are
    /// dropped.
    pub fn attach_tasks(&mut self, tasks: &[TaskTimes], parent_of: &[Option<usize>]) {
        for (t, parent) in tasks.iter().zip(parent_of) {
            let Some(p) = *parent else { continue };
            let id = t.id;
            self.record_ns("graph.dep_wait", id, Some(p), t.spawned, t.ready);
            self.record_ns("scheduler.queue_delay", id, Some(p), t.ready, t.started);
            self.record_ns("worker.body", id, Some(p), t.started, t.finished);
        }
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, clipped to the span.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times in microseconds grouped by span name.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            out.entry(s.name).or_default().push(self_ns as f64 / 1e3);
        }
        out
    }

    /// Write every span, with its self time, as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"index\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// One task's life on the benchmark's clock, assembled from the runtime's
/// trace events.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskTimes {
    pub id: u64,
    pub worker: usize,
    pub spawned: u64,
    pub ready: u64,
    pub started: u64,
    pub finished: u64,
}

/// Fold trace events into per-task times, shifted onto the benchmark's
/// clock by `offset_ns` (see [`calibrate`]). Tasks without all four events
/// are skipped. Sorted by start time.
pub fn task_times(events: &[TraceEvent], offset_ns: i64) -> Vec<TaskTimes> {
    let shift = |at: u64| (at as i64 + offset_ns).max(0) as u64;
    let mut seen: HashMap<u64, (TaskTimes, u8)> = HashMap::new();
    for e in events {
        let (times, mask) = seen.entry(e.task().raw()).or_default();
        times.id = e.task().raw();
        match *e {
            TraceEvent::Spawned { at_ns, .. } => {
                times.spawned = shift(at_ns);
                *mask |= 1;
            }
            TraceEvent::Ready { at_ns, .. } => {
                times.ready = shift(at_ns);
                *mask |= 2;
            }
            TraceEvent::Started { at_ns, worker, .. } => {
                times.started = shift(at_ns);
                times.worker = worker;
                *mask |= 4;
            }
            TraceEvent::Finished { at_ns, .. } => {
                times.finished = shift(at_ns);
                *mask |= 8;
            }
            _ => {}
        }
    }
    let mut tasks: Vec<TaskTimes> = seen
        .into_values()
        .filter(|(_, mask)| *mask == 15)
        .map(|(t, _)| t)
        .collect();
    tasks.sort_by_key(|t| (t.started, t.id));
    tasks
}

/// For each task, the index of the interval in `windows` (sorted, disjoint
/// `(start_ns, end_ns, span)` triples) that contains its start time.
pub fn assign_by_start(tasks: &[TaskTimes], windows: &[(u64, u64, usize)]) -> Vec<Option<usize>> {
    tasks
        .iter()
        .map(|t| {
            let i = windows.partition_point(|w| w.0 <= t.started);
            let w = windows.get(i.checked_sub(1)?)?;
            (t.started <= w.1).then_some(w.2)
        })
        .collect()
}

/// Per-layer distributions derived from attached tasks.
#[derive(Debug, Default)]
pub struct TaskLayers {
    pub dep_wait_us: Vec<f64>,
    pub queue_delay_us: Vec<f64>,
    pub body_us: Vec<f64>,
    /// A worker's `Finished` to its next `Started` within the same parent.
    pub gap_us: Vec<f64>,
    /// Sum of task body time.
    pub busy_ns: u64,
}

pub fn task_layers(tasks: &[TaskTimes], parent_of: &[Option<usize>]) -> TaskLayers {
    let us = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e3;
    let mut out = TaskLayers::default();
    let mut last: HashMap<usize, (usize, u64)> = HashMap::new();
    for (t, parent) in tasks.iter().zip(parent_of) {
        let Some(p) = *parent else { continue };
        out.dep_wait_us.push(us(t.spawned, t.ready));
        out.queue_delay_us.push(us(t.ready, t.started));
        out.body_us.push(us(t.started, t.finished));
        out.busy_ns += t.finished.saturating_sub(t.started);
        // `tasks` is sorted by start, so a worker's previous entry is the
        // task it ran just before this one.
        if let Some(&(prev_parent, prev_finish)) = last.get(&t.worker) {
            if prev_parent == p {
                out.gap_us.push(us(prev_finish, t.started));
            }
        }
        last.insert(t.worker, (p, t.finished));
    }
    out
}

/// The offset that maps a traced runtime's event times onto the tracer's
/// clock: spawns one empty task between two clock reads and centres its
/// `Spawned` timestamp between them. Accurate to about one spawn call.
/// `epoch` is the tracer's epoch.
pub fn calibrate(rt: &Runtime, epoch: Instant) -> i64 {
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as i64;
    let before = ns(Instant::now());
    let id = rt.task().spawn(|_| {});
    let after = ns(Instant::now());
    rt.taskwait();
    let at = rt
        .trace()
        .iter()
        .find_map(|e| match e {
            TraceEvent::Spawned { task, at_ns, .. } if *task == id => Some(*at_ns),
            _ => None,
        })
        .expect("a traced runtime records the probe task's spawn");
    (before + after) / 2 - at as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record_ns("trial", 0, None, 100, 200);
        // Overlapping children cover 110..150 and 160..170: 50 ns.
        t.record_ns("worker.body", 1, Some(root), 110, 140);
        t.record_ns("worker.body", 2, Some(root), 120, 150);
        t.record_ns("worker.body", 3, Some(root), 160, 170);
        // A child sticking out of its parent is clipped.
        t.record_ns("worker.body", 4, Some(root), 190, 260);
        let selfs = t.self_ns();
        assert_eq!(selfs[root], 100 - 50 - 10);
        assert_eq!(selfs[1], 30);
        let by_name = t.self_us_by_name();
        assert_eq!(by_name["trial"], vec![0.04]);
        assert_eq!(by_name["worker.body"].len(), 4);
    }

    #[test]
    fn tasks_go_to_the_window_holding_their_start() {
        let task = |id, started| TaskTimes {
            id,
            started,
            ..TaskTimes::default()
        };
        let tasks = [task(1, 5), task(2, 15), task(3, 25), task(4, 40)];
        let windows = [(10, 20, 7), (22, 30, 8)];
        assert_eq!(
            assign_by_start(&tasks, &windows),
            vec![None, Some(7), Some(8), None]
        );
    }

    #[test]
    fn gaps_are_measured_per_worker_within_one_parent() {
        let task = |id, worker, started, finished| TaskTimes {
            id,
            worker,
            spawned: started,
            ready: started,
            started,
            finished,
        };
        let tasks = [
            task(1, 0, 0, 10_000),
            task(2, 1, 1_000, 4_000),
            task(3, 0, 12_000, 13_000),
            task(4, 0, 50_000, 51_000),
        ];
        let layers = task_layers(&tasks, &[Some(0), Some(0), Some(0), Some(1)]);
        assert_eq!(layers.gap_us, vec![2.0]);
        assert_eq!(layers.busy_ns, 10_000 + 3_000 + 1_000 + 1_000);
    }
}
