//! Shared daemon state: the job table, the live metrics accumulator,
//! the detector, and the scheduler — everything the HTTP handlers and
//! the worker thread both touch.
//!
//! The live metrics are the daemon's answer to "what is the fleet doing
//! *right now*": the worker streams per-scenario results and per-shard
//! census sketches into [`LiveMetrics`] via the [`FleetObserver`] hooks
//! while a job is still running, and `GET /metrics` serialises it
//! under the same lock without stopping the stream.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use v6fleet::{CensusSketch, FleetObserver, LatencySketch};
use v6report::{census_row, Json};
use v6testbed::scenario::ScenarioResult;

use crate::detector::Detector;
use crate::jobs::{JobRecord, JobSpec, JobStatus};
use crate::scheduler::Scheduler;

/// Fleet-wide counters accumulated across *all* jobs the daemon has
/// run, updated mid-job by the streaming observer.
#[derive(Debug, Clone, Default)]
pub struct LiveMetrics {
    /// Matrix scenarios completed.
    pub scenarios_done: u64,
    /// Engine events processed, summed across scenarios.
    pub events_processed: u64,
    /// Frames delivered, summed across scenarios.
    pub frames_delivered: u64,
    /// Frames forwarded, summed across scenarios.
    pub frames_forwarded: u64,
    /// Injected-fault drops (`fault.dropped + fault.outage_dropped`).
    pub fault_dropped: u64,
    /// Fleet-wide `dns.timeouts` device-counter sum.
    pub dns_timeouts: u64,
    /// Virtual completion time per matrix scenario (micros).
    pub latency_us: LatencySketch,
    /// Population shards folded.
    pub shards_done: u64,
    /// Merged population census (includes its own latency sketches).
    pub census: CensusSketch,
}

impl LiveMetrics {
    fn new() -> LiveMetrics {
        LiveMetrics {
            latency_us: LatencySketch::new(),
            census: CensusSketch::new(),
            ..Default::default()
        }
    }

    /// Fold one completed matrix scenario.
    pub fn fold_scenario(&mut self, r: &ScenarioResult) {
        self.scenarios_done += 1;
        self.events_processed += r.metrics.engine.events_processed;
        self.frames_delivered += r.metrics.engine.frames_delivered;
        self.frames_forwarded += r.metrics.engine.frames_forwarded;
        self.fault_dropped += r.metrics.faults.dropped + r.metrics.faults.outage_dropped;
        self.dns_timeouts += r
            .metrics
            .nodes
            .iter()
            .map(|n| n.device.get("dns.timeouts"))
            .sum::<u64>();
        self.latency_us.record(r.verdict.completed_us);
    }

    /// Fold one completed population shard.
    pub fn fold_shard(&mut self, sketch: &CensusSketch) {
        self.shards_done += 1;
        self.census.merge_from(sketch);
    }

    /// The `GET /metrics` fleet/population sections.
    pub fn to_json(&self) -> Json {
        let sketch_row = |s: &LatencySketch| {
            let pct = s.percentiles();
            let mut row = Json::obj();
            row.set("count", Json::U64(s.count));
            row.set("p50", Json::U64(pct.p50));
            row.set("p90", Json::U64(pct.p90));
            row.set("p99", Json::U64(pct.p99));
            row.set("max", Json::U64(s.max));
            row
        };

        let mut fleet = Json::obj();
        fleet.set("scenarios_done", Json::U64(self.scenarios_done));
        fleet.set("events_processed", Json::U64(self.events_processed));
        fleet.set("frames_delivered", Json::U64(self.frames_delivered));
        fleet.set("frames_forwarded", Json::U64(self.frames_forwarded));
        fleet.set("fault_dropped", Json::U64(self.fault_dropped));
        fleet.set("dns_timeouts", Json::U64(self.dns_timeouts));
        fleet.set("completed_us", sketch_row(&self.latency_us));

        let mut population = Json::obj();
        population.set("shards_done", Json::U64(self.shards_done));
        population.set("samples", Json::U64(self.census.samples));
        population.set("census", census_row(&self.census.census));
        population.set("completed_us", sketch_row(&self.census.completed_us));

        let mut obj = Json::obj();
        obj.set("fleet", fleet);
        obj.set("population", population);
        obj
    }
}

/// Everything shared between the HTTP handlers and the worker.
pub struct LabState {
    /// Total simulation-thread budget shared by concurrent jobs.
    pub threads: usize,
    /// Job-execution worker threads draining the queue.
    pub workers: usize,
    /// Every job ever submitted, indexed by `id - 1`.
    pub jobs: Mutex<Vec<JobRecord>>,
    /// Ids waiting for the worker.
    pub queue: Mutex<VecDeque<u64>>,
    /// Wakes the worker when the queue gains work (or shutdown starts).
    pub queue_cv: Condvar,
    /// The streaming accumulator.
    pub live: Mutex<LiveMetrics>,
    /// Incident log + baselines.
    pub detector: Mutex<Detector>,
    /// Cron entries + the virtual clock.
    pub scheduler: Mutex<Scheduler>,
    /// Set on SIGTERM / `POST /shutdown`.
    pub shutdown: AtomicBool,
}

impl LabState {
    /// Fresh state with an empty scheduler.
    pub fn new(threads: usize, workers: usize) -> Arc<LabState> {
        Arc::new(LabState {
            threads,
            workers,
            jobs: Mutex::new(Vec::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            live: Mutex::new(LiveMetrics::new()),
            detector: Mutex::new(Detector::new()),
            scheduler: Mutex::new(Scheduler::new()),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Record and enqueue a job; returns its id.
    pub fn submit(&self, spec: JobSpec) -> u64 {
        let tick = self.scheduler.lock().expect("scheduler lock").tick();
        let mut jobs = self.jobs.lock().expect("jobs lock");
        let id = jobs.len() as u64 + 1;
        jobs.push(JobRecord {
            id,
            spec,
            status: JobStatus::Queued,
            submitted_tick: tick,
            completed_tick: None,
            manifest: None,
        });
        drop(jobs);
        self.queue.lock().expect("queue lock").push_back(id);
        self.queue_cv.notify_one();
        id
    }

    /// Begin a graceful shutdown: flag + wake the worker.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Is shutdown in progress?
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The `GET /metrics` body: job-table summary, live fleet counters,
    /// and the population snapshot — readable mid-job.
    pub fn metrics_json(&self) -> Json {
        let (total, queued, running, done) = {
            let jobs = self.jobs.lock().expect("jobs lock");
            let count = |s: JobStatus| jobs.iter().filter(|j| j.status == s).count() as u64;
            (
                jobs.len() as u64,
                count(JobStatus::Queued),
                count(JobStatus::Running),
                count(JobStatus::Done),
            )
        };
        let mut jobs_row = Json::obj();
        jobs_row.set("total", Json::U64(total));
        jobs_row.set("queued", Json::U64(queued));
        jobs_row.set("running", Json::U64(running));
        jobs_row.set("done", Json::U64(done));

        let mut obj = self.live.lock().expect("live lock").to_json();
        obj.set("jobs", jobs_row);
        obj.set("workers", Json::U64(self.workers as u64));
        obj.set(
            "tick",
            Json::U64(self.scheduler.lock().expect("scheduler lock").tick()),
        );
        obj.set(
            "incidents",
            Json::U64(
                self.detector
                    .lock()
                    .expect("detector lock")
                    .incidents()
                    .len() as u64,
            ),
        );
        obj
    }
}

/// The worker's streaming observer: folds scenario results and shard
/// sketches into [`LiveMetrics`] as they land, optionally dwelling
/// after each shard (`pace_ms`) so an operator-paced background census
/// yields the listener some air. Virtual time never sees the dwell.
pub struct LiveObserver<'a> {
    state: &'a LabState,
    pace_ms: u64,
}

impl<'a> LiveObserver<'a> {
    /// An observer for one job; `pace_ms` comes from the job spec.
    pub fn new(state: &'a LabState, pace_ms: u64) -> LiveObserver<'a> {
        LiveObserver { state, pace_ms }
    }
}

impl FleetObserver for LiveObserver<'_> {
    fn scenario_done(&self, _index: usize, result: &ScenarioResult) {
        self.state
            .live
            .lock()
            .expect("live lock")
            .fold_scenario(result);
    }

    fn shard_done(&self, _shard: usize, sketch: &CensusSketch) {
        self.state
            .live
            .lock()
            .expect("live lock")
            .fold_shard(sketch);
        if self.pace_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.pace_ms));
        }
    }
}
