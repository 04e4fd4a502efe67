//! The `labd` workload: the operator's view of `v6labd`.
//!
//! An in-process [`LabServer`] with the default [`ServerConfig`], driven
//! open-loop (seeded Poisson arrivals, one connection per request) from
//! at most `nproc` sender threads. Every request is timed from its
//! scheduled send time, so a stall also charges the requests queued
//! behind it, and the generator's own lateness is reported.
//!
//! Jobs are the five canonical matrix specs in turn, `POST /jobs`-ed,
//! polled with `GET /jobs/:id` and their manifests fetched. Phases:
//! (a) `GET /portal` on the idle daemon at [`BASE_RPS`], then a rising
//! rate [`LADDER_RPS`]; (b) job batches (all five specs submitted at
//! once, the next batch when the last manifest is fetched) on the
//! otherwise idle daemon; (c) the same while the base-rate portal
//! stream runs; (d) jobs at a fixed [`JOB_RPS`] with the portal stream.
//!
//! * `cells_per_s` — fast batch rate in (b): 330 cells ÷ (batch
//!   submitted → last manifest fetched);
//! * `cells_per_s_loaded` — the same in (c);
//! * `request_us` — idle-daemon portal latency at the base rate: the
//!   median of each half-second window, at the fast quantile of windows
//!   (the overall median is detail `portal_p50_us`);
//! * gates — every portal reply is a 200 equal to `portal::handle`'s
//!   body for the same path; every fetched manifest equals its
//!   committed golden byte for byte.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use v6labd::{LabServer, ServerConfig};
use v6report::Json;
use v6testbed::scenario::FaultVariant;

use crate::census::SetupTimes;
use crate::gates::{self, Goldens};
use crate::http::{self, Exchange};
use crate::stats::Samples;
use crate::{fast_rate, fast_time, host, Config, Outcome};

/// Portal request rate of the idle and busy phases.
pub const BASE_RPS: f64 = 200.0;
/// Rates of the idle-daemon ladder.
pub const LADDER_RPS: [f64; 4] = [400.0, 800.0, 1600.0, 3200.0];
/// Matrix jobs submitted per second in the fixed-rate phase.
pub const JOB_RPS: f64 = 12.0;
/// Job batches per batch phase.
pub const BATCHES: u64 = 40;
/// Latency limit a ladder rate's tail must meet.
pub const LIMIT_US: f64 = 5_000.0;
/// Window over which `request_us` takes a portal median.
pub const WINDOW_S: f64 = 0.5;
/// How often outstanding jobs are polled.
pub const POLL: Duration = Duration::from_millis(1);
/// Set-up repetitions after each phase; `setup_s` is the median over
/// all of them.
pub const SETUP_REPS: usize = 3;

/// SplitMix64 step: the generator's only source of randomness.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Start a daemon with the default configuration and wait until it
/// answers `GET /health`.
pub fn start_daemon() -> Result<LabServer, String> {
    let server = LabServer::start(ServerConfig::default()).map_err(|e| format!("start: {e}"))?;
    let deadline = Instant::now() + http::TIMEOUT;
    loop {
        match http::get(server.addr, "/health") {
            Ok(r) if r.status == 200 => return Ok(server),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_micros(200)),
            Ok(r) => return Err(format!("/health: status {}", r.status)),
            Err(e) => return Err(format!("/health: {e}")),
        }
    }
}

/// One open-loop request and when it happened, in seconds after the
/// phase began.
#[derive(Debug)]
pub struct Shot {
    /// Request path.
    pub path: String,
    /// When the schedule said to send it.
    pub scheduled: f64,
    /// How late the sender actually started it.
    pub lag: f64,
    /// Scheduled send → reply read.
    pub latency: f64,
    /// The exchange, or why it failed.
    pub reply: Result<Exchange, String>,
}

/// Drive `GET /portal?client=N` at `rate` for `secs` from `senders`
/// threads; returns when the phase began and every shot. Arrivals are Poisson and client indices uniform, both drawn
/// from `seed`; request `i` goes to sender `i % senders`.
pub fn open_loop(
    addr: SocketAddr,
    rate: f64,
    secs: f64,
    senders: usize,
    seed: u64,
) -> (Instant, Vec<Shot>) {
    let mut rng = seed;
    let mut plan = Vec::new();
    let mut t = 0.0;
    loop {
        let u = (splitmix(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / rate;
        if t >= secs {
            break;
        }
        plan.push((
            t,
            format!("/portal?client={}", splitmix(&mut rng) % 1_000_000),
        ));
    }
    let start = Instant::now();
    let mut shots: Vec<Shot> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|s| {
                let mine: Vec<&(f64, String)> = plan.iter().skip(s).step_by(senders).collect();
                scope.spawn(move || {
                    mine.into_iter()
                        .map(|(scheduled, path)| {
                            let due = start + Duration::from_secs_f64(*scheduled);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            let lag = start.elapsed().as_secs_f64() - scheduled;
                            let reply = http::get(addr, path);
                            Shot {
                                path: path.clone(),
                                scheduled: *scheduled,
                                lag,
                                latency: start.elapsed().as_secs_f64() - scheduled,
                                reply,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    shots.sort_by(|a, b| a.scheduled.total_cmp(&b.scheduled));
    (start, shots)
}

/// Gate every shot; returns the latencies (µs) and lags (µs) of the
/// ones that passed.
pub fn check_shots(out: &mut Outcome, shots: &[Shot]) -> (Samples, Samples) {
    let mut latency = Samples::new();
    let mut lag = Samples::new();
    for s in shots {
        let verdict = match &s.reply {
            Ok(r) => gates::portal_reply(&s.path, r.status, &r.body),
            Err(e) => Err(format!("GET {}: {e}", s.path)),
        };
        if verdict.is_ok() {
            latency.push(s.latency * 1e6);
        }
        lag.push(s.lag * 1e6);
        out.op(verdict);
    }
    (latency, lag)
}

/// One matrix job's life as the client saw it, in seconds after the
/// job phase began.
#[derive(Debug)]
pub struct JobShot {
    /// The canonical spec's fault variant.
    pub fault: FaultVariant,
    /// Submission batch (every job is its own batch at a fixed rate).
    pub batch: u64,
    /// When the schedule said to submit it.
    pub scheduled: f64,
    /// `POST /jobs` answered.
    pub posted: f64,
    /// First poll that saw it running.
    pub running: Option<f64>,
    /// First poll that saw it done.
    pub done: Option<f64>,
    /// Manifest fetched.
    pub fetched: Option<f64>,
    /// Gate verdict (golden match, or why it failed).
    pub verdict: Result<(), String>,
}

impl JobShot {
    /// Scheduled submission → manifest fetched.
    pub fn turnaround(&self) -> Option<f64> {
        self.fetched.map(|f| f - self.scheduled)
    }
}

/// When jobs are submitted.
#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// Open loop: job `i` is due at `i / rate` seconds.
    Rate(f64),
    /// Closed loop: `count` batches of `size` jobs, a batch submitted
    /// all at once as soon as the previous one's manifests are fetched.
    /// The count bounds the phase's jobs, and so the daemon's memory,
    /// which keeps every manifest.
    Batch {
        /// Jobs per batch.
        size: u64,
        /// Batches at most.
        count: u64,
    },
}

fn status_of(body: &str) -> Option<String> {
    match Json::parse(body).ok()?.get("status") {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Submit canonical matrix jobs on `schedule` for `secs` (the fault
/// variant rotating from `seed`), poll each until done, fetch and gate
/// its manifest. Jobs still outstanding [`http::TIMEOUT`] after the
/// last submission fail.
pub fn job_stream(
    addr: SocketAddr,
    goldens: &Goldens,
    schedule: Schedule,
    secs: f64,
    seed: u64,
) -> Vec<JobShot> {
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();
    let mut jobs: Vec<(u64, JobShot)> = Vec::new();
    let mut finished = Vec::new();
    let mut next = 0u64;
    let mut last_due = 0.0;
    loop {
        let due: Vec<(f64, u64)> = match schedule {
            Schedule::Rate(rate) => {
                let at = next as f64 / rate;
                if at < secs && now() >= at {
                    vec![(at, next)]
                } else {
                    Vec::new()
                }
            }
            Schedule::Batch { size, count }
                if jobs.is_empty() && now() < secs && next < size * count =>
            {
                let at = now();
                (0..size).map(|_| (at, next / size)).collect()
            }
            Schedule::Batch { .. } => Vec::new(),
        };
        for (scheduled, batch) in due {
            last_due = scheduled;
            let fault = FaultVariant::ALL
                [(seed.wrapping_add(next) % FaultVariant::ALL.len() as u64) as usize];
            next += 1;
            let body = format!("{{\"kind\":\"matrix\",\"fault\":\"{}\"}}", fault.label());
            let mut shot = JobShot {
                fault,
                batch,
                scheduled,
                posted: 0.0,
                running: None,
                done: None,
                fetched: None,
                verdict: Ok(()),
            };
            let id = http::post(addr, "/jobs", &body).and_then(|r| {
                shot.posted = now();
                match Json::parse(&r.body).ok().and_then(|v| v.get("id").cloned()) {
                    Some(Json::U64(id)) if r.status == 202 => Ok(id),
                    _ => Err(format!("POST /jobs: status {} body {}", r.status, r.body)),
                }
            });
            match id {
                Ok(id) => jobs.push((id, shot)),
                Err(e) => {
                    shot.verdict = Err(e);
                    finished.push(shot);
                }
            }
        }
        let mut i = 0;
        while i < jobs.len() {
            let (id, shot) = &mut jobs[i];
            let status = http::get(addr, &format!("/jobs/{id}")).and_then(|r| {
                status_of(&r.body).ok_or_else(|| format!("GET /jobs/{id}: {}", r.body))
            });
            let t = now();
            let outcome = match status.as_deref() {
                Ok("queued") => None,
                Ok("running") => {
                    shot.running.get_or_insert(t);
                    None
                }
                Ok("done") => {
                    shot.done = Some(t);
                    Some(
                        http::get(addr, &format!("/jobs/{id}/manifest")).and_then(|r| {
                            shot.fetched = Some(now());
                            gates::same_bytes(
                                &format!("job {id} ({}) manifest", shot.fault.label()),
                                &r.body,
                                goldens.matrix(shot.fault),
                            )
                        }),
                    )
                }
                Ok(other) => Some(Err(format!("job {id}: unknown status {other:?}"))),
                Err(e) => Some(Err(e.clone())),
            };
            match outcome {
                Some(verdict) => {
                    let (_, mut shot) = jobs.swap_remove(i);
                    shot.verdict = verdict;
                    finished.push(shot);
                }
                None => i += 1,
            }
        }
        let submitting = match schedule {
            Schedule::Rate(rate) => (next as f64 / rate) < secs,
            Schedule::Batch { size, count } => now() < secs && next < size * count,
        };
        if !submitting && jobs.is_empty() {
            break;
        }
        if !submitting && now() > last_due.max(secs) + http::TIMEOUT.as_secs_f64() {
            for (id, mut shot) in jobs.drain(..) {
                shot.verdict = Err(format!("job {id}: not done within the timeout"));
                finished.push(shot);
            }
            break;
        }
        if !jobs.is_empty() {
            std::thread::sleep(POLL);
        }
    }
    finished.sort_by(|a, b| a.scheduled.total_cmp(&b.scheduled));
    finished
}

/// Gate every job and return the passing ones' turnarounds (ms) and
/// their batch rates (cells per second from a batch's submission to its
/// last manifest fetched).
pub fn check_jobs(out: &mut Outcome, jobs: &[JobShot]) -> (Samples, Samples) {
    let cells = v6report::MatrixSpec::canonical(FaultVariant::Clean)
        .scenarios()
        .len() as f64;
    let mut turnaround = Samples::new();
    // batch → (cells fetched, submitted, last fetched, every job passed)
    let mut batches: BTreeMap<u64, (f64, f64, f64, bool)> = BTreeMap::new();
    for j in jobs {
        let b = batches
            .entry(j.batch)
            .or_insert((0.0, j.scheduled, j.scheduled, true));
        b.1 = b.1.min(j.scheduled);
        match (j.turnaround(), &j.verdict) {
            (Some(t), Ok(())) => {
                turnaround.push(t * 1e3);
                b.0 += cells;
                b.2 = b.2.max(j.scheduled + t);
            }
            _ => b.3 = false,
        }
        out.op(j.verdict.clone());
    }
    let mut rates = Samples::new();
    for &(cells, began, end, ok) in batches.values() {
        if ok && end > began {
            rates.push(cells / (end - began));
        }
    }
    (turnaround, rates)
}

/// Median latency (µs) of each [`WINDOW_S`] window of a phase, over the
/// shots that passed their gate.
fn window_medians(shots: &[Shot]) -> Samples {
    let mut windows: Vec<Samples> = Vec::new();
    for s in shots
        .iter()
        .filter(|s| s.reply.as_ref().is_ok_and(|r| r.status == 200))
    {
        let w = (s.scheduled / WINDOW_S) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Samples::new);
        }
        windows[w].push(s.latency * 1e6);
    }
    let mut medians = Samples::new();
    for w in windows.iter().filter(|w| !w.is_empty()) {
        medians.push(w.median());
    }
    medians
}

/// Does a ladder rung meet the limit: tail within [`LIMIT_US`], every
/// request passing, and generator lag not growing from the first third
/// of the rung to the last?
fn rung_ok(shots: &[Shot], latency: &Samples) -> bool {
    if latency.len() != shots.len() || shots.is_empty() {
        return false;
    }
    let third = shots.len() / 3;
    let lag_of = |s: &[Shot]| {
        let mut l = Samples::new();
        for shot in s {
            l.push(shot.lag);
        }
        l.median()
    };
    let growing = lag_of(&shots[shots.len() - third..]) > lag_of(&shots[..third]) + 0.001;
    latency.tail(0.99).value <= LIMIT_US && !growing
}

/// Run the labd workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let root = host::repo_root();
    let mut out = Outcome::default();
    let senders = cfg.workers();
    let scale = if cfg.tiny { 0.1 } else { cfg.seconds };

    let mut setups = SetupTimes::default();
    let setup = || {
        let goldens = Goldens::load(&root.join("reports"))?;
        Ok((goldens, start_daemon()?))
    };
    let (goldens, server) = setups.rep(cfg, setup)?;
    // Further set-ups between phases: each starts a second daemon,
    // waits for it to answer, and stops it.
    let more_setups = |setups: &mut SetupTimes| -> Result<(), String> {
        for _ in 0..SETUP_REPS {
            let (_, extra) = setups.rep(cfg, setup)?;
            extra.stop();
        }
        Ok(())
    };
    let addr = server.addr;

    // Warm-up, untimed: one job of each variant and a short portal burst.
    let warm = job_stream(
        addr,
        &goldens,
        Schedule::Batch {
            size: FaultVariant::ALL.len() as u64,
            count: 1,
        },
        http::TIMEOUT.as_secs_f64(),
        0,
    );
    check_jobs(&mut out, &warm);
    check_shots(
        &mut out,
        &open_loop(
            addr,
            BASE_RPS,
            0.25_f64.min(scale * 0.02),
            senders,
            !cfg.seed,
        )
        .1,
    );

    let started = Instant::now();
    let (_, idle) = open_loop(addr, BASE_RPS, 0.25 * scale, senders, cfg.seed);
    let (idle_lat, _) = check_shots(&mut out, &idle);
    more_setups(&mut setups)?;

    let mut max_rps = 0.0;
    let mut ladder_open = true;
    for (i, rate) in LADDER_RPS.iter().enumerate() {
        let (_, shots) = open_loop(
            addr,
            *rate,
            0.03 * scale,
            senders,
            cfg.seed ^ ((i as u64 + 1) << 32),
        );
        let (lat, lag) = check_shots(&mut out, &shots);
        let ok = rung_ok(&shots, &lat);
        ladder_open &= ok;
        if ladder_open {
            max_rps = *rate;
        }
        out.num(format!("ladder.{rate}.p99_us"), lat.tail(0.99).value);
        out.num(format!("ladder.{rate}.lag_p99_us"), lag.tail(0.99).value);
        out.num(format!("ladder.{rate}.ok"), f64::from(u8::from(ok)));
        more_setups(&mut setups)?;
    }

    let batch = Schedule::Batch {
        size: FaultVariant::ALL.len() as u64,
        count: if cfg.tiny { 2 } else { BATCHES },
    };
    let alone = job_stream(addr, &goldens, batch, 0.15 * scale, cfg.seed);
    more_setups(&mut setups)?;
    let with_portal = |jobs: Schedule, secs: f64, seed: u64| {
        std::thread::scope(|scope| {
            let stream = scope.spawn(|| job_stream(addr, &goldens, jobs, secs, seed));
            let (_, portal) = open_loop(addr, BASE_RPS, secs, senders, seed.rotate_left(17));
            (portal, stream.join().expect("job thread panicked"))
        })
    };
    let (loaded_portal, loaded) = with_portal(batch, 0.2 * scale, cfg.seed.wrapping_add(1));
    more_setups(&mut setups)?;
    let (busy, jobs) = with_portal(
        Schedule::Rate(JOB_RPS),
        0.25 * scale,
        cfg.seed.wrapping_add(2),
    );
    let (busy_lat, _) = check_shots(&mut out, &busy);
    check_shots(&mut out, &loaded_portal);
    let (_, alone_rate) = check_jobs(&mut out, &alone);
    let (_, loaded_rate) = check_jobs(&mut out, &loaded);
    let (busy_ms, _) = check_jobs(&mut out, &jobs);
    let measured = started.elapsed().as_secs_f64();
    server.stop();

    let mut lag = Samples::new();
    for s in idle.iter().chain(&busy) {
        lag.push(s.lag * 1e6);
    }

    out.metric("cells_per_s", fast_rate(&alone_rate));
    out.metric("cells_per_s_loaded", fast_rate(&loaded_rate));
    let windows = window_medians(&idle);
    out.metric("request_us", fast_time(&windows));
    setups.report(&mut out);
    out.metric("peak_rss_mb", host::peak_rss_mb());

    out.timing("portal_us", &idle_lat, 0.99);
    out.num("portal_p50_us", idle_lat.median());
    out.num("portal_window_p50_us.windows", windows.len() as f64);
    out.num("portal_window_p50_us.median", windows.median());
    out.num("portal_p99_us", idle_lat.tail(0.99).value);
    out.num("portal_max_rps", max_rps);
    out.timing("portal_us_busy", &busy_lat, 0.99);
    out.num("portal_p99_us_busy", busy_lat.tail(0.99).value);
    out.num("job_batch_rate.p50", alone_rate.median());
    out.num("job_batch_rate.samples", alone_rate.len() as f64);
    out.num("job_batch_rate_loaded.p50", loaded_rate.median());
    out.num("job_batch_rate_loaded.samples", loaded_rate.len() as f64);
    out.timing("job_turnaround_ms", &busy_ms, 0.9);
    out.num("job_turnaround_p50_ms", busy_ms.median());
    out.num("job_turnaround_p90_ms", busy_ms.quantile(0.9));
    out.timing("generator_lag_us", &lag, 0.99);
    out.num("senders", senders as f64);
    out.num("measured_s", measured);
    Ok(out)
}
