//! The daemon's HTTP/1.1 server and worker loop.
//!
//! Hand-rolled over `std::net::TcpListener` — the workspace builds
//! offline, so no async runtime or HTTP crate. One request per
//! connection (the `v6portal` wire subset), a pool of worker threads
//! executing jobs off a shared condvar queue (each worker budgeted a
//! slice of the simulation threads), and a non-blocking accept loop
//! that polls the shutdown flag so SIGTERM lands between connections.
//!
//! | route                    | method | body                                   |
//! |--------------------------|--------|----------------------------------------|
//! | `/health`                | GET    | `{"ok":true,"tick":…}`                 |
//! | `/jobs`                  | POST   | job spec in, `{"id":…}` out (202)      |
//! | `/jobs/:id`              | GET    | job status                             |
//! | `/jobs/:id/manifest`     | GET    | canonical manifest (404 until done)    |
//! | `/metrics`               | GET    | live fleet + population snapshot       |
//! | `/incidents`             | GET    | detector log                           |
//! | `/portal`                | GET    | portal scoring path (`?client=N`)      |
//! | `/shutdown`              | POST   | graceful stop                          |

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use v6fleet::FleetRunner;
use v6portal::http::{format_response, HttpRequest};
use v6report::Json;

use crate::jobs::{JobSpec, JobStatus};
use crate::portal;
use crate::state::{LabState, LiveObserver};

/// Process-wide SIGTERM latch (signal handlers can only touch statics).
static SIGTERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_term(_sig: i32) {
        SIGTERM.store(true, Ordering::SeqCst);
    }
    const SIGTERM_NUM: i32 = 15;
    unsafe {
        signal(SIGTERM_NUM, on_term as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Total simulation-thread budget shared by concurrent jobs.
    pub threads: usize,
    /// Job-execution worker threads draining the queue: up to this many
    /// jobs run concurrently, each with a `threads / workers` (min 1)
    /// slice of the simulation budget.
    pub workers: usize,
    /// Cron entries registered before the first job runs — the serve
    /// flag `--cron NAME:SPEC:JOB` lands here.
    pub cron: Vec<crate::scheduler::CronEntry>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            port: 0,
            threads: 2,
            workers: 1,
            cron: Vec::new(),
        }
    }
}

/// A running daemon: bound address, shared state, and the join handles
/// needed for a graceful stop.
pub struct LabServer {
    /// The address actually bound (resolves port 0).
    pub addr: std::net::SocketAddr,
    /// Shared daemon state.
    pub state: Arc<LabState>,
    accept_handle: std::thread::JoinHandle<()>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
}

impl LabServer {
    /// Bind, spawn the worker pool and accept thread, and return. The
    /// daemon is ready for requests when this returns.
    pub fn start(config: ServerConfig) -> std::io::Result<LabServer> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let state = LabState::new(config.threads.max(1), config.workers.max(1));
        {
            let mut scheduler = state.scheduler.lock().expect("scheduler lock");
            for entry in &config.cron {
                scheduler.add(&entry.name, entry.spec, entry.job);
            }
        }

        let worker_handles = (0..config.workers.max(1))
            .map(|_| {
                let worker_state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&worker_state))
            })
            .collect();

        let accept_state = Arc::clone(&state);
        let accept_handle = std::thread::spawn(move || accept_loop(listener, &accept_state));

        Ok(LabServer {
            addr,
            state,
            accept_handle,
            worker_handles,
        })
    }

    /// Block until shutdown (SIGTERM or `POST /shutdown`) completes.
    pub fn join(self) {
        let _ = self.accept_handle.join();
        for handle in self.worker_handles {
            let _ = handle.join();
        }
    }

    /// Ask the daemon to stop and wait for both threads.
    pub fn stop(self) {
        self.state.begin_shutdown();
        self.join();
    }
}

/// Run a daemon in the foreground until SIGTERM / `POST /shutdown`.
pub fn serve(config: ServerConfig) -> std::io::Result<()> {
    install_sigterm_handler();
    let server = LabServer::start(config)?;
    // The smoke script greps this exact line for the bound port.
    println!("v6labd: listening on {}", server.addr);
    server.join();
    println!("v6labd: graceful shutdown complete");
    Ok(())
}

fn accept_loop(listener: TcpListener, state: &Arc<LabState>) {
    loop {
        if SIGTERM.load(Ordering::SeqCst) {
            state.begin_shutdown();
        }
        if state.shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = handle_connection(stream, state);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Jobs run here, off the shared condvar queue. Every worker in the
/// pool runs this loop; each holds a `threads / workers` (min 1) slice
/// of the simulation-thread budget, so concurrent jobs never
/// oversubscribe the configured total. Each job completion advances the
/// virtual clock one tick, fires any due cron entries, and feeds the
/// detector.
fn worker_loop(state: &Arc<LabState>) {
    let budget = (state.threads / state.workers).max(1);
    let runner = FleetRunner::new(budget);
    loop {
        // `submit` and `begin_shutdown` both notify under or after the
        // queue lock, so a sleeping worker cannot miss either wake-up.
        let id = {
            let queue = state.queue.lock().expect("queue lock");
            let mut queue = state
                .queue_cv
                .wait_while(queue, |q| q.is_empty() && !state.shutting_down())
                .expect("queue lock");
            match queue.pop_front() {
                Some(id) => id,
                None => return,
            }
        };
        run_one_job(state, &runner, id);
        if state.shutting_down() {
            return;
        }
    }
}

fn run_one_job(state: &Arc<LabState>, runner: &FleetRunner, id: u64) {
    let spec = {
        let mut jobs = state.jobs.lock().expect("jobs lock");
        let job = &mut jobs[(id - 1) as usize];
        job.status = JobStatus::Running;
        job.spec
    };
    let pace_ms = match spec {
        JobSpec::Population { pace_ms, .. } => pace_ms,
        JobSpec::Matrix { .. } => 0,
    };
    let observer = LiveObserver::new(state, pace_ms);
    let manifest = spec.execute(runner, &observer);

    // Completion advances the virtual clock; cron entries due at the
    // new tick enqueue before the next job is picked up.
    let (tick, due) = {
        let mut scheduler = state.scheduler.lock().expect("scheduler lock");
        let due = scheduler.advance();
        (scheduler.tick(), due)
    };

    let key = format!("{}/{}", spec.kind(), spec.label());
    let raised = state
        .detector
        .lock()
        .expect("detector lock")
        .observe(&key, &manifest, tick);
    if raised > 0 {
        println!("v6labd: job {id} ({key}) raised {raised} incident(s) at tick {tick}");
    }

    {
        let mut jobs = state.jobs.lock().expect("jobs lock");
        let job = &mut jobs[(id - 1) as usize];
        job.status = JobStatus::Done;
        job.completed_tick = Some(tick);
        job.manifest = Some(manifest);
    }

    for entry in due {
        let id = state.submit(entry.job);
        println!(
            "v6labd: cron {:?} ({}) fired at tick {tick}: job {id}",
            entry.name, entry.spec
        );
    }
}

fn handle_connection(mut stream: TcpStream, state: &Arc<LabState>) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let request = loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            // Peer closed before a full request arrived.
            match HttpRequest::parse(&raw) {
                Some(req) => break req,
                None => return Ok(()),
            }
        }
        raw.extend_from_slice(&buf[..n]);
        if let Some(req) = HttpRequest::parse(&raw) {
            break req;
        }
        if raw.len() > 1 << 20 {
            let _ = stream.write_all(format_response(400, "request too large").as_bytes());
            return Ok(());
        }
    };
    let (status, body) = route(&request, state);
    stream.write_all(format_response(status, &body).as_bytes())?;
    stream.flush()
}

fn json_error(message: &str) -> String {
    let mut obj = Json::obj();
    obj.set("error", Json::Str(message.into()));
    obj.canonical()
}

fn route(req: &HttpRequest, state: &Arc<LabState>) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            let mut obj = Json::obj();
            obj.set("ok", Json::Bool(true));
            obj.set(
                "tick",
                Json::U64(state.scheduler.lock().expect("scheduler lock").tick()),
            );
            (200, obj.canonical())
        }
        ("POST", "/jobs") => match JobSpec::parse(&req.body) {
            Ok(spec) => {
                let id = state.submit(spec);
                let mut obj = Json::obj();
                obj.set("id", Json::U64(id));
                obj.set("status", Json::Str("queued".into()));
                (202, obj.canonical())
            }
            Err(e) => (400, json_error(&e)),
        },
        ("GET", "/metrics") => (200, state.metrics_json().canonical()),
        ("GET", "/incidents") => (
            200,
            state
                .detector
                .lock()
                .expect("detector lock")
                .to_json()
                .canonical(),
        ),
        ("POST", "/shutdown") => {
            state.begin_shutdown();
            (200, json_error("shutting down"))
        }
        ("GET", path) if path.starts_with("/portal") => portal::handle(path),
        ("GET", path) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            let (id_text, want_manifest) = match rest.strip_suffix("/manifest") {
                Some(id) => (id, true),
                None => (rest, false),
            };
            let Ok(id) = id_text.parse::<u64>() else {
                return (400, json_error("bad job id"));
            };
            let jobs = state.jobs.lock().expect("jobs lock");
            let Some(job) = jobs
                .get((id.wrapping_sub(1)) as usize)
                .filter(|j| j.id == id)
            else {
                return (404, json_error("no such job"));
            };
            if want_manifest {
                match &job.manifest {
                    Some(m) => (200, m.canonical()),
                    None => (404, json_error("job not done yet")),
                }
            } else {
                (200, job.status_json().canonical())
            }
        }
        ("GET", _) => (404, json_error("no such route")),
        _ => (405, json_error("method not allowed")),
    }
}
