//! End-to-end daemon lockdown, per the acceptance criterion: submit a
//! population job over HTTP, observe at least one incremental
//! `/metrics` snapshot while it is still streaming shards, and verify
//! the fetched manifest is byte-identical to the batch `FleetRunner`
//! path. Plus wire-level error handling and graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use v6fleet::FleetRunner;
use v6labd::{LabServer, ServerConfig};
use v6portal::http::{HttpRequest, HttpResponse};
use v6report::{Json, RunManifest, CANONICAL_BASE_SEED};
use v6testbed::scenario::ResolutionFailure;

/// One request/response exchange against the daemon.
fn exchange(addr: std::net::SocketAddr, raw: &str) -> HttpResponse {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read response");
    HttpResponse::parse(&bytes).expect("daemon sent a complete response")
}

fn get(addr: std::net::SocketAddr, path: &str) -> HttpResponse {
    exchange(addr, &HttpRequest::format_get("localhost", path))
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> HttpResponse {
    exchange(addr, &HttpRequest::format_post("localhost", path, body))
}

fn u64_at(v: &Json, path: &[&str]) -> u64 {
    let mut cur = v;
    for seg in path {
        cur = cur
            .get(seg)
            .unwrap_or_else(|| panic!("missing field {seg:?} in {}", v.canonical()));
    }
    match cur {
        Json::U64(n) => *n,
        other => panic!("expected u64 at {path:?}, got {other:?}"),
    }
}

/// Poll `GET /jobs/:id` until the daemon reports it done.
fn wait_done(addr: std::net::SocketAddr, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status.status, 200);
        let v = Json::parse(&status.body).expect("status body parses");
        if v.get("status") == Some(&Json::Str("done".into())) {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn population_job_streams_metrics_and_matches_the_batch_path() {
    let server = LabServer::start(ServerConfig {
        port: 0,
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr;

    let health = get(addr, "/health");
    assert_eq!(health.status, 200);
    let v = Json::parse(&health.body).unwrap();
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(u64_at(&v, &["tick"]), 0);

    // A paced census: 12 shards with a 25 ms dwell per shard keeps the
    // job streaming for ~150 ms of wall time while virtual time — and
    // therefore the manifest — is untouched by the pacing.
    const SIZE: u64 = 400;
    const SHARDS: u64 = 12;
    let body = format!(
        r#"{{"kind":"population","seed":{CANONICAL_BASE_SEED},"size":{SIZE},"shards":{SHARDS},"pace_ms":25}}"#
    );
    let accepted = post(addr, "/jobs", &body);
    assert_eq!(accepted.status, 202);
    let v = Json::parse(&accepted.body).unwrap();
    let id = u64_at(&v, &["id"]);
    assert_eq!(v.get("status"), Some(&Json::Str("queued".into())));

    // The acceptance criterion: at least one /metrics snapshot taken
    // while the job is mid-stream (some, but not all, shards folded).
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut mid_run = None;
    while mid_run.is_none() {
        assert!(
            Instant::now() < deadline,
            "never observed a mid-run /metrics snapshot"
        );
        let metrics = get(addr, "/metrics");
        assert_eq!(metrics.status, 200);
        let v = Json::parse(&metrics.body).expect("metrics body parses");
        let shards_done = u64_at(&v, &["population", "shards_done"]);
        if shards_done > 0 && shards_done < SHARDS {
            mid_run = Some(v);
        } else {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let mid_run = mid_run.unwrap();
    // The partial census is internally consistent: samples grow with
    // the folded shards and the job table shows the job running.
    let samples = u64_at(&mid_run, &["population", "samples"]);
    assert!(samples > 0 && samples < SIZE, "partial samples: {samples}");
    assert_eq!(u64_at(&mid_run, &["jobs", "running"]), 1);

    wait_done(addr, id);

    // Byte-identity with the batch path: the same spec run through
    // FleetRunner directly (single-threaded, unpaced — the report is
    // invariant to both) renders the identical canonical manifest.
    let fetched = get(addr, &format!("/jobs/{id}/manifest"));
    assert_eq!(fetched.status, 200);
    let spec = v6fleet::PopulationSpec::paper_default(CANONICAL_BASE_SEED, SIZE);
    let batch = FleetRunner::new(1).run_population(&spec, SHARDS as usize);
    let expected = RunManifest::from_population(&spec, &batch.report).canonical();
    assert_eq!(
        fetched.body, expected,
        "HTTP-fetched manifest must be byte-identical to the batch path"
    );

    // Completion advanced the virtual clock and the final snapshot has
    // every shard folded.
    let metrics = Json::parse(&get(addr, "/metrics").body).unwrap();
    assert_eq!(u64_at(&metrics, &["population", "shards_done"]), SHARDS);
    assert_eq!(u64_at(&metrics, &["population", "samples"]), SIZE);
    assert_eq!(u64_at(&metrics, &["tick"]), 1);
    assert_eq!(u64_at(&metrics, &["jobs", "done"]), 1);
    // The live census row carries every classified DNS failure reason,
    // counted exactly as the batch report counts them.
    for f in ResolutionFailure::ALL {
        assert_eq!(
            u64_at(
                &metrics,
                &["population", "census", "dns_failures", f.label()]
            ),
            batch.report.sketch.census.dns_failures[f.index()] as u64,
            "dns_failures.{}",
            f.label()
        );
    }

    server.stop();
}

#[test]
fn matrix_jobs_reproduce_the_committed_golden_over_http() {
    let server = LabServer::start(ServerConfig {
        port: 0,
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr;

    // Default body → canonical seed, clean fault: the committed golden.
    let accepted = post(addr, "/jobs", r#"{"kind":"matrix"}"#);
    assert_eq!(accepted.status, 202);
    let id = u64_at(&Json::parse(&accepted.body).unwrap(), &["id"]);
    wait_done(addr, id);

    let fetched = get(addr, &format!("/jobs/{id}/manifest"));
    assert_eq!(fetched.status, 200);
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../reports/matrix_clean.json"
    ))
    .expect("committed matrix golden");
    assert_eq!(
        fetched.body, golden,
        "daemon matrix manifest must match reports/matrix_clean.json"
    );

    // A clean first sighting seeds the detector baseline quietly.
    let incidents = Json::parse(&get(addr, "/incidents").body).unwrap();
    let Some(Json::Arr(rows)) = incidents.get("incidents") else {
        panic!("incidents array missing");
    };
    assert!(rows.is_empty(), "clean baseline must raise nothing");

    server.stop();
}

#[test]
fn config_cron_entries_fire_after_job_completion() {
    // A recurring schedule wired in at startup (the serve `--cron`
    // flag's landing spot): the @1 entry must enqueue its job the
    // moment the first completion advances the virtual clock.
    const JOB: &str = r#"{"kind":"population","size":40,"shards":2,"pace_ms":0}"#;
    let server = LabServer::start(ServerConfig {
        cron: vec![v6labd::CronEntry {
            name: "startup-census".into(),
            spec: v6labd::CronSpec::parse("@1").expect("literal spec"),
            job: v6labd::JobSpec::parse(JOB).expect("literal job"),
        }],
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr;

    let accepted = post(addr, "/jobs", JOB);
    assert_eq!(accepted.status, 202);
    let id = u64_at(&Json::parse(&accepted.body).unwrap(), &["id"]);
    wait_done(addr, id);

    // Completion ticked the clock to 1; the cron entry fired and its
    // job shows up in the table without any further HTTP submission.
    let deadline = Instant::now() + Duration::from_secs(30);
    let cron_id = id + 1;
    while get(addr, &format!("/jobs/{cron_id}")).status != 200 {
        assert!(Instant::now() < deadline, "cron job never enqueued");
        std::thread::sleep(Duration::from_millis(10));
    }
    wait_done(addr, cron_id);

    let metrics = Json::parse(&get(addr, "/metrics").body).unwrap();
    assert_eq!(u64_at(&metrics, &["jobs", "done"]), 2);
    assert_eq!(u64_at(&metrics, &["tick"]), 2, "both completions ticked");

    // Both jobs ran the same spec: identical canonical manifests.
    let submitted = get(addr, &format!("/jobs/{id}/manifest"));
    let fired = get(addr, &format!("/jobs/{cron_id}/manifest"));
    assert_eq!(submitted.body, fired.body);

    server.stop();
}

#[test]
fn multi_worker_pool_runs_jobs_concurrently_with_identical_manifests() {
    let server = LabServer::start(ServerConfig {
        threads: 2,
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr;
    let metrics = Json::parse(&get(addr, "/metrics").body).unwrap();
    assert_eq!(u64_at(&metrics, &["workers"]), 2);

    // Two paced censuses: with two workers both must be mid-flight at
    // once (a single-worker daemon would serialize them).
    const BODY: &str = r#"{"kind":"population","size":200,"shards":8,"pace_ms":25}"#;
    let a = u64_at(
        &Json::parse(&post(addr, "/jobs", BODY).body).unwrap(),
        &["id"],
    );
    let b = u64_at(
        &Json::parse(&post(addr, "/jobs", BODY).body).unwrap(),
        &["id"],
    );

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let v = Json::parse(&get(addr, "/metrics").body).unwrap();
        if u64_at(&v, &["jobs", "running"]) == 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "never saw two jobs running concurrently"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    wait_done(addr, a);
    wait_done(addr, b);

    // Same spec on different worker threads (each with its own warm
    // cell arena): byte-identical manifests.
    let ma = get(addr, &format!("/jobs/{a}/manifest"));
    let mb = get(addr, &format!("/jobs/{b}/manifest"));
    assert_eq!(ma.status, 200);
    assert_eq!(ma.body, mb.body);

    server.stop();
}

#[test]
fn the_wire_rejects_what_it_should() {
    let server = LabServer::start(ServerConfig::default()).expect("daemon starts");
    let addr = server.addr;

    assert_eq!(get(addr, "/jobs/999").status, 404);
    assert_eq!(get(addr, "/jobs/zero").status, 400);
    assert_eq!(get(addr, "/no-such-route").status, 404);
    assert_eq!(post(addr, "/jobs", "not json").status, 400);
    assert_eq!(post(addr, "/jobs", r#"{"kind":"mystery"}"#).status, 400);
    assert_eq!(
        exchange(addr, "DELETE /jobs/1 HTTP/1.1\r\nHost: localhost\r\n\r\n").status,
        405
    );
    // Manifest of a queued-or-running job 404s rather than blocking.
    let accepted = post(
        addr,
        "/jobs",
        r#"{"kind":"population","size":200,"shards":4,"pace_ms":50}"#,
    );
    let id = u64_at(&Json::parse(&accepted.body).unwrap(), &["id"]);
    let early = get(addr, &format!("/jobs/{id}/manifest"));
    assert_eq!(early.status, 404);

    server.stop();
}

#[test]
fn shutdown_over_http_stops_both_threads() {
    let server = LabServer::start(ServerConfig::default()).expect("daemon starts");
    let addr = server.addr;
    assert_eq!(post(addr, "/shutdown", "").status, 200);
    // join() returns only once the accept and worker threads exit; a
    // hang here is the failure mode this test exists to catch.
    server.join();
    // The listener is gone: a fresh connection must fail (allow a beat
    // for the OS to tear the socket down).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpStream::connect(addr) {
            Err(_) => break,
            Ok(_) if Instant::now() >= deadline => {
                panic!("listener still accepting after shutdown")
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}
