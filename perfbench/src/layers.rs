//! The traced run: per-layer numbers, measured from outside.
//!
//! Cells are driven through the public [`Testbed`] API in exactly the
//! order `v6testbed`'s own cell body uses (fault install, host install,
//! boot, browse sc24, browse ip6me, observe), with a span around each
//! call. Every traced cell is also run untraced on a [`CellArena`]: the
//! two observations must be equal (a mismatch invalidates the profile
//! and fails the run), and the two times give the tracing overhead.
//! Engine and device counters come from [`v6sim::Network::metrics`]
//! after each cell, outside the cell's span. Frames captured from a
//! sample of cells are replayed through the zero-copy codecs to time
//! them. The manifest layers and the `v6labd` request path are timed
//! around their public calls too, so every workload reports every
//! layer; the workload picks the cell mix and how long each part runs.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use v6dns::name::DnsName;
use v6dns::view::MessageView;
use v6fleet::{CensusSketch, FleetReport, FleetRunner, PopulationSpec};
use v6host::{AppTask, TaskOutcome};
use v6report::{MatrixSpec, RunManifest};
use v6sim::engine::TraceMode;
use v6sim::NodeId;
use v6testbed::scenario::{FaultVariant, PathFamily, PoisonVariant, TopologyVariant};
use v6testbed::{CellArena, CellObservation, CellSpec, Testbed, TestbedConfig};
use v6wire::view::{FrameView, L4View};

use crate::gates::{self, Goldens};
use crate::spans::Recorder;
use crate::stats::Samples;
use crate::{census, host, labd, Config, Outcome};

/// At most this many cells have their frames captured for the codec
/// replay, one every [`CAPTURE_EVERY`] traced cells.
pub const CAPTURE_CELLS: usize = 24;
/// Capture stride.
pub const CAPTURE_EVERY: u64 = 16;
/// Traced cells per run at most, which bounds the span file (about a
/// kilobyte per cell).
pub const MAX_TRACED_CELLS: u64 = 10_000;

/// The build configuration a cell's topology and poison resolve to —
/// the same mapping `v6testbed` applies to every fleet cell.
pub fn cell_config(
    topology: TopologyVariant,
    poison: PoisonVariant,
    trace: TraceMode,
) -> TestbedConfig {
    let managed = topology == TopologyVariant::PaperDefault;
    TestbedConfig {
        managed_switch: managed,
        pi_dhcp: managed,
        poison: poison.policy(),
        block_v4_internet: false,
        trace,
    }
}

fn family(o: &TaskOutcome) -> PathFamily {
    match o.peer() {
        Some(std::net::IpAddr::V6(_)) => PathFamily::V6,
        Some(std::net::IpAddr::V4(_)) => PathFamily::V4,
        None => PathFamily::Fail,
    }
}

/// Classify a finished cell into its census observation.
fn observe(
    tb: &mut Testbed,
    id: NodeId,
    sc24: &TaskOutcome,
    ip6me: &TaskOutcome,
) -> CellObservation {
    let intervened = matches!(
        (sc24, ip6me),
        (TaskOutcome::HttpOk { body, .. }, _) | (_, TaskOutcome::HttpOk { body, .. })
            if body.contains("helpdesk")
    );
    let h = tb.host(id);
    let rfc8925_engaged = h.v6only_mode;
    let has_v4 = h.v4_active();
    let has_v6 = h.v6_global_active();
    let dns_failure = h.dns_failure();
    let fault_dropped = tb.net.fault_frames_dropped();
    let nat64_refusals = tb.gateway().nat64.dropped_table_full;
    CellObservation {
        rfc8925_engaged,
        has_v4,
        sc24: family(sc24),
        ip6me: family(ip6me),
        intervened,
        naive_counted: true,
        accurate_counted: has_v6 && !has_v4,
        degraded: fault_dropped > 0 || nat64_refusals > 0,
        dns_failure,
        completed_us: tb.net.now().as_micros(),
        events: tb.net.events_processed(),
    }
}

struct Bed {
    key: (TopologyVariant, PoisonVariant),
    config: TestbedConfig,
    tb: Testbed,
    /// Pool allocations after the bed's first cell.
    pool_base: u64,
}

/// Testbeds kept warm across cells, one per build configuration.
struct Beds {
    trace: TraceMode,
    capture: bool,
    beds: Vec<Bed>,
}

impl Beds {
    fn new(trace: TraceMode, capture: bool) -> Beds {
        Beds {
            trace,
            capture,
            beds: Vec::new(),
        }
    }

    /// The ready testbed for `spec` (recycled or built inside a span)
    /// and whether it was built cold.
    fn ready(&mut self, rec: &mut Recorder, id: u64, spec: CellSpec) -> (usize, bool) {
        let key = (spec.topology, spec.poison);
        if let Some(i) = self.beds.iter().position(|b| b.key == key) {
            let bed = &mut self.beds[i];
            rec.time(id, "v6testbed.recycle", Some("cell"), || {
                bed.tb.recycle(&bed.config)
            });
            return (i, false);
        }
        let config = cell_config(spec.topology, spec.poison, self.trace);
        let tb = rec.time(id, "v6testbed.build", Some("cell"), || {
            Testbed::build(config.clone())
        });
        self.beds.push(Bed {
            key,
            config,
            tb,
            pool_base: 0,
        });
        (self.beds.len() - 1, true)
    }
}

/// The workload names every browse resolves, parsed once.
struct Names {
    sc24: DnsName,
    ip6me: DnsName,
}

/// Run one cell with a span around every layer call; returns the
/// observation and the bed it ran on.
fn traced_cell(
    beds: &mut Beds,
    names: &Names,
    rec: &mut Recorder,
    id: u64,
    spec: CellSpec,
) -> (CellObservation, usize, bool, [u64; 3]) {
    let (i, cold) = beds.ready(rec, id, spec);
    let capture = beds.capture;
    let tb = &mut beds.beds[i].tb;
    tb.net.capture_frames = capture;
    tb.net.capture_limit = usize::MAX;
    rec.time(id, "v6testbed.fault_install", Some("cell"), || {
        let plan = spec.fault.plan(spec.seed);
        if !plan.is_noop() {
            tb.net.set_fault_plan(plan);
        }
        if let Some(cap) = spec.fault.nat64_binding_cap() {
            tb.gateway().nat64.set_max_bindings(Some(cap));
        }
        if spec.fault == FaultVariant::BrokenDelegation {
            tb.pi_server()
                .install_global_dns(v6testbed::zones::delegated_internet_dns());
        }
    });
    let host = rec.time(id, "v6testbed.host_install", Some("cell"), || {
        tb.set_host_seeded(spec.os.profile().clone(), spec.seed)
    });
    let e0 = tb.net.events_processed();
    rec.time(id, "v6testbed.boot", Some("cell"), || tb.boot());
    let e1 = tb.net.events_processed();
    let browse = |name: &DnsName| AppTask::Browse {
        name: name.clone(),
        path: "/".into(),
    };
    let sc24 = rec.time(id, "v6testbed.browse_sc24", Some("cell"), || {
        tb.run_task(host, browse(&names.sc24), 25)
    });
    let ip6me = rec.time(id, "v6testbed.browse_ip6me", Some("cell"), || {
        tb.run_task(host, browse(&names.ip6me), 25)
    });
    let e2 = tb.net.events_processed();
    let obs = rec.time(id, "v6testbed.observe", Some("cell"), || {
        observe(tb, host, &sc24, &ip6me)
    });
    (obs, i, cold, [e0, e1, e2])
}

/// Per-cell counter sums from metrics snapshots.
#[derive(Default)]
struct Counters {
    cells: u64,
    events: u64,
    boot_events: u64,
    browse_events: u64,
    frames_delivered: u64,
    timers: u64,
    queue_high_water: u64,
    forwarded: u64,
    dropped_unlinked: u64,
    dns_timeouts: u64,
    dns_retransmits: u64,
    nat64_translations: u64,
    nat64_no_binding: u64,
    pool_fresh: u64,
}

impl Counters {
    fn per_cell(&self, n: u64) -> f64 {
        n as f64 / self.cells.max(1) as f64
    }

    fn add(&mut self, m: &v6sim::MetricsSnapshot, events: [u64; 3]) {
        self.cells += 1;
        self.events += m.engine.events_processed;
        self.boot_events += events[1] - events[0];
        self.browse_events += events[2] - events[1];
        self.frames_delivered += m.engine.frames_delivered;
        self.timers += m.engine.timers_fired;
        self.queue_high_water = self.queue_high_water.max(m.engine.queue_high_water);
        self.forwarded += m.engine.frames_forwarded;
        self.dropped_unlinked += m.engine.frames_dropped_unlinked;
        for n in &m.nodes {
            if n.name.starts_with("host0-") {
                self.dns_timeouts += n.device.get("dns.timeouts");
                self.dns_retransmits += n.device.get("dns.retransmits");
            } else if n.name == "5g-gw" {
                self.nat64_translations +=
                    n.device.get("nat64.outbound") + n.device.get("nat64.inbound");
                self.nat64_no_binding += n.device.get("nat64.dropped_no_binding");
            }
        }
    }
}

/// The cells a workload's traced run drives, in order.
enum Mix {
    /// Paper-default population cells (the census).
    Population(PopulationSpec),
    /// All five fault variants' matrices over consecutive base seeds
    /// (the matrix path, and the jobs `labd` runs).
    Matrix(u64),
}

impl Mix {
    fn cell(&self, i: u64) -> CellSpec {
        match self {
            Mix::Population(p) => p.cell(i),
            Mix::Matrix(seed) => {
                let per_sweep = 66 * FaultVariant::ALL.len() as u64;
                let fault = FaultVariant::ALL[((i % per_sweep) / 66) as usize];
                let spec = MatrixSpec {
                    base_seed: seed.wrapping_add(i / per_sweep),
                    fault,
                };
                spec.scenarios()[(i % 66) as usize]
                    .cell_spec()
                    .expect("paper profiles are interned")
            }
        }
    }

    fn trace(&self) -> TraceMode {
        match self {
            Mix::Population(_) => TraceMode::Off,
            Mix::Matrix(_) => TraceMode::Hops,
        }
    }
}

/// Time traced cells for `secs` (at most [`MAX_TRACED_CELLS`]); fills
/// `out` with the testbed, sim, host, xlat, codec and overhead metrics.
fn cells(out: &mut Outcome, rec: &mut Recorder, mix: &Mix, secs: f64, tiny: bool) {
    let names = Names {
        sc24: "sc24.supercomputing.org".parse().expect("static name"),
        ip6me: "ip6.me".parse().expect("static name"),
    };
    let mut beds = Beds::new(mix.trace(), false);
    let mut capture_beds = Beds::new(mix.trace(), true);
    let mut reference = CellArena::new();
    let mut sketch = CensusSketch::new();
    let mut counters = Counters::default();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let mut captured_cells = 0u64;
    let mut warm_ids = std::collections::HashSet::new();
    let mut untraced_ns = 0u64;
    let mut by_fault: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let mut mismatches = 0u64;
    let started = Instant::now();
    let mut i = 0u64;
    let max = if tiny { 60 } else { MAX_TRACED_CELLS };
    while i < 2 || (started.elapsed().as_secs_f64() < secs && i < max) {
        let id = i;
        // Matrix cells are enumerated before the cell starts, as the
        // fleet's scenario list is; population cells are sampled inside
        // it, as the census hot loop does.
        let listed = match mix {
            Mix::Population(_) => None,
            Mix::Matrix(_) => Some(mix.cell(i)),
        };
        let cell_start = rec.now();
        let spec =
            listed.unwrap_or_else(|| rec.time(id, "v6fleet.sample", Some("cell"), || mix.cell(i)));
        let (obs, bed, cold, events) = traced_cell(&mut beds, &names, rec, id, spec);
        if matches!(mix, Mix::Population(_)) {
            rec.time(id, "v6fleet.fold", Some("cell"), || sketch.fold(spec, obs));
        }
        let cell_end = rec.now();
        rec.record(id, "cell", None, cell_start, cell_end);

        let snapshot = rec.time(id, "v6sim.metrics_snapshot", None, || {
            beds.beds[bed].tb.net.metrics()
        });
        counters.add(&snapshot, events);
        let b = &mut beds.beds[bed];
        if cold {
            b.pool_base = b.tb.net.pool_fresh_allocations();
        } else {
            counters.pool_fresh += b.tb.net.pool_fresh_allocations() - b.pool_base;
            b.pool_base = b.tb.net.pool_fresh_allocations();
        }

        let t = Instant::now();
        let want = reference.run_observation(spec);
        let reference_ns = t.elapsed().as_nanos() as u64;
        let verdict = gates::same_observation(
            &format!("traced cell {i} ({spec:?}) vs CellArena::run_observation"),
            &obs,
            &want,
        );
        mismatches += u64::from(verdict.is_err());
        out.op(verdict);
        if !cold {
            warm_ids.insert(id);
            untraced_ns += reference_ns;
            by_fault
                .entry(spec.fault.label())
                .or_default()
                .push((cell_end - cell_start) as f64 / 1e3);
        }

        if i.is_multiple_of(CAPTURE_EVERY) && (captured_cells as usize) < CAPTURE_CELLS {
            let mut untimed = Recorder::new();
            let (_, cb, _, _) = traced_cell(&mut capture_beds, &names, &mut untimed, id, spec);
            let net = &mut capture_beds.beds[cb].tb.net;
            frames.extend(
                std::mem::take(&mut net.captured)
                    .into_iter()
                    .map(|f| f.bytes),
            );
            captured_cells += 1;
        }
        i += 1;
    }

    let warm = |id: u64| warm_ids.contains(&id);
    let us = |name: &str| rec.durations(name, warm).median() / 1e3;
    let cell_ns = rec.durations("cell", warm);
    let traced_ns = cell_ns.sum();
    for (metric, span) in [
        ("v6testbed.recycle_us", "v6testbed.recycle"),
        ("v6testbed.fault_install_us", "v6testbed.fault_install"),
        ("v6testbed.host_install_us", "v6testbed.host_install"),
        ("v6testbed.boot_us", "v6testbed.boot"),
        ("v6testbed.browse_sc24_us", "v6testbed.browse_sc24"),
        ("v6testbed.browse_ip6me_us", "v6testbed.browse_ip6me"),
        ("v6testbed.observe_us", "v6testbed.observe"),
        ("v6sim.metrics_snapshot_us", "v6sim.metrics_snapshot"),
    ] {
        out.metric(metric, us(span));
    }
    out.metric(
        "v6testbed.build_us",
        rec.durations("v6testbed.build", |_| true).median() / 1e3,
    );
    out.metric("v6testbed.cell_p50_us", cell_ns.median() / 1e3);
    out.metric("v6testbed.cell_tail_us", cell_ns.tail(0.99).value / 1e3);
    out.timing("cell_ns", &cell_ns, 0.99);
    for (fault, s) in &by_fault {
        out.num(format!("cell_us.{fault}.p50"), s.median());
        out.num(format!("cell_us.{fault}.samples"), s.len() as f64);
    }

    let boot_ns = rec.durations("v6testbed.boot", warm).sum();
    let browse_ns = rec.durations("v6testbed.browse_sc24", warm).sum()
        + rec.durations("v6testbed.browse_ip6me", warm).sum();
    let c = &counters;
    out.metric("v6sim.events_per_cell", c.per_cell(c.events));
    out.metric("v6sim.boot_events_per_cell", c.per_cell(c.boot_events));
    out.metric("v6sim.browse_events_per_cell", c.per_cell(c.browse_events));
    // Event counts are per cell over all cells; the times over warm
    // cells only, so divide per-cell means.
    let warm_n = cell_ns.len().max(1) as f64;
    out.metric(
        "v6sim.boot_ns_per_event",
        boot_ns / warm_n / c.per_cell(c.boot_events).max(1.0),
    );
    out.metric(
        "v6sim.browse_ns_per_event",
        browse_ns / warm_n / c.per_cell(c.browse_events).max(1.0),
    );
    out.metric(
        "v6sim.frames_delivered_per_cell",
        c.per_cell(c.frames_delivered),
    );
    out.metric("v6sim.timers_per_cell", c.per_cell(c.timers));
    out.metric("v6sim.queue_high_water", c.queue_high_water as f64);
    out.metric(
        "v6sim.flood_useful_ratio",
        c.forwarded as f64 / (c.forwarded + c.dropped_unlinked).max(1) as f64,
    );
    out.metric("v6sim.pool_fresh_allocs", c.pool_fresh as f64);
    out.metric("v6host.dns_timeouts_per_cell", c.per_cell(c.dns_timeouts));
    out.metric(
        "v6host.dns_retransmits_per_cell",
        c.per_cell(c.dns_retransmits),
    );
    out.metric(
        "v6xlat.nat64_translations_per_cell",
        c.per_cell(c.nat64_translations),
    );
    out.metric(
        "v6xlat.nat64_dropped_no_binding_per_cell",
        c.per_cell(c.nat64_no_binding),
    );

    let coverage = rec.coverage("cell", warm);
    out.metric("bench.span_coverage", coverage);
    out.metric("bench.traced_cells", i as f64);
    out.metric(
        "bench.trace_overhead_frac",
        traced_ns / (untraced_ns.max(1) as f64) - 1.0,
    );
    out.op(gates::span_coverage(coverage));
    let valid = mismatches == 0 && gates::span_coverage(coverage).is_ok();
    out.num("profile_valid", f64::from(u8::from(valid)));
    out.num("profile_mismatches", mismatches as f64);

    codecs(out, &frames, captured_cells, traced_ns / warm_n);
    out.num("census_sketch_samples", sketch.samples as f64);
}

/// Replay captured frames through the zero-copy codecs.
fn codecs(out: &mut Outcome, frames: &[Vec<u8>], cells: u64, cell_ns: f64) {
    let mut dns: Vec<&[u8]> = Vec::new();
    let mut frame_errors = 0u64;
    for f in frames {
        match FrameView::parse(f) {
            Ok(v) => {
                if let L4View::Udp(u) = v.l4 {
                    if u.src_port == 53 || u.dst_port == 53 {
                        dns.push(u.payload);
                    }
                }
            }
            Err(_) => frame_errors += 1,
        }
    }
    // Repeat the replay until it has run long enough to time well.
    let time_per = |n: usize, f: &dyn Fn()| {
        if n == 0 {
            return 0.0;
        }
        let mut reps = 0u64;
        let t = Instant::now();
        while reps < 3 || t.elapsed().as_millis() < 30 {
            f();
            reps += 1;
        }
        t.elapsed().as_nanos() as f64 / (reps as f64 * n as f64)
    };
    let view_ns = time_per(frames.len(), &|| {
        for f in frames {
            let _ = black_box(FrameView::parse(black_box(f)));
        }
    });
    let dns_ns = time_per(dns.len(), &|| {
        for m in &dns {
            let _ = black_box(MessageView::parse(black_box(m)));
        }
    });
    let cells = cells.max(1) as f64;
    let frames_per_cell = frames.len() as f64 / cells;
    let msgs_per_cell = dns.len() as f64 / cells;
    out.metric("v6wire.view_parse_ns", view_ns);
    out.metric("v6wire.frames_per_cell", frames_per_cell);
    out.metric("v6dns.view_parse_ns", dns_ns);
    out.metric("v6dns.msgs_per_cell", msgs_per_cell);
    out.metric(
        "v6wire.codec_share",
        (frames_per_cell * view_ns + msgs_per_cell * dns_ns) / cell_ns.max(1.0),
    );
    out.num("codec.captured_cells", cells);
    out.num("codec.frame_parse_errors", frame_errors as f64);
}

/// Time the manifest layers over whole fault-variant sweeps for `secs`
/// (at least one sweep), gating each manifest.
fn manifests(out: &mut Outcome, rec: &mut Recorder, goldens: &Goldens, seed: u64, secs: f64) {
    let started = Instant::now();
    let mut id = 1 << 40;
    let mut bytes = Samples::new();
    let mut k = 0u64;
    while k == 0 || started.elapsed().as_secs_f64() < secs {
        for fault in FaultVariant::ALL {
            let spec = MatrixSpec {
                base_seed: seed.wrapping_add(k),
                fault,
            };
            let scenarios = spec.scenarios();
            let run = FleetRunner::new(1).run(&scenarios);
            let results = run.report.results.clone();
            let report: FleetReport = rec.time(id, "v6fleet.aggregate", None, || {
                FleetReport::aggregate(results)
            });
            let manifest = rec.time(id, "v6report.from_fleet", None, || {
                RunManifest::from_fleet(&spec, &scenarios, &report)
            });
            let text = rec.time(id, "v6report.canonical", None, || manifest.canonical());
            bytes.push(text.len() as f64);
            out.op(gates::matrix_manifest(goldens, &spec, &report, &text));
            id += 1;
        }
        k += 1;
    }
    let us = |name: &str| rec.durations(name, |_| true).median() / 1e3;
    out.metric("v6fleet.aggregate_us", us("v6fleet.aggregate"));
    out.metric("v6report.from_fleet_us", us("v6report.from_fleet"));
    out.metric("v6report.canonical_us", us("v6report.canonical"));
    out.metric("v6report.manifest_bytes", bytes.median());
}

/// Time the census sampler and sketch fold per call.
fn fleet_micro(out: &mut Outcome, seed: u64) {
    let n = 200_000u64;
    let pop = PopulationSpec::paper_default(seed, n);
    let t = Instant::now();
    for i in 0..n {
        black_box(pop.cell(black_box(i)));
    }
    out.metric(
        "v6fleet.sample_ns",
        t.elapsed().as_nanos() as f64 / n as f64,
    );
    let cells: Vec<CellSpec> = (0..n).map(|i| pop.cell(i)).collect();
    let obs = CellArena::new().run_observation(cells[0]);
    let mut sketch = CensusSketch::new();
    let t = Instant::now();
    for &c in &cells {
        sketch.fold(black_box(c), black_box(obs));
    }
    out.metric("v6fleet.fold_ns", t.elapsed().as_nanos() as f64 / n as f64);
    black_box(sketch);
}

/// Time the daemon's request path: an idle open-loop portal phase of
/// `idle_secs`, then matrix jobs with the portal stream still running
/// for `busy_secs`, and the in-process handlers per call.
fn daemon(
    out: &mut Outcome,
    rec: &mut Recorder,
    goldens: &Goldens,
    cfg: &Config,
    idle_secs: f64,
    busy_secs: f64,
) -> Result<(), String> {
    let server = labd::start_daemon()?;
    let addr = server.addr;
    let senders = cfg.workers();
    let (start, idle) = labd::open_loop(addr, labd::BASE_RPS, idle_secs, senders, cfg.seed);
    let ((busy_start, busy), jobs) = std::thread::scope(|scope| {
        let jobs = scope.spawn(|| {
            labd::job_stream(
                addr,
                goldens,
                labd::Schedule::Rate(labd::JOB_RPS),
                busy_secs,
                cfg.seed,
            )
        });
        let busy = labd::open_loop(addr, labd::BASE_RPS, busy_secs, senders, !cfg.seed);
        (busy, jobs.join().expect("job thread panicked"))
    });
    let (_, lag) = labd::check_shots(out, &idle);
    labd::check_shots(out, &busy);
    let mut id = 1u64 << 48;
    for (t0, shots) in [(start, &idle), (busy_start, &busy)] {
        let base = rec.at(t0);
        for s in shots {
            let Ok(x) = &s.reply else { continue };
            let sent = base + ((s.scheduled + s.lag) * 1e9) as u64;
            let ns = |secs: f64| sent + (secs * 1e9) as u64;
            rec.record(
                id,
                "request",
                None,
                base + (s.scheduled * 1e9) as u64,
                ns(x.done),
            );
            rec.record(id, "v6labd.connect", Some("request"), sent, ns(x.connected));
            rec.record(
                id,
                "v6labd.write",
                Some("request"),
                ns(x.connected),
                ns(x.written),
            );
            rec.record(
                id,
                "v6labd.ttfb",
                Some("request"),
                ns(x.written),
                ns(x.first_byte),
            );
            rec.record(
                id,
                "v6labd.read",
                Some("request"),
                ns(x.first_byte),
                ns(x.done),
            );
            id += 1;
        }
    }
    let mut queue_wait = Samples::new();
    let mut run_ms = Samples::new();
    for j in &jobs {
        out.op(j.verdict.clone());
        if let (Some(running), Some(done)) = (j.running, j.done) {
            queue_wait.push((running - j.posted) * 1e3);
            run_ms.push((done - running) * 1e3);
        }
    }
    let us = |name: &str| rec.durations(name, |_| true).median() / 1e3;
    out.metric("v6labd.connect_us", us("v6labd.connect"));
    out.metric("v6labd.ttfb_us", us("v6labd.ttfb"));
    out.metric("v6labd.job_queue_wait_ms", queue_wait.median());
    out.metric("v6labd.job_run_ms", run_ms.median());
    out.metric("bench.generator_lag_us", lag.tail(0.99).value);
    out.num("jobs_timed", run_ms.len() as f64);

    // In-process handlers, per call, over the paths the stream sent.
    let paths: Vec<&str> = idle.iter().map(|s| s.path.as_str()).take(1000).collect();
    let per_call = |f: &dyn Fn()| {
        let t = Instant::now();
        let mut reps = 0u64;
        while reps < 3 || t.elapsed().as_millis() < 20 {
            f();
            reps += 1;
        }
        t.elapsed().as_nanos() as f64 / reps as f64
    };
    let n = paths.len().max(1) as f64;
    out.metric(
        "v6labd.portal_handle_us",
        per_call(&|| {
            for p in &paths {
                black_box(v6labd::portal::handle(black_box(p)));
            }
        }) / n
            / 1e3,
    );
    let raw: Vec<String> = paths
        .iter()
        .map(|p| v6portal::http::HttpRequest::format_get("localhost", p))
        .collect();
    out.metric(
        "v6portal.http_parse_ns",
        per_call(&|| {
            for r in &raw {
                black_box(v6portal::http::HttpRequest::parse(black_box(r.as_bytes())));
            }
        }) / raw.len().max(1) as f64,
    );
    let state = &server.state;
    out.metric(
        "v6labd.metrics_json_us",
        per_call(&|| {
            black_box(state.metrics_json());
        }) / 1e3,
    );
    server.stop();
    Ok(())
}

/// Run the traced pass of `workload`.
pub fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    let root = host::repo_root();
    let goldens = census::setup(&root)?;
    let mut out = Outcome::default();
    let mut rec = Recorder::new();
    let s = if cfg.tiny { 0.2 } else { cfg.seconds };
    let (mix, cell_share, lab) = match workload {
        "census" => (
            Mix::Population(PopulationSpec::paper_default(cfg.seed, u64::MAX)),
            0.6,
            (0.06, 0.06),
        ),
        "matrix" => (Mix::Matrix(cfg.seed), 0.6, (0.06, 0.06)),
        _ => (Mix::Matrix(cfg.seed), 0.3, (0.25, 0.25)),
    };
    cells(&mut out, &mut rec, &mix, cell_share * s, cfg.tiny);
    manifests(
        &mut out,
        &mut rec,
        &goldens,
        cfg.seed,
        if workload == "matrix" { 0.15 * s } else { 0.0 },
    );
    fleet_micro(&mut out, cfg.seed);
    daemon(&mut out, &mut rec, &goldens, cfg, lab.0 * s, lab.1 * s)?;

    let path = root
        .join("perfbench")
        .join("out")
        .join(format!("spans-{workload}-{}.jsonl", cfg.seed));
    rec.write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.text(
        "spans_file",
        path.strip_prefix(&root).unwrap_or(&path).to_string_lossy(),
    );
    out.num("spans", rec.spans.len() as f64);
    Ok(out)
}
