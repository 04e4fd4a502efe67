//! Machine-readable engine performance report.
//!
//! Measures the two benchmarks the perf work is judged by — the raw
//! engine relay ring and the 66-cell fleet sweep — in every [`TraceMode`],
//! and writes `BENCH_engine.json` next to the repo root:
//!
//! ```sh
//! cargo run --release --example bench_report
//! cat BENCH_engine.json
//! ```
//!
//! The JSON also carries the recorded pre-optimization baseline (eager
//! string tracing, `HashMap` link table, no frame pool) so the speedup is
//! auditable without checking out the old revision.

use std::any::Any;
use std::fmt::Write as _;
use std::time::Instant;
use v6sim::engine::{Ctx, Network, Node, TraceMode};
use v6sim::time::SimTime;
use v6testbed::{Scenario, TraceMode as TbTraceMode};
use v6wire::mac::MacAddr;
use v6wire::packet::build_udp_v4;
use v6wire::udp::UdpDatagram;

/// Pre-PR `fleet_throughput/threads01` (the acceptance comparison):
/// median ms per 66-cell sweep and scenarios/second, measured on this
/// machine immediately before the hot-path rework.
const BASELINE_FLEET_MS: f64 = 25.569;
const BASELINE_FLEET_ELEM_S: f64 = 2581.0;

/// Full-trace ring ms/iter recorded immediately before the zero-copy codec
/// rework (owned re-parse + `String` summary per hop).
const BASELINE_FULL_TRACE_MS: f64 = 18.283;

/// The conformance corpus (tests/corpus/README.md): the codec benchmarks
/// run over exactly the inputs the conformance suites pin.
const CORPUS_FRAMES: &[&[u8]] = &[
    include_bytes!("../tests/corpus/frame_dhcp_discover_opt108.bin"),
    include_bytes!("../tests/corpus/frame_dhcp_offer_opt108.bin"),
    include_bytes!("../tests/corpus/frame_ra_full.bin"),
    include_bytes!("../tests/corpus/frame_dns64_aaaa.bin"),
    include_bytes!("../tests/corpus/frame_poisoned_a.bin"),
    include_bytes!("../tests/corpus/frame_arp_request.bin"),
    include_bytes!("../tests/corpus/frame_tcp_syn_v6.bin"),
    include_bytes!("../tests/corpus/frame_icmpv6_echo.bin"),
    include_bytes!("../tests/corpus/frame_icmpv4_unreach.bin"),
    include_bytes!("../tests/corpus/frame_ndp_ns.bin"),
];

const CORPUS_DNS: &[&[u8]] = &[
    include_bytes!("../tests/corpus/dns_query_a.bin"),
    include_bytes!("../tests/corpus/dns_dns64_response.bin"),
    include_bytes!("../tests/corpus/dns_poisoned_a.bin"),
    include_bytes!("../tests/corpus/dns_all_rtypes.bin"),
];

struct Relay {
    name: String,
}

impl Node for Relay {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_frame(&mut self, _port: u32, frame: &[u8], ctx: &mut Ctx) {
        let buf = ctx.buffer_from(frame);
        ctx.send(1, buf);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The same 4-node relay ring as `benches/engine_hot_path.rs`: 4 frames
/// in flight, 10 µs hops, 100 virtual milliseconds.
fn run_ring(mode: TraceMode) -> (u64, u64) {
    let mut net = Network::new();
    net.trace_mode = mode;
    let nodes: Vec<_> = (0..4)
        .map(|i| {
            net.add_node(Box::new(Relay {
                name: format!("relay{i}"),
            }))
        })
        .collect();
    for i in 0..4 {
        net.link(nodes[i], 1, nodes[(i + 1) % 4], 0, SimTime::from_micros(10));
    }
    net.start();
    net.run_until(SimTime::ZERO);
    for n in 0..4u8 {
        let frame = build_udp_v4(
            MacAddr::new([2, 0, 0, 0, 0xee, n]),
            MacAddr::new([2, 0, 0, 0, 0xee, n + 1]),
            "10.9.0.1".parse().expect("static ip"),
            "10.9.0.2".parse().expect("static ip"),
            &UdpDatagram::new(4000, 4001, vec![n; 64]),
        );
        net.with_node::<Relay, _>(nodes[0], |_, ctx| ctx.send(1, frame));
    }
    net.run_for(SimTime::from_millis(100));
    (net.frames_delivered, net.metrics().engine.events_processed)
}

/// Median nanoseconds per item: `f` processes `items` things, repeated
/// `iters` times per timing sample.
fn ns_per_item(iters: usize, items: usize, mut f: impl FnMut()) -> f64 {
    let secs = median_secs(7, || {
        for _ in 0..iters {
            f();
        }
    });
    secs * 1e9 / (iters * items) as f64
}

/// Median wall-clock seconds of `samples` runs of `f`.
fn median_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

fn main() {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"generated_by\": \"examples/bench_report.rs\",");

    // Engine relay ring, per trace mode.
    let (frames, events) = run_ring(TraceMode::Off);
    let _ = writeln!(json, "  \"engine_hot_path\": {{");
    let _ = writeln!(
        json,
        "    \"workload\": \"4-node relay ring, 4 frames in flight, 100 virtual ms\","
    );
    let _ = writeln!(json, "    \"frames_per_iter\": {frames},");
    let _ = writeln!(json, "    \"events_per_iter\": {events},");
    let mut full_ms = 0.0;
    for (i, (label, mode)) in [
        ("off", TraceMode::Off),
        ("hops", TraceMode::Hops),
        ("full", TraceMode::Full),
    ]
    .into_iter()
    .enumerate()
    {
        run_ring(mode); // warm-up
        let secs = median_secs(7, || {
            std::hint::black_box(run_ring(mode));
        });
        if label == "full" {
            full_ms = secs * 1e3;
        }
        let comma = if i < 2 { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{label}\": {{ \"ms_per_iter\": {:.3}, \"frames_per_sec\": {:.0}, \"events_per_sec\": {:.0} }}{comma}",
            secs * 1e3,
            frames as f64 / secs,
            events as f64 / secs,
        );
    }
    let _ = writeln!(json, "  }},");

    // Zero-copy codec microbenchmarks over the conformance corpus, plus the
    // Full-trace ring against its recorded pre-rework baseline (the
    // summarize-per-hop path is exactly what the view layer accelerates).
    let wire_view = ns_per_item(2000, CORPUS_FRAMES.len(), || {
        for f in CORPUS_FRAMES {
            std::hint::black_box(v6wire::FrameView::parse(f).expect("corpus frame"));
        }
    });
    let wire_summarize = ns_per_item(2000, CORPUS_FRAMES.len(), || {
        for f in CORPUS_FRAMES {
            std::hint::black_box(v6wire::packet::summarize(f));
        }
    });
    let dns_view = ns_per_item(2000, CORPUS_DNS.len(), || {
        for m in CORPUS_DNS {
            std::hint::black_box(v6dns::MessageView::parse(m).expect("corpus message"));
        }
    });
    let ck_buf: Vec<u8> = (0..1500u32).map(|i| (i * 31) as u8).collect();
    let ck_gbps = |kernel| {
        let ns = ns_per_item(2000, 1, || {
            std::hint::black_box(v6wire::checksum::checksum_with(kernel, &ck_buf));
        });
        ck_buf.len() as f64 / ns
    };
    let scalar_gbps = ck_gbps(v6wire::checksum::Kernel::Scalar);
    let swar_gbps = ck_gbps(v6wire::checksum::Kernel::Swar);
    let _ = writeln!(json, "  \"codec_zero_copy\": {{");
    let _ = writeln!(
        json,
        "    \"corpus_inputs\": {},",
        CORPUS_FRAMES.len() + CORPUS_DNS.len()
    );
    let _ = writeln!(
        json,
        "    \"wire_parse_view_ns_per_frame\": {wire_view:.1},"
    );
    let _ = writeln!(
        json,
        "    \"wire_summarize_ns_per_frame\": {wire_summarize:.1},"
    );
    let _ = writeln!(json, "    \"dns_parse_view_ns_per_msg\": {dns_view:.1},");
    let _ = writeln!(json, "    \"checksum_scalar_gb_per_s\": {scalar_gbps:.2},");
    let _ = writeln!(json, "    \"checksum_swar_gb_per_s\": {swar_gbps:.2},");
    let _ = writeln!(
        json,
        "    \"full_trace_baseline_ms\": {BASELINE_FULL_TRACE_MS},"
    );
    let _ = writeln!(json, "    \"full_trace_ms\": {full_ms:.3},");
    let _ = writeln!(
        json,
        "    \"full_trace_speedup\": {:.2}",
        BASELINE_FULL_TRACE_MS / full_ms
    );
    let _ = writeln!(json, "  }},");

    // Fleet sweep (the acceptance benchmark), per trace mode.
    let cells = Scenario::matrix(0xBE9C);
    let _ = writeln!(json, "  \"fleet_sweep\": {{");
    let _ = writeln!(json, "    \"cells\": {},", cells.len());
    let mut hops_ms = 0.0;
    for (i, (label, mode)) in [
        ("off", TbTraceMode::Off),
        ("hops", TbTraceMode::Hops),
        ("full", TbTraceMode::Full),
    ]
    .into_iter()
    .enumerate()
    {
        for s in &cells {
            let _ = s.run_with_trace(mode); // warm-up
        }
        let secs = median_secs(7, || {
            for s in &cells {
                std::hint::black_box(s.run_with_trace(mode));
            }
        });
        if label == "hops" {
            hops_ms = secs * 1e3;
        }
        let comma = if i < 2 { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{label}\": {{ \"ms_per_sweep\": {:.3}, \"scenarios_per_sec\": {:.0} }}{comma}",
            secs * 1e3,
            cells.len() as f64 / secs,
        );
    }
    let _ = writeln!(json, "  }},");

    // The before/after the PR is judged on: pre-optimization single-thread
    // fleet sweep vs today's Hops-mode sweep.
    let _ = writeln!(json, "  \"baseline_pre_optimization\": {{");
    let _ = writeln!(json, "    \"fleet_ms_per_sweep\": {BASELINE_FLEET_MS},");
    let _ = writeln!(
        json,
        "    \"fleet_scenarios_per_sec\": {BASELINE_FLEET_ELEM_S}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"speedup_vs_baseline\": {:.2}",
        BASELINE_FLEET_MS / hops_ms
    );
    json.push_str("}\n");

    // Re-emit through the canonical JSON layer, preserving every section
    // owned by another writer (`population_census --bench`/`--warm-bench`
    // and the `just soak` load generator) — the examples own disjoint
    // sections of the same file, and a rerun here must not drop theirs.
    let mut doc = v6report::Json::parse(&json).expect("bench json parses");
    if let Ok(prev) = std::fs::read_to_string("BENCH_engine.json") {
        if let Ok(prev) = v6report::Json::parse(&prev) {
            for section in ["population_census", "service_soak", "warm_cell"] {
                if let Some(row) = prev.get(section) {
                    doc.set(section, row.clone());
                }
            }
        }
    }
    let mut text = doc.canonical();
    text.push('\n');

    print!("{text}");
    std::fs::write("BENCH_engine.json", &text).expect("write BENCH_engine.json");
    eprintln!("wrote BENCH_engine.json");
}
