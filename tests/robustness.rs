//! Failure injection and edge-condition integration tests: what the testbed
//! does when parts of it die or clients ask for things that don't exist.

use v6host::profiles::OsProfile;
use v6host::tasks::{AppTask, TaskOutcome};
use v6testbed::Testbed;

fn browse(name: &str) -> AppTask {
    AppTask::Browse {
        name: name.parse().unwrap(),
        path: "/".into(),
    }
}

/// The Pi dies mid-show: clients that depended on it lose DNS entirely
/// (both the healthy RDNSS and the poisoned DHCP resolver live there).
#[test]
fn pi_crash_takes_out_dns() {
    let mut tb = Testbed::paper_default();
    let id = tb.add_host(OsProfile::windows_10());
    tb.boot();
    // Sanity: working before the crash.
    let before = tb.run_task(id, browse("ip6.me"), 25);
    assert!(before.is_success());
    // Crash the Pi.
    tb.pi_server().enabled = false;
    let after = tb.run_task(id, browse("sc24.supercomputing.org"), 25);
    assert_eq!(after, TaskOutcome::DnsFailed, "no resolver left: {after:?}");
}

/// The Pi never comes up at all: with the gateway's DHCP snooped away, a
/// v4-only client gets no address and no DNS — total loss, which is why the
/// paper pairs snooping with the Pi deployment.
#[test]
fn pi_down_from_start_strands_v4_only_clients() {
    let mut tb = Testbed::paper_default();
    let console = tb.add_host(OsProfile::nintendo_switch());
    tb.pi_server().enabled = false;
    tb.boot();
    let h = tb.host(console);
    assert!(!h.v4_active(), "no DHCP server answered");
    let o = tb.run_task(console, browse("ip6.me"), 25);
    assert!(
        matches!(o, TaskOutcome::DnsFailed),
        "nothing works without the Pi: {o:?}"
    );
}

/// A v6-capable client with the Pi down still gets SLAAC from the gateway,
/// but every advertised resolver is dead → DNS fails by timeout.
#[test]
fn pi_down_leaves_v6_clients_without_dns() {
    let mut tb = Testbed::paper_default();
    let id = tb.add_host(OsProfile::linux());
    tb.pi_server().enabled = false;
    tb.boot();
    let h = tb.host(id);
    assert!(h.v6_global_active(), "SLAAC still works (gateway RA)");
    let o = tb.run_task(id, browse("ip6.me"), 30);
    assert_eq!(o, TaskOutcome::DnsFailed);
}

/// A ghost name under wildcard-A poisoning: the v4-only client is happily
/// redirected (dnsmasq semantics), while the RFC 8925 client correctly
/// fails — the poisoned A is unusable without an IPv4 stack.
#[test]
fn ghost_name_wildcard_poisoning_by_client_class() {
    let mut tb = Testbed::paper_default();
    let console = tb.add_host(OsProfile::nintendo_switch());
    let mac_host = tb.add_host(OsProfile::macos());
    tb.boot();
    let v4_outcome = tb.run_task(console, browse("no-such-site.invalid"), 25);
    match &v4_outcome {
        TaskOutcome::HttpOk { body, .. } => {
            assert!(body.contains("helpdesk"), "redirected to the portal")
        }
        other => panic!("v4-only client should land on the portal: {other:?}"),
    }
    let v6_outcome = tb.run_task(mac_host, browse("no-such-site.invalid"), 25);
    assert!(
        matches!(
            v6_outcome,
            TaskOutcome::DnsFailed | TaskOutcome::Unreachable
        ),
        "poisoned A must not mislead an IPv6-only client: {v6_outcome:?}"
    );
}

/// The frame trace captures the boot conversation with sensible summaries.
#[test]
fn trace_capture_is_usable() {
    let mut tb = Testbed::paper_default();
    tb.add_host(OsProfile::windows_10());
    tb.boot();
    let text = tb.net.format_trace();
    assert!(text.contains("5g-gw"), "gateway visible in trace");
    assert!(text.contains("raspberry-pi"), "pi visible in trace");
    assert!(text.contains("(DHCP)"), "DHCP exchange visible");
    assert!(text.contains("NDP router advertisement"), "RAs visible");
    assert!(tb.net.frames_delivered > 20);
}

/// Census over an empty testbed is well-defined.
#[test]
fn census_empty_testbed() {
    let mut tb = Testbed::paper_default();
    tb.boot();
    let (entries, summary) = v6testbed::census(&mut tb);
    assert!(entries.is_empty());
    assert_eq!(summary.associated, 0);
    assert_eq!(summary.accurate_v6only, 0);
}

/// Two testbeds with the same configuration produce identical outcomes —
/// the determinism claim in README.
#[test]
fn deterministic_replay() {
    let run = || {
        let mut tb = Testbed::paper_default();
        let a = tb.add_host(OsProfile::windows_10());
        let b = tb.add_host(OsProfile::macos());
        tb.boot();
        let o1 = tb.run_task(a, browse("ip6.me"), 25);
        let o2 = tb.run_task(b, browse("sc24.supercomputing.org"), 25);
        (o1, o2, tb.net.frames_delivered)
    };
    let first = run();
    let second = run();
    assert_eq!(first.0, second.0);
    assert_eq!(first.1, second.1);
    assert_eq!(first.2, second.2, "frame-for-frame identical");
}

/// Many simultaneous clients all complete their tasks (stress the switch
/// tables, DHCP pool and NAT64 BIBs at once).
#[test]
fn twenty_clients_concurrently() {
    let mut tb = Testbed::paper_default();
    let mix = [
        OsProfile::macos(),
        OsProfile::windows_10(),
        OsProfile::linux(),
        OsProfile::android(),
        OsProfile::nintendo_switch(),
    ];
    let hosts: Vec<_> = (0..20)
        .map(|i| tb.add_host(mix[i % mix.len()].clone()))
        .collect();
    tb.boot();
    let tids: Vec<_> = hosts
        .iter()
        .map(|&h| (h, tb.start_task(h, browse("ip6.me"))))
        .collect();
    tb.run_secs(30);
    for (h, tid) in tids {
        let outcome = tb.host(h).outcome(tid).cloned();
        assert!(
            matches!(outcome, Some(TaskOutcome::HttpOk { .. })),
            "host {h} failed: {outcome:?}"
        );
    }
}

/// A testbed run exports a valid pcap that parses back frame-for-frame.
#[test]
fn pcap_export_roundtrip() {
    let mut tb = Testbed::paper_default();
    tb.net.capture_frames = true;
    tb.add_host(OsProfile::windows_10());
    tb.boot();
    let n = tb.net.captured.len();
    assert!(n > 20, "captured {n} frames");
    let bytes = v6sim::pcap::to_pcap(&tb.net.captured);
    let back = v6sim::pcap::from_pcap(&bytes).expect("valid pcap");
    assert_eq!(back.len(), n);
    assert_eq!(back[0].bytes, tb.net.captured[0].bytes);
    // Every captured frame is a parseable Ethernet frame.
    for f in back.iter().take(50) {
        assert!(v6wire::view::FrameView::parse(&f.bytes).is_ok());
    }
}
