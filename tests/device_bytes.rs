//! Device-bytes regression guard: every device on a booted paper testbed
//! takes arbitrary and mutated frames without panicking, and the engine's
//! frame-conservation law still holds afterwards.
//!
//! An injector node sits on a spare managed-switch port (the LAN side)
//! and another on a spare internet-router port (the WAN side). Each case
//! sends mutated `tests/corpus` frames out of both, addressed to
//! broadcast, to a device MAC, or to the frame's own destination; the
//! internet-side copies are first readdressed to the gateway's WAN side.
//! The mutations are random bytes, byte flips, truncations, and
//! transport payload edits that keep the frame valid: the IPv6 transport
//! checksum is recomputed, the IPv4 UDP checksum is zeroed ("none").

use proptest::prelude::*;
use std::any::Any;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6host::profiles::OsProfile;
use v6sim::engine::{Ctx, Node, NodeId};
use v6sim::SimTime;
use v6testbed::topology::MAX_HOSTS;
use v6testbed::{Testbed, TestbedConfig};
use v6wire::checksum::{checksum, pseudo_v6};
use v6wire::mac::MacAddr;

const CORPUS: [&[u8]; 12] = [
    include_bytes!("corpus/frame_arp_request.bin"),
    include_bytes!("corpus/frame_bad_checksum.bin"),
    include_bytes!("corpus/frame_bad_truncated.bin"),
    include_bytes!("corpus/frame_dhcp_discover_opt108.bin"),
    include_bytes!("corpus/frame_dhcp_offer_opt108.bin"),
    include_bytes!("corpus/frame_dns64_aaaa.bin"),
    include_bytes!("corpus/frame_icmpv4_unreach.bin"),
    include_bytes!("corpus/frame_icmpv6_echo.bin"),
    include_bytes!("corpus/frame_ndp_ns.bin"),
    include_bytes!("corpus/frame_poisoned_a.bin"),
    include_bytes!("corpus/frame_ra_full.bin"),
    include_bytes!("corpus/frame_tcp_syn_v6.bin"),
];

/// A node that only ever transmits what the test hands it.
struct Injector;

impl Node for Injector {
    fn name(&self) -> &str {
        "injector"
    }

    fn on_frame(&mut self, _port: u32, _frame: &[u8], _ctx: &mut Ctx) {}

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One injected frame: which corpus frame, how it is mutated, where it
/// is addressed, and the random material the mutation draws on.
type Shot = (usize, u8, usize, u64, Vec<u8>);

fn shot() -> impl Strategy<Value = Shot> {
    (
        0..CORPUS.len(),
        0u8..4,
        0usize..8,
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..160),
    )
}

/// Flip one byte at or after `from` in `frame` (no-op when there is none).
fn flip_from(frame: &mut [u8], from: usize, pick: u64) {
    if frame.len() > from {
        let at = from + (pick as usize) % (frame.len() - from);
        frame[at] ^= ((pick >> 32) as u8) | 1;
    }
}

/// Where the transport header starts, its length and its checksum
/// offset, for the frames whose checksum this guard knows how to keep
/// valid: IPv6 UDP/ICMPv6/TCP and IPv4 UDP.
fn transport(frame: &[u8]) -> Option<(usize, usize, usize)> {
    match frame.get(12..14)? {
        [0x86, 0xdd] if frame.len() >= 54 => match frame[20] {
            17 => Some((54, 8, 6)),
            58 => Some((54, 4, 2)),
            6 => Some((54, 20, 16)),
            _ => None,
        },
        [0x08, 0x00] if frame.len() >= 34 && frame[23] == 17 => {
            Some((14 + usize::from(frame[14] & 0x0f) * 4, 8, 6))
        }
        _ => None,
    }
}

/// Make the transport checksum valid again: recomputed over the IPv6
/// pseudo-header, or zeroed ("none") for IPv4 UDP.
fn fix_transport_checksum(frame: &mut [u8]) {
    let Some((l4, header, ck)) = transport(frame) else {
        return;
    };
    if frame.len() < l4 + header {
        return;
    }
    frame[l4 + ck..l4 + ck + 2].fill(0);
    if frame[12] == 0x08 {
        return;
    }
    let claimed = usize::from(u16::from_be_bytes([frame[18], frame[19]]));
    let len = claimed.min(frame.len() - l4);
    let src: [u8; 16] = frame[22..38].try_into().expect("16 bytes");
    let dst: [u8; 16] = frame[38..54].try_into().expect("16 bytes");
    let mut sum = pseudo_v6(src.into(), dst.into(), frame[20], len as u32);
    sum.push(&frame[l4..l4 + len]);
    let value = match sum.finish() {
        0 if frame[20] == 17 => 0xffff,
        v => v,
    };
    frame[l4 + ck..l4 + ck + 2].copy_from_slice(&value.to_be_bytes());
}

/// Edit a transport payload byte and keep the frame valid; frames with
/// no known transport get a plain flip past the Ethernet header.
fn payload_edit(frame: &mut [u8], pick: u64) {
    match transport(frame) {
        Some((l4, header, _)) => {
            flip_from(frame, l4 + header, pick);
            fix_transport_checksum(frame);
        }
        None => flip_from(frame, 14, pick),
    }
}

/// Readdress an IP frame to the gateway's WAN side (its CGN IPv4
/// address, or a host in its delegated IPv6 prefix), so internet-side
/// injections reach the NAT44/NAT64 instead of dying at the router.
fn toward_gateway(frame: &mut [u8]) {
    match frame.get(12..14) {
        Some([0x08, 0x00]) if frame.len() >= 34 => {
            frame[30..34].copy_from_slice(&Ipv4Addr::new(100, 66, 7, 8).octets());
            let ihl = usize::from(frame[14] & 0x0f) * 4;
            if ihl >= 20 && frame.len() >= 14 + ihl {
                frame[24..26].fill(0);
                let sum = checksum(&frame[14..14 + ihl]);
                frame[24..26].copy_from_slice(&sum.to_be_bytes());
            }
        }
        Some([0x86, 0xdd]) if frame.len() >= 54 => {
            let dst: Ipv6Addr = "2607:fb90:9bda:a425::1234".parse().expect("static");
            frame[38..54].copy_from_slice(&dst.octets());
        }
        _ => return,
    }
    fix_transport_checksum(frame);
}

fn mutate(&(index, kind, _, pick, ref noise): &Shot, wan: bool) -> Vec<u8> {
    let mut frame = CORPUS[index].to_vec();
    if wan {
        toward_gateway(&mut frame);
    }
    match kind {
        0 => return noise.clone(),
        1 => {
            flip_from(&mut frame, 0, pick);
            flip_from(&mut frame, 0, pick.rotate_left(17));
        }
        2 => frame.truncate((pick as usize) % (frame.len() + 1)),
        _ => payload_edit(&mut frame, pick),
    }
    frame
}

/// Address `frame` to broadcast, a device MAC, or leave its own
/// destination in place.
fn address(frame: &mut [u8], target: usize, macs: &[MacAddr]) {
    if frame.len() >= 6 && target < macs.len() {
        frame[..6].copy_from_slice(&macs[target].0);
    }
}

fn inject(tb: &mut Testbed, from: NodeId, frame: Vec<u8>) {
    tb.net
        .with_node::<Injector, _>(from, |_, ctx| ctx.send(0, frame));
    tb.net.run_for(SimTime::from_millis(20));
}

fn assert_conserved(tb: &Testbed) {
    let m = tb.net.metrics();
    assert_eq!(
        m.total_frames_tx(),
        m.engine.frames_forwarded + m.engine.frames_dropped_unlinked,
        "every transmitted frame was forwarded or dropped on an unlinked port"
    );
    assert_eq!(
        m.total_frames_rx(),
        m.engine.frames_delivered,
        "every delivered frame was received"
    );
}

proptest! {
    #[test]
    fn mutated_frames_at_every_device_neither_panic_nor_leak(
        managed_switch in any::<bool>(),
        shots in prop::collection::vec(shot(), 8..24),
    ) {
        let mut tb = Testbed::build(TestbedConfig {
            managed_switch,
            pi_dhcp: managed_switch,
            ..TestbedConfig::default()
        });
        let hosts: Vec<NodeId> = [
            OsProfile::macos(),
            OsProfile::windows_10(),
            OsProfile::nintendo_switch(),
        ]
        .into_iter()
        .map(|p| tb.add_host(p))
        .collect();
        let lan = tb.net.add_node(Box::new(Injector));
        let wan = tb.net.add_node(Box::new(Injector));
        let spare_switch_port = 2 + MAX_HOSTS as u32 - 1;
        let internet = tb.internet;
        let sw = tb.sw;
        tb.net.link(lan, 0, sw, spare_switch_port, SimTime::from_micros(50));
        tb.net.link(wan, 0, internet, 8, SimTime::from_millis(1));
        tb.boot();

        let mut macs = vec![MacAddr::BROADCAST, tb.gateway().lan_mac, tb.pi_server().mac];
        macs.extend(hosts.iter().map(|&h| tb.host(h).mac));

        for s in &shots {
            let mut frame = mutate(s, false);
            address(&mut frame, s.2, &macs);
            inject(&mut tb, lan, frame);
            let mut frame = mutate(s, true);
            address(&mut frame, s.2, &macs);
            inject(&mut tb, wan, frame);
        }
        tb.run_secs(5);
        assert_conserved(&tb);

        // A well-formed client task still runs on whatever state the
        // barrage left behind (rogue RAs or offers may legitimately have
        // reconfigured it, so only the engine's invariants are checked).
        let _ = tb.run_task(
            hosts[0],
            v6host::tasks::AppTask::Browse {
                name: "ip6.me".parse().expect("static name"),
                path: "/".into(),
            },
            25,
        );
        assert_conserved(&tb);
    }
}
