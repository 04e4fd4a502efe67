//! The Figure 4 topology, as a reusable builder.
//!
//! ```text
//!                         ┌──────────────┐ WAN ┌──────────────┐
//!   clients ── managed ───┤ 5G gateway   ├─────┤ internet     ├── ip6.me
//!              switch ────┤ (NAT64/44,   │     │ router       ├── mirror
//!                 │       │  broken RA,  │     │              ├── sc24.supercomputing.org
//!            raspberry pi │  rogue DHCP) │     │              ├── vpn / vtc / echolink
//!            (DNS64 + 108 └──────────────┘     └──────────────┘└── 9.9.9.9
//!             + poisoned dnsmasq)
//! ```

use crate::nodes::{InternetRouter, PiServer, PublicDns};
use crate::zones::addrs;
use v6dns::poison::PoisonPolicy;
use v6host::profiles::OsProfile;
use v6host::stack::Host;
use v6host::tasks::{AppTask, TaskOutcome};
use v6portal::server::{PortalServer, VhostContent};
use v6sim::engine::{Network, NodeId, TraceMode};
use v6sim::gateway::{FiveGGateway, LAN, WAN};
use v6sim::l2::Switch;
use v6sim::time::SimTime;

/// Maximum clients a single testbed instance supports.
pub const MAX_HOSTS: usize = 48;

/// Knobs for building testbed variants.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Deploy the managed switch (RA injection + DHCP snooping). `false`
    /// reproduces the raw-gateway condition of Fig. 3.
    pub managed_switch: bool,
    /// Deploy the Pi's DHCP server (option 108).
    pub pi_dhcp: bool,
    /// The IPv4 DNS intervention policy on the Pi's dnsmasq.
    pub poison: PoisonPolicy,
    /// Fig. 8 knob: block legacy IPv4 internet at the gateway.
    pub block_v4_internet: bool,
    /// How much the engine records per delivered frame. Figure/golden
    /// paths want [`TraceMode::Full`] (the default); fleet cells run
    /// [`TraceMode::Off`], since no fleet result carries a trace.
    pub trace: TraceMode,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            managed_switch: true,
            pi_dhcp: true,
            poison: PoisonPolicy::WildcardA {
                answer: addrs::IP6ME_V4.parse().expect("static ip"),
                ttl: 60,
            },
            block_v4_internet: false,
            trace: TraceMode::Full,
        }
    }
}

/// A built testbed.
///
/// ```
/// use v6host::profiles::OsProfile;
/// use v6host::tasks::{AppTask, TaskOutcome};
/// use v6testbed::Testbed;
///
/// let mut tb = Testbed::paper_default();
/// let console = tb.add_host(OsProfile::nintendo_switch()); // IPv4-only
/// tb.boot();
/// let o = tb.run_task(console, AppTask::Browse {
///     name: "sc24.supercomputing.org".parse().unwrap(),
///     path: "/".into(),
/// }, 25);
/// // The poisoned A record delivered the IPv6-only explanation page:
/// assert!(matches!(o, TaskOutcome::HttpOk { body, .. } if body.contains("helpdesk")));
/// ```
pub struct Testbed {
    /// The simulation.
    pub net: Network,
    /// Node ids.
    pub gw: NodeId,
    /// Managed (or dumb) switch.
    pub sw: NodeId,
    /// Raspberry Pi server.
    pub pi: NodeId,
    /// Internet core router.
    pub internet: NodeId,
    /// ip6.me portal.
    pub ip6me: NodeId,
    /// test-ipv6.com mirror.
    pub mirror: NodeId,
    /// sc24.supercomputing.org (v4-only web).
    pub sc24: NodeId,
    /// VPN concentrator.
    pub vpnsrv: NodeId,
    /// VTC provider (v4-only, port 443).
    pub vtc: NodeId,
    /// Echolink-style literal-v4 service.
    pub echolink: NodeId,
    /// 9.9.9.9.
    pub public_dns: NodeId,
    /// Client hosts in attach order.
    pub hosts: Vec<NodeId>,
    next_host_port: u32,
}

impl Testbed {
    /// Build the topology (no clients yet).
    pub fn build(config: TestbedConfig) -> Testbed {
        let mut net = Network::new();
        net.trace_mode = config.trace;
        let mut gw_node = FiveGGateway::new("5g-gw");
        gw_node.block_v4_internet = config.block_v4_internet;
        let gw = net.add_node(Box::new(gw_node));
        let sw = if config.managed_switch {
            net.add_node(Box::new(Switch::managed(
                "managed-sw",
                2 + MAX_HOSTS as u32,
                0,
            )))
        } else {
            net.add_node(Box::new(Switch::new("dumb-sw", 2 + MAX_HOSTS as u32)))
        };
        let pi = net.add_node(Box::new(PiServer::new(config.poison, config.pi_dhcp)));
        let mut router = InternetRouter::new("internet");
        // Port plan: 0 gw, 1 ip6me, 2 mirror, 3 sc24, 4 vpn, 5 vtc,
        // 6 echolink, 7 public dns.
        router
            .route_v4("100.64.0.0/10", 0)
            .route_v4(&format!("{}/32", addrs::IP6ME_V4), 1)
            .route_v4(&format!("{}/32", addrs::MIRROR_V4), 2)
            .route_v4(&format!("{}/32", addrs::SC24_V4), 3)
            .route_v4(&format!("{}/32", addrs::VPN_V4), 4)
            .route_v4(&format!("{}/32", addrs::VTC_V4), 5)
            .route_v4(&format!("{}/32", addrs::ECHOLINK_V4), 6)
            .route_v4(&format!("{}/32", addrs::PUBLIC_DNS_V4), 7)
            .route_v6("2607:fb90::/32", 0)
            .route_v6(&format!("{}/128", addrs::IP6ME_V6), 1)
            .route_v6(&format!("{}/128", addrs::MIRROR_V6), 2);
        let internet = net.add_node(Box::new(router));

        let ip6me = net.add_node(Box::new(PortalServer::ip6me()));
        let mirror = net.add_node(Box::new(PortalServer::mirror()));
        let sc24 = net.add_node(Box::new(
            PortalServer::new(
                "sc24-web",
                vec![addrs::SC24_V4.parse().expect("static ip")],
                vec![],
            )
            .with_vhost(
                "sc24.supercomputing.org",
                VhostContent::Fixed("SC24: the international conference for HPC\n".into()),
            ),
        ));
        let mut vpn_node = PortalServer::new(
            "vpn-concentrator",
            vec![addrs::VPN_V4.parse().expect("static ip")],
            vec![],
        );
        vpn_node.tcp_ports = vec![443];
        let vpnsrv = net.add_node(Box::new(vpn_node));
        let mut vtc_node = PortalServer::new(
            "vtc-provider",
            vec![addrs::VTC_V4.parse().expect("static ip")],
            vec![],
        );
        vtc_node.tcp_ports = vec![443, 80];
        let vtc = net.add_node(Box::new(vtc_node));
        let mut echolink_node = PortalServer::new(
            "echolink-svc",
            vec![addrs::ECHOLINK_V4.parse().expect("static ip")],
            vec![],
        );
        echolink_node.tcp_ports = vec![5198];
        let echolink = net.add_node(Box::new(echolink_node));
        let public_dns = net.add_node(Box::new(PublicDns::new()));

        // Wiring. Switch port 0 = Pi (the snoop-trusted port), 1 = gateway.
        net.link(sw, 0, pi, 0, SimTime::from_micros(50));
        net.link(sw, 1, gw, LAN, SimTime::from_micros(50));
        net.link(gw, WAN, internet, 0, SimTime::from_millis(20));
        net.link(internet, 1, ip6me, 0, SimTime::from_millis(5));
        net.link(internet, 2, mirror, 0, SimTime::from_millis(5));
        net.link(internet, 3, sc24, 0, SimTime::from_millis(5));
        net.link(internet, 4, vpnsrv, 0, SimTime::from_millis(5));
        net.link(internet, 5, vtc, 0, SimTime::from_millis(5));
        net.link(internet, 6, echolink, 0, SimTime::from_millis(5));
        net.link(internet, 7, public_dns, 0, SimTime::from_millis(5));

        Testbed {
            net,
            gw,
            sw,
            pi,
            internet,
            ip6me,
            mirror,
            sc24,
            vpnsrv,
            vtc,
            echolink,
            public_dns,
            hosts: Vec::new(),
            next_host_port: 2,
        }
    }

    /// Default testbed with the wildcard-A intervention armed.
    pub fn paper_default() -> Testbed {
        Testbed::build(TestbedConfig::default())
    }

    /// Restore the testbed to its post-[`Testbed::build`] state without
    /// reallocating nodes, links, or zones — the warm-cell path.
    ///
    /// The engine recycles its queue, clock, frame pool, trace buffers,
    /// fault state, and every counter; each infrastructure node resets
    /// its dynamic state (NAT bindings, DNS caches, DHCP leases, MAC
    /// tables, flow logs). Per-cell knobs (`block_v4_internet`, trace
    /// mode) are re-applied from `config`. The topology-shaping knobs
    /// (`managed_switch`, `pi_dhcp`, `poison`) must match what the
    /// testbed was built with: they choose *which nodes exist*, which a
    /// recycle cannot change — the cell arena keys arenas by exactly
    /// those knobs so the invariant holds by construction.
    ///
    /// Attached hosts are *not* reset here (a recycled host would keep
    /// a stale OS profile); the warm path swaps them wholesale via
    /// [`Testbed::set_host_seeded`].
    pub fn recycle(&mut self, config: &TestbedConfig) {
        self.net.recycle();
        self.net.trace_mode = config.trace;
        {
            let gw = self.net.node_mut::<FiveGGateway>(self.gw);
            gw.reset();
            gw.block_v4_internet = config.block_v4_internet;
        }
        self.net.node_mut::<Switch>(self.sw).reset();
        self.net.node_mut::<PiServer>(self.pi).reset();
        self.net.node_mut::<InternetRouter>(self.internet).reset();
        for portal in [
            self.ip6me,
            self.mirror,
            self.sc24,
            self.vpnsrv,
            self.vtc,
            self.echolink,
        ] {
            self.net.node_mut::<PortalServer>(portal).reset();
        }
        self.net.node_mut::<PublicDns>(self.public_dns).reset();
    }

    /// Attach a client with the given OS profile. Must be called before the
    /// first `run_*`.
    pub fn add_host(&mut self, profile: OsProfile) -> NodeId {
        let seed = 0x1000 + self.hosts.len() as u64;
        self.add_host_seeded(profile, seed)
    }

    /// Attach a client with an explicit RNG seed, so independent scenario
    /// runs (the fleet) can give every host its own deterministic stream.
    pub fn add_host_seeded(&mut self, profile: OsProfile, seed: u64) -> NodeId {
        assert!(
            self.hosts.len() < MAX_HOSTS,
            "testbed supports at most {MAX_HOSTS} hosts"
        );
        let name = format!("host{}-{}", self.hosts.len(), profile.name);
        let id = self.net.add_node(Box::new(Host::new(name, profile, seed)));
        self.net.link(
            self.sw,
            self.next_host_port,
            id,
            0,
            SimTime::from_micros(50),
        );
        self.next_host_port += 1;
        self.hosts.push(id);
        id
    }

    /// Attach the single-client cell's host, warm-path aware: the first
    /// call links a fresh host exactly like [`Testbed::add_host_seeded`];
    /// on a recycled testbed the existing host node is replaced in place
    /// (the switch port stays linked), so the node id — and therefore
    /// event ordering — is identical to a cold build.
    pub fn set_host_seeded(&mut self, profile: OsProfile, seed: u64) -> NodeId {
        match self.hosts.first().copied() {
            Some(id) => {
                debug_assert_eq!(self.hosts.len(), 1, "warm path supports one host");
                let name = format!("host0-{}", profile.name);
                self.net
                    .replace_node(id, Box::new(Host::new(name, profile, seed)));
                id
            }
            None => self.add_host_seeded(profile, seed),
        }
    }

    /// Run the simulation for `secs` simulated seconds.
    pub fn run_secs(&mut self, secs: u64) {
        self.net.run_for(SimTime::from_secs(secs));
    }

    /// Let every client finish autoconfiguration (SLAAC + DHCP + RFC 8925).
    pub fn boot(&mut self) {
        self.net.run_until(SimTime::from_secs(15));
    }

    /// Borrow a host.
    pub fn host(&mut self, id: NodeId) -> &mut Host {
        self.net.node_mut::<Host>(id)
    }

    /// Borrow the gateway.
    pub fn gateway(&mut self) -> &mut FiveGGateway {
        self.net.node_mut::<FiveGGateway>(self.gw)
    }

    /// Borrow the Pi.
    pub fn pi_server(&mut self) -> &mut PiServer {
        self.net.node_mut::<PiServer>(self.pi)
    }

    /// Borrow a portal by node id.
    pub fn portal(&mut self, id: NodeId) -> &mut PortalServer {
        self.net.node_mut::<PortalServer>(id)
    }

    /// Start a task on `host`.
    pub fn start_task(&mut self, host: NodeId, task: AppTask) -> u64 {
        self.net
            .with_node::<Host, _>(host, |h, ctx| h.run_task(task, ctx))
    }

    /// Start a task, run up to `max_secs`, and return its outcome.
    pub fn run_task(&mut self, host: NodeId, task: AppTask, max_secs: u64) -> TaskOutcome {
        let tid = self.start_task(host, task);
        let deadline = self.net.now() + SimTime::from_secs(max_secs);
        loop {
            if let Some(o) = self.host(host).outcome(tid) {
                return o.clone();
            }
            if self.net.now() >= deadline {
                return self
                    .host(host)
                    .outcome(tid)
                    .cloned()
                    .unwrap_or(TaskOutcome::Unreachable);
            }
            let step_to = self.net.now() + SimTime::from_millis(200);
            self.net.run_until(step_to.min(deadline));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::IpAddr;

    #[test]
    fn full_topology_browse_paths() {
        let mut tb = Testbed::paper_default();
        let mac = tb.add_host(OsProfile::macos()); // RFC 8925 client
        let win10 = tb.add_host(OsProfile::windows_10()); // dual-stack
        let switch = tb.add_host(OsProfile::nintendo_switch()); // v4-only
        tb.boot();

        // RFC 8925 client is v6-only and reaches the v4-only sc24 site via
        // DNS64+NAT64.
        assert!(tb.host(mac).v6only_mode);
        let o = tb.run_task(
            mac,
            AppTask::Browse {
                name: "sc24.supercomputing.org".parse().unwrap(),
                path: "/".into(),
            },
            20,
        );
        match &o {
            TaskOutcome::HttpOk { status, peer, .. } => {
                assert_eq!(*status, 200);
                assert!(
                    matches!(peer, IpAddr::V6(a) if a.to_string().starts_with("64:ff9b::")),
                    "reached via NAT64: {peer}"
                );
            }
            other => panic!("mac browse failed: {other:?}"),
        }

        // The dual-stack Win10 client browses ip6.me over genuine v6.
        let o = tb.run_task(
            win10,
            AppTask::Browse {
                name: "ip6.me".parse().unwrap(),
                path: "/".into(),
            },
            20,
        );
        match &o {
            TaskOutcome::HttpOk { peer, body, .. } => {
                assert!(matches!(peer, IpAddr::V6(_)), "AAAA preferred: {peer}");
                assert!(body.contains("IPv6 connectivity confirmed"), "{body}");
            }
            other => panic!("win10 browse failed: {other:?}"),
        }

        // The v4-only Switch is intercepted: every site becomes ip6.me's v4
        // address and the page explains why.
        let o = tb.run_task(
            switch,
            AppTask::Browse {
                name: "sc24.supercomputing.org".parse().unwrap(),
                path: "/".into(),
            },
            20,
        );
        match &o {
            TaskOutcome::HttpOk { peer, body, .. } => {
                assert_eq!(*peer, IpAddr::V4(addrs::IP6ME_V4.parse().unwrap()));
                assert!(body.contains("visit the SCinet helpdesk"), "{body}");
            }
            other => panic!("switch intervention failed: {other:?}"),
        }
    }
}
