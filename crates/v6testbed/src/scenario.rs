//! Enumerable, seedable single-client runs — the unit of work for the
//! fleet runner (`v6fleet`).
//!
//! A [`Scenario`] names one cell of the paper's Fig. 4 evaluation space:
//! an interned OS profile, a topology variant (with or without the
//! managed switch + Raspberry Pi), an IPv4 DNS intervention policy, a
//! fault regime, and an RNG seed for the client. It is a 16-byte `Copy`
//! value: the matrix enumerates it and the population sampler draws it
//! ([`CellSpec`] is the same type). [`Scenario::run`] builds a fresh
//! testbed, boots the client, browses the IPv4-only conference site and
//! dual-stack ip6.me, and returns a plain-data [`ScenarioResult`]: the
//! cell itself, its [`CellObservation`] and the full
//! [`MetricsSnapshot`]. Everything in the result is `Clone + Eq`, so
//! two runs of the same scenario can be compared field-for-field — the
//! property the fleet's determinism tests rely on.

use crate::arena::CellArena;
use crate::census::accurate_counted;
use crate::topology::{Testbed, TestbedConfig};
use crate::zones::{addrs, delegated_internet_dns};
use std::net::IpAddr;
use std::sync::OnceLock;
use v6dns::poison::PoisonPolicy;
pub use v6dns::server::ResolutionFailure;
use v6host::profiles::OsProfile;
use v6host::tasks::{AppTask, TaskOutcome};
use v6sim::engine::TraceMode;
use v6sim::fault::{EndpointMatch, FaultPlan, Impairment, LinkFault, Outage};
use v6sim::metrics::MetricsSnapshot;

/// Which physical build of Fig. 4 the scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyVariant {
    /// The paper's production testbed: managed switch (RA injection +
    /// DHCP snooping) and the Raspberry Pi's DHCP server.
    PaperDefault,
    /// The Fig. 3 "before" condition: dumb switch, no Pi DHCP — clients
    /// see only the 5G gateway's broken announcements.
    RawGateway,
}

impl TopologyVariant {
    /// All variants, in matrix order.
    pub const ALL: [TopologyVariant; 2] =
        [TopologyVariant::PaperDefault, TopologyVariant::RawGateway];

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TopologyVariant::PaperDefault => "paper",
            TopologyVariant::RawGateway => "raw-gw",
        }
    }
}

/// Which IPv4 DNS intervention the Pi's dnsmasq applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonVariant {
    /// No intervention (SC23 control condition).
    Off,
    /// dnsmasq `address=/#/…` wildcard-A (the paper's deployed config).
    WildcardA,
    /// The conclusion's BIND9 RPZ-style rewrite (existing names only).
    Rpz,
}

impl PoisonVariant {
    /// All variants, in matrix order.
    pub const ALL: [PoisonVariant; 3] = [
        PoisonVariant::Off,
        PoisonVariant::WildcardA,
        PoisonVariant::Rpz,
    ];

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PoisonVariant::Off => "off",
            PoisonVariant::WildcardA => "wildcard-a",
            PoisonVariant::Rpz => "rpz",
        }
    }

    /// The concrete policy (interventions answer with ip6.me's address,
    /// as deployed).
    pub fn policy(self) -> PoisonPolicy {
        let answer = addrs::IP6ME_V4.parse().expect("static ip");
        match self {
            PoisonVariant::Off => PoisonPolicy::Off,
            PoisonVariant::WildcardA => PoisonPolicy::WildcardA { answer, ttl: 60 },
            PoisonVariant::Rpz => PoisonPolicy::ResponsePolicyZone { answer, ttl: 60 },
        }
    }
}

/// Which failure regime the scenario runs under — the fault dimension of
/// the evaluation matrix. `Clean` installs nothing and stays bit-identical
/// to the pre-fault testbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultVariant {
    /// Perfect network (the original matrix).
    #[default]
    Clean,
    /// The 5G uplink degrades: loss, latency, jitter, reordering,
    /// duplication, plus a mid-run link flap.
    LossyUplink,
    /// The Raspberry Pi (DNS64 + poisoned dnsmasq + DHCP) goes dark for a
    /// crash-and-restart window right as the browse workload starts.
    Dns64Outage,
    /// The carrier NAT64's translation table is already saturated by other
    /// subscribers: no new bindings, existing ones keep refreshing.
    Nat64Exhaustion,
    /// The global DNS is published as a *delegation tree* and the Pi's
    /// resolver walks it iteratively over IPv6 only — but the `org`
    /// parent's glue for `supercomputing.org` is A-only, so the poisoned
    /// and DNS64 paths both fail sc24 resolution with the classified
    /// reason `no-aaaa-glue` instead of a timeout.
    BrokenDelegation,
}

impl FaultVariant {
    /// All variants, in matrix order.
    pub const ALL: [FaultVariant; 5] = [
        FaultVariant::Clean,
        FaultVariant::LossyUplink,
        FaultVariant::Dns64Outage,
        FaultVariant::Nat64Exhaustion,
        FaultVariant::BrokenDelegation,
    ];

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultVariant::Clean => "clean",
            FaultVariant::LossyUplink => "lossy-uplink",
            FaultVariant::Dns64Outage => "dns64-outage",
            FaultVariant::Nat64Exhaustion => "nat64-exhaustion",
            FaultVariant::BrokenDelegation => "broken-delegation",
        }
    }

    /// This variant's position in [`FaultVariant::ALL`] — the index the
    /// population census keys its fault-mix row by.
    pub fn index(self) -> usize {
        match self {
            FaultVariant::Clean => 0,
            FaultVariant::LossyUplink => 1,
            FaultVariant::Dns64Outage => 2,
            FaultVariant::Nat64Exhaustion => 3,
            FaultVariant::BrokenDelegation => 4,
        }
    }

    /// The seeded [`FaultPlan`] this variant installs (keyed to the
    /// testbed's node names). `Clean`, `Nat64Exhaustion` and
    /// `BrokenDelegation` return the no-op plan — those are device-state
    /// conditions, not link impairments.
    pub fn plan(self, seed: u64) -> FaultPlan {
        match self {
            FaultVariant::Clean
            | FaultVariant::Nat64Exhaustion
            | FaultVariant::BrokenDelegation => FaultPlan::default(),
            FaultVariant::LossyUplink => FaultPlan {
                seed,
                links: vec![LinkFault {
                    on: EndpointMatch::between("5g-gw", "internet"),
                    impairment: Impairment {
                        drop_per_mille: 25,
                        extra_latency_us: 20_000,
                        jitter_us: 15_000,
                        reorder_per_mille: 40,
                        reorder_window_us: 20_000,
                        duplicate_per_mille: 15,
                        ..Impairment::default()
                    },
                }],
                // A short flap while the browse workload is in flight.
                outages: vec![Outage {
                    on: EndpointMatch::between("5g-gw", "internet"),
                    start_us: 16_000_000,
                    end_us: 16_600_000,
                }],
            },
            FaultVariant::Dns64Outage => FaultPlan {
                seed,
                links: Vec::new(),
                // The Pi crashes exactly as the post-boot workload starts
                // (boot ends at 15 s) and is back 2.4 s later: long enough
                // that the fixed-timeout stub of old would have declared
                // DNS dead, short enough that backoff retransmission
                // recovers within the task deadline.
                outages: vec![Outage {
                    on: EndpointMatch::node("raspberry-pi"),
                    start_us: 15_000_000,
                    end_us: 17_400_000,
                }],
            },
        }
    }

    /// NAT64 binding cap this variant imposes on the gateway.
    pub fn nat64_binding_cap(self) -> Option<usize> {
        match self {
            FaultVariant::Nat64Exhaustion => Some(0),
            _ => None,
        }
    }
}

/// Index into the interned paper profile table ([`os_profiles`]).
///
/// Population-scale sampling draws millions of cells; interning the
/// eleven [`OsProfile`]s once and passing a two-byte id around makes a
/// sampled cell plain table-driven data (`Copy`, no strings) instead of
/// a freshly constructed profile per sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OsProfileId(pub u16);

/// The interned paper profile table, built once per process. Order is
/// [`OsProfile::all_paper_profiles`] order, so ids are stable for the
/// life of the program *and* across processes (the population sampler's
/// determinism relies on that).
pub fn os_profiles() -> &'static [OsProfile] {
    static TABLE: OnceLock<Vec<OsProfile>> = OnceLock::new();
    TABLE.get_or_init(OsProfile::all_paper_profiles)
}

impl OsProfileId {
    /// The interned profile this id names. Panics on an out-of-table id
    /// (ids only ever come from enumerating [`os_profiles`]).
    pub fn profile(self) -> &'static OsProfile {
        &os_profiles()[self.0 as usize]
    }

    /// The profile's display name.
    pub fn name(self) -> &'static str {
        &self.profile().name
    }

    /// Every id in table order.
    pub fn all() -> impl Iterator<Item = OsProfileId> {
        (0..os_profiles().len() as u16).map(OsProfileId)
    }

    /// Look an id up by profile display name — the inverse of
    /// [`OsProfileId::name`]; `None` for a name not in the table.
    pub fn by_name(name: &str) -> Option<OsProfileId> {
        OsProfileId::all().find(|id| id.name() == name)
    }
}

/// The population sampler's name for a cell: the same `Copy` value as
/// [`Scenario`].
pub type CellSpec = Scenario;

/// Address family a task completed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathFamily {
    /// Completed against an IPv6 peer.
    V6,
    /// Completed against an IPv4 peer.
    V4,
    /// Did not complete.
    Fail,
}

impl PathFamily {
    fn of(o: &TaskOutcome) -> PathFamily {
        match o.peer() {
            Some(IpAddr::V6(_)) => PathFamily::V6,
            Some(IpAddr::V4(_)) => PathFamily::V4,
            None => PathFamily::Fail,
        }
    }

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PathFamily::V6 => "v6",
            PathFamily::V4 => "v4",
            PathFamily::Fail => "fail",
        }
    }
}

/// One cell of the Fig. 4 evaluation matrix, and of a sampled
/// population: every dimension is a `Copy` index or variant, the OS
/// profile an id into the interned table, so a million sampled cells
/// clone no profile strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Interned OS profile of the client under test.
    pub os: OsProfileId,
    /// Which build of the topology it attaches to.
    pub topology: TopologyVariant,
    /// The IPv4 DNS intervention in force.
    pub poison: PoisonVariant,
    /// The failure regime injected into the build.
    pub fault: FaultVariant,
    /// RNG seed for the client's stack.
    pub seed: u64,
}

impl Scenario {
    /// The full matrix: every paper OS profile × every topology variant
    /// × every poison policy, with seeds derived from `base_seed` so two
    /// matrices built from the same base are identical. All cells run
    /// clean; use [`Scenario::matrix_with_fault`] for an impaired sweep.
    pub fn matrix(base_seed: u64) -> Vec<Scenario> {
        Self::matrix_with_fault(base_seed, FaultVariant::Clean)
    }

    /// The same matrix with every cell run under `fault`. Seeds depend
    /// only on `base_seed` and cell index, so the clean and impaired
    /// matrices are cell-for-cell comparable.
    pub fn matrix_with_fault(base_seed: u64, fault: FaultVariant) -> Vec<Scenario> {
        let mut out = Vec::new();
        for topology in TopologyVariant::ALL {
            for poison in PoisonVariant::ALL {
                for os in OsProfileId::all() {
                    let seed = base_seed.wrapping_add(out.len() as u64);
                    out.push(Scenario {
                        os,
                        topology,
                        poison,
                        fault,
                        seed,
                    });
                }
            }
        }
        out
    }

    /// Stable human-readable identifier (used as the report key). Clean
    /// runs keep the historical three-part label so pre-fault reports
    /// stay byte-identical; impaired runs append the fault dimension.
    pub fn label(&self) -> String {
        let fault = match self.fault {
            FaultVariant::Clean => String::new(),
            f => format!("/{}", f.label()),
        };
        format!(
            "{}/{}/{}{}/seed{}",
            self.topology.label(),
            self.poison.label(),
            self.os.name(),
            fault,
            self.seed
        )
    }

    /// Fault-independent cell key: topology/poison/OS/seed. Two matrices
    /// built from the same base seed share cell keys across fault
    /// variants, which is what lets a run manifest differ line up the
    /// clean and impaired verdicts for the same population.
    pub fn cell_label(&self) -> String {
        format!(
            "{}/{}/{}/seed{}",
            self.topology.label(),
            self.poison.label(),
            self.os.name(),
            self.seed
        )
    }

    /// This cell as a [`CellSpec`] — always `Some`, since both names
    /// denote one type. Kept because the benchmark harness
    /// (`perfbench/src/layers.rs`) calls it.
    pub fn cell_spec(&self) -> Option<CellSpec> {
        Some(*self)
    }

    /// Stable 64-bit digest of the scenario's configuration — every
    /// matrix dimension plus the seed and the resolved fault plan — for
    /// the run-manifest config section. A pure function of `self`,
    /// reproducible across processes.
    pub fn digest(&self) -> u64 {
        // FNV-1a over the label text covers topology, poison, OS and
        // seed; folding in the fault plan digest covers everything the
        // fault dimension resolves to (including the seed it samples
        // with and the NAT64 binding cap variant).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.label().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let cap = match self.fault.nat64_binding_cap() {
            Some(c) => c as u64 + 1,
            None => 0,
        };
        h ^ self.fault.plan(self.seed).digest().rotate_left(31) ^ cap
    }

    /// Build a fresh testbed, run this cell, and collect everything.
    ///
    /// Entirely driven by the virtual clock and the scenario seed: the
    /// result is a pure function of `self`, which is what lets the
    /// fleet runner execute scenarios on any thread in any order and
    /// still aggregate a deterministic report. The testbed is the first
    /// use of a fresh [`CellArena`]: a cold build.
    pub fn run(&self) -> ScenarioResult {
        CellArena::new().run(*self)
    }

    /// Run the cell on a freshly built testbed and collect only the
    /// compact, `Copy` census row — no [`MetricsSnapshot`] (which clones
    /// every node name and counter map). It equals [`Scenario::run`]'s
    /// `verdict`: both come from the one classification in
    /// `observe_cell`.
    pub fn run_observation(&self) -> CellObservation {
        CellArena::new().run_observation(*self)
    }
}

/// The [`TestbedConfig`] a cell's (topology, poison) dimensions
/// resolve to. These are exactly the build-time knobs — everything else
/// a cell varies (fault plan, NAT64 cap, host profile, seed) is applied
/// per run by [`observe_cell`], which is what makes testbeds reusable
/// across cells that share this config. Cells run untraced: no result
/// carries the frame trace.
pub(crate) fn cell_config(topology: TopologyVariant, poison: PoisonVariant) -> TestbedConfig {
    let managed = topology == TopologyVariant::PaperDefault;
    TestbedConfig {
        managed_switch: managed,
        pi_dhcp: managed,
        poison: poison.policy(),
        block_v4_internet: false,
        trace: TraceMode::Off,
    }
}

/// Install the per-cell state on a post-build (or recycled) testbed,
/// boot the client, run the browse workload, and classify the outcome —
/// the one place a cell's census row is decided. Every path (fresh
/// build or recycled [`CellArena`] slot, observation or full result)
/// runs exactly this body, in exactly this order — the conditional
/// fault install mirrors the fact that a fresh build never sees
/// `set_fault_plan` for a no-op plan, so `fault_active` agrees.
pub(crate) fn observe_cell(tb: &mut Testbed, cell: &Scenario) -> CellObservation {
    let Scenario {
        os, fault, seed, ..
    } = *cell;
    let plan = fault.plan(seed);
    if !plan.is_noop() {
        tb.net.set_fault_plan(plan);
    }
    if let Some(cap) = fault.nat64_binding_cap() {
        tb.gateway().nat64.set_max_bindings(Some(cap));
    }
    if fault == FaultVariant::BrokenDelegation {
        // Swap the Pi's flat DNS database for the delegation tree walked
        // iteratively over IPv6 only. `PiServer::reset` reinstalls the
        // flat database, so a recycled testbed starts from the same state
        // as a cold build.
        tb.pi_server().install_global_dns(delegated_internet_dns());
    }
    let id = tb.set_host_seeded(os.profile().clone(), seed);
    tb.boot();
    // The workload names are constants; parse them once per process and
    // hand out clones (a DnsName clone is a reference-count bump).
    static SC24_NAME: std::sync::OnceLock<v6dns::name::DnsName> = std::sync::OnceLock::new();
    static IP6ME_NAME: std::sync::OnceLock<v6dns::name::DnsName> = std::sync::OnceLock::new();
    let sc24 = tb.run_task(
        id,
        AppTask::Browse {
            name: SC24_NAME
                .get_or_init(|| "sc24.supercomputing.org".parse().expect("static name"))
                .clone(),
            path: "/".into(),
        },
        25,
    );
    let ip6me = tb.run_task(
        id,
        AppTask::Browse {
            name: IP6ME_NAME
                .get_or_init(|| "ip6.me".parse().expect("static name"))
                .clone(),
            path: "/".into(),
        },
        25,
    );
    let intervened = matches!(
        (&sc24, &ip6me),
        (TaskOutcome::HttpOk { body, .. }, _) | (_, TaskOutcome::HttpOk { body, .. })
            if body.contains("helpdesk")
    );
    let h = tb.host(id);
    let rfc8925_engaged = h.v6only_mode;
    let has_v6 = h.v6_global_active();
    let has_v4 = h.v4_active();
    let dns_failure = h.dns_failure();
    let degraded = tb.net.fault_frames_dropped() > 0 || tb.gateway().nat64.dropped_table_full > 0;
    CellObservation {
        rfc8925_engaged,
        has_v4,
        sc24: PathFamily::of(&sc24),
        ip6me: PathFamily::of(&ip6me),
        intervened,
        naive_counted: true,
        accurate_counted: accurate_counted(has_v6, has_v4),
        degraded,
        dns_failure,
        completed_us: tb.net.now().as_micros(),
        events: tb.net.events_processed(),
    }
}

/// The compact, `Copy` observation of one cell — its verdict and census
/// row, everything a census counts, and nothing else. `observe_cell`
/// is the only code that builds one; every census (population sketch,
/// fleet report, manifest) counts these, so the streaming and
/// materializing aggregations agree by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellObservation {
    /// RFC 8925 engaged after boot (IPv4 administratively off).
    pub rfc8925_engaged: bool,
    /// Client still holds an IPv4 data path.
    pub has_v4: bool,
    /// Family that reached the IPv4-only conference site.
    pub sc24: PathFamily,
    /// Family that reached dual-stack ip6.me.
    pub ip6me: PathFamily,
    /// Client was redirected to the intervention page.
    pub intervened: bool,
    /// Counted by the SC23-style naive census.
    pub naive_counted: bool,
    /// Counted by the SC24-style accurate census.
    pub accurate_counted: bool,
    /// Injected faults visibly bit (fault drops or NAT64 refusals).
    pub degraded: bool,
    /// Most severe classified resolution failure the client saw
    /// (lowest [`ResolutionFailure::index`] wins), if any.
    pub dns_failure: Option<ResolutionFailure>,
    /// Virtual microseconds at which the cell finished.
    pub completed_us: u64,
    /// Engine events the cell processed.
    pub events: u64,
}

/// Everything one scenario run produced — plain data, `Clone + Eq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioResult {
    /// The cell that ran.
    pub scenario: Scenario,
    /// The cell's classification and census row.
    pub verdict: CellObservation,
    /// Full engine + per-node counter snapshot at the end of the run.
    pub metrics: MetricsSnapshot,
}

impl ScenarioResult {
    /// Paper-style one-line rendering.
    pub fn render(&self) -> String {
        format!(
            "{:<48} rfc8925={:<5} v4-path={:<5} sc24=via-{:<4} ip6me=via-{:<4} intervened={}",
            self.scenario.label(),
            self.verdict.rfc8925_engaged,
            self.verdict.has_v4,
            self.verdict.sc24.label(),
            self.verdict.ip6me.label(),
            self.verdict.intervened,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn os(name: &str) -> OsProfileId {
        OsProfileId::by_name(name).expect("paper profile")
    }

    fn cell(
        name: &str,
        topology: TopologyVariant,
        poison: PoisonVariant,
        fault: FaultVariant,
        seed: u64,
    ) -> Scenario {
        Scenario {
            os: os(name),
            topology,
            poison,
            fault,
            seed,
        }
    }

    #[test]
    fn matrix_covers_the_full_cross_product() {
        let m = Scenario::matrix(1);
        assert_eq!(
            m.len(),
            os_profiles().len() * TopologyVariant::ALL.len() * PoisonVariant::ALL.len()
        );
        // Labels are unique (they key the fleet report).
        let mut labels: Vec<String> = m.iter().map(Scenario::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), m.len());
    }

    #[test]
    fn cell_labels_are_fault_invariant_and_digests_are_not() {
        let clean = Scenario::matrix(5);
        let faulted = Scenario::matrix_with_fault(5, FaultVariant::Dns64Outage);
        for (c, f) in clean.iter().zip(&faulted) {
            assert_eq!(
                c.cell_label(),
                f.cell_label(),
                "cell key ignores the fault dimension"
            );
            assert_ne!(c.digest(), f.digest(), "config digest does not");
            assert_eq!(c.digest(), c.digest(), "digest is a pure function");
        }
        let mut other_seed = clean[0];
        other_seed.seed += 1;
        assert_ne!(clean[0].digest(), other_seed.digest());
    }

    #[test]
    fn same_scenario_same_result() {
        let s = cell(
            "Nintendo Switch",
            TopologyVariant::PaperDefault,
            PoisonVariant::WildcardA,
            FaultVariant::Clean,
            42,
        );
        let a = s.run();
        let b = s.run();
        assert_eq!(a, b);
        assert_eq!(a.scenario, s, "the result carries its cell");
        assert!(a.verdict.intervened, "v4-only console gets the page");
        assert_eq!(a.verdict.sc24, PathFamily::V4);
    }

    #[test]
    fn observation_equals_the_full_result_verdict() {
        // Across a spread of cells — both topologies, an RFC 8925
        // client, a v4-only console, and every fault kind — the cheap
        // observation path must agree field-for-field with the verdict
        // of the full materialized result.
        use FaultVariant::*;
        use PoisonVariant::{Off, Rpz, WildcardA};
        use TopologyVariant::{PaperDefault, RawGateway};
        let cells = [
            cell("macOS", PaperDefault, WildcardA, Clean, 11),
            cell("Nintendo Switch", RawGateway, Off, Clean, 12),
            cell("Windows 10", PaperDefault, Rpz, LossyUplink, 13),
            cell("macOS", PaperDefault, WildcardA, Nat64Exhaustion, 14),
            cell("macOS", PaperDefault, WildcardA, BrokenDelegation, 15),
            cell("Windows 10", PaperDefault, WildcardA, Dns64Outage, 16),
            cell("Nintendo Switch", RawGateway, Rpz, Nat64Exhaustion, 17),
        ];
        for s in cells {
            let full = s.run();
            assert_eq!(full.verdict, s.run_observation(), "{} diverged", s.label());
            assert_eq!(full.verdict.events, full.metrics.engine.events_processed);
        }
    }

    #[test]
    fn trace_mode_never_perturbs_a_cell() {
        // Trace verbosity is a build input of the testbed, and pure
        // observation: a cell observed on testbeds built `Full`, `Hops`
        // and `Off` gives the same census row and the same metrics
        // snapshot. One cell per (topology, poison) pair, each with a
        // different OS, plus a faulted cell.
        let mut cells: Vec<Scenario> = Scenario::matrix(0x7ACE).into_iter().step_by(12).collect();
        assert_eq!(
            cells.len(),
            TopologyVariant::ALL.len() * PoisonVariant::ALL.len()
        );
        cells.push(Scenario {
            fault: FaultVariant::LossyUplink,
            ..cells[0]
        });
        for s in cells {
            let [full, hops, off] =
                [TraceMode::Full, TraceMode::Hops, TraceMode::Off].map(|trace| {
                    let mut tb = Testbed::build(TestbedConfig {
                        trace,
                        ..cell_config(s.topology, s.poison)
                    });
                    let verdict = observe_cell(&mut tb, &s);
                    (verdict, tb.net.metrics())
                });
            assert_eq!(full, hops, "{}: Full vs Hops diverged", s.label());
            assert_eq!(full, off, "{}: Full vs Off diverged", s.label());
        }
    }

    #[test]
    fn cell_spec_is_the_scenario_and_ids_round_trip() {
        let table = os_profiles();
        assert_eq!(table.len(), OsProfile::all_paper_profiles().len());
        for id in OsProfileId::all() {
            assert_eq!(id.name(), table[id.0 as usize].name);
            assert_eq!(OsProfileId::by_name(id.name()), Some(id));
        }
        assert_eq!(OsProfileId::by_name("BeOS"), None);
        let spec = CellSpec {
            os: OsProfileId(6), // macOS in table order
            topology: TopologyVariant::PaperDefault,
            poison: PoisonVariant::WildcardA,
            fault: FaultVariant::Clean,
            seed: 42,
        };
        assert_eq!(spec.os.name(), "macOS");
        assert_eq!(spec.cell_spec(), Some(spec));
        assert_eq!(spec.label(), "paper/wildcard-a/macOS/seed42");
    }

    #[test]
    fn broken_delegation_fails_sc24_with_classified_reason() {
        // A v6-only (RFC 8925) client resolving through the v4-only-glue
        // authoritative fails sc24 with `no-aaaa-glue` — a classified
        // failure, not a timeout — while dual-glue ip6.me keeps working.
        let s = cell(
            "macOS",
            TopologyVariant::PaperDefault,
            PoisonVariant::WildcardA,
            FaultVariant::BrokenDelegation,
            21,
        );
        let o = s.run_observation();
        assert_eq!(o.dns_failure, Some(ResolutionFailure::NoAaaaGlue));
        assert_eq!(o.sc24, PathFamily::Fail, "sc24 unreachable, classified");
        assert_eq!(o.ip6me, PathFamily::V6, "dual glue keeps resolving");
        // A v4-only console still gets the wildcard-A intervention: the
        // poisoned resolver answers A locally, never touching the tree.
        let s4 = Scenario {
            os: os("Nintendo Switch"),
            seed: 22,
            ..s
        };
        let o4 = s4.run_observation();
        assert!(o4.intervened, "the intervention survives the fault");
        assert_eq!(o4.dns_failure, None);
    }

    #[test]
    fn metrics_snapshot_sees_every_device() {
        let s = cell(
            "macOS",
            TopologyVariant::PaperDefault,
            PoisonVariant::WildcardA,
            FaultVariant::Clean,
            7,
        );
        let r = s.run();
        let m = &r.metrics;
        let gw = m.node("5g-gw").expect("gateway row");
        assert!(gw.link.frames_rx > 0 && gw.link.frames_tx > 0);
        assert!(
            gw.device.get("nat64.outbound") > 0,
            "RFC 8925 client reaches the v4-only site via NAT64: {}",
            gw.device
        );
        let pi = m.node("raspberry-pi").expect("pi row");
        assert!(pi.device.get("dns64.queries") > 0, "healthy resolver used");
        assert!(
            m.node("managed-sw")
                .expect("switch row")
                .device
                .get("forwarded")
                > 0
        );
        assert!(m.engine.events_processed > 0 && m.engine.queue_high_water > 0);
    }
}
