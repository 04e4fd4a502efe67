//! # v6testbed — the paper's IPv6-only testbed, assembled
//!
//! This is the primary contribution crate: it composes the substrates
//! (`v6sim`, `v6dns`, `v6dhcp`, `v6xlat`, `v6host`, `v6portal`) into the
//! paper's Figure 4 topology and exposes every experiment from the
//! evaluation as a callable function.
//!
//! * [`zones`] — the simulated internet's DNS content
//! * [`nodes`] — the Raspberry Pi server (healthy DNS64 + poisoned
//!   dnsmasq + DHCP w/ option 108), the internet router, public DNS
//! * [`topology`] — the [`topology::Testbed`] builder (managed switch,
//!   5G gateway, portals, clients)
//! * [`census`](mod@census) — IPv6-only client counting, naive (SC23) vs accurate
//!   (SC24) methodology
//! * [`experiments`] — one function per paper figure/table (see DESIGN.md's
//!   experiment index)
//! * [`scenario`] — the Fig. 4 matrix as enumerable, seedable
//!   [`scenario::Scenario`] cells for the `v6fleet` runner
//! * [`arena`] — warm-cell execution: per-worker reusable testbeds,
//!   recycled between cells instead of rebuilt, byte-identical to cold

#![warn(missing_docs)]

pub mod arena;
pub mod census;
pub mod experiments;
pub mod nodes;
pub mod scenario;
pub mod topology;
pub mod zones;

pub use arena::CellArena;
pub use census::{census, CensusEntry, CensusSummary};
pub use scenario::{
    os_profiles, CellObservation, CellSpec, OsProfileId, PathFamily, PoisonVariant, Scenario,
    ScenarioResult, TopologyVariant,
};
pub use topology::{Testbed, TestbedConfig};
/// Re-export of the engine's trace verbosity knob, so fleet callers can
/// pick a mode without a direct `v6sim` dependency.
pub use v6sim::engine::TraceMode;
