//! Per-node and engine-wide counters snapshotted by [`Network::metrics`].
//!
//! The engine tracks the physical-layer view for every node — frames and
//! bytes in each direction, transmit attempts on unlinked ports, timer
//! fires — while each device contributes its own protocol-level counters
//! through [`crate::engine::Node::device_metrics`]. A snapshot is plain
//! data (`Clone + Eq`), so fleet runs with the same seed can assert
//! byte-identical metrics, and it orders nodes by id and counters by
//! name so the rendered form is stable too.
//!
//! [`Network::metrics`]: crate::engine::Network::metrics

use std::fmt;
use v6wire::metrics::Metrics;

/// Engine-level totals across the whole [`crate::engine::Network`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Callbacks dispatched (start + frame + timer events).
    pub events_processed: u64,
    /// Frames handed to a receiving node's `on_frame`.
    pub frames_delivered: u64,
    /// Frames enqueued onto a link (delivery scheduled).
    pub frames_forwarded: u64,
    /// Transmit attempts on ports with no link (cable unplugged).
    pub frames_dropped_unlinked: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// High-water mark of the event queue length.
    pub queue_high_water: u64,
}

/// Injected-fault totals across the whole network (all zero unless a
/// non-default [`v6fault::FaultPlan`] is installed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Frames dropped by random loss.
    pub dropped: u64,
    /// Frames dropped inside a scheduled outage window.
    pub outage_dropped: u64,
    /// Frames delivered with extra delay (latency, jitter, reordering).
    pub delayed: u64,
    /// Extra copies scheduled beyond the original frame.
    pub duplicated: u64,
    /// Frames delivered with a flipped payload byte.
    pub corrupted: u64,
    /// Frames delivered cut to half length.
    pub truncated: u64,
    /// Microseconds of scheduled outage elapsed at snapshot time.
    pub outage_micros: u64,
}

impl FaultCounters {
    /// Frames the fault layer removed from the network entirely.
    pub fn total_dropped(&self) -> u64 {
        self.dropped + self.outage_dropped
    }
}

/// Frame-buffer pool totals for the whole network. `reused` growing while
/// `allocated` stays flat is the steady-state zero-allocation signature
/// the engine's hot path aims for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Fresh frame buffers allocated (pool was empty).
    pub allocated: u64,
    /// Frame buffers served from the recycle pool.
    pub reused: u64,
}

/// Trace/capture bookkeeping: hops and frames *not* recorded because the
/// respective cap was reached. Mode `Off` records nothing and suppresses
/// nothing — these count only cap overflow, so they are identical across
/// trace modes at default limits (the determinism tests rely on that).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Hops dropped because `trace_limit` was reached.
    pub suppressed: u64,
    /// Frames not pcap-captured because `capture_limit` was reached.
    pub capture_suppressed: u64,
}

/// The engine's physical-layer view of one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Frames the node transmitted (linked or not).
    pub frames_tx: u64,
    /// Frames delivered to the node.
    pub frames_rx: u64,
    /// Bytes the node transmitted.
    pub bytes_tx: u64,
    /// Bytes delivered to the node.
    pub bytes_rx: u64,
    /// Transmit attempts that hit an unlinked port.
    pub drops_unlinked: u64,
    /// Timer callbacks delivered to the node.
    pub timer_fires: u64,
}

/// One node's row in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMetrics {
    /// The node's [`crate::engine::Node::name`].
    pub name: String,
    /// Engine-tracked frame/byte/timer counters.
    pub link: LinkCounters,
    /// Device-specific counters from
    /// [`crate::engine::Node::device_metrics`].
    pub device: Metrics,
}

/// Everything [`crate::engine::Network::metrics`] knows at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Engine-wide totals.
    pub engine: EngineMetrics,
    /// Injected-fault totals (all zero on a clean run).
    pub faults: FaultCounters,
    /// Frame-buffer pool totals.
    pub pool: PoolCounters,
    /// Trace/capture cap-overflow totals.
    pub trace: TraceCounters,
    /// Per-node rows, ordered by node id.
    pub nodes: Vec<NodeMetrics>,
}

impl MetricsSnapshot {
    /// The row for the node named `name`, if any.
    pub fn node(&self, name: &str) -> Option<&NodeMetrics> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Sum of `frames_tx` over all nodes — by construction equal to
    /// `engine.frames_forwarded + engine.frames_dropped_unlinked`.
    pub fn total_frames_tx(&self) -> u64 {
        self.nodes.iter().map(|n| n.link.frames_tx).sum()
    }

    /// Sum of `frames_rx` over all nodes — equal to
    /// `engine.frames_delivered`.
    pub fn total_frames_rx(&self) -> u64 {
        self.nodes.iter().map(|n| n.link.frames_rx).sum()
    }
}

impl fmt::Display for MetricsSnapshot {
    /// Stable text form: engine totals, then one block per node in id
    /// order with device counters in name order. The pool and trace
    /// counters are left out: they describe how the engine allocated and
    /// what it recorded, not what the network did, and this text is what
    /// the committed manifests digest.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = &self.engine;
        writeln!(
            f,
            "engine: events={} delivered={} forwarded={} dropped_unlinked={} timers={} queue_high_water={}",
            e.events_processed,
            e.frames_delivered,
            e.frames_forwarded,
            e.frames_dropped_unlinked,
            e.timers_fired,
            e.queue_high_water,
        )?;
        // Clean runs render exactly as they always did; the fault line
        // only appears once something was actually injected.
        if self.faults != FaultCounters::default() {
            let fc = &self.faults;
            writeln!(
                f,
                "faults: dropped={} outage_dropped={} delayed={} duplicated={} corrupted={} truncated={} outage_secs={}",
                fc.dropped,
                fc.outage_dropped,
                fc.delayed,
                fc.duplicated,
                fc.corrupted,
                fc.truncated,
                fc.outage_micros / 1_000_000,
            )?;
        }
        for n in &self.nodes {
            let l = &n.link;
            writeln!(
                f,
                "{}: tx={}/{}B rx={}/{}B drops={} timers={}",
                n.name,
                l.frames_tx,
                l.bytes_tx,
                l.frames_rx,
                l.bytes_rx,
                l.drops_unlinked,
                l.timer_fires,
            )?;
            for (name, value) in n.device.iter() {
                writeln!(f, "  {name}={value}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(pool: PoolCounters, trace: TraceCounters) -> MetricsSnapshot {
        MetricsSnapshot {
            engine: EngineMetrics {
                events_processed: 12,
                frames_delivered: 5,
                ..EngineMetrics::default()
            },
            faults: FaultCounters::default(),
            pool,
            trace,
            nodes: vec![NodeMetrics {
                name: "pi".into(),
                link: LinkCounters {
                    frames_tx: 3,
                    ..LinkCounters::default()
                },
                device: [("dns.queries", 2)].into_iter().collect(),
            }],
        }
    }

    #[test]
    fn pool_and_trace_counters_do_not_render() {
        let quiet = snapshot(PoolCounters::default(), TraceCounters::default());
        let busy = snapshot(
            PoolCounters {
                allocated: 7,
                reused: 900,
            },
            TraceCounters {
                suppressed: 4,
                capture_suppressed: 1,
            },
        );
        assert_ne!(quiet, busy, "the snapshots themselves still differ");
        assert_eq!(quiet.to_string(), busy.to_string());
    }
}
