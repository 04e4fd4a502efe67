//! The event engine: nodes, links, timers, and a frame trace.
//!
//! Nodes are `Box<dyn Node>` objects with numbered ports; links join two
//! `(node, port)` endpoints with a fixed latency. Everything is driven by a
//! binary-heap event queue keyed on `(time, sequence)` so runs are exactly
//! reproducible.
//!
//! # Hot-path architecture
//!
//! Frame delivery is the innermost loop of every fleet sweep, so the engine
//! keeps per-frame allocation, copying and hashing off its own path:
//!
//! * **Compact event queue** — the heap orders 24-byte `(at, seq, slot)`
//!   keys; each event's node and frame live in a slab slot that is
//!   recycled through a free list, so sifting never moves a frame. `seq`
//!   is unique, so the order is exactly `(at, seq)`.
//! * **Indexed link table** — links live in a per-node `Vec<Option<..>>`
//!   indexed by port, so dispatch is two bounds-checked loads instead of a
//!   `HashMap` probe. Compiled fault links use the same layout, indexed by
//!   `(src, dst)` node id.
//! * **Count-only floods** — [`Ctx::send_copy`] to a port with no cable
//!   bumps the sender's counters in place and queues nothing, so a 50-port
//!   switch flood costs one action per cable, not one per port.
//! * **Frame buffer pool** — delivered frame buffers are recycled into a
//!   [`FramePool`]; forwarding copies ([`Ctx::send_copy`],
//!   [`Ctx::buffer_from`]) draw from it, so steady-state forwarding
//!   allocates nothing. Endpoint encoders build their frames in fresh,
//!   exact-capacity buffers (see `v6wire::packet`).
//! * **Trace modes** — [`TraceMode::Hops`] records only
//!   `(at, src, dst, len)`; node names are interned at `add_node` time and
//!   resolved lazily by [`Network::format_trace`]. [`TraceMode::Full`]
//!   additionally captures the eager `v6wire` summary, byte-identical to
//!   the historical trace (the golden fixtures prove it).

use crate::metrics::{
    EngineMetrics, FaultCounters, LinkCounters, MetricsSnapshot, NodeMetrics, PoolCounters,
    TraceCounters,
};
use crate::time::SimTime;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use v6fault::{CompiledLink, Delivery, FaultPlan};
use v6wire::metrics::Metrics;

/// Index of a node within a [`Network`].
pub type NodeId = usize;

/// How much the engine records per delivered frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing (fastest; fleet sweeps that only read metrics).
    Off,
    /// Record `(at, src, dst, len)` per hop; names resolved lazily.
    Hops,
    /// Record hops plus the eager `v6wire` one-line summary — today's
    /// historical behaviour, required by the golden-trace fixtures.
    #[default]
    Full,
}

/// Bounded free-list of frame buffers. `get` prefers a recycled buffer;
/// `put` returns one after delivery. Only buffers drawn through [`Ctx`]
/// (forwarding copies and [`Ctx::buffer`]) pass through `get`; every
/// delivered frame, pooled or not, is offered to `put`. Counters feed
/// [`MetricsSnapshot::pool`].
#[derive(Debug, Default)]
struct FramePool {
    free: Vec<Vec<u8>>,
    /// Warm buffers parked by [`FramePool::recycle`]: their capacity
    /// survives into the next cell, but each one re-entering service is
    /// counted as `allocated` — so the per-cell counter stream is
    /// byte-identical to a cold pool (which starts with `free` empty).
    reserve: Vec<Vec<u8>>,
    allocated: u64,
    reused: u64,
    /// True `Vec` constructions over the pool's whole lifetime — never
    /// reset, so arena steady-state gates can prove warm cells malloc
    /// no new frame buffers at all.
    fresh: u64,
}

/// Cap on pooled buffers so pathological floods cannot pin memory.
const FRAME_POOL_CAP: usize = 4096;

impl FramePool {
    fn get(&mut self) -> Vec<u8> {
        if let Some(buf) = self.free.pop() {
            self.reused += 1;
            return buf;
        }
        // `free` is empty: a cold pool would malloc here, so the warm
        // pool must report `allocated` too — whether the bytes come from
        // the reserve or a real allocation is invisible to the counters.
        self.allocated += 1;
        match self.reserve.pop() {
            Some(buf) => buf,
            None => {
                self.fresh += 1;
                Vec::with_capacity(128)
            }
        }
    }

    fn put(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() > 0 && self.free.len() < FRAME_POOL_CAP {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Park every free buffer and zero the per-cell counters. The next
    /// cell sees exactly what a cold pool reports (`free` empty, both
    /// counters zero) while reusing the parked capacity.
    fn recycle(&mut self) {
        while let Some(buf) = self.free.pop() {
            if self.reserve.len() < FRAME_POOL_CAP {
                self.reserve.push(buf);
            }
        }
        self.allocated = 0;
        self.reused = 0;
    }
}

/// What a node asks the engine to do.
#[derive(Debug)]
enum Action {
    /// Transmit a frame out of a local port.
    Send { port: u32, frame: Vec<u8> },
    /// Fire `on_timer(token)` after `delay`.
    Timer { delay: SimTime, token: u64 },
}

/// The per-callback context handed to nodes.
pub struct Ctx<'p> {
    /// Current simulation time.
    pub now: SimTime,
    actions: Vec<Action>,
    pool: &'p mut FramePool,
    /// The acting node's port table row, so `send_copy` can skip the
    /// copy for ports with no cable attached.
    links: &'p [Option<(NodeId, u32, SimTime)>],
    /// The acting node's counters, bumped in place by `send_copy` on an
    /// unlinked port.
    counters: &'p mut LinkCounters,
    /// The engine-wide unlinked-drop total, bumped alongside `counters`.
    dropped_unlinked: &'p mut u64,
}

impl Ctx<'_> {
    /// Transmit `frame` out of `port`.
    pub fn send(&mut self, port: u32, frame: Vec<u8>) {
        self.actions.push(Action::Send { port, frame });
    }

    /// Transmit a copy of `bytes` out of `port` — the flood idiom.
    ///
    /// When the port has no cable attached, the attempt lands in the
    /// counters (`frames_tx`, `bytes_tx`, `drops_unlinked` and the
    /// engine's `frames_dropped_unlinked`) exactly as a plain
    /// [`Ctx::send`] would, but nothing is copied or queued — so flooding
    /// a 50-port switch with 4 cables costs 4 copies and 4 actions, not 50.
    pub fn send_copy(&mut self, port: u32, bytes: &[u8]) {
        if self.links.get(port as usize).is_some_and(Option::is_some) {
            let mut buf = self.pool.get();
            buf.extend_from_slice(bytes);
            self.actions.push(Action::Send { port, frame: buf });
        } else {
            self.counters.frames_tx += 1;
            self.counters.bytes_tx += bytes.len() as u64;
            self.counters.drops_unlinked += 1;
            *self.dropped_unlinked += 1;
        }
    }

    /// An empty frame buffer from the engine's pool. Every delivered
    /// frame is recycled into the pool, so a node that builds its frames
    /// in pooled buffers allocates nothing in steady state.
    pub fn buffer(&mut self) -> Vec<u8> {
        self.pool.get()
    }

    /// A pooled buffer pre-filled with a copy of `bytes` — the common
    /// "forward this frame" idiom for switches and routers.
    pub fn buffer_from(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut buf = self.pool.get();
        buf.extend_from_slice(bytes);
        buf
    }

    /// Request `on_timer(token)` after `delay`.
    pub fn timer_in(&mut self, delay: SimTime, token: u64) {
        self.actions.push(Action::Timer { delay, token });
    }
}

/// A simulated device.
pub trait Node {
    /// Human-readable name for traces. Interned by the engine at
    /// [`Network::add_node`] time, so it must not change afterwards.
    fn name(&self) -> &str;

    /// Called once when the simulation starts.
    fn start(&mut self, _ctx: &mut Ctx) {}

    /// A frame arrived on `port`.
    fn on_frame(&mut self, port: u32, frame: &[u8], ctx: &mut Ctx);

    /// A timer requested via [`Ctx::timer_in`] fired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx) {}

    /// Downcast support so scenarios can inspect and drive concrete devices.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Device-specific counters for [`Network::metrics`] snapshots.
    ///
    /// The engine already tracks frames/bytes/timers per node; override
    /// this to add protocol-level counters (NAT translations, DNS cache
    /// hits, snoop drops, ...). The default is an empty set.
    fn device_metrics(&self) -> Metrics {
        Metrics::new()
    }
}

#[derive(Debug)]
enum EventKind {
    Start,
    Frame { port: u32, frame: Vec<u8> },
    Timer { token: u64 },
}

/// What an event does once its key reaches the head of the queue.
#[derive(Debug)]
struct Event {
    node: NodeId,
    kind: EventKind,
}

/// The event queue: a binary heap of `(at, seq, slot)` keys over a slab
/// of [`Event`] payloads. Sifting moves 24-byte keys instead of whole
/// events, and a slot freed by `pop` is reused by the next `push`. `seq`
/// is unique per push, so keys never tie and the slot never decides the
/// order: events fire in exactly `(at, seq)` order.
#[derive(Debug, Default)]
struct EventQueue {
    keys: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slots: Vec<Option<Event>>,
    free: Vec<u32>,
}

impl EventQueue {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn push(&mut self, at: SimTime, seq: u64, event: Event) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        };
        self.keys.push(Reverse((at, seq, slot)));
    }

    /// Time of the earliest event, if any.
    fn next_at(&self) -> Option<SimTime> {
        self.keys.peek().map(|Reverse((at, _, _))| *at)
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        let Reverse((at, _, slot)) = self.keys.pop()?;
        self.free.push(slot);
        let event = self.slots[slot as usize].take().expect("queued slot");
        Some((at, event))
    }

    /// Drop every queued event, keeping the allocations.
    fn clear(&mut self) {
        self.keys.clear();
        self.slots.clear();
        self.free.clear();
    }
}

/// One hop recorded in the frame trace. Node names are *not* stored here
/// — they are node ids into the engine's interned name table, resolved
/// lazily by [`Network::format_trace`] / [`Network::trace_hops`].
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Delivery time.
    pub at: SimTime,
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Frame length in bytes.
    pub len: usize,
    /// The fault layer removed this frame before delivery.
    pub fault_drop: bool,
    /// Frame bytes, captured in [`TraceMode::Full`] only (`None` under
    /// [`TraceMode::Hops`]). The hot path pays one memcpy per hop; the
    /// summary text is formatted lazily on first read. Memory is bounded by
    /// [`Network::trace_limit`] × frame size.
    frame: Option<Box<[u8]>>,
    /// Lazily formatted one-line `v6wire` summary of `frame`.
    summary: std::cell::OnceCell<Box<str>>,
}

impl TraceEntry {
    /// The one-line summary, if this hop was recorded in full mode.
    /// Formatted from the captured frame on first call, then cached, so
    /// traces that are never read (the common case in sweeps) cost only
    /// the byte copy.
    pub fn summary(&self) -> Option<&str> {
        let frame = self.frame.as_deref()?;
        Some(self.summary.get_or_init(|| {
            let s = v6wire::packet::summarize(frame);
            let s = if self.fault_drop {
                format!("FAULT-DROP {s}")
            } else {
                s
            };
            s.into_boxed_str()
        }))
    }
}

/// A [`TraceEntry`] with its node names resolved from the interned table.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedHop<'a> {
    /// Delivery time.
    pub at: SimTime,
    /// Transmitting node name.
    pub from: &'a str,
    /// Receiving node name.
    pub to: &'a str,
    /// Frame length in bytes.
    pub len: usize,
    /// The fault layer removed this frame before delivery.
    pub fault_drop: bool,
    /// One-line summary (full mode only).
    pub summary: Option<&'a str>,
}

/// The simulated network.
pub struct Network {
    nodes: Vec<Box<dyn Node>>,
    /// Node names captured at `add_node` time (names never change), so
    /// traces and metrics resolve them without touching the node.
    names: Vec<Box<str>>,
    node_counters: Vec<LinkCounters>,
    engine_counters: EngineMetrics,
    /// Per-node port table: `links[node][port] = (peer, peer_port, latency)`.
    links: Vec<Vec<Option<(NodeId, u32, SimTime)>>>,
    queue: EventQueue,
    now: SimTime,
    seq: u64,
    started: bool,
    /// Recycled frame buffers plus allocation counters.
    frame_pool: FramePool,
    /// Scratch action buffer reused across callbacks.
    action_scratch: Vec<Action>,
    /// How much to record per delivered frame.
    pub trace_mode: TraceMode,
    /// Captured frame hops (cleared with [`Network::clear_trace`]).
    pub trace: Vec<TraceEntry>,
    /// Cap on trace length to bound memory in long runs.
    pub trace_limit: usize,
    /// Hops not recorded because [`Network::trace_limit`] was reached.
    trace_suppressed: u64,
    /// Total frames delivered.
    pub frames_delivered: u64,
    /// When true, raw frame bytes are captured into [`Network::captured`]
    /// for pcap export (off by default — it copies every frame).
    pub capture_frames: bool,
    /// Cap on [`Network::captured`] length (independent of the trace cap).
    pub capture_limit: usize,
    /// Frames not captured because [`Network::capture_limit`] was reached.
    capture_suppressed: u64,
    /// Raw frames captured while [`Network::capture_frames`] was on.
    pub captured: Vec<crate::pcap::CapturedFrame>,
    /// The installed fault schedule (default: no-op, fault path skipped).
    fault_plan: FaultPlan,
    /// Whether `fault_plan` can ever alter a frame, cached once.
    fault_active: bool,
    /// Per-directed-link compilation of the plan, filled lazily and
    /// indexed `[src][dst]` (links are never removed and node names
    /// never change).
    fault_links: Vec<Vec<Option<CompiledLink>>>,
    /// Monotone per-judged-frame counter feeding the decision hash.
    fault_decisions: u64,
    fault_counters: FaultCounters,
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

impl Network {
    /// An empty network.
    pub fn new() -> Network {
        Network {
            nodes: Vec::new(),
            names: Vec::new(),
            node_counters: Vec::new(),
            engine_counters: EngineMetrics::default(),
            links: Vec::new(),
            queue: EventQueue::default(),
            now: SimTime::ZERO,
            seq: 0,
            started: false,
            frame_pool: FramePool::default(),
            action_scratch: Vec::new(),
            trace_mode: TraceMode::Full,
            trace: Vec::new(),
            trace_limit: 100_000,
            trace_suppressed: 0,
            frames_delivered: 0,
            capture_frames: false,
            capture_limit: 100_000,
            capture_suppressed: 0,
            captured: Vec::new(),
            fault_plan: FaultPlan::default(),
            fault_active: false,
            fault_links: Vec::new(),
            fault_decisions: 0,
            fault_counters: FaultCounters::default(),
        }
    }

    /// Install a fault schedule. A no-op plan (the default) disables the
    /// fault path entirely, keeping runs bit-identical to a network that
    /// never heard of faults.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_active = !plan.is_noop();
        self.fault_plan = plan;
        self.fault_links.clear();
    }

    /// The installed fault schedule.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far — the same figure
    /// [`Network::metrics`] reports, without building a snapshot. The
    /// population census reads this once per cell, so the cheap path
    /// matters at a million cells.
    pub fn events_processed(&self) -> u64 {
        self.engine_counters.events_processed
    }

    /// Frames the fault layer removed from the network so far (random
    /// loss plus outage-window drops) — the "did the faults visibly
    /// bite" signal, without a full [`Network::metrics`] snapshot.
    pub fn fault_frames_dropped(&self) -> u64 {
        self.fault_counters.dropped + self.fault_counters.outage_dropped
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        self.names.push(node.name().into());
        self.nodes.push(node);
        self.node_counters.push(LinkCounters::default());
        self.links.push(Vec::new());
        self.nodes.len() - 1
    }

    fn port_is_free(&self, node: NodeId, port: u32) -> bool {
        self.links[node]
            .get(port as usize)
            .is_none_or(Option::is_none)
    }

    fn attach(&mut self, from: NodeId, from_port: u32, to: NodeId, to_port: u32, latency: SimTime) {
        let row = &mut self.links[from];
        let idx = from_port as usize;
        if row.len() <= idx {
            row.resize(idx + 1, None);
        }
        row[idx] = Some((to, to_port, latency));
    }

    /// Join `(a, a_port)` and `(b, b_port)` with `latency` in each direction.
    pub fn link(&mut self, a: NodeId, a_port: u32, b: NodeId, b_port: u32, latency: SimTime) {
        assert!(
            self.port_is_free(a, a_port) && self.port_is_free(b, b_port),
            "port already linked"
        );
        self.attach(a, a_port, b, b_port, latency);
        self.attach(b, b_port, a, a_port, latency);
    }

    /// Replace node `id` wholesale, re-interning its name. Links,
    /// ports, and counters are untouched — the new node inherits the
    /// old one's cables, which is what the warm-cell arena wants when
    /// only the host behind a switch port changes between cells.
    pub fn replace_node(&mut self, id: NodeId, node: Box<dyn Node>) {
        self.names[id] = node.name().into();
        self.nodes[id] = node;
        // Compiled fault links are keyed by node name; drop the cache.
        self.fault_links.clear();
    }

    /// Reset the engine to its post-construction state while keeping
    /// the node graph: nodes, interned names, and the link table
    /// survive, and everything else — event queue, clock, sequence
    /// counter, every metrics counter, traces, captures, and the fault
    /// machinery — returns to exactly what `Network::new` plus the same
    /// `add_node`/`link` calls would produce. Frame buffers are parked
    /// rather than freed (see [`FramePool::recycle`]), so warm cells
    /// inherit capacity without perturbing the pool counters.
    ///
    /// Node-*internal* state is deliberately not touched: callers reset
    /// each device in place (or swap it via [`Network::replace_node`])
    /// before reuse.
    pub fn recycle(&mut self) {
        self.queue.clear();
        self.now = SimTime::ZERO;
        self.seq = 0;
        self.started = false;
        self.frame_pool.recycle();
        for counters in &mut self.node_counters {
            *counters = LinkCounters::default();
        }
        self.engine_counters = EngineMetrics::default();
        self.trace.clear();
        self.trace_suppressed = 0;
        self.captured.clear();
        self.capture_suppressed = 0;
        self.frames_delivered = 0;
        self.fault_plan = FaultPlan::default();
        self.fault_active = false;
        self.fault_links.clear();
        self.fault_decisions = 0;
        self.fault_counters = FaultCounters::default();
    }

    /// True frame-buffer constructions over this network's whole
    /// lifetime. Unlike [`MetricsSnapshot::pool`], this is *never*
    /// reset by [`Network::recycle`] — a steady-state arena gate reads
    /// it across cells to prove warm runs malloc no new frame buffers.
    pub fn pool_fresh_allocations(&self) -> u64 {
        self.frame_pool.fresh
    }

    /// Mutable access to a concrete node type.
    ///
    /// # Panics
    /// If the id is out of range or the node is not a `T`.
    pub fn node_mut<T: Node + 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    fn push(&mut self, at: SimTime, node: NodeId, kind: EventKind) {
        self.seq += 1;
        self.queue.push(at, self.seq, Event { node, kind });
        let depth = self.queue.len() as u64;
        if depth > self.engine_counters.queue_high_water {
            self.engine_counters.queue_high_water = depth;
        }
    }

    /// Queue `start` callbacks for every node (idempotent).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.nodes.len() {
            self.push(self.now, id, EventKind::Start);
        }
    }

    /// Let a scenario invoke a node directly (e.g. "user clicks browse") via
    /// a closure receiving the node and a context; the resulting actions are
    /// applied as if the node acted spontaneously now.
    pub fn with_node<T: Node + 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx) -> R,
    ) -> R {
        let mut ctx = Ctx {
            now: self.now,
            actions: std::mem::take(&mut self.action_scratch),
            pool: &mut self.frame_pool,
            links: &self.links[id],
            counters: &mut self.node_counters[id],
            dropped_unlinked: &mut self.engine_counters.frames_dropped_unlinked,
        };
        let r = {
            let node = self.nodes[id]
                .as_any_mut()
                .downcast_mut::<T>()
                .expect("node type mismatch");
            f(node, &mut ctx)
        };
        let mut actions = ctx.actions;
        self.apply_actions(id, &mut actions);
        self.action_scratch = actions;
        r
    }

    fn apply_actions(&mut self, node: NodeId, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { port, frame } => {
                    self.node_counters[node].frames_tx += 1;
                    self.node_counters[node].bytes_tx += frame.len() as u64;
                    let link = self.links[node].get(port as usize).copied().flatten();
                    if let Some((dst, dst_port, latency)) = link {
                        let verdict = if self.fault_active {
                            self.judge_fault(node, dst)
                        } else {
                            Delivery::CLEAN
                        };
                        if verdict.copies == 0 {
                            if verdict.outage {
                                self.fault_counters.outage_dropped += 1;
                            } else {
                                self.fault_counters.dropped += 1;
                            }
                            self.record_hop(self.now + latency, node, dst, &frame, true);
                            self.frame_pool.put(frame);
                            continue;
                        }
                        let mut frame = frame;
                        if verdict.corrupt && !frame.is_empty() {
                            let idx = self.fault_decisions as usize % frame.len();
                            frame[idx] ^= 0xff;
                            self.fault_counters.corrupted += 1;
                        }
                        if verdict.truncate && frame.len() > 1 {
                            frame.truncate(frame.len() / 2);
                            self.fault_counters.truncated += 1;
                        }
                        if verdict.extra_delay_us > 0 {
                            self.fault_counters.delayed += 1;
                        }
                        let deliver_at =
                            self.now + latency + SimTime::from_micros(verdict.extra_delay_us);
                        // Duplicate copies trail the original slightly, like a
                        // retransmitting radio link.
                        let dups: Vec<Vec<u8>> = (1..verdict.copies)
                            .map(|_| {
                                let mut dup = self.frame_pool.get();
                                dup.extend_from_slice(&frame);
                                dup
                            })
                            .collect();
                        self.forward(node, dst, dst_port, deliver_at, frame);
                        for (i, dup) in dups.into_iter().enumerate() {
                            self.fault_counters.duplicated += 1;
                            let at = deliver_at + SimTime::from_micros((i as u64 + 1) * 150);
                            self.forward(node, dst, dst_port, at, dup);
                        }
                    } else {
                        // Unlinked port: dropped (cable unplugged), but the
                        // attempt still shows up in the counters.
                        self.node_counters[node].drops_unlinked += 1;
                        self.engine_counters.frames_dropped_unlinked += 1;
                        self.frame_pool.put(frame);
                    }
                }
                Action::Timer { delay, token } => {
                    self.push(self.now + delay, node, EventKind::Timer { token });
                }
            }
        }
    }

    /// Record one hop according to the trace mode. Summaries (and the
    /// `FAULT-DROP` annotation string) are only built in full mode, and
    /// only while the trace is under its cap.
    fn record_hop(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        frame: &[u8],
        fault_drop: bool,
    ) {
        match self.trace_mode {
            TraceMode::Off => {}
            TraceMode::Hops | TraceMode::Full => {
                if self.trace.len() >= self.trace_limit {
                    self.trace_suppressed += 1;
                    return;
                }
                let len = frame.len();
                let frame = match self.trace_mode {
                    TraceMode::Full => Some(Box::<[u8]>::from(frame)),
                    _ => None,
                };
                self.trace.push(TraceEntry {
                    at,
                    src,
                    dst,
                    len,
                    fault_drop,
                    frame,
                    summary: std::cell::OnceCell::new(),
                });
            }
        }
    }

    /// Schedule one frame delivery: counters, optional pcap capture, a
    /// trace entry, and the queue push.
    fn forward(&mut self, src: NodeId, dst: NodeId, dst_port: u32, at: SimTime, frame: Vec<u8>) {
        self.engine_counters.frames_forwarded += 1;
        if self.capture_frames {
            if self.captured.len() < self.capture_limit {
                self.captured.push(crate::pcap::CapturedFrame {
                    at,
                    bytes: frame.clone(),
                });
            } else {
                self.capture_suppressed += 1;
            }
        }
        self.record_hop(at, src, dst, &frame, false);
        self.push(
            at,
            dst,
            EventKind::Frame {
                port: dst_port,
                frame,
            },
        );
    }

    /// Ask the installed plan what happens to one frame on `src -> dst`.
    /// Only called when a non-default plan is installed.
    fn judge_fault(&mut self, src: NodeId, dst: NodeId) -> Delivery {
        // Grow the indexed table on demand (nodes can be added after the
        // plan is installed); a single `[src][dst]` slot then serves the
        // check, the fill, and the read.
        let n = self.nodes.len();
        if self.fault_links.len() < n {
            self.fault_links.resize_with(n, Vec::new);
        }
        if self.fault_links[src].len() < n {
            self.fault_links[src].resize_with(n, || None);
        }
        if self.fault_links[src][dst].is_none() {
            let compiled = self.fault_plan.compile(&self.names[src], &self.names[dst]);
            self.fault_links[src][dst] = Some(compiled);
        }
        // The decision counter advances for every judged frame — clean
        // link or not — so adding an unrelated link fault never shifts
        // another link's sampling stream order-dependently.
        self.fault_decisions += 1;
        let decision = self.fault_decisions;
        let link = self.fault_links[src][dst].as_ref().expect("compiled above");
        if link.is_clean() {
            return Delivery::CLEAN;
        }
        self.fault_plan.judge(link, self.now.as_micros(), decision)
    }

    /// Process events until the queue is empty or `deadline` passes.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start();
        let mut processed = 0;
        while self.queue.next_at().is_some_and(|at| at <= deadline) {
            let (at, ev) = self.queue.pop().expect("peeked");
            self.now = at;
            let mut ctx = Ctx {
                now: self.now,
                actions: std::mem::take(&mut self.action_scratch),
                pool: &mut self.frame_pool,
                links: &self.links[ev.node],
                counters: &mut self.node_counters[ev.node],
                dropped_unlinked: &mut self.engine_counters.frames_dropped_unlinked,
            };
            match ev.kind {
                EventKind::Start => self.nodes[ev.node].start(&mut ctx),
                EventKind::Frame { port, frame } => {
                    self.frames_delivered += 1;
                    ctx.counters.frames_rx += 1;
                    ctx.counters.bytes_rx += frame.len() as u64;
                    self.nodes[ev.node].on_frame(port, &frame, &mut ctx);
                    // The buffer's journey ends here; recycle it.
                    ctx.pool.put(frame);
                }
                EventKind::Timer { token } => {
                    ctx.counters.timer_fires += 1;
                    self.engine_counters.timers_fired += 1;
                    self.nodes[ev.node].on_timer(token, &mut ctx)
                }
            }
            let mut actions = ctx.actions;
            self.apply_actions(ev.node, &mut actions);
            self.action_scratch = actions;
            self.engine_counters.events_processed += 1;
            processed += 1;
        }
        if self.now < deadline {
            self.now = deadline;
        }
        processed
    }

    /// Run for `span` beyond the current time.
    pub fn run_for(&mut self, span: SimTime) -> u64 {
        let deadline = self.now + span;
        self.run_until(deadline)
    }

    /// Discard the captured trace.
    pub fn clear_trace(&mut self) {
        self.trace.clear();
        self.captured.clear();
    }

    /// Iterate the trace with node names resolved from the interned table.
    pub fn trace_hops(&self) -> impl Iterator<Item = ResolvedHop<'_>> {
        self.trace.iter().map(|e| ResolvedHop {
            at: e.at,
            from: &self.names[e.src],
            to: &self.names[e.dst],
            len: e.len,
            fault_drop: e.fault_drop,
            summary: e.summary(),
        })
    }

    /// Write everything captured so far to a pcap file (requires
    /// [`Network::capture_frames`] to have been on during the run).
    pub fn write_pcap(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::pcap::write_pcap(path, &self.captured)
    }

    /// Snapshot every counter the engine and its nodes are tracking.
    ///
    /// Node rows come back in node-id order and each device's counters
    /// in name order, so two runs with identical event streams produce
    /// [`MetricsSnapshot`]s that compare equal and render identically.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut engine = self.engine_counters;
        engine.frames_delivered = self.frames_delivered;
        let mut faults = self.fault_counters;
        faults.outage_micros = self.fault_plan.outage_micros_until(self.now.as_micros());
        MetricsSnapshot {
            engine,
            faults,
            pool: PoolCounters {
                allocated: self.frame_pool.allocated,
                reused: self.frame_pool.reused,
            },
            trace: TraceCounters {
                suppressed: self.trace_suppressed,
                capture_suppressed: self.capture_suppressed,
            },
            nodes: self
                .names
                .iter()
                .zip(&self.nodes)
                .zip(&self.node_counters)
                .map(|((name, node), &link)| NodeMetrics {
                    name: name.to_string(),
                    link,
                    device: node.device_metrics(),
                })
                .collect(),
        }
    }

    /// Render the trace as text (for examples and debugging).
    ///
    /// Full-mode entries render exactly as they always did
    /// (`time from -> to [len bytes] summary`); hops-mode entries omit
    /// the summary (fault drops keep their `FAULT-DROP` marker).
    pub fn format_trace(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for h in self.trace_hops() {
            match h.summary {
                Some(summary) => {
                    let _ = writeln!(
                        out,
                        "{} {} -> {} [{} bytes] {}",
                        h.at, h.from, h.to, h.len, summary
                    );
                }
                None if h.fault_drop => {
                    let _ = writeln!(
                        out,
                        "{} {} -> {} [{} bytes] FAULT-DROP",
                        h.at, h.from, h.to, h.len
                    );
                }
                None => {
                    let _ = writeln!(out, "{} {} -> {} [{} bytes]", h.at, h.from, h.to, h.len);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that echoes every frame back out the same port after 1 ms,
    /// counting what it saw.
    struct Echo {
        name: String,
        seen: Vec<Vec<u8>>,
        echo: bool,
    }

    impl Node for Echo {
        fn name(&self) -> &str {
            &self.name
        }

        fn on_frame(&mut self, port: u32, frame: &[u8], ctx: &mut Ctx) {
            self.seen.push(frame.to_vec());
            if self.echo {
                let buf = ctx.buffer_from(frame);
                ctx.send(port, buf);
            }
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A node that emits one frame at start and one on each timer tick.
    struct Beacon {
        name: String,
        ticks: u32,
    }

    impl Node for Beacon {
        fn name(&self) -> &str {
            &self.name
        }

        fn start(&mut self, ctx: &mut Ctx) {
            ctx.send(0, vec![0xbe]);
            ctx.timer_in(SimTime::from_secs(1), 1);
        }

        fn on_frame(&mut self, _port: u32, _frame: &[u8], _ctx: &mut Ctx) {}

        fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
            self.ticks += 1;
            ctx.send(0, vec![0xbe, self.ticks as u8]);
            if self.ticks < 3 {
                ctx.timer_in(SimTime::from_secs(1), token);
            }
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn frames_flow_with_latency() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(Beacon {
            name: "beacon".into(),
            ticks: 0,
        }));
        let b = net.add_node(Box::new(Echo {
            name: "sink".into(),
            seen: Vec::new(),
            echo: false,
        }));
        net.link(a, 0, b, 0, SimTime::from_millis(2));
        net.run_until(SimTime::from_millis(100));
        let sink = net.node_mut::<Echo>(b);
        assert_eq!(sink.seen.len(), 1, "only the start beacon by t=100ms");
        net.run_until(SimTime::from_secs(10));
        let sink = net.node_mut::<Echo>(b);
        assert_eq!(sink.seen.len(), 4, "start + 3 timer beacons");
    }

    #[test]
    fn timers_fire_in_order() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(Beacon {
            name: "beacon".into(),
            ticks: 0,
        }));
        let b = net.add_node(Box::new(Echo {
            name: "sink".into(),
            seen: Vec::new(),
            echo: false,
        }));
        net.link(a, 0, b, 0, SimTime::ZERO);
        net.run_until(SimTime::from_secs(2));
        assert_eq!(net.node_mut::<Beacon>(a).ticks, 2);
        assert_eq!(net.now(), SimTime::from_secs(2));
    }

    #[test]
    fn unlinked_port_drops_silently() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(Beacon {
            name: "lonely".into(),
            ticks: 0,
        }));
        let _ = a;
        let n = net.run_until(SimTime::from_secs(10));
        assert!(n >= 4, "events still processed");
    }

    #[test]
    fn with_node_applies_actions() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(Echo {
            name: "a".into(),
            seen: Vec::new(),
            echo: false,
        }));
        let b = net.add_node(Box::new(Echo {
            name: "b".into(),
            seen: Vec::new(),
            echo: false,
        }));
        net.link(a, 0, b, 0, SimTime::from_millis(1));
        net.start();
        net.run_until(SimTime::ZERO);
        net.with_node::<Echo, _>(a, |_, ctx| ctx.send(0, vec![1, 2, 3]));
        net.run_for(SimTime::from_millis(5));
        assert_eq!(net.node_mut::<Echo>(b).seen, vec![vec![1, 2, 3]]);
        assert_eq!(net.frames_delivered, 1);
    }

    #[test]
    fn trace_records_hops() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(Beacon {
            name: "beacon".into(),
            ticks: 0,
        }));
        let b = net.add_node(Box::new(Echo {
            name: "sink".into(),
            seen: Vec::new(),
            echo: false,
        }));
        net.link(a, 0, b, 0, SimTime::ZERO);
        net.run_until(SimTime::from_secs(5));
        assert_eq!(net.trace.len(), 4);
        assert_eq!(net.trace[0].src, a);
        assert_eq!(net.trace[0].dst, b);
        let first = net.trace_hops().next().expect("non-empty trace");
        assert_eq!((first.from, first.to), ("beacon", "sink"));
        let text = net.format_trace();
        assert!(text.contains("beacon -> sink"));
        net.clear_trace();
        assert!(net.trace.is_empty());
    }

    #[test]
    fn hops_mode_skips_summaries_but_keeps_hops() {
        let mut net = Network::new();
        net.trace_mode = TraceMode::Hops;
        let a = net.add_node(Box::new(Beacon {
            name: "beacon".into(),
            ticks: 0,
        }));
        let b = net.add_node(Box::new(Echo {
            name: "sink".into(),
            seen: Vec::new(),
            echo: false,
        }));
        net.link(a, 0, b, 0, SimTime::ZERO);
        net.run_until(SimTime::from_secs(5));
        assert_eq!(net.trace.len(), 4);
        assert!(net.trace.iter().all(|e| e.summary().is_none()));
        assert!(net.format_trace().contains("beacon -> sink [1 bytes]"));
    }

    #[test]
    fn off_mode_records_nothing_and_counts_nothing_suppressed() {
        let mut net = Network::new();
        net.trace_mode = TraceMode::Off;
        let a = net.add_node(Box::new(Beacon {
            name: "beacon".into(),
            ticks: 0,
        }));
        let b = net.add_node(Box::new(Echo {
            name: "sink".into(),
            seen: Vec::new(),
            echo: false,
        }));
        net.link(a, 0, b, 0, SimTime::ZERO);
        net.run_until(SimTime::from_secs(5));
        assert!(net.trace.is_empty());
        assert_eq!(net.metrics().trace, TraceCounters::default());
        assert_eq!(net.frames_delivered, 4);
    }

    #[test]
    fn trace_limit_counts_suppressed_hops() {
        let mut net = Network::new();
        net.trace_limit = 2;
        let a = net.add_node(Box::new(Beacon {
            name: "beacon".into(),
            ticks: 0,
        }));
        let b = net.add_node(Box::new(Echo {
            name: "sink".into(),
            seen: Vec::new(),
            echo: false,
        }));
        net.link(a, 0, b, 0, SimTime::ZERO);
        net.run_until(SimTime::from_secs(5));
        assert_eq!(net.trace.len(), 2);
        assert_eq!(net.metrics().trace.suppressed, 2);
    }

    #[test]
    #[should_panic(expected = "port already linked")]
    fn double_link_panics() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(Echo {
            name: "a".into(),
            seen: Vec::new(),
            echo: false,
        }));
        let b = net.add_node(Box::new(Echo {
            name: "b".into(),
            seen: Vec::new(),
            echo: false,
        }));
        net.link(a, 0, b, 0, SimTime::ZERO);
        net.link(a, 0, b, 1, SimTime::ZERO);
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;

    /// Two events scheduled for the same instant fire in scheduling order —
    /// the tie-break that makes whole-testbed runs exactly reproducible.
    struct Recorder {
        name: String,
        fired: Vec<u64>,
    }

    impl Node for Recorder {
        fn name(&self) -> &str {
            &self.name
        }

        fn start(&mut self, ctx: &mut Ctx) {
            for token in [3, 1, 2] {
                ctx.timer_in(SimTime::from_secs(1), token);
            }
        }

        fn on_frame(&mut self, _p: u32, _f: &[u8], _ctx: &mut Ctx) {}

        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx) {
            self.fired.push(token);
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn same_instant_events_fire_in_schedule_order() {
        let mut net = Network::new();
        let r = net.add_node(Box::new(Recorder {
            name: "rec".into(),
            fired: Vec::new(),
        }));
        net.run_until(SimTime::from_secs(2));
        assert_eq!(net.node_mut::<Recorder>(r).fired, vec![3, 1, 2]);
    }

    /// Timers per round in [`Burst`].
    const ROUND: u64 = 1200;

    /// Schedules `ROUND` timers for one instant at start, tokens permuted;
    /// each of those schedules one more for a second shared instant, so
    /// the second round is pushed between pops into the slots the first
    /// round frees.
    struct Burst {
        fired: Vec<u64>,
    }

    impl Node for Burst {
        fn name(&self) -> &str {
            "burst"
        }

        fn start(&mut self, ctx: &mut Ctx) {
            for i in 0..ROUND {
                ctx.timer_in(SimTime::from_secs(1), i * 7919 % ROUND);
            }
        }

        fn on_frame(&mut self, _p: u32, _f: &[u8], _ctx: &mut Ctx) {}

        fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
            self.fired.push(token);
            if token < ROUND {
                ctx.timer_in(SimTime::from_secs(1), ROUND + token * 13 % ROUND);
            }
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn slab_slots_are_reused_and_order_holds() {
        let mut net = Network::new();
        let b = net.add_node(Box::new(Burst { fired: Vec::new() }));
        let events = net.run_until(SimTime::from_secs(3));
        assert_eq!(events, 1 + 2 * ROUND);
        let first: Vec<u64> = (0..ROUND).map(|i| i * 7919 % ROUND).collect();
        let second = first.iter().map(|t| ROUND + t * 13 % ROUND);
        let expected: Vec<u64> = first.iter().copied().chain(second).collect();
        assert_eq!(net.node_mut::<Burst>(b).fired, expected);
        assert!(
            net.queue.slots.len() <= ROUND as usize + 1,
            "second round reuses freed slots: {} slots",
            net.queue.slots.len()
        );
        assert_eq!(net.metrics().engine.queue_high_water, ROUND);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut net = Network::new();
        net.run_until(SimTime::from_secs(5));
        assert_eq!(net.now(), SimTime::from_secs(5));
        net.run_for(SimTime::from_secs(3));
        assert_eq!(net.now(), SimTime::from_secs(8));
    }
}
