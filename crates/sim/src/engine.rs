//! The discrete-event engine: wires topology, forwarding state, link
//! queues and TCP together.
//!
//! Time is nanoseconds; the event queue orders by `(time, insertion seq)`,
//! a total order, so runs are exactly reproducible (see [`crate::equeue`]).
//! Each packet hop costs two events (serialization done, arrival after
//! propagation), matching htsim's store-and-forward model.

use crate::equeue::{HeapQueue, TimerWheel};
use crate::failure::{FailureEvent, FailureSchedule};
use crate::link::{LinkQueue, Offer};
use crate::packet::{Packet, INGRESS_NONE};
use crate::tcp::{GbnSignal, TcpOutput, TcpReceiver, TcpSender};
use crate::types::{
    Datapath, DirLinkId, FlowId, FlowRecord, Ns, PfcConfig, SimConfig, SimReport, Transport,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spineless_graph::{EdgeId, NodeId};
use spineless_routing::failures::{incremental_rebuild, FailurePlan};
use spineless_routing::{FibCache, Forwarding, ForwardingState};
use spineless_topo::Topology;
use std::sync::Arc;

/// XOR'd into the ECMP hash input of ACKs so the reverse stream rolls its
/// own path, independent of the data stream's.
const ACK_SALT: u64 = 0xA5A5_5A5A_DEAD_BEEF;

/// Wire size of a PFC pause/resume frame (the 802.3x/802.1Qbb minimum
/// Ethernet frame). Pause frames are not queued packets — they preempt the
/// reverse wire — so this only sets their serialization latency.
pub(crate) const PAUSE_FRAME_BYTES: u32 = 64;

/// Everything that can happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A flow's start time arrived.
    FlowStart(FlowId),
    /// A packet finishes propagation and arrives at the link's head.
    Arrive(DirLinkId, Packet),
    /// A link finishes serializing its current packet.
    TxDone(DirLinkId),
    /// A TCP retransmission timer fires.
    Rto(FlowId, u64),
    /// A scheduled fault/repair (index into the installed
    /// [`FailureSchedule`]) takes effect on the physical fabric.
    Control(u32),
    /// The control plane finishes reconverging on the fabric state as of
    /// epoch `gen`; superseded generations are no-ops.
    Reconverge(u32),
    /// PFC: a pause (`true`) or resume (`false`) frame reaches the
    /// transmitter of directed link `.0`, after serializing on — and
    /// propagating over — that link's reverse direction.
    Pfc(DirLinkId, bool),
}

/// Error from flow admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The pair is not connected under the installed routing scheme.
    Unreachable {
        /// Source server.
        src: u32,
        /// Destination server.
        dst: u32,
    },
    /// A server id was out of range.
    BadServer(u32),
    /// Zero-byte flows are not admitted.
    EmptyFlow,
    /// A failure schedule named an edge id the topology does not have.
    BadLink(u32),
    /// A failure schedule named a switch id the topology does not have.
    BadSwitch(u32),
    /// `set_failure_schedule` was called twice on one simulation.
    ScheduleAlreadySet,
    /// The topology/baseline handed to `set_failure_schedule` does not
    /// match what this simulation was built over.
    PlaneMismatch,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Unreachable { src, dst } => {
                write!(f, "no route between servers {src} and {dst}")
            }
            SimError::BadServer(s) => write!(f, "server {s} out of range"),
            SimError::EmptyFlow => write!(f, "zero-byte flow"),
            SimError::BadLink(e) => write!(f, "failure schedule names edge {e}, which is out of range"),
            SimError::BadSwitch(s) => write!(f, "failure schedule names switch {s}, which is out of range"),
            SimError::ScheduleAlreadySet => write!(f, "a failure schedule is already installed"),
            SimError::PlaneMismatch => write!(
                f,
                "failure schedule's topology/baseline does not match the simulation's forwarding plane"
            ),
        }
    }
}
impl std::error::Error for SimError {}

struct FlowSpec {
    src: u32,
    dst: u32,
    bytes: u64,
    start_ns: Ns,
}

/// Sentinel for [`Simulation`]'s per-link `cut_at`: the link has never
/// been cut.
const NEVER_CUT: Ns = Ns::MAX;

/// Installed failure schedule plus the live fault state it drives.
struct DynFailures {
    schedule: FailureSchedule,
    /// The intact forwarding plane reconvergence rebuilds degrade from
    /// (shared with the caller, e.g. a `spineless-core` `RoutingCache`
    /// entry).
    baseline: Arc<ForwardingState>,
    /// The intact topology (owned clone — failure plans are applied
    /// against it at every reconvergence).
    topo: Topology,
    /// Physical edges currently cut by `LinkDown` events.
    edge_cut: Vec<bool>,
    /// Switches currently downed by `SwitchDown` events.
    switch_down: Vec<bool>,
    /// Bumped on every fault/repair; a `Reconverge(gen)` event only takes
    /// effect if `gen` is still the latest epoch (the control plane
    /// restarts its computation when the fabric changes again mid-flight).
    epoch: u32,
}

/// A reconverged forwarding plane: routing state over the *degraded*
/// topology (whose edges are densely renumbered) plus the map back to
/// original edge ids, so link-queue indices stay stable across swaps.
/// Vnode numbering needs no map — `FailurePlan::apply` preserves the
/// node-id space, so packets in flight keep valid vnodes.
struct SwapPlane {
    fs: ForwardingState,
    /// Degraded edge id → original edge id.
    edge_map: Vec<EdgeId>,
}

impl SwapPlane {
    /// The plane's next hop as `(next vnode, original edge id)`, or
    /// `None` when the degraded plane has no route at this vnode.
    fn try_next_hop(&self, vnode: NodeId, dst: NodeId, hash: u64) -> Option<(NodeId, EdgeId)> {
        let nh = self.fs.next_hops(vnode, dst);
        if nh.is_empty() {
            return None;
        }
        let (nv, arc) = nh[(hash % nh.len() as u64) as usize];
        Some((nv, self.edge_map[self.fs.vrf.edge_of_arc(arc) as usize]))
    }
}

/// A packet-level simulation of one topology + routing + workload triple.
///
/// Generic over the forwarding plane: plain [`ForwardingState`] (ECMP or
/// Shortest-Union(K)) by default, or any [`Forwarding`] implementation —
/// e.g. the adaptive [`spineless_routing::DualPlane`].
pub struct Simulation<F: Forwarding = ForwardingState> {
    cfg: SimConfig,
    fs: F,
    /// Switch of each server.
    server_switch: Vec<NodeId>,
    /// Physical edge endpoints, for direction resolution.
    edge_ends: Vec<(NodeId, NodeId)>,

    queues: Vec<LinkQueue>,
    /// First server-uplink link id (= 2 × switch edges).
    base_up: u32,
    /// First server-downlink link id.
    base_down: u32,

    specs: Vec<FlowSpec>,
    senders: Vec<TcpSender>,
    receivers: Vec<TcpReceiver>,
    fct: Vec<Option<Ns>>,
    flow_hash: Vec<u64>,
    switch_salt: Vec<u64>,
    /// Per-flow flowlet tracking (used when cfg.flowlet_gap_ns is set).
    flowlet_id: Vec<u32>,
    last_emit_ns: Vec<Ns>,

    queue: HeapQueue<Ev>,
    seq: u64,
    now: Ns,
    events: u64,
    /// Packet-link offers processed (accepted or dropped) — identical
    /// across datapaths, unlike `events`, so it is the per-packet work
    /// unit datapath throughput is measured in.
    pkt_hops: u64,
    completed: usize,
    delivered_bytes: u64,

    // ---- fast datapath (cfg.datapath == Datapath::Fast) ----
    /// `true` for the fast datapath; every fast-only structure below is
    /// inert when this is `false`.
    fast: bool,
    /// Direct-indexed FIB replica; `None` falls back to walking `fs` per
    /// hop (reference datapath, oversized fabrics, or forwarding planes
    /// that don't expose one, e.g. `DualPlane`).
    hot: Option<Arc<FibCache>>,
    /// RTO timers live here instead of the event queue: armed/re-armed
    /// once per ACK, cancelled eagerly, merged back into the event stream
    /// by [`Self::next_event`] at their exact `(time, seq)` key.
    wheel: TimerWheel,
    /// The next main-queue event, held while merging with the wheel.
    staged: Option<(Ns, u64, Ev)>,
    /// Insertion seq of the event currently being processed; together
    /// with `now` this is the reference pop point that elided terminal
    /// `TxDone`s are lazily resolved against.
    cur_seq: u64,
    /// Reused TCP output buffer — the steady-state fast loop performs no
    /// per-event allocation.
    out_scratch: TcpOutput,

    // ---- dynamic failures (set_failure_schedule) ----
    /// Installed failure schedule + fault state; `None` = static fabric,
    /// and every failure structure below is inert.
    dynf: Option<Box<DynFailures>>,
    /// The reconverged plane currently forwarding. It replaces the
    /// baseline for next-hop decisions only — start/delivered/router_of
    /// geometry is identical because the vnode space is preserved.
    /// `None` = forwarding on the intact baseline plane.
    swap: Option<Box<SwapPlane>>,
    /// The pristine hot-cache built at construction, so a full repair
    /// restores it without a rebuild.
    base_hot: Option<Arc<FibCache>>,
    /// Per directed link: `false` while the cable or an endpoint switch
    /// is down. Empty until a schedule is installed.
    link_alive: Vec<bool>,
    /// Per directed link: time of the most recent cut ([`NEVER_CUT`] if
    /// never cut). The in-flight loss rule compares it against a
    /// packet's serialization start time.
    cut_at: Vec<Ns>,
    /// Packets dropped because the active plane had no route at their
    /// vnode — possible only after a failure disconnects part of the
    /// fabric. Folded into [`SimReport::dropped_packets`].
    no_route_drops: u64,
    /// Control-plane events (faults + pending reconvergences) within the
    /// time horizon not yet processed. The RTO starvation guard only
    /// abandons a severed flow once this reaches zero — until then a
    /// pending repair or reconvergence could still revive it.
    ctrl_pending: u32,

    // ---- lossless switching (cfg.pfc) ----
    /// PFC thresholds; `None` = lossy drop-tail, and every PFC structure
    /// below is inert (empty vectors, zero counters).
    pfc: Option<PfcConfig>,
    /// Whether terminal-`TxDone` elision is on: the fast datapath *minus*
    /// PFC. Under PFC a terminal `TxDone` is not a no-op — it discharges
    /// the in-flight packet from its ingress account and can trigger XON —
    /// so every `TxDone` must be a real event. (The wheel, FIB hot-cache
    /// and scratch reuse stay on: they key on `fast`.)
    elide: bool,
    /// Per directed link (as *ingress*): bytes currently buffered at the
    /// downstream node that arrived over this link — the occupancy PFC
    /// thresholds watch.
    ingress_bytes: Vec<u64>,
    /// Per ingress link: an XOFF is outstanding (pause sent, no resume
    /// yet). Guarantees strict pause/resume alternation per link.
    xoff_sent: Vec<bool>,
    /// Per ingress link: was ever paused (pause-tree footprint).
    ever_paused: Vec<bool>,
    /// Per directed link: `(ingress, size)` of the packet currently being
    /// serialized, so its ingress account can be discharged at `TxDone`
    /// (queued packets carry their own `ingress`; the in-flight one has
    /// left the queue).
    inflight_meta: Vec<(DirLinkId, u32)>,
    pause_frames: u64,
    resume_frames: u64,
    links_ever_paused: u64,
    max_ingress_backlog: u64,

    // ---- hybrid co-simulation (set_link_residuals) ----
    /// Per directed link: fraction of the link rate left to the packet
    /// plane (the rest is held by fluid elephants). `None` = full rate on
    /// every link, and serialization times are bit-identical to the plain
    /// engine — the `HybridMode::PacketOnly` guarantee rests on this
    /// staying `None`.
    rate_scale: Option<Box<[f64]>>,
}

impl<F: Forwarding> Simulation<F> {
    /// Creates a simulation over `topo` with the given forwarding plane
    /// (which must have been built from `topo.graph`).
    ///
    /// # Panics
    ///
    /// Panics if the forwarding plane's router count does not match the
    /// topology.
    pub fn new(topo: &Topology, fs: F, cfg: SimConfig, seed: u64) -> Simulation<F> {
        Self::with_fib_cache(topo, fs, cfg, seed, None)
    }

    /// [`new`](Self::new) with an optional pre-built FIB hot-cache, so
    /// callers timing the simulation (benchmarks) can hoist the one-time
    /// [`FibCache::build`] cost out of the measured region. `cache` must
    /// have been built from this exact `fs` and `topo` (the debug-mode
    /// cross-checks catch a mismatch); `None` builds one here when the
    /// fast datapath is selected.
    pub fn with_fib_cache(
        topo: &Topology,
        fs: F,
        cfg: SimConfig,
        seed: u64,
        cache: Option<Arc<FibCache>>,
    ) -> Simulation<F> {
        assert_eq!(
            fs.routers(),
            topo.num_switches(),
            "forwarding plane built for a different topology"
        );
        let num_servers = topo.num_servers();
        let mut server_switch = vec![0u32; num_servers as usize];
        for sw in 0..topo.num_switches() {
            for s in topo.servers_on(sw) {
                server_switch[s as usize] = sw;
            }
        }
        let e = topo.graph.num_edges();
        let base_up = 2 * e;
        let base_down = base_up + num_servers;
        let total_links = (base_down + num_servers) as usize;
        let mut rng = SmallRng::seed_from_u64(seed);
        let switch_salt = (0..topo.num_switches()).map(|_| rng.gen()).collect();
        let edge_ends: Vec<(NodeId, NodeId)> = topo.graph.edges().to_vec();
        let fast = cfg.datapath == Datapath::Fast;
        let hot = if fast {
            cache.or_else(|| fs.fib_cache(&edge_ends).map(Arc::new))
        } else {
            None
        };
        if let Some(p) = cfg.pfc {
            assert!(
                p.xon_bytes < p.xoff_bytes,
                "PFC thresholds need hysteresis: xon {} >= xoff {}",
                p.xon_bytes,
                p.xoff_bytes
            );
        }
        let pfc_links = if cfg.pfc.is_some() { total_links } else { 0 };
        Simulation {
            cfg,
            fs,
            server_switch,
            edge_ends,
            queues: vec![LinkQueue::new(); total_links],
            base_up,
            base_down,
            specs: Vec::new(),
            senders: Vec::new(),
            receivers: Vec::new(),
            fct: Vec::new(),
            flow_hash: Vec::new(),
            switch_salt,
            flowlet_id: Vec::new(),
            last_emit_ns: Vec::new(),
            queue: HeapQueue::new(),
            seq: 0,
            now: 0,
            events: 0,
            pkt_hops: 0,
            completed: 0,
            delivered_bytes: 0,
            fast,
            base_hot: hot.clone(),
            hot,
            wheel: TimerWheel::new(),
            staged: None,
            cur_seq: 0,
            out_scratch: TcpOutput::default(),
            dynf: None,
            swap: None,
            link_alive: Vec::new(),
            cut_at: Vec::new(),
            no_route_drops: 0,
            ctrl_pending: 0,
            pfc: cfg.pfc,
            elide: fast && cfg.pfc.is_none(),
            ingress_bytes: vec![0; pfc_links],
            xoff_sent: vec![false; pfc_links],
            ever_paused: vec![false; pfc_links],
            inflight_meta: vec![(INGRESS_NONE, 0); pfc_links],
            pause_frames: 0,
            resume_frames: 0,
            links_ever_paused: 0,
            max_ingress_backlog: 0,
            rate_scale: None,
        }
    }

    /// Installs a dynamic [`FailureSchedule`]: its fault/repair events are
    /// injected into the `(time, seq)` event stream, and after each fabric
    /// change the control plane reconverges `reconverge_delay_ns` later by
    /// swapping in routing state rebuilt from `baseline` via
    /// [`incremental_rebuild`]. Until the swap lands, traffic keeps
    /// following the stale plane and blackholes at cut links — exactly the
    /// window the paper's shortcut-aware failure story is about.
    ///
    /// `topo` must be the topology this simulation was built over and
    /// `baseline` the intact [`ForwardingState`] the active plane forwards
    /// with (for `Simulation<ForwardingState>`/`Arc<ForwardingState>`
    /// planes, the same state — reuse the `Arc` handed to the
    /// constructor). Must be called before [`run`](Self::run), at most
    /// once, and before/after [`add_flow`](Self::add_flow) calls in the
    /// same order across runs being compared for determinism (events
    /// consume insertion seqs).
    pub fn set_failure_schedule(
        &mut self,
        topo: &Topology,
        baseline: Arc<ForwardingState>,
        schedule: FailureSchedule,
    ) -> Result<(), SimError> {
        if self.dynf.is_some() {
            return Err(SimError::ScheduleAlreadySet);
        }
        if baseline.routers() != self.fs.routers() || topo.graph.edges() != &self.edge_ends[..] {
            return Err(SimError::PlaneMismatch);
        }
        let ne = self.edge_ends.len() as u32;
        let nsw = self.fs.routers();
        for &(_, ev) in &schedule.events {
            match ev {
                FailureEvent::LinkDown(e) | FailureEvent::LinkUp(e) if e >= ne => {
                    return Err(SimError::BadLink(e));
                }
                FailureEvent::SwitchDown(s) | FailureEvent::SwitchUp(s) if s >= nsw => {
                    return Err(SimError::BadSwitch(s));
                }
                _ => {}
            }
        }
        self.link_alive = vec![true; self.queues.len()];
        self.cut_at = vec![NEVER_CUT; self.queues.len()];
        for (i, &(t, _)) in schedule.events.iter().enumerate() {
            if t <= self.cfg.max_time_ns {
                self.ctrl_pending += 1;
            }
            self.push(t, Ev::Control(i as u32));
        }
        self.dynf = Some(Box::new(DynFailures {
            baseline,
            topo: topo.clone(),
            edge_cut: vec![false; ne as usize],
            switch_down: vec![false; nsw as usize],
            epoch: 0,
            schedule,
        }));
        Ok(())
    }

    /// Whether the fast datapath is forwarding through a FIB hot-cache
    /// (as opposed to walking the forwarding plane per hop).
    pub fn uses_fib_cache(&self) -> bool {
        self.hot.is_some()
    }

    /// Packet-link offers processed so far (accepted or dropped). Unlike
    /// [`SimReport::events`] this count is identical across datapaths, so
    /// benchmarks report datapath throughput in packet-hops/sec.
    pub fn pkt_hops(&self) -> u64 {
        self.pkt_hops
    }

    /// Admits a flow of `bytes` from server `src` to server `dst`,
    /// starting at `start_ns`. Returns its [`FlowId`].
    pub fn add_flow(
        &mut self,
        src: u32,
        dst: u32,
        bytes: u64,
        start_ns: Ns,
    ) -> Result<FlowId, SimError> {
        let ns = self.server_switch.len() as u32;
        if src >= ns {
            return Err(SimError::BadServer(src));
        }
        if dst >= ns {
            return Err(SimError::BadServer(dst));
        }
        if bytes == 0 {
            return Err(SimError::EmptyFlow);
        }
        let (ssw, dsw) = (self.server_switch[src as usize], self.server_switch[dst as usize]);
        if ssw != dsw && !self.fs.reachable(ssw, dsw) {
            return Err(SimError::Unreachable { src, dst });
        }
        let id = self.specs.len() as FlowId;
        self.specs.push(FlowSpec { src, dst, bytes, start_ns });
        self.senders.push(TcpSender::with_transport(
            id,
            bytes,
            self.cfg.mss_bytes,
            self.cfg.initial_cwnd,
            self.cfg.min_rto_ns,
            self.cfg.transport,
        ));
        self.receivers.push(TcpReceiver::new());
        self.fct.push(None);
        self.flowlet_id.push(0);
        self.last_emit_ns.push(0);
        // Per-flow ECMP hash input; derives from ids so adding flows in a
        // different order does not change an existing flow's path.
        self.flow_hash.push(mix(0x5851_F42D_4C95_7F2D ^ ((src as u64) << 32 | dst as u64) ^ ((id as u64) << 17)));
        self.push(start_ns, Ev::FlowStart(id));
        Ok(id)
    }

    /// Runs to completion (or `cfg.max_time_ns`) and reports.
    pub fn run(&mut self) -> SimReport {
        while let Some((t, seq, ev)) = self.next_event() {
            if t > self.cfg.max_time_ns {
                self.now = self.cfg.max_time_ns;
                break;
            }
            debug_assert!(t >= self.now, "time went backwards: {t} < {}", self.now);
            self.now = t;
            self.cur_seq = seq;
            self.events += 1;
            self.dispatch(ev);
            if self.completed == self.specs.len() {
                break;
            }
        }
        self.report()
    }

    /// Processes every event with `t <= deadline` (and within
    /// `cfg.max_time_ns`), then advances `now` to the (clamped) deadline.
    /// Events beyond the deadline stay queued; a later `run_until` or
    /// [`run`](Self::run) picks them up. Returns `false` once the time
    /// horizon has been reached (nothing further can execute).
    ///
    /// This is the packet half of the hybrid co-simulation loop: the
    /// driver alternates bounded packet windows with fluid re-solves at
    /// elephant arrival/departure and failure control points.
    pub fn run_until(&mut self, deadline: Ns) -> bool {
        let deadline = deadline.min(self.cfg.max_time_ns);
        while let Some((t, seq, ev)) = self.next_event_until(deadline) {
            debug_assert!(t >= self.now, "time went backwards: {t} < {}", self.now);
            self.now = t;
            self.cur_seq = seq;
            self.events += 1;
            self.dispatch(ev);
            if self.completed == self.specs.len() {
                break;
            }
        }
        // Time advances to the window edge even when no event landed
        // exactly on it, so the caller's rate integration sees contiguous
        // windows and nothing can later execute "in the past".
        if self.now < deadline {
            self.now = deadline;
        }
        deadline < self.cfg.max_time_ns
    }

    /// Executes one event (shared by [`run`](Self::run) and
    /// [`run_until`](Self::run_until)); `self.now`/`self.cur_seq` are
    /// already set to the event's key.
    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::FlowStart(f) => {
                let mut out = std::mem::take(&mut self.out_scratch);
                self.senders[f as usize].start_into(self.now, &mut out);
                self.apply_tcp_output(f, &out);
                self.out_scratch = out;
            }
            Ev::TxDone(link) => {
                if self.pfc.is_some() {
                    // Store-and-forward: the packet that just finished
                    // serializing leaves the node's buffer now — discharge
                    // it from its ingress account (possibly emitting XON)
                    // before the port decides what to do next.
                    let (ing, sz) = std::mem::replace(
                        &mut self.inflight_meta[link as usize],
                        (INGRESS_NONE, 0),
                    );
                    self.pfc_discharge(ing, sz);
                }
                if let Some(pkt) = self.queues[link as usize].tx_done() {
                    if self.pfc.is_some() {
                        self.inflight_meta[link as usize] = (pkt.ingress, pkt.size);
                    }
                    let tx = self.tx_ns_on(link, pkt.size);
                    if self.elide && !self.queues[link as usize].has_queued() {
                        // Nothing behind the wire: elide the next
                        // terminal TxDone, reserving its seq so the
                        // (time, seq) stream matches the reference.
                        self.seq += 1;
                        self.queues[link as usize].pending_txdone =
                            Some((self.now + tx, self.seq));
                    } else {
                        self.push(self.now + tx, Ev::TxDone(link));
                    }
                    self.push(self.now + tx + self.link_delay(link), Ev::Arrive(link, pkt));
                } else {
                    // Terminal TxDone: the reference datapath (and any PFC
                    // run) processes these; with elision on, one only
                    // materializes with an empty queue behind it when a
                    // LinkDown flushed the queue after materialization.
                    debug_assert!(
                        !self.elide || self.dynf.is_some(),
                        "fast path popped a terminal TxDone"
                    );
                }
            }
            Ev::Arrive(link, pkt) => self.on_arrive(link, pkt),
            Ev::Rto(f, gen) => {
                if !self.rto_abandoned(f) {
                    let mut out = std::mem::take(&mut self.out_scratch);
                    self.senders[f as usize].on_timer_into(self.now, gen, &mut out);
                    self.apply_tcp_output(f, &out);
                    self.out_scratch = out;
                }
            }
            Ev::Control(i) => {
                self.ctrl_pending -= 1;
                self.apply_control(i);
            }
            Ev::Reconverge(gen) => {
                self.ctrl_pending -= 1;
                self.reconverge(gen);
            }
            Ev::Pfc(link, pause) => {
                if pause {
                    self.queues[link as usize].pause();
                } else if let Some(pkt) = self.queues[link as usize].resume() {
                    // The port was idle with packets held: the head starts
                    // serializing now (it was charged when it queued; it
                    // becomes the in-flight packet until its TxDone).
                    self.inflight_meta[link as usize] = (pkt.ingress, pkt.size);
                    let tx = self.tx_ns_on(link, pkt.size);
                    self.push(self.now + tx, Ev::TxDone(link));
                    self.push(self.now + tx + self.link_delay(link), Ev::Arrive(link, pkt));
                }
            }
        }
    }

    /// Pops the next event in global `(time, seq)` order, merging the
    /// main event queue with the RTO timing wheel. The next queue event
    /// is staged so its key can bound the wheel lookup — in the common
    /// case (no timer due first) that bound check is a single comparison
    /// against the wheel's cached minimum.
    fn next_event(&mut self) -> Option<(Ns, u64, Ev)> {
        if self.staged.is_none() {
            self.staged = self.queue.pop();
        }
        let bound = self.staged.map_or((Ns::MAX, u64::MAX), |(t, s, _)| (t, s));
        if let Some((t, s, flow, gen)) = self.wheel.pop_before(bound) {
            return Some((t, s, Ev::Rto(flow, gen)));
        }
        self.staged.take()
    }

    /// [`next_event`](Self::next_event) bounded at `deadline`: events (and
    /// wheel timers) past it stay in place for a later window. The wheel
    /// bound is capped at `(deadline + 1, 0)` — every timer at
    /// `t <= deadline` sorts strictly below it, and the anchor advance it
    /// triggers is sound because the caller stops processing at `deadline`
    /// and every later insert lands after it.
    fn next_event_until(&mut self, deadline: Ns) -> Option<(Ns, u64, Ev)> {
        if self.staged.is_none() {
            self.staged = self.queue.pop();
        }
        let bound = self
            .staged
            .map_or((Ns::MAX, u64::MAX), |(t, s, _)| (t, s))
            .min((deadline.saturating_add(1), 0));
        if let Some((t, s, flow, gen)) = self.wheel.pop_before(bound) {
            return Some((t, s, Ev::Rto(flow, gen)));
        }
        match self.staged {
            Some((t, _, _)) if t <= deadline => self.staged.take(),
            _ => None,
        }
    }

    /// Builds the report from current state (also used after early stop).
    fn report(&self) -> SimReport {
        let flows = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, sp)| FlowRecord {
                id: i as FlowId,
                src: sp.src,
                dst: sp.dst,
                bytes: sp.bytes,
                start_ns: sp.start_ns,
                fct_ns: self.fct[i],
                retransmits: self.senders[i].retransmits,
                timeouts: self.senders[i].timeouts,
            })
            .collect();
        let dropped_packets =
            self.queues.iter().map(|q| q.drops).sum::<u64>() + self.no_route_drops;
        SimReport {
            flows,
            dropped_packets,
            delivered_bytes: self.delivered_bytes,
            end_ns: self.now,
            events: self.events,
            peak_pending_events: self.queue.peak_len() as u64,
            used_fib_cache: self.hot.is_some(),
            congestion_drops: self.queues.iter().map(|q| q.tail_drops).sum::<u64>(),
            pause_frames: self.pause_frames,
            resume_frames: self.resume_frames,
            links_ever_paused: self.links_ever_paused,
            max_ingress_backlog: self.max_ingress_backlog,
        }
    }

    /// Per-switch-link transmitted bytes (index = directed link id
    /// `2 * edge + dir`); for utilization accounting.
    pub fn switch_link_tx_bytes(&self) -> Vec<u64> {
        self.queues[..self.base_up as usize].iter().map(|q| q.tx_bytes).collect()
    }

    /// Mean utilization of switch-switch links over the run.
    pub fn mean_switch_link_utilization(&self) -> f64 {
        if self.now == 0 || self.base_up == 0 {
            return 0.0;
        }
        let cap = self.cfg.bytes_per_ns() * self.now as f64;
        let sum: u64 = self.switch_link_tx_bytes().iter().sum();
        sum as f64 / (cap * self.base_up as f64)
    }

    // ---- internals ----

    /// Assigns a fresh (maximal) seq to `ev` and enqueues it, keeping the
    /// staged-event slot coherent: a timer handler popped ahead of the
    /// staged event may emit events that precede it (e.g. a retransmitted
    /// packet's wire events vs a far-future `FlowStart`), in which case the
    /// staged event must return to the queue or it would be processed out
    /// of order. A fresh seq loses every `(time, seq)` tie, so comparing
    /// times alone suffices.
    fn push(&mut self, t: Ns, ev: Ev) {
        self.seq += 1;
        if let Some(&(st, _, _)) = self.staged.as_ref() {
            if t < st {
                let (st, ss, sev) = self.staged.take().expect("just checked");
                self.queue.push(st, ss, sev);
            }
        }
        self.queue.push(t, self.seq, ev);
    }

    /// Pushes an event that already owns its `seq` (a materialized elided
    /// `TxDone`), keeping the staged-event slot coherent: if the staged
    /// event no longer has the smallest key, it goes back into the queue.
    fn push_materialized(&mut self, t: Ns, seq: u64, ev: Ev) {
        if let Some(&(st, ss, _)) = self.staged.as_ref() {
            if (t, seq) < (st, ss) {
                let (st, ss, sev) = self.staged.take().expect("just checked");
                self.queue.push(st, ss, sev);
            }
        }
        self.queue.push(t, seq, ev);
    }

    /// Lazily resolves `link`'s elided terminal `TxDone` if the reference
    /// datapath would already have processed it: its `(time, seq)` key is
    /// below the event being processed right now, so the wire has been
    /// idle since then.
    fn resolve_pending(&mut self, link: DirLinkId) {
        let q = &mut self.queues[link as usize];
        if let Some((pt, ps)) = q.pending_txdone {
            if (pt, ps) < (self.now, self.cur_seq) {
                q.pending_txdone = None;
                q.go_idle();
            }
        }
    }

    fn link_delay(&self, link: DirLinkId) -> Ns {
        if link < self.base_up {
            self.cfg.link_delay_ns
        } else {
            self.cfg.server_link_delay_ns
        }
    }

    // ---- hybrid co-simulation hooks ----

    /// Current simulated time, ns.
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Total directed links (switch links, then uplinks, then downlinks —
    /// the same index space as `spineless_fluid::LinkSpace`).
    pub fn num_dir_links(&self) -> usize {
        self.queues.len()
    }

    /// Installs per-link residual capacity fractions: link `l` serializes
    /// packets at `residual[l] × link rate`. The hybrid driver pushes the
    /// capacity left over after the fluid elephants' max-min allocation
    /// here after every re-solve. Values are clamped to `[1e-6, 1.0]` —
    /// a link fully consumed by elephants still trickles packets rather
    /// than stalling the DES.
    ///
    /// Affects packets whose serialization *starts* after the call;
    /// packets already on the wire keep their scheduled times (the same
    /// convention as a real PHY rate change).
    ///
    /// # Panics
    ///
    /// Panics unless `residual.len() == self.num_dir_links()`.
    pub fn set_link_residuals(&mut self, residual: &[f64]) {
        assert_eq!(residual.len(), self.queues.len(), "residual vector length mismatch");
        let scale = self
            .rate_scale
            .get_or_insert_with(|| vec![1.0f64; residual.len()].into_boxed_slice());
        for (s, &r) in scale.iter_mut().zip(residual) {
            *s = r.clamp(1e-6, 1.0);
        }
    }

    /// Serialization time of `bytes` on `link` under the current residual
    /// capacity; exactly [`SimConfig::tx_ns`] when no residuals are
    /// installed (bit-identity for the plain and `PacketOnly` engines).
    fn tx_ns_on(&self, link: DirLinkId, bytes: u32) -> Ns {
        match &self.rate_scale {
            None => self.cfg.tx_ns(bytes),
            Some(scale) => {
                let s = scale[link as usize];
                if s >= 1.0 {
                    self.cfg.tx_ns(bytes)
                } else {
                    (bytes as f64 / (self.cfg.bytes_per_ns() * s)).ceil() as Ns
                }
            }
        }
    }

    /// Whether directed link `l` is currently alive (always `true` when no
    /// failure schedule is installed).
    pub fn link_is_alive(&self, l: DirLinkId) -> bool {
        self.link_alive.is_empty() || self.link_alive[l as usize]
    }

    /// The reconverged forwarding plane currently active, as (degraded
    /// state, degraded-edge → original-edge map); `None` while forwarding
    /// on the intact baseline. The hybrid driver re-routes stalled
    /// elephants over this plane when the packet control plane converges.
    pub(crate) fn swap_plane_view(&self) -> Option<(&ForwardingState, &[EdgeId])> {
        self.swap.as_ref().map(|sp| (&sp.fs, &sp.edge_map[..]))
    }

    // ---- dynamic-failure internals ----

    /// Applies scheduled fault/repair `idx` to the physical fabric and
    /// kicks off a fresh control-plane reconvergence.
    fn apply_control(&mut self, idx: u32) {
        let (delay, ev) = {
            let d = self.dynf.as_ref().expect("control event without a failure schedule");
            (d.schedule.reconverge_delay_ns, d.schedule.events[idx as usize].1)
        };
        match ev {
            FailureEvent::LinkDown(e) => {
                self.dynf.as_mut().expect("checked above").edge_cut[e as usize] = true;
                self.refresh_edge(e);
            }
            FailureEvent::LinkUp(e) => {
                self.dynf.as_mut().expect("checked above").edge_cut[e as usize] = false;
                self.refresh_edge(e);
            }
            FailureEvent::SwitchDown(sw) => {
                self.dynf.as_mut().expect("checked above").switch_down[sw as usize] = true;
                self.refresh_switch(sw);
            }
            FailureEvent::SwitchUp(sw) => {
                self.dynf.as_mut().expect("checked above").switch_down[sw as usize] = false;
                self.refresh_switch(sw);
            }
        }
        let gen = {
            let d = self.dynf.as_mut().expect("checked above");
            d.epoch += 1;
            d.epoch
        };
        let at = self.now.saturating_add(delay);
        if at <= self.cfg.max_time_ns {
            self.ctrl_pending += 1;
        }
        self.push(at, Ev::Reconverge(gen));
    }

    /// Recomputes both directions of physical edge `e` from the current
    /// fault state (an edge is up iff neither the cable nor an endpoint
    /// switch is down).
    fn refresh_edge(&mut self, e: EdgeId) {
        let (a, b) = self.edge_ends[e as usize];
        let alive = {
            let d = self.dynf.as_ref().expect("no failure schedule");
            !d.edge_cut[e as usize] && !d.switch_down[a as usize] && !d.switch_down[b as usize]
        };
        self.set_link_alive(2 * e, alive);
        self.set_link_alive(2 * e + 1, alive);
    }

    /// Recomputes every directed link touching switch `sw`: its incident
    /// cables and both directions of its rack's server links.
    fn refresh_switch(&mut self, sw: NodeId) {
        for e in 0..self.edge_ends.len() as u32 {
            let (a, b) = self.edge_ends[e as usize];
            if a == sw || b == sw {
                self.refresh_edge(e);
            }
        }
        let alive = !self.dynf.as_ref().expect("no failure schedule").switch_down[sw as usize];
        for s in 0..self.server_switch.len() as u32 {
            if self.server_switch[s as usize] == sw {
                self.set_link_alive(self.base_up + s, alive);
                self.set_link_alive(self.base_down + s, alive);
            }
        }
    }

    /// Alive-state transition for one directed link. Going down stamps the
    /// cut time (for the in-flight loss rule) and flushes the waiting
    /// queue; coming back up just reopens the port — the stale `cut_at` is
    /// harmless because the loss rule compares it against serialization
    /// *start* times, and nothing launches on a dead port.
    fn set_link_alive(&mut self, link: DirLinkId, alive: bool) {
        let was = self.link_alive[link as usize];
        if was && !alive {
            self.link_alive[link as usize] = false;
            self.cut_at[link as usize] = self.now;
            if self.pfc.is_some() {
                // The flush discards packets that still hold per-ingress
                // charges upstream; discharge them first or their
                // ingresses stay paused forever (a phantom pause tree).
                let held: Vec<(DirLinkId, u32)> = self.queues[link as usize]
                    .iter_queued()
                    .map(|p| (p.ingress, p.size))
                    .collect();
                for (ing, sz) in held {
                    self.pfc_discharge(ing, sz);
                }
            }
            self.queues[link as usize].flush_dead();
        } else if !was && alive {
            self.link_alive[link as usize] = true;
        }
    }

    /// The control plane finishes computing routes for epoch `gen`: swap
    /// the degraded plane (and its hot-cache, on the fast datapath) in.
    /// Superseded generations are dropped — the fabric changed again while
    /// this computation was in flight, and a fresh one is already pending.
    fn reconverge(&mut self, gen: u32) {
        let d = self.dynf.as_ref().expect("reconverge without a failure schedule");
        if gen != d.epoch {
            return;
        }
        let plan = FailurePlan {
            failed_links: (0..self.edge_ends.len() as u32)
                .filter(|&e| d.edge_cut[e as usize])
                .collect(),
            failed_switches: (0..d.switch_down.len() as u32)
                .filter(|&s| d.switch_down[s as usize])
                .collect(),
        };
        if plan.failed_links.is_empty() && plan.failed_switches.is_empty() {
            // Fully repaired: back to the pristine baseline plane.
            self.swap = None;
            self.hot = self.base_hot.clone();
            return;
        }
        let (degraded, state) = incremental_rebuild(&d.baseline, &d.topo, &plan)
            .expect("reconvergence rebuild failed on a schedule validated at install time");
        let edge_map = plan.surviving_edge_map(&d.topo);
        debug_assert_eq!(edge_map.len() as u32, degraded.graph.num_edges());
        self.hot = if self.fast {
            FibCache::build(&state, degraded.graph.edges()).map(|mut c| {
                // The cache speaks degraded directed-link ids; rewrite them
                // to the original link-id space the queues are indexed in
                // (direction bit is preserved — apply() keeps endpoint
                // order for surviving edges).
                c.remap_links(|l| 2 * edge_map[(l >> 1) as usize] + (l & 1));
                Arc::new(c)
            })
        } else {
            None
        };
        self.swap = Some(Box::new(SwapPlane { fs: state, edge_map }));
    }

    /// Whether a firing RTO belongs to a flow that can never make progress
    /// again: an endpoint ToR is down, or the active plane has no route
    /// between the endpoint ToRs — and no control-plane event is pending
    /// that could change that. Processing such an RTO would retransmit
    /// into a void and re-arm forever, hanging `run` when `max_time_ns`
    /// is unbounded; skipping it lets the timer die and the flow end as
    /// `unfinished`. The decision reads only state shared by both
    /// datapaths, so they stay bit-identical.
    fn rto_abandoned(&self, f: FlowId) -> bool {
        let Some(d) = self.dynf.as_ref() else { return false };
        if self.ctrl_pending > 0 {
            return false;
        }
        let spec = &self.specs[f as usize];
        let ssw = self.server_switch[spec.src as usize];
        let dsw = self.server_switch[spec.dst as usize];
        if d.switch_down[ssw as usize] || d.switch_down[dsw as usize] {
            return true;
        }
        if ssw == dsw {
            return false;
        }
        !match &self.swap {
            Some(sw) => sw.fs.reachable(ssw, dsw),
            None => self.fs.reachable(ssw, dsw),
        }
    }

    // ---- PFC internals ----

    /// Pause-frame transit from the node downstream of `ingress` back to
    /// its transmitter: serialize 64 B on the reverse wire + propagate.
    /// Both directions of a cable share one delay, so `link_delay(ingress)`
    /// is the reverse direction's delay too (uplinks pair with downlinks
    /// at the same `server_link_delay_ns`). Pause and resume transit
    /// identically and `xoff_sent` alternates them strictly, so they can
    /// never overtake each other in the `(time, seq)` stream.
    fn pfc_transit(&self, ingress: DirLinkId) -> Ns {
        self.cfg.tx_ns(PAUSE_FRAME_BYTES) + self.link_delay(ingress)
    }

    /// A packet that arrived over `ingress` was accepted into a queue at
    /// the downstream node: charge its account, emitting XOFF on the
    /// upward crossing of the pause threshold.
    fn pfc_charge(&mut self, ingress: DirLinkId, size: u32) {
        if ingress == INGRESS_NONE {
            return; // host-injected: the NIC is not a paused ingress
        }
        let p = self.pfc.expect("pfc_charge without PFC configured");
        let b = &mut self.ingress_bytes[ingress as usize];
        *b += size as u64;
        if *b > self.max_ingress_backlog {
            self.max_ingress_backlog = *b;
        }
        if *b >= p.xoff_bytes && !self.xoff_sent[ingress as usize] {
            self.xoff_sent[ingress as usize] = true;
            self.pause_frames += 1;
            if !self.ever_paused[ingress as usize] {
                self.ever_paused[ingress as usize] = true;
                self.links_ever_paused += 1;
            }
            let at = self.now + self.pfc_transit(ingress);
            self.push(at, Ev::Pfc(ingress, true));
        }
    }

    /// A packet that arrived over `ingress` left the downstream node's
    /// buffer (its egress serialization finished, or a dead-link flush
    /// discarded it): discharge its account, emitting XON on the downward
    /// crossing of the resume threshold.
    fn pfc_discharge(&mut self, ingress: DirLinkId, size: u32) {
        if ingress == INGRESS_NONE {
            return;
        }
        let p = self.pfc.expect("pfc_discharge without PFC configured");
        let b = &mut self.ingress_bytes[ingress as usize];
        *b -= size as u64;
        if *b <= p.xon_bytes && self.xoff_sent[ingress as usize] {
            self.xoff_sent[ingress as usize] = false;
            self.resume_frames += 1;
            let at = self.now + self.pfc_transit(ingress);
            self.push(at, Ev::Pfc(ingress, false));
        }
    }

    /// The active plane's next hop as `(next vnode, directed link id)`:
    /// the reconverged swap plane when one is installed, the baseline
    /// plane otherwise. `None` means no route exists at this vnode —
    /// possible only after a failure disconnects it — and the packet must
    /// be dropped.
    fn active_hop(&self, router: NodeId, vnode: NodeId, dst: NodeId, h: u64) -> Option<(NodeId, u32)> {
        let (nv, edge) = match &self.swap {
            Some(sw) => sw.try_next_hop(vnode, dst, h)?,
            None => self.fs.next_hop(vnode, dst, h),
        };
        let (a, _b) = self.edge_ends[edge as usize];
        let dir = if router == a { 0 } else { 1 };
        Some((nv, 2 * edge + dir))
    }

    /// Offers a packet to a directed link, scheduling wire events on start.
    /// Data packets pick up DCTCP ECN marks at congested queues.
    fn offer(&mut self, link: DirLinkId, mut pkt: Packet) {
        self.pkt_hops += 1;
        if self.dynf.is_some() && !self.link_alive[link as usize] {
            // Dead port: stale routing keeps steering packets here until
            // the control plane reconverges; they blackhole at the cut.
            self.queues[link as usize].drops += 1;
            return;
        }
        if self.elide {
            // The port's busy flag must reflect the reference state before
            // any decision reads it.
            self.resolve_pending(link);
        }
        let ecn = match self.cfg.transport {
            Transport::Dctcp if !pkt.is_ack => Some(self.cfg.ecn_threshold_bytes.max(1)),
            _ => None,
        };
        // Marking must survive for packets that start transmitting
        // immediately, so apply it here from the observed backlog (the
        // queue applies it too for the queued path; both see the same
        // backlog value).
        if let Some(k) = ecn {
            if self.queues[link as usize].backlog_bytes() >= k {
                pkt.ecn = true;
            }
        }
        // PFC sizes the (per-egress) buffer to the pause tree: per-ingress
        // thresholds bound real occupancy, but an incast of many ingresses
        // into one egress legitimately holds several XOFF-loads at once —
        // a real lossless switch provisions shared buffer for exactly
        // that, so the cap is lifted and `max_ingress_backlog` reports the
        // occupancy the thresholds actually allowed.
        let cap = if self.pfc.is_some() { u64::MAX } else { self.cfg.queue_bytes };
        match self.queues[link as usize].offer(pkt, cap, ecn) {
            Offer::StartTx => {
                if self.pfc.is_some() {
                    self.inflight_meta[link as usize] = (pkt.ingress, pkt.size);
                    self.pfc_charge(pkt.ingress, pkt.size);
                }
                let tx = self.tx_ns_on(link, pkt.size);
                if self.elide {
                    // The queue behind a freshly started wire is empty, so
                    // this TxDone would be terminal: elide it (reserving
                    // its seq) until a packet actually queues behind.
                    self.seq += 1;
                    self.queues[link as usize].pending_txdone = Some((self.now + tx, self.seq));
                } else {
                    self.push(self.now + tx, Ev::TxDone(link));
                }
                self.push(self.now + tx + self.link_delay(link), Ev::Arrive(link, pkt));
            }
            Offer::Queued => {
                if self.pfc.is_some() {
                    self.pfc_charge(pkt.ingress, pkt.size);
                }
                if let Some((pt, ps)) = self.queues[link as usize].pending_txdone.take() {
                    // A packet now waits behind the wire, so the elided
                    // terminal TxDone has real work to do: materialize it
                    // at its reserved (time, seq) key. resolve_pending
                    // guarantees the key is still ahead of the pop point.
                    self.push_materialized(pt, ps, Ev::TxDone(link));
                }
            }
            Offer::Dropped => {}
        }
    }

    fn on_arrive(&mut self, link: DirLinkId, pkt: Packet) {
        if self.dynf.is_some() {
            let cut = self.cut_at[link as usize];
            // The packet began serializing at `now - tx - delay`; if the
            // cable was cut at or after that instant (or is still down),
            // the packet was lost in flight. Purely a function of event
            // times, so both datapaths agree bit-for-bit.
            if !self.link_alive[link as usize]
                || (cut != NEVER_CUT
                    && cut
                        .saturating_add(self.link_delay(link))
                        .saturating_add(self.tx_ns_on(link, pkt.size))
                        >= self.now)
            {
                self.queues[link as usize].drops += 1;
                return;
            }
        }
        if link >= self.base_down {
            // Server downlink: delivery to the host.
            self.deliver(pkt);
        } else {
            // Arrived at a switch (head of a switch link or of an uplink).
            let mut pkt = pkt;
            if self.pfc.is_some() {
                // The packet now occupies this switch's buffer on behalf
                // of this ingress; `offer` charges it to this account.
                pkt.ingress = link;
            }
            self.forward(pkt);
        }
    }

    /// Hop-by-hop forwarding at the switch `router_of(pkt.vnode)`.
    fn forward(&mut self, mut pkt: Packet) {
        if self.fs.delivered(pkt.vnode, pkt.dst_router) {
            let down = self.base_down + pkt.dst_server;
            self.offer(down, pkt);
            return;
        }
        let router = self.fs.router_of(pkt.vnode);
        if let Some(hot) = &self.hot {
            // Hot path: one mix of the pre-combined hash base, one
            // direct-indexed slot lookup, one modulo. `hash_base` already
            // folds flow hash, flowlet and ACK salt (XOR commutes), so
            // the hash is bit-identical to the reference expression.
            let h = mix(pkt.hash_base ^ self.switch_salt[router as usize]);
            let hop = hot.try_next_hop(pkt.vnode, pkt.dst_router, h);
            #[cfg(debug_assertions)]
            {
                let href = mix(
                    self.flow_hash[pkt.flow as usize]
                        ^ self.switch_salt[router as usize]
                        ^ ((pkt.flowlet as u64) << 32)
                        ^ if pkt.is_ack { ACK_SALT } else { 0 },
                );
                assert_eq!(h, href, "hash_base out of sync with flow/flowlet state");
                assert_eq!(
                    hop,
                    self.active_hop(router, pkt.vnode, pkt.dst_router, href),
                    "FIB hot-cache diverged from the active forwarding plane"
                );
            }
            match hop {
                Some((nv, dir_link)) => {
                    pkt.vnode = nv;
                    self.offer(dir_link, pkt);
                }
                // Disconnected vnode on a degraded plane: packet is gone.
                None => self.no_route_drops += 1,
            }
            return;
        }
        let h = mix(
            self.flow_hash[pkt.flow as usize]
                ^ self.switch_salt[router as usize]
                ^ ((pkt.flowlet as u64) << 32)
                ^ if pkt.is_ack { ACK_SALT } else { 0 },
        );
        match self.active_hop(router, pkt.vnode, pkt.dst_router, h) {
            Some((nv, dir_link)) => {
                pkt.vnode = nv;
                self.offer(dir_link, pkt);
            }
            None => self.no_route_drops += 1,
        }
    }

    /// A packet reached its destination server.
    fn deliver(&mut self, pkt: Packet) {
        let f = pkt.flow as usize;
        if pkt.is_ack {
            let mut out = std::mem::take(&mut self.out_scratch);
            if pkt.nack {
                self.senders[f].on_nack_into(self.now, pkt.seq, pkt.echo_epoch, &mut out);
            } else {
                self.senders[f].on_ack_ecn_into(
                    self.now,
                    pkt.seq,
                    pkt.echo_ns,
                    pkt.echo_epoch,
                    pkt.ecn,
                    &mut out,
                );
            }
            self.apply_tcp_output(pkt.flow, &out);
            self.out_scratch = out;
        } else {
            self.delivered_bytes += pkt.size as u64;
            let (cum, is_nack) = if self.cfg.transport == Transport::GoBackN {
                // Go-back-N receiver: in-order data advances the cumulative
                // ack; out-of-order data is discarded and NACKed (the NACK
                // names the first missing byte).
                match self.receivers[f].on_data_gbn(pkt.seq, pkt.size) {
                    GbnSignal::Ack(c) => (c, false),
                    GbnSignal::Nack(c) => (c, true),
                }
            } else {
                (self.receivers[f].on_data(pkt.seq, pkt.size), false)
            };
            // Emit an ACK back to the source server.
            let src_server = self.specs[f].src;
            let here = self.server_switch[pkt.dst_server as usize];
            let back_to = self.server_switch[src_server as usize];
            let mut ack = Packet::ack(
                pkt.flow,
                cum,
                self.cfg.ack_bytes,
                self.fs.start(here, back_to),
                back_to,
                src_server,
                pkt.echo_ns,
                pkt.echo_epoch,
            );
            // DCTCP ECN echo: reflect the data packet's mark.
            ack.ecn = pkt.ecn;
            // Go-back-N: mark the gap report; it routes exactly like an
            // ACK and the sender dispatches on the flag.
            ack.nack = is_nack;
            // ACKs keep flowlet 0, so the pre-hashed key folds only the
            // flow hash and the ACK salt.
            ack.hash_base = self.flow_hash[f] ^ ACK_SALT;
            self.offer(self.base_up + pkt.dst_server, ack);
        }
    }

    /// Turns a [`TcpOutput`] into packets and timers. Borrows the output
    /// so the engine's scratch buffer survives the call (fast datapath's
    /// zero-allocation turnaround).
    fn apply_tcp_output(&mut self, flow: FlowId, out: &TcpOutput) {
        let f = flow as usize;
        let spec = &self.specs[f];
        let (src, dst) = (spec.src, spec.dst);
        let src_sw = self.server_switch[src as usize];
        let dst_sw = self.server_switch[dst as usize];
        let epoch = self.senders[f].epoch();
        // Flowlet detection at the sending host: an idle gap longer than
        // the threshold starts a new flowlet, re-rolling the ECMP hash.
        if let Some(gap) = self.cfg.flowlet_gap_ns {
            if !out.send.is_empty() {
                if self.now.saturating_sub(self.last_emit_ns[f]) > gap {
                    self.flowlet_id[f] = self.flowlet_id[f].wrapping_add(1);
                }
                self.last_emit_ns[f] = self.now;
            }
        }
        for act in &out.send {
            let mut pkt = Packet::data(
                flow,
                act.seq,
                act.size,
                self.fs.start(src_sw, dst_sw),
                dst_sw,
                dst,
                self.now,
                epoch,
            );
            pkt.flowlet = self.flowlet_id[f];
            pkt.hash_base = self.flow_hash[f] ^ ((pkt.flowlet as u64) << 32);
            self.offer(self.base_up + src, pkt);
        }
        if let Some((deadline, gen)) = out.set_timer {
            if self.fast {
                // The wheel holds at most one live timer per flow: cancel
                // the stale one eagerly (the reference path leaves it in
                // the queue as a no-op event) and re-arm, consuming one
                // insertion seq exactly as the reference `push` would, so
                // the global (time, seq) streams stay aligned.
                self.wheel.cancel(flow);
                self.seq += 1;
                self.wheel.insert(deadline, self.seq, flow, gen);
            } else {
                self.push(deadline, Ev::Rto(flow, gen));
            }
        } else if self.fast && out.completed {
            // Completion bumped the timer generation without re-arming:
            // drop the flow's pending RTO from the wheel.
            self.wheel.cancel(flow);
        }
        if out.completed && self.fct[f].is_none() {
            self.fct[f] = Some(self.now - self.specs[f].start_ns);
            self.completed += 1;
        }
    }
}

/// splitmix64 finalizer — cheap, well-mixed hashing for ECMP.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spineless_routing::RoutingScheme;
    use spineless_topo::dring::DRing;
    use spineless_topo::leafspine::LeafSpine;

    fn small_ls() -> Topology {
        LeafSpine::new(4, 2).build() // 6 leaves, 2 spines, 24 servers
    }

    fn sim(topo: &Topology, scheme: RoutingScheme, seed: u64) -> Simulation {
        let fs = ForwardingState::build(&topo.graph, scheme);
        Simulation::new(topo, fs, SimConfig::default(), seed)
    }

    #[test]
    fn same_rack_flow_completes_fast() {
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 1);
        // Servers 0 and 1 share leaf 0.
        let f = s.add_flow(0, 1, 15_000, 0).unwrap();
        let r = s.run();
        let fct = r.flows[f as usize].fct_ns.unwrap();
        // 10 segments over two server hops; must finish well under 100 us.
        assert!(fct < 100_000, "fct {fct}");
        assert_eq!(r.flows[f as usize].retransmits, 0);
        assert_eq!(r.dropped_packets, 0);
    }

    #[test]
    fn cross_rack_flow_completes() {
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 1);
        // Server 0 (leaf 0) to server 23 (leaf 5).
        let f = s.add_flow(0, 23, 100_000, 0).unwrap();
        let r = s.run();
        assert!(r.flows[f as usize].fct_ns.is_some());
        // 100 KB at 10 Gbps is 80 us serialization alone.
        assert!(r.flows[f as usize].fct_ns.unwrap() > 80_000);
        assert_eq!(r.unfinished(), 0);
    }

    #[test]
    fn fct_close_to_ideal_for_unloaded_path() {
        // A single long flow on an idle network should achieve near line
        // rate: FCT ≈ bytes / rate + small slow-start and RTT overhead.
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 2);
        let bytes = 1_000_000u64;
        let f = s.add_flow(0, 23, bytes, 0).unwrap();
        let r = s.run();
        let fct = r.flows[f as usize].fct_ns.unwrap() as f64;
        let ideal = bytes as f64 / 1.25; // ns at 10G
        assert!(fct > ideal, "can't beat line rate");
        assert!(fct < 2.0 * ideal, "fct {fct} vs ideal {ideal}");
    }

    #[test]
    fn deterministic_given_seed() {
        let t = small_ls();
        let run = |seed| {
            let mut s = sim(&t, RoutingScheme::Ecmp, seed);
            for i in 0..8 {
                s.add_flow(i, 23 - i, 50_000, (i as u64) * 1000).unwrap();
            }
            let r = s.run();
            (r.fcts(), r.events)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds give different ECMP picks");
    }

    #[test]
    fn incast_causes_drops_but_all_flows_finish() {
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 3);
        // 12 senders from distinct remote racks into server 0: classic
        // incast on the server downlink.
        for i in 0..12 {
            s.add_flow(8 + i, 0, 150_000, 0).unwrap();
        }
        let r = s.run();
        assert_eq!(r.unfinished(), 0);
        assert!(r.dropped_packets > 0, "incast should overflow the downlink");
        let rtx: u32 = r.flows.iter().map(|f| f.retransmits).sum();
        assert!(rtx > 0);
    }

    #[test]
    fn su2_routing_works_on_dring() {
        let t = DRing::uniform(6, 2, 24).build();
        let mut s = sim(&t, RoutingScheme::ShortestUnion(2), 4);
        let n = t.num_servers();
        for i in 0..16 {
            let src = i % n;
            let dst = (i * 7 + 3) % n;
            if src != dst {
                s.add_flow(src, dst, 30_000, (i as u64) * 500).unwrap();
            }
        }
        let r = s.run();
        assert_eq!(r.unfinished(), 0);
        assert!(r.delivered_bytes >= 16 * 30_000 * 9 / 10);
    }

    #[test]
    fn rejects_bad_flows() {
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 5);
        assert_eq!(s.add_flow(0, 999, 100, 0), Err(SimError::BadServer(999)));
        assert_eq!(s.add_flow(999, 0, 100, 0), Err(SimError::BadServer(999)));
        assert_eq!(s.add_flow(0, 1, 0, 0), Err(SimError::EmptyFlow));
    }

    #[test]
    fn max_time_truncates() {
        let t = small_ls();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cfg = SimConfig { max_time_ns: 10_000, ..Default::default() };
        let mut s = Simulation::new(&t, fs, cfg, 6);
        s.add_flow(0, 23, 100_000_000, 0).unwrap(); // can't finish in 10 us
        let r = s.run();
        assert_eq!(r.unfinished(), 1);
        assert!(r.end_ns <= 10_000);
    }

    #[test]
    fn ecmp_spreads_flows_over_spines() {
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 9);
        // Many flows leaf 0 -> leaf 5; with 2 spines both should carry some.
        for i in 0..4 {
            for j in 0..4 {
                s.add_flow(i, 20 + j, 50_000, 0).unwrap();
            }
        }
        s.run();
        let tx = s.switch_link_tx_bytes();
        // Spine switches are nodes 6 and 7; count bytes on links touching
        // each spine.
        let mut per_spine = [0u64; 2];
        for (e, &(a, b)) in s.edge_ends.iter().enumerate() {
            for spine in [6u32, 7u32] {
                if a == spine || b == spine {
                    per_spine[(spine - 6) as usize] += tx[2 * e] + tx[2 * e + 1];
                }
            }
        }
        assert!(per_spine[0] > 0 && per_spine[1] > 0, "{per_spine:?}");
    }

    #[test]
    fn utilization_accounting_is_sane() {
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 10);
        s.add_flow(0, 23, 500_000, 0).unwrap();
        s.run();
        let u = s.mean_switch_link_utilization();
        assert!(u > 0.0 && u < 1.0, "{u}");
    }

    #[test]
    fn flowlet_switching_spreads_one_flow_over_many_paths() {
        // With per-flow ECMP a single flow between leaves pins one spine;
        // with an (artificially tiny) flowlet gap every send burst re-rolls
        // the hash and both spines carry bytes.
        let t = small_ls();
        let run = |gap: Option<u64>| {
            let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
            let cfg = SimConfig { flowlet_gap_ns: gap, ..Default::default() };
            let mut s = Simulation::new(&t, fs, cfg, 31);
            s.add_flow(0, 23, 2_000_000, 0).unwrap();
            let r = s.run();
            assert_eq!(r.unfinished(), 0);
            let tx = s.switch_link_tx_bytes();
            let mut per_spine = [0u64; 2];
            for (e, &(a, b)) in s.edge_ends.iter().enumerate() {
                for spine in [6u32, 7u32] {
                    if a == spine || b == spine {
                        per_spine[(spine - 6) as usize] += tx[2 * e] + tx[2 * e + 1];
                    }
                }
            }
            per_spine
        };
        let pinned = run(None);
        // One spine carries (essentially) everything: the other sees only
        // the ACK stream at most.
        assert!(
            pinned[0].min(pinned[1]) * 10 < pinned[0].max(pinned[1]),
            "{pinned:?}"
        );
        let sprayed = run(Some(0));
        assert!(
            sprayed[0] > 0 && sprayed[1] > 0 && sprayed[0].min(sprayed[1]) * 10 >= sprayed[0].max(sprayed[1]) / 10,
            "{sprayed:?}"
        );
    }

    #[test]
    fn dctcp_tames_incast_drops() {
        // The same incast under DCTCP vs NewReno: ECN backpressure should
        // slash drops and retransmissions.
        let t = small_ls();
        let run = |transport| {
            let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
            let cfg = SimConfig { transport, ..Default::default() };
            let mut s = Simulation::new(&t, fs, cfg, 3);
            for i in 0..12 {
                s.add_flow(8 + i, 0, 150_000, 0).unwrap();
            }
            let r = s.run();
            assert_eq!(r.unfinished(), 0);
            let rtx: u32 = r.flows.iter().map(|f| f.retransmits).sum();
            (r.dropped_packets, rtx)
        };
        let (drops_reno, rtx_reno) = run(crate::types::Transport::NewReno);
        let (drops_dctcp, rtx_dctcp) = run(crate::types::Transport::Dctcp);
        assert!(
            drops_dctcp * 2 < drops_reno,
            "DCTCP {drops_dctcp} drops vs NewReno {drops_reno}"
        );
        assert!(rtx_dctcp <= rtx_reno, "{rtx_dctcp} vs {rtx_reno}");
    }

    #[test]
    fn dual_plane_forwarding_runs_through_the_engine() {
        // The adaptive plane (§7) must drive the same engine: flows on the
        // ECMP plane and on the SU plane all complete.
        use spineless_routing::DualPlane;
        let t = DRing::uniform(6, 2, 24).build();
        let dual = DualPlane::by_path_count(&t.graph, 2, 4);
        let mut sim = Simulation::new(&t, dual, SimConfig::default(), 21);
        let n = t.num_servers();
        for i in 0..24 {
            let src = (i * 5) % n;
            let dst = (i * 11 + 7) % n;
            if src != dst {
                sim.add_flow(src, dst, 40_000, (i as u64) * 1_000).unwrap();
            }
        }
        let r = sim.run();
        assert_eq!(r.unfinished(), 0);
        assert!(r.delivered_bytes > 0);
    }

    /// Runs the same seeded workload on the fast and the reference
    /// datapath and demands identical outcomes: per-flow FCT vector,
    /// drops, delivered bytes, packet-hops, and the full per-link
    /// transmitted-byte vector. `events` is deliberately excluded — the
    /// reference path processes no-op events (terminal `TxDone`s, stale
    /// RTOs) the fast path never materializes.
    fn assert_datapaths_agree(topo: &Topology, scheme: RoutingScheme, cfg: SimConfig, seed: u64) {
        let run = |datapath| {
            let fs = ForwardingState::build(&topo.graph, scheme);
            let cfg = SimConfig { datapath, ..cfg };
            let mut s = Simulation::new(topo, fs, cfg, seed);
            let n = topo.num_servers();
            for i in 0..32 {
                let src = (i * 5) % n;
                let dst = (i * 13 + 3) % n;
                if src != dst {
                    let bytes = if i % 4 == 0 { 600_000 } else { 20_000 };
                    s.add_flow(src, dst, bytes, (i as u64) * 700).unwrap();
                }
            }
            let r = s.run();
            let fcts: Vec<Option<Ns>> = r.flows.iter().map(|f| f.fct_ns).collect();
            (fcts, r.dropped_packets, r.delivered_bytes, s.pkt_hops(), s.switch_link_tx_bytes())
        };
        let fast = run(Datapath::Fast);
        let reference = run(Datapath::Reference);
        assert_eq!(fast, reference);
    }

    #[test]
    fn fast_datapath_matches_reference_on_leafspine_ecmp() {
        let t = small_ls();
        assert_datapaths_agree(&t, RoutingScheme::Ecmp, SimConfig::default(), 51);
        assert_datapaths_agree(&t, RoutingScheme::Ecmp, SimConfig::default(), 52);
    }

    #[test]
    fn fast_datapath_matches_reference_on_dring_su2() {
        let t = DRing::uniform(6, 2, 24).build();
        assert_datapaths_agree(&t, RoutingScheme::ShortestUnion(2), SimConfig::default(), 53);
    }

    #[test]
    fn fast_datapath_matches_reference_under_dctcp_and_flowlets() {
        // DCTCP stresses the ECN-marking path through `offer`; a tiny
        // flowlet gap stresses the pre-hashed key (hash_base must re-fold
        // the flowlet id on every burst).
        let t = small_ls();
        let cfg = SimConfig {
            transport: crate::types::Transport::Dctcp,
            flowlet_gap_ns: Some(10_000),
            ..Default::default()
        };
        assert_datapaths_agree(&t, RoutingScheme::Ecmp, cfg, 54);
    }

    #[test]
    fn fast_datapath_matches_reference_under_truncation() {
        // Early stop exercises the staged-event/wheel interplay at the
        // max_time boundary.
        let t = small_ls();
        let cfg = SimConfig { max_time_ns: 300_000, ..Default::default() };
        assert_datapaths_agree(&t, RoutingScheme::Ecmp, cfg, 55);
    }

    #[test]
    fn fast_datapath_matches_reference_across_rto_quiescence() {
        // Regression: when a wheel RTO fires ahead of a staged far-future
        // FlowStart, the retransmitted packet's wire events precede the
        // staged event — `push` must return the staged event to the queue
        // or it is processed out of order (time regresses and the
        // datapaths diverge).
        let t = small_ls();
        let base = SimConfig { queue_bytes: 3_000, ..Default::default() };
        let run = |datapath| {
            let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
            let cfg = SimConfig { datapath, ..base };
            let mut s = Simulation::new(&t, fs, cfg, 56);
            // Incast into server 0 over two-packet queues: whole windows
            // drop, so recovery leans on RTOs firing into a drained
            // network.
            for i in 0..12 {
                s.add_flow(8 + i, 0, 60_000, 0).unwrap();
            }
            // Starts long after the incast stalls: its FlowStart is the
            // staged event during every RTO wait before 20 ms.
            s.add_flow(1, 2, 20_000, 20_000_000).unwrap();
            let r = s.run();
            let timeouts: u32 = r.flows.iter().map(|f| f.timeouts).sum();
            assert!(timeouts > 0, "scenario must exercise RTO recovery");
            let fcts: Vec<Option<Ns>> = r.flows.iter().map(|f| f.fct_ns).collect();
            (fcts, r.dropped_packets, r.delivered_bytes, s.pkt_hops(), s.switch_link_tx_bytes())
        };
        assert_eq!(run(Datapath::Fast), run(Datapath::Reference));
    }

    #[test]
    fn dual_plane_runs_fast_datapath_without_cache() {
        // DualPlane exposes no FibCache: the fast datapath must fall back
        // to per-hop walks (and still elide TxDones / use the wheel).
        use spineless_routing::DualPlane;
        let t = DRing::uniform(6, 2, 24).build();
        let dual = DualPlane::by_path_count(&t.graph, 2, 4);
        let sim = Simulation::new(&t, dual, SimConfig::default(), 21);
        assert!(!sim.uses_fib_cache());
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let sim = Simulation::new(&t, fs, SimConfig::default(), 21);
        assert!(sim.uses_fib_cache());
    }

    #[test]
    fn prewarmed_fib_cache_matches_inline_build() {
        // `with_fib_cache` (benchmarks hoist the build) must not change
        // outcomes relative to letting the constructor build it.
        let t = small_ls();
        let edges: Vec<(NodeId, NodeId)> = t.graph.edges().to_vec();
        let run = |cache: Option<std::sync::Arc<FibCache>>| {
            let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
            let mut s = Simulation::with_fib_cache(&t, fs, SimConfig::default(), 77, cache);
            assert!(s.uses_fib_cache());
            for i in 0..8 {
                s.add_flow(i, 23 - i, 50_000, (i as u64) * 1000).unwrap();
            }
            let r = s.run();
            (r.fcts(), r.events, r.dropped_packets)
        };
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cache = std::sync::Arc::new(fs.fib_cache(&edges).unwrap());
        assert_eq!(run(Some(cache)), run(None));
    }

    #[test]
    fn flow_to_self_rack_without_network_links_is_fine() {
        // Same-rack traffic must not touch switch links at all.
        let t = small_ls();
        let mut s = sim(&t, RoutingScheme::Ecmp, 11);
        s.add_flow(0, 2, 50_000, 0).unwrap();
        let r = s.run();
        assert_eq!(r.unfinished(), 0);
        assert_eq!(s.switch_link_tx_bytes().iter().sum::<u64>(), 0);
    }

    // ---- PFC lossless switching + go-back-N ----

    /// PFC config with the engine-test thresholds (low enough that the
    /// small incast workloads actually cross them).
    fn pfc_small() -> PfcConfig {
        PfcConfig { xoff_bytes: 20_000, xon_bytes: 8_000 }
    }

    #[test]
    fn pfc_incast_is_lossless_and_completes() {
        // The lossless invariant: the incast that overflows drop-tail
        // queues (`incast_causes_drops_but_all_flows_finish`) drops
        // *nothing* under PFC — backpressure pauses the upstream ports
        // instead — and go-back-N never has to retransmit.
        let t = small_ls();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cfg = SimConfig {
            transport: Transport::GoBackN,
            pfc: Some(pfc_small()),
            ..Default::default()
        };
        let mut s = Simulation::new(&t, fs, cfg, 3);
        for i in 0..12 {
            s.add_flow(8 + i, 0, 150_000, 0).unwrap();
        }
        let r = s.run();
        assert_eq!(r.unfinished(), 0);
        assert_eq!(r.congestion_drops, 0, "PFC must not drop at full queues");
        assert_eq!(r.dropped_packets, 0);
        assert!(r.pause_frames > 0, "the incast must actually trigger XOFF");
        assert!(r.resume_frames > 0, "paused ports must come back");
        assert!(r.links_ever_paused > 0);
        assert!(r.max_ingress_backlog >= pfc_small().xoff_bytes);
        let rtx: u32 = r.flows.iter().map(|f| f.retransmits).sum();
        assert_eq!(rtx, 0, "nothing lost, nothing reordered: no GBN rollback");
        // No loss and no duplicates: delivered bytes are exactly the
        // offered bytes.
        assert_eq!(r.delivered_bytes, 12 * 150_000);
    }

    #[test]
    fn pfc_is_lossless_under_tcp_too() {
        // PFC is transport-agnostic: NewReno over the lossless fabric
        // sees no drops either (its loss machinery just never fires).
        let t = small_ls();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cfg = SimConfig { pfc: Some(pfc_small()), ..Default::default() };
        let mut s = Simulation::new(&t, fs, cfg, 3);
        for i in 0..12 {
            s.add_flow(8 + i, 0, 150_000, 0).unwrap();
        }
        let r = s.run();
        assert_eq!(r.unfinished(), 0);
        assert_eq!(r.congestion_drops, 0);
        assert_eq!(r.dropped_packets, 0);
        let timeouts: u32 = r.flows.iter().map(|f| f.timeouts).sum();
        assert_eq!(timeouts, 0, "a lossless fabric starves the RTO machinery");
    }

    #[test]
    fn gbn_recovers_on_lossy_fabric_via_nacks() {
        // Go-back-N without PFC on two-packet queues: whole windows drop,
        // and recovery must come from NACK rollbacks (plus RTOs for
        // tail loss), not from fast retransmit (GBN has none).
        let t = small_ls();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cfg = SimConfig {
            transport: Transport::GoBackN,
            queue_bytes: 3_000,
            ..Default::default()
        };
        let mut s = Simulation::new(&t, fs, cfg, 3);
        for i in 0..12 {
            s.add_flow(8 + i, 0, 60_000, 0).unwrap();
        }
        let r = s.run();
        assert_eq!(r.unfinished(), 0, "all bytes must still arrive");
        assert!(r.dropped_packets > 0, "the tiny queues must actually drop");
        let rtx: u32 = r.flows.iter().map(|f| f.retransmits).sum();
        assert!(rtx > 0, "drops must force go-back-N retransmissions");
        assert!(r.delivered_bytes >= 12 * 60_000, "duplicates ride on top");
    }

    /// The satellite-3 regression: under PFC a terminal `TxDone` is not a
    /// no-op — it discharges the in-flight packet's ingress account and
    /// can trigger XON — so the fast datapath must materialize every
    /// `TxDone` (elision off) while keeping the wheel/FibCache/scratch
    /// fast paths. Pre-fix (elision keyed on `fast` alone), the fast run
    /// missed discharges, deadlocked paused ports, and diverged from
    /// Reference on every outcome below.
    fn assert_datapaths_agree_under_pfc(
        topo: &Topology,
        scheme: RoutingScheme,
        cfg: SimConfig,
        seed: u64,
        schedule: Option<&FailureSchedule>,
    ) {
        let run = |datapath| {
            let cfg = SimConfig { datapath, ..cfg };
            let mut s = match schedule {
                Some(sched) => {
                    let fs = Arc::new(ForwardingState::build(&topo.graph, scheme));
                    let mut s = Simulation::new(topo, Arc::clone(&fs), cfg, seed);
                    s.set_failure_schedule(topo, fs, sched.clone()).unwrap();
                    s
                }
                None => {
                    let fs = Arc::new(ForwardingState::build(&topo.graph, scheme));
                    Simulation::new(topo, fs, cfg, seed)
                }
            };
            // Incast plus a second wave: queues pause, drain, and pause
            // again, so XOFF/XON interleave with flow starts and RTOs.
            for i in 0..12 {
                s.add_flow(8 + i, 0, 150_000, 0).unwrap();
            }
            for i in 0..4 {
                s.add_flow(1 + i, 0, 40_000, 400_000 + (i as u64) * 50_000).unwrap();
            }
            let r = s.run();
            let fcts: Vec<Option<Ns>> = r.flows.iter().map(|f| f.fct_ns).collect();
            (
                fcts,
                r.dropped_packets,
                r.congestion_drops,
                r.delivered_bytes,
                r.pause_frames,
                r.resume_frames,
                r.links_ever_paused,
                r.max_ingress_backlog,
                s.pkt_hops(),
                s.switch_link_tx_bytes(),
            )
        };
        let fast = run(Datapath::Fast);
        let reference = run(Datapath::Reference);
        assert_eq!(fast, reference);
        assert!(fast.4 > 0, "scenario must actually exercise pause frames");
    }

    #[test]
    fn fast_datapath_matches_reference_under_pfc_gbn() {
        let t = small_ls();
        let cfg = SimConfig {
            transport: Transport::GoBackN,
            pfc: Some(pfc_small()),
            ..Default::default()
        };
        assert_datapaths_agree_under_pfc(&t, RoutingScheme::Ecmp, cfg, 71, None);
    }

    #[test]
    fn fast_datapath_matches_reference_under_pfc_newreno() {
        let t = small_ls();
        let cfg = SimConfig { pfc: Some(pfc_small()), ..Default::default() };
        assert_datapaths_agree_under_pfc(&t, RoutingScheme::Ecmp, cfg, 72, None);
    }

    #[test]
    fn fast_datapath_matches_reference_under_pfc_and_failures() {
        // Pause/resume interleaved with a mid-incast link flap: dead-link
        // flushes must discharge ingress accounts identically on both
        // datapaths (phantom pause trees would diverge or deadlock).
        let t = small_ls();
        let cfg = SimConfig {
            transport: Transport::GoBackN,
            pfc: Some(pfc_small()),
            max_time_ns: 100_000_000,
            ..Default::default()
        };
        let sched = FailureSchedule::new(100_000)
            .link_down(300_000, 0)
            .link_up(2_000_000, 0);
        assert_datapaths_agree_under_pfc(&t, RoutingScheme::Ecmp, cfg, 73, Some(&sched));
    }

    #[test]
    fn pfc_pause_tree_reaches_flat_mesh_links() {
        // On a flat topology the incast's pause tree must climb past the
        // victim's ToR into mesh links — the congestion-spreading
        // phenomenon EXPERIMENTS P7 quantifies. Finite horizon: cyclic
        // buffer dependencies can legitimately deadlock PFC on a mesh.
        let t = DRing::uniform(6, 2, 24).build();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::ShortestUnion(2));
        let cfg = SimConfig {
            transport: Transport::GoBackN,
            pfc: Some(pfc_small()),
            max_time_ns: 50_000_000,
            ..Default::default()
        };
        let mut s = Simulation::new(&t, fs, cfg, 5);
        // One sender in each remote rack, all into server 0.
        for sw in 1..t.num_switches() {
            let src = t.servers_on(sw).start;
            s.add_flow(src, 0, 150_000, 0).unwrap();
        }
        let r = s.run();
        assert_eq!(r.congestion_drops, 0);
        assert!(
            r.links_ever_paused > 1,
            "pause tree should spread beyond the victim's own ingress: {}",
            r.links_ever_paused
        );
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn pfc_rejects_inverted_thresholds() {
        let t = small_ls();
        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cfg = SimConfig {
            pfc: Some(PfcConfig { xoff_bytes: 10_000, xon_bytes: 10_000 }),
            ..Default::default()
        };
        let _ = Simulation::new(&t, fs, cfg, 1);
    }

    // ---- dynamic failures ----

    /// Builds a `Simulation<Arc<ForwardingState>>` with `schedule`
    /// installed (the `Arc` doubles as the reconvergence baseline).
    fn sim_with_failures(
        topo: &Topology,
        scheme: RoutingScheme,
        cfg: SimConfig,
        seed: u64,
        schedule: FailureSchedule,
    ) -> Simulation<Arc<ForwardingState>> {
        let fs = Arc::new(ForwardingState::build(&topo.graph, scheme));
        let mut s = Simulation::new(topo, Arc::clone(&fs), cfg, seed);
        s.set_failure_schedule(topo, fs, schedule).unwrap();
        s
    }

    /// The core invariant under live failures: the fast and reference
    /// datapaths must stay bit-identical on every outcome under any
    /// failure schedule (drop rules are pure functions of event times and
    /// the reconvergence rebuild consumes no seqs or RNG).
    fn assert_datapaths_agree_under_failures(
        topo: &Topology,
        scheme: RoutingScheme,
        cfg: SimConfig,
        seed: u64,
        schedule: &FailureSchedule,
    ) {
        let run = |datapath| {
            let cfg = SimConfig { datapath, ..cfg };
            let mut s = sim_with_failures(topo, scheme, cfg, seed, schedule.clone());
            let n = topo.num_servers();
            for i in 0..32 {
                let src = (i * 5) % n;
                let dst = (i * 13 + 3) % n;
                if src != dst {
                    let bytes = if i % 4 == 0 { 600_000 } else { 20_000 };
                    s.add_flow(src, dst, bytes, (i as u64) * 700).unwrap();
                }
            }
            let r = s.run();
            let fcts: Vec<Option<Ns>> = r.flows.iter().map(|f| f.fct_ns).collect();
            (fcts, r.dropped_packets, r.delivered_bytes, s.pkt_hops(), s.switch_link_tx_bytes())
        };
        let fast = run(Datapath::Fast);
        let reference = run(Datapath::Reference);
        assert_eq!(fast, reference);
    }

    #[test]
    fn fast_datapath_matches_reference_under_link_failure() {
        // Mid-run cut of one cable, reconverging after 100 us; the run
        // must see packets actually blackholed (drops > 0 is asserted by
        // the schedule's design: the cut lands while long flows run).
        let t = small_ls();
        let cfg = SimConfig { max_time_ns: 200_000_000, ..Default::default() };
        let sched = FailureSchedule::new(100_000).link_down(2_000_000, 0);
        assert_datapaths_agree_under_failures(&t, RoutingScheme::Ecmp, cfg, 61, &sched);
    }

    #[test]
    fn fast_datapath_matches_reference_under_link_flap() {
        // Down-then-up on the same cable: the second reconvergence must
        // restore the pristine baseline plane (and its FIB cache) with
        // both datapaths still in lockstep.
        let t = small_ls();
        let cfg = SimConfig { max_time_ns: 200_000_000, ..Default::default() };
        let sched = FailureSchedule::new(50_000)
            .link_down(1_000_000, 3)
            .link_up(4_000_000, 3);
        assert_datapaths_agree_under_failures(&t, RoutingScheme::Ecmp, cfg, 62, &sched);
    }

    #[test]
    fn fast_datapath_matches_reference_under_switch_failure_on_dring() {
        // A whole router dies and later returns on the DRing under
        // Shortest-Union(2): incident cables and the rack's server links
        // all cut at once, stranding that rack's flows until repair.
        let t = DRing::uniform(6, 2, 24).build();
        let cfg = SimConfig { max_time_ns: 200_000_000, ..Default::default() };
        let sched = FailureSchedule::new(100_000)
            .switch_down(1_500_000, 3)
            .switch_up(8_000_000, 3);
        assert_datapaths_agree_under_failures(&t, RoutingScheme::ShortestUnion(2), cfg, 63, &sched);
    }

    #[test]
    fn failure_drops_are_accounted() {
        // Cutting the only spine path a flow is pinned to mid-transfer
        // must record blackholed packets in dropped_packets. DCTCP keeps
        // the queues below the drop point, so every drop in the cut run
        // is failure-induced, not congestion.
        let t = small_ls();
        let run = |sched: FailureSchedule| {
            let cfg = SimConfig {
                max_time_ns: 50_000_000,
                transport: crate::types::Transport::Dctcp,
                ..Default::default()
            };
            let mut s = sim_with_failures(&t, RoutingScheme::Ecmp, cfg, 64, sched);
            s.add_flow(0, 23, 1_000_000, 0).unwrap();
            s.run()
        };
        let clean = run(FailureSchedule::new(100_000));
        assert_eq!(clean.dropped_packets, 0, "empty schedule must be a no-op");
        assert_eq!(clean.unfinished(), 0);
        // Cut every leaf0<->spine cable briefly: whatever path the flow
        // hashed to dies under it.
        let mut sched = FailureSchedule::new(100_000);
        for (e, &(a, b)) in t.graph.edges().iter().enumerate() {
            if a == 0 || b == 0 {
                sched = sched.link_down(200_000, e as u32).link_up(1_000_000, e as u32);
            }
        }
        let cut = run(sched);
        assert!(cut.dropped_packets > 0, "no packet hit the cut");
        assert_eq!(cut.unfinished(), 0, "flow must recover after repair");
        let f = &cut.flows[0];
        assert!(f.retransmits > 0 && f.timeouts > 0, "{f:?}");
    }

    #[test]
    fn severed_rack_ends_unfinished_without_hanging() {
        // Both routers a rack could reach die and never come back, with
        // max_time_ns unbounded: the starvation guard must let the severed
        // flow's RTO die (ending it as unfinished) instead of re-arming
        // forever, while unaffected flows complete normally.
        let t = DRing::uniform(6, 2, 24).build();
        let cfg = SimConfig::default(); // max_time_ns = u64::MAX
        let sched = FailureSchedule::new(100_000)
            .switch_down(50_000, 0)
            .switch_down(50_000, 1);
        let mut s = sim_with_failures(&t, RoutingScheme::ShortestUnion(2), cfg, 65, sched);
        let victim_src = t.servers_on(0).start;
        let remote = t.servers_on(6).start;
        let bystander_src = t.servers_on(4).start;
        let victim = s.add_flow(victim_src, remote, 5_000_000, 0).unwrap();
        let bystander = s.add_flow(bystander_src, remote, 200_000, 0).unwrap();
        let r = s.run();
        assert!(r.flows[victim as usize].fct_ns.is_none(), "severed flow cannot finish");
        assert!(r.flows[bystander as usize].fct_ns.is_some(), "unaffected flow must finish");
        assert!(r.end_ns < u64::MAX, "the event queue must drain");
    }

    #[test]
    fn reconvergence_recovers_flow_with_fewer_retransmits() {
        // The acceptance demo in test form: cut the data path's first-hop
        // cable mid-flow. With a 100 us reconvergence the flow survives by
        // rerouting; with a control plane that never reacts every RTO
        // retransmits into the blackhole. Reconvergence must complete the
        // flow with strictly fewer retransmissions.
        let t = small_ls();
        // Probe run (same seed => same ECMP hash => same path) to find the
        // cable carrying the flow's data: the max-bytes edge at leaf 0.
        let probe_edge = {
            let fs = Arc::new(ForwardingState::build(&t.graph, RoutingScheme::Ecmp));
            let mut s = Simulation::new(&t, fs, SimConfig::default(), 66);
            s.add_flow(0, 23, 1_000_000, 0).unwrap();
            s.run();
            let tx = s.switch_link_tx_bytes();
            (0..t.graph.num_edges())
                .filter(|&e| {
                    let (a, b) = t.graph.edges()[e as usize];
                    a == 0 || b == 0
                })
                .max_by_key(|&e| tx[2 * e as usize] + tx[2 * e as usize + 1])
                .expect("leaf 0 has uplinks")
        };
        // A 30 s horizon for both runs: the reconverged flow finishes in
        // ~1 ms; the blackholed one keeps burning an RTO retransmission
        // every backed-off timeout (capped at 256 ms) for the full 30 s,
        // which is the real cost of a control plane that never reacts.
        let run = |delay: Ns| {
            let cfg = SimConfig { max_time_ns: 30_000_000_000, ..Default::default() };
            let sched = FailureSchedule::new(delay).link_down(100_000, probe_edge);
            let mut s = sim_with_failures(&t, RoutingScheme::Ecmp, cfg, 66, sched);
            s.add_flow(0, 23, 1_000_000, 0).unwrap();
            s.run()
        };
        let reconv = run(100_000);
        let blackhole = run(3_600_000_000_000); // control plane never reacts
        let rf = &reconv.flows[0];
        let bf = &blackhole.flows[0];
        assert!(rf.fct_ns.is_some(), "reconvergence must let the flow finish: {rf:?}");
        assert!(bf.fct_ns.is_none(), "a permanent blackhole cannot finish: {bf:?}");
        assert!(
            rf.retransmits < bf.retransmits,
            "reconvergence {} rtx vs blackhole {} rtx",
            rf.retransmits,
            bf.retransmits
        );
    }

    #[test]
    fn repair_restores_pristine_plane_and_cache() {
        // After a full down->up cycle plus reconvergence the engine must
        // be back on the baseline plane with the FIB hot-cache re-armed.
        let t = small_ls();
        let cfg = SimConfig { max_time_ns: 100_000_000, ..Default::default() };
        let sched = FailureSchedule::new(50_000).link_down(50_000, 2).link_up(500_000, 2);
        let mut s = sim_with_failures(&t, RoutingScheme::Ecmp, cfg, 67, sched);
        s.add_flow(0, 23, 2_000_000, 0).unwrap();
        let r = s.run();
        assert_eq!(r.unfinished(), 0);
        assert!(r.used_fib_cache, "repair must restore the baseline hot-cache");
        assert!(s.uses_fib_cache());
    }

    #[test]
    fn failure_schedule_validation() {
        let t = small_ls();
        let fs = Arc::new(ForwardingState::build(&t.graph, RoutingScheme::Ecmp));
        let mut s = Simulation::new(&t, Arc::clone(&fs), SimConfig::default(), 68);
        let ne = t.graph.num_edges();
        let err = s
            .set_failure_schedule(&t, Arc::clone(&fs), FailureSchedule::new(0).link_down(0, ne))
            .unwrap_err();
        assert_eq!(err, SimError::BadLink(ne));
        let err = s
            .set_failure_schedule(&t, Arc::clone(&fs), FailureSchedule::new(0).switch_up(0, 99))
            .unwrap_err();
        assert_eq!(err, SimError::BadSwitch(99));
        // A plane built for a different topology is rejected.
        let other = DRing::uniform(6, 2, 24).build();
        let ofs = Arc::new(ForwardingState::build(&other.graph, RoutingScheme::Ecmp));
        let err = s.set_failure_schedule(&t, ofs, FailureSchedule::new(0)).unwrap_err();
        assert_eq!(err, SimError::PlaneMismatch);
        s.set_failure_schedule(&t, Arc::clone(&fs), FailureSchedule::new(0)).unwrap();
        let err = s.set_failure_schedule(&t, fs, FailureSchedule::new(0)).unwrap_err();
        assert_eq!(err, SimError::ScheduleAlreadySet);
    }

    #[test]
    fn fast_fallback_is_surfaced_in_report() {
        // The fast datapath silently degrades to per-hop walks when the
        // plane exposes no FIB cache (e.g. DualPlane); the report must say
        // so instead of letting drivers publish slow-walk numbers as
        // fast-path throughput.
        use spineless_routing::DualPlane;
        let t = DRing::uniform(6, 2, 24).build();
        let dual = DualPlane::by_path_count(&t.graph, 2, 4);
        let mut s = Simulation::new(&t, dual, SimConfig::default(), 69);
        s.add_flow(0, 13, 20_000, 0).unwrap();
        assert!(!s.run().used_fib_cache, "DualPlane fallback must be surfaced");

        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let mut s = Simulation::new(&t, fs, SimConfig::default(), 69);
        s.add_flow(0, 13, 20_000, 0).unwrap();
        assert!(s.run().used_fib_cache);

        let fs = ForwardingState::build(&t.graph, RoutingScheme::Ecmp);
        let cfg = SimConfig { datapath: Datapath::Reference, ..Default::default() };
        let mut s = Simulation::new(&t, fs, cfg, 69);
        s.add_flow(0, 13, 20_000, 0).unwrap();
        assert!(!s.run().used_fib_cache, "reference datapath walks per hop");
    }
}
