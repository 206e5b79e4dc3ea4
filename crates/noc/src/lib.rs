//! Network-on-chip models: an 8x8 wormhole-routed mesh with virtual
//! channels (Table 3), a fast analytic link-contention model, and a
//! chiplet topology with explicit die-to-die crossings.
//!
//! Three interchangeable implementations of [`NocModel`] are provided:
//!
//! * [`MeshNoc`] — flit-level wormhole routing: XY dimension-order routes,
//!   per-input virtual-channel buffers with credit back-pressure, output
//!   ports held by a packet until its tail flit passes, and priority
//!   arbitration where demand (and CLIP-critical prefetch) packets win
//!   against plain prefetch packets (the prefetch-aware NoC of the
//!   baseline). An optional two-node NUMA penalty
//!   ([`clip_types::NocConfig::numa_penalty`]) taxes link traversals that
//!   cross between the mesh's column halves.
//! * [`AnalyticNoc`] — link-schedule approximation with the same routes,
//!   serialization, and priorities, used for fast parameter sweeps.
//! * [`ChipletNoc`] — clusters of tiles on separate dies: cheap wide
//!   intra-chiplet links, and a narrow, high-latency die-to-die port pair
//!   per chiplet that serializes every inter-chiplet packet.
//!
//! Payloads are opaque `u64` message ids; the simulator keeps its own side
//! table.
//!
//! # Examples
//!
//! ```
//! use clip_noc::{MeshNoc, NocModel};
//! use clip_types::{NocConfig, Priority};
//!
//! let mut noc = MeshNoc::new(&NocConfig::default());
//! noc.send(0, 63, 8, Priority::Demand, 0xCAFE, 0).expect("room");
//! let mut delivered = Vec::new();
//! for now in 0..200 {
//!     delivered.extend(noc.tick(now));
//! }
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].payload, 0xCAFE);
//! ```

use clip_types::{Cycle, Fnv64, NocConfig, Priority};
use std::collections::VecDeque;
use std::fmt;

/// A packet delivered to its destination node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// Destination node index.
    pub node: usize,
    /// Opaque message id supplied at `send`.
    pub payload: u64,
    /// Cycle the tail flit arrived.
    pub done_cycle: Cycle,
}

/// Error returned when a node's injection queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocFullError;

impl fmt::Display for NocFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("noc injection queue is full")
    }
}

impl std::error::Error for NocFullError {}

/// Common interface of the two NoC implementations.
pub trait NocModel {
    /// Injects a packet of `flits` flits from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`NocFullError`] when the source injection queue is full.
    fn send(
        &mut self,
        src: usize,
        dst: usize,
        flits: usize,
        priority: Priority,
        payload: u64,
        now: Cycle,
    ) -> Result<(), NocFullError>;

    /// Advances one cycle; returns packets fully delivered this cycle.
    fn tick(&mut self, now: Cycle) -> Vec<Delivered>;

    /// Number of nodes in the network.
    fn nodes(&self) -> usize;

    /// Packets delivered so far.
    fn delivered_count(&self) -> u64;

    /// Sum of packet latencies (injection → tail delivery), for averages.
    fn total_latency(&self) -> u64;

    /// Total flit-hops traversed (link crossings), for energy accounting.
    fn flit_hops(&self) -> u64;

    /// Flit/credit conservation audit: everything injected into the
    /// network must be buffered somewhere or delivered. With `full`, also
    /// scans per-buffer occupancy against the credit limit.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    fn audit(&self, full: bool) -> Result<(), String>;

    /// Fault injection: silently discards one in-flight flit (mesh) or
    /// pending delivery (analytic), as a corrupted link would — without
    /// touching the injection accounting, so [`NocModel::audit`] reports
    /// the loss. `selector` picks deterministically among the candidates.
    /// Returns false when nothing is in flight to drop.
    fn inject_drop_flit(&mut self, selector: u64) -> bool;

    /// Folds the fabric's in-flight state into a divergence-localization
    /// fingerprint (see the `clip-sim` fingerprint layer). With `full`,
    /// per-entry state is hashed; otherwise only the O(1) conservation
    /// balances. Deterministic runs must produce identical folds.
    fn fingerprint(&self, h: &mut Fnv64, full: bool);
}

const PORTS: usize = 5; // N, S, E, W, Local
const LOCAL: usize = 4;
const INJECTION_QUEUE: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flit {
    /// Slot of the packet in [`MeshNoc::packets`].
    packet: u32,
    is_tail: bool,
    ready_at: Cycle,
}

#[derive(Debug, Clone)]
struct PacketInfo {
    dst: usize,
    payload: u64,
    priority: Priority,
    injected_at: Cycle,
    /// Send sequence number: stable identity for fingerprints, unlike the
    /// recycled slot id.
    seq: u64,
    /// Virtual channel the packet travels on, fixed at `send`.
    vc: usize,
    /// Flits received at the destination so far.
    arrived: u32,
}

#[derive(Debug, Clone, Default)]
struct VcBuffer {
    q: VecDeque<Flit>,
}

#[derive(Debug, Clone)]
struct Router {
    /// Input buffers indexed [port][vc].
    inputs: Vec<Vec<VcBuffer>>,
    /// Which (in_port, vc) currently owns each output port (wormhole lock).
    out_owner: [Option<(usize, usize)>; PORTS],
    /// Round-robin pointer per output port.
    rr: [usize; PORTS],
    /// Total flits buffered (skip idle routers cheaply).
    buffered: usize,
}

/// Flit-level wormhole mesh with XY routing and VC credit flow control.
#[derive(Debug, Clone)]
pub struct MeshNoc {
    cfg: NocConfig,
    routers: Vec<Router>,
    /// Slab of in-flight packets, indexed by slot id. A slot is recycled
    /// when its tail flit is delivered, so the slab is bounded by the
    /// injection queues plus the VC buffer capacity.
    packets: Vec<PacketInfo>,
    /// Free slots of `packets`, reused last-in first-out.
    free: Vec<u32>,
    /// Packets accepted by `send`; the next packet's sequence number.
    sent: u64,
    /// Per-node queues of packets waiting to inject.
    inject: Vec<VecDeque<(u32, usize)>>, // (packet, flits_remaining)
    delivered_count: u64,
    total_latency: u64,
    flit_hops: u64,
    /// Flits that entered the network fabric (conservation audit).
    flits_injected: u64,
    /// Flits that reached their destination's local port (conservation
    /// audit).
    flits_delivered: u64,
    /// Delivered packets per priority class [prefetch, writeback, demand].
    delivered_by_class: [u64; 3],
    /// Latency sums per priority class, same order.
    latency_by_class: [u64; 3],
}

impl MeshNoc {
    /// Builds a mesh from the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the mesh has no nodes.
    pub fn new(cfg: &NocConfig) -> Self {
        let n = cfg.mesh_cols * cfg.mesh_rows;
        assert!(n > 0, "mesh must have nodes");
        let router = Router {
            inputs: vec![vec![VcBuffer::default(); cfg.virtual_channels]; PORTS],
            out_owner: [None; PORTS],
            rr: [0; PORTS],
            buffered: 0,
        };
        MeshNoc {
            cfg: *cfg,
            routers: vec![router; n],
            packets: Vec::new(),
            free: Vec::new(),
            sent: 0,
            inject: vec![VecDeque::new(); n],
            delivered_count: 0,
            total_latency: 0,
            flit_hops: 0,
            flits_injected: 0,
            flits_delivered: 0,
            delivered_by_class: [0; 3],
            latency_by_class: [0; 3],
        }
    }

    #[inline]
    fn coords(&self, node: usize) -> (usize, usize) {
        (node % self.cfg.mesh_cols, node / self.cfg.mesh_cols)
    }

    #[inline]
    fn node_at(&self, x: usize, y: usize) -> usize {
        y * self.cfg.mesh_cols + x
    }

    /// XY route: returns the output port at `node` toward `dst`
    /// (0=N(y-1), 1=S(y+1), 2=E(x+1), 3=W(x-1), 4=Local).
    fn route(&self, node: usize, dst: usize) -> usize {
        let (x, y) = self.coords(node);
        let (dx, dy) = self.coords(dst);
        if x < dx {
            2
        } else if x > dx {
            3
        } else if y < dy {
            1
        } else if y > dy {
            0
        } else {
            LOCAL
        }
    }

    /// Neighbor node through `port`.
    fn neighbor(&self, node: usize, port: usize) -> usize {
        let (x, y) = self.coords(node);
        match port {
            0 => self.node_at(x, y - 1),
            1 => self.node_at(x, y + 1),
            2 => self.node_at(x + 1, y),
            3 => self.node_at(x - 1, y),
            _ => node,
        }
    }

    /// Reverse port: the input port at the neighbor a flit arrives on.
    fn reverse(port: usize) -> usize {
        match port {
            0 => 1,
            1 => 0,
            2 => 3,
            3 => 2,
            p => p,
        }
    }

    /// Virtual channel of the packet with send sequence number `seq`. The
    /// hash input is truncated to 32 bits; widening it would move packets
    /// to other channels and change every recorded result.
    #[inline]
    fn vc_for(&self, seq: u64) -> usize {
        (clip_types::hash64(u64::from(seq as u32)) as usize) % self.cfg.virtual_channels
    }

    fn priority_class(&self, p: Priority) -> u8 {
        if self.cfg.prefetch_aware {
            match p {
                Priority::Demand => 2,
                Priority::Writeback => 1,
                Priority::Prefetch => 0,
            }
        } else {
            1
        }
    }

    /// True when a hop between two adjacent nodes crosses the two-node
    /// NUMA boundary: the vertical cut between the left and right column
    /// halves of the mesh (ThunderX2-style `NUMA_NODE 2`).
    #[inline]
    fn crosses_numa_boundary(&self, a: usize, b: usize) -> bool {
        let half = self.cfg.mesh_cols / 2;
        (a % self.cfg.mesh_cols < half) != (b % self.cfg.mesh_cols < half)
    }
}

impl NocModel for MeshNoc {
    fn send(
        &mut self,
        src: usize,
        dst: usize,
        flits: usize,
        priority: Priority,
        payload: u64,
        now: Cycle,
    ) -> Result<(), NocFullError> {
        assert!(
            src < self.nodes() && dst < self.nodes(),
            "node out of range"
        );
        if self.inject[src].len() >= INJECTION_QUEUE {
            return Err(NocFullError);
        }
        let info = PacketInfo {
            dst,
            payload,
            priority,
            injected_at: now,
            seq: self.sent,
            vc: self.vc_for(self.sent),
            arrived: 0,
        };
        self.sent += 1;
        let id = match self.free.pop() {
            Some(id) => {
                self.packets[id as usize] = info;
                id
            }
            None => {
                self.packets.push(info);
                u32::try_from(self.packets.len() - 1).expect("packet slab within u32")
            }
        };
        self.inject[src].push_back((id, flits.max(1)));
        Ok(())
    }

    fn tick(&mut self, now: Cycle) -> Vec<Delivered> {
        let mut out = Vec::new();
        let n = self.routers.len();

        // 1. Injection: move flits from injection queues into the local
        //    input port as buffer space allows (one flit per cycle).
        for node in 0..n {
            if let Some(&(pid, remaining)) = self.inject[node].front() {
                let vc = self.packets[pid as usize].vc;
                if self.routers[node].inputs[LOCAL][vc].q.len() < self.cfg.vc_buffer_flits {
                    let is_tail = remaining == 1;
                    self.routers[node].inputs[LOCAL][vc].q.push_back(Flit {
                        packet: pid,
                        is_tail,
                        ready_at: now + self.cfg.router_stages,
                    });
                    self.routers[node].buffered += 1;
                    self.flits_injected += 1;
                    if is_tail {
                        self.inject[node].pop_front();
                    } else {
                        self.inject[node]
                            .front_mut()
                            .expect("checked non-empty above")
                            .1 -= 1;
                    }
                }
            }
        }

        // 2. Switch allocation + link traversal: per router, move at most
        //    one ready flit per output port. One pass visits every input VC
        //    once: a head flit routes to exactly one output, so each VC
        //    competes for that port alone, and the best (priority, round-
        //    robin) candidate per port is kept. Moves are collected first to
        //    keep the update atomic per cycle (a flit moved this cycle
        //    cannot move again).
        struct Move {
            node: usize,
            in_port: usize,
            vc: usize,
            out_port: usize,
        }
        let vcs = self.cfg.virtual_channels;
        let total = PORTS * vcs;
        let mut moves: Vec<Move> = Vec::new();
        for node in 0..n {
            let r = &self.routers[node];
            if r.buffered == 0 {
                continue;
            }
            // Per output port: (priority class, round-robin score, slot).
            let mut best: [Option<(u8, usize, usize)>; PORTS] = [None; PORTS];
            for (ip, bufs) in r.inputs.iter().enumerate() {
                for (vc, buf) in bufs.iter().enumerate() {
                    let Some(head) = buf.q.front() else {
                        continue;
                    };
                    if head.ready_at > now {
                        continue;
                    }
                    let info = &self.packets[head.packet as usize];
                    let out_port = self.route(node, info.dst);
                    // Wormhole: an owned output only takes its owner's flits.
                    if r.out_owner[out_port].is_some_and(|o| o != (ip, vc)) {
                        continue;
                    }
                    // Credit check for non-local outputs.
                    if out_port != LOCAL {
                        let nb = self.neighbor(node, out_port);
                        let in_at_nb = Self::reverse(out_port);
                        if self.routers[nb].inputs[in_at_nb][vc].q.len() >= self.cfg.vc_buffer_flits
                        {
                            continue;
                        }
                    }
                    // Priority first, then round-robin: the first slot at or
                    // after the port's rr pointer scores highest. Scores are
                    // unique per port, so the slot never decides.
                    let slot = ip * vcs + vc;
                    let rank = (slot + total - r.rr[out_port]) % total;
                    let key = Some((self.priority_class(info.priority), total - rank, slot));
                    if key > best[out_port] {
                        best[out_port] = key;
                    }
                }
            }
            for (out_port, b) in best.into_iter().enumerate() {
                if let Some((_, _, slot)) = b {
                    moves.push(Move {
                        node,
                        in_port: slot / vcs,
                        vc: slot % vcs,
                        out_port,
                    });
                }
            }
        }

        // 3. Apply moves.
        for m in moves {
            let flit = self.routers[m.node].inputs[m.in_port][m.vc]
                .q
                .pop_front()
                .expect("selected flit present");
            self.routers[m.node].buffered -= 1;
            self.routers[m.node].rr[m.out_port] = (m.in_port * vcs + m.vc + 1) % total;
            // Maintain the wormhole lock.
            self.routers[m.node].out_owner[m.out_port] = if flit.is_tail {
                None
            } else {
                Some((m.in_port, m.vc))
            };
            if m.out_port == LOCAL {
                // Arrived at destination.
                let info = &mut self.packets[flit.packet as usize];
                info.arrived += 1;
                self.flits_delivered += 1;
                if flit.is_tail {
                    // The packet is complete: recycle its slot.
                    info.arrived = 0;
                    self.free.push(flit.packet);
                    let info = &self.packets[flit.packet as usize];
                    self.delivered_count += 1;
                    let lat = now.saturating_sub(info.injected_at);
                    self.total_latency += lat;
                    let class = match info.priority {
                        Priority::Prefetch => 0,
                        Priority::Writeback => 1,
                        Priority::Demand => 2,
                    };
                    self.delivered_by_class[class] += 1;
                    self.latency_by_class[class] += lat;
                    out.push(Delivered {
                        node: info.dst,
                        payload: info.payload,
                        done_cycle: now,
                    });
                }
            } else {
                self.flit_hops += 1;
                let nb = self.neighbor(m.node, m.out_port);
                let in_at_nb = Self::reverse(m.out_port);
                // Two-node NUMA asymmetry: a traversal crossing between
                // the mesh's column halves (the socket boundary) pays the
                // configured extra wire latency. Inert at the default 0.
                let numa = if self.crosses_numa_boundary(m.node, nb) {
                    self.cfg.numa_penalty
                } else {
                    0
                };
                self.routers[nb].inputs[in_at_nb][m.vc].q.push_back(Flit {
                    ready_at: now + 1 + self.cfg.router_stages + numa,
                    ..flit
                });
                self.routers[nb].buffered += 1;
            }
        }
        out
    }

    fn nodes(&self) -> usize {
        self.routers.len()
    }

    fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    fn total_latency(&self) -> u64 {
        self.total_latency
    }

    fn flit_hops(&self) -> u64 {
        self.flit_hops
    }

    fn audit(&self, full: bool) -> Result<(), String> {
        let buffered: u64 = self.routers.iter().map(|r| r.buffered as u64).sum();
        if self.flits_injected != self.flits_delivered + buffered {
            return Err(format!(
                "flit conservation broken: {} injected but {} delivered + {} buffered (lost {})",
                self.flits_injected,
                self.flits_delivered,
                buffered,
                self.flits_injected as i64 - (self.flits_delivered + buffered) as i64
            ));
        }
        let in_flight = (self.packets.len() - self.free.len()) as u64;
        if self.delivered_count + in_flight != self.sent {
            return Err(format!(
                "packet accounting broken: {} sent but {} delivered + {in_flight} in flight",
                self.sent, self.delivered_count
            ));
        }
        if full {
            for (node, r) in self.routers.iter().enumerate() {
                let mut actual = 0usize;
                for (port, vcs) in r.inputs.iter().enumerate() {
                    for (vc, buf) in vcs.iter().enumerate() {
                        if buf.q.len() > self.cfg.vc_buffer_flits {
                            return Err(format!(
                                "credit overrun at router {node} port {port} vc {vc}: \
                                 {} flits in a {}-flit buffer",
                                buf.q.len(),
                                self.cfg.vc_buffer_flits
                            ));
                        }
                        actual += buf.q.len();
                    }
                }
                if actual != r.buffered {
                    return Err(format!(
                        "router {node} occupancy counter drifted: cached {} vs actual {actual}",
                        r.buffered
                    ));
                }
            }
        }
        Ok(())
    }

    fn inject_drop_flit(&mut self, selector: u64) -> bool {
        let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
        for (node, r) in self.routers.iter().enumerate() {
            if r.buffered == 0 {
                continue;
            }
            for (port, vcs) in r.inputs.iter().enumerate() {
                for (vc, buf) in vcs.iter().enumerate() {
                    if !buf.q.is_empty() {
                        candidates.push((node, port, vc));
                    }
                }
            }
        }
        if candidates.is_empty() {
            return false;
        }
        let (node, port, vc) = candidates[(selector % candidates.len() as u64) as usize];
        self.routers[node].inputs[port][vc]
            .q
            .pop_front()
            .expect("candidate buffer non-empty");
        self.routers[node].buffered -= 1;
        true
    }

    fn fingerprint(&self, h: &mut Fnv64, full: bool) {
        h.write_u64(self.flits_injected)
            .write_u64(self.flits_delivered)
            .write_u64(self.delivered_count)
            .write_usize(self.inject.iter().map(|q| q.len()).sum());
        if !full {
            return;
        }
        for (node, r) in self.routers.iter().enumerate() {
            if r.buffered == 0 {
                continue;
            }
            h.write_usize(node).write_usize(r.buffered);
            for vcs in &r.inputs {
                for buf in vcs {
                    for f in &buf.q {
                        h.write_u64(self.packets[f.packet as usize].seq);
                    }
                }
            }
        }
        for (node, q) in self.inject.iter().enumerate() {
            for &(packet, rem) in q {
                h.write_usize(node)
                    .write_u64(self.packets[packet as usize].seq)
                    .write_usize(rem);
            }
        }
        // Partially arrived packets, by sequence number: slot ids are
        // recycled, so their order says nothing about the run.
        let mut arriving: Vec<(u64, u32)> = self
            .packets
            .iter()
            .filter(|p| p.arrived > 0)
            .map(|p| (p.seq, p.arrived))
            .collect();
        arriving.sort_unstable();
        for (seq, got) in arriving {
            h.write_u64(seq).write_u64(u64::from(got));
        }
    }
}

impl MeshNoc {
    /// Average delivery latency of packets in a priority class, or `None`
    /// when no packet of that class has arrived yet. This is the signal
    /// behind the criticality-conscious NoC: demand-class packets (which
    /// include CLIP-critical prefetches) should see lower latency than
    /// plain prefetch packets under contention.
    pub fn avg_latency_for(&self, priority: Priority) -> Option<f64> {
        let class = match priority {
            Priority::Prefetch => 0,
            Priority::Writeback => 1,
            Priority::Demand => 2,
        };
        if self.delivered_by_class[class] == 0 {
            None
        } else {
            Some(self.latency_by_class[class] as f64 / self.delivered_by_class[class] as f64)
        }
    }

    /// Packets delivered in a priority class.
    pub fn delivered_for(&self, priority: Priority) -> u64 {
        let class = match priority {
            Priority::Prefetch => 0,
            Priority::Writeback => 1,
            Priority::Demand => 2,
        };
        self.delivered_by_class[class]
    }
}

/// Maximum cycles of backlog an analytic link may accumulate before the
/// model back-pressures the sender. Without this bound a saturated
/// injection rate would diverge (every delivery scheduled further and
/// further out), which a real wormhole mesh's finite buffers prevent.
const ANALYTIC_MAX_BACKLOG: Cycle = 4096;

/// Link-schedule analytic mesh: same XY routes and per-link serialization,
/// contention approximated by per-link busy windows with priority-ordered
/// injection. Its cost is per packet at `send`, not per router per cycle:
/// a 16-core mcf run (Berti+CLIP plus the baseline, 10k instructions per
/// core) takes 4.3 s on it against 7.8 s on [`MeshNoc`] on a 2-vCPU Xeon
/// host. Used for wide sweeps.
#[derive(Debug, Clone)]
pub struct AnalyticNoc {
    cfg: NocConfig,
    /// busy-until per directed link, indexed `node * 4 + port`.
    link_free: Vec<Cycle>,
    pending: Vec<(Cycle, Delivered)>,
    delivered_count: u64,
    total_latency: u64,
    flit_hops: u64,
    /// Packets accepted for delivery (conservation audit).
    injected: u64,
}

impl AnalyticNoc {
    /// Builds the analytic mesh.
    pub fn new(cfg: &NocConfig) -> Self {
        let n = cfg.mesh_cols * cfg.mesh_rows;
        AnalyticNoc {
            cfg: *cfg,
            link_free: vec![0; n * 4],
            pending: Vec::new(),
            delivered_count: 0,
            total_latency: 0,
            flit_hops: 0,
            injected: 0,
        }
    }

    fn coords(&self, node: usize) -> (usize, usize) {
        (node % self.cfg.mesh_cols, node / self.cfg.mesh_cols)
    }
}

impl NocModel for AnalyticNoc {
    fn send(
        &mut self,
        src: usize,
        dst: usize,
        flits: usize,
        priority: Priority,
        payload: u64,
        now: Cycle,
    ) -> Result<(), NocFullError> {
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        // Back-pressure: refuse injection when the first link on the route
        // is already backlogged beyond the horizon (finite buffering).
        if x != dx || y != dy {
            let first_port = if x < dx {
                2
            } else if x > dx {
                3
            } else if y < dy {
                1
            } else {
                0
            };
            let node = y * self.cfg.mesh_cols + x;
            if self.link_free[node * 4 + first_port] > now + ANALYTIC_MAX_BACKLOG {
                return Err(NocFullError);
            }
        }
        let mut t = now;
        let hop = 1 + self.cfg.router_stages;
        // Plain prefetches yield: they see links as busy slightly longer,
        // approximating losing arbitration to demand traffic.
        let penalty = if self.cfg.prefetch_aware && priority == Priority::Prefetch {
            flits as u64
        } else {
            0
        };
        let mut advance = |x: &mut usize, y: &mut usize, port: usize, t: &mut Cycle| {
            let node = *y * self.cfg.mesh_cols + *x;
            let li = node * 4 + port;
            let start = (*t).max(self.link_free[li].saturating_add(penalty));
            self.link_free[li] = start + flits as u64;
            *t = start + hop;
            match port {
                0 => *y -= 1,
                1 => *y += 1,
                2 => *x += 1,
                _ => *x -= 1,
            }
        };
        while x != dx {
            let port = if x < dx { 2 } else { 3 };
            advance(&mut x, &mut y, port, &mut t);
        }
        while y != dy {
            let port = if y < dy { 1 } else { 0 };
            advance(&mut x, &mut y, port, &mut t);
        }
        let hops = (self.coords(src).0 as i64 - self.coords(dst).0 as i64).unsigned_abs()
            + (self.coords(src).1 as i64 - self.coords(dst).1 as i64).unsigned_abs();
        self.flit_hops += hops * flits as u64;
        let done = t + flits as u64; // tail serialization
        self.injected += 1;
        self.pending.push((
            done,
            Delivered {
                node: dst,
                payload,
                done_cycle: done,
            },
        ));
        self.total_latency += done - now;
        Ok(())
    }

    fn tick(&mut self, now: Cycle) -> Vec<Delivered> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= now {
                let (_, d) = self.pending.swap_remove(i);
                self.delivered_count += 1;
                out.push(d);
            } else {
                i += 1;
            }
        }
        out
    }

    fn nodes(&self) -> usize {
        self.cfg.mesh_cols * self.cfg.mesh_rows
    }

    fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    fn total_latency(&self) -> u64 {
        self.total_latency
    }

    fn flit_hops(&self) -> u64 {
        self.flit_hops
    }

    fn audit(&self, _full: bool) -> Result<(), String> {
        let outstanding = self.pending.len() as u64;
        if self.injected != self.delivered_count + outstanding {
            return Err(format!(
                "packet conservation broken: {} injected but {} delivered + {} pending (lost {})",
                self.injected,
                self.delivered_count,
                outstanding,
                self.injected as i64 - (self.delivered_count + outstanding) as i64
            ));
        }
        Ok(())
    }

    fn inject_drop_flit(&mut self, selector: u64) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let victim = (selector % self.pending.len() as u64) as usize;
        self.pending.remove(victim);
        true
    }

    fn fingerprint(&self, h: &mut Fnv64, full: bool) {
        h.write_u64(self.injected)
            .write_u64(self.delivered_count)
            .write_usize(self.pending.len());
        if !full {
            return;
        }
        for &(done, d) in &self.pending {
            h.write_u64(done)
                .write_usize(d.node)
                .write_u64(d.payload)
                .write_u64(d.done_cycle);
        }
        for &free in &self.link_free {
            h.write_u64(free);
        }
    }
}

/// Chiplet topology: the node space is partitioned into clusters of
/// [`clip_types::NocConfig::chiplet_cluster`] consecutive nodes, each
/// modelling one die. Traffic within a die crosses one cheap, wide local
/// link; traffic between dies additionally crosses a narrow die-to-die
/// port pair — [`clip_types::NocConfig::d2d_latency`] cycles of wire/PHY
/// latency plus [`clip_types::NocConfig::d2d_flit_cycles`] serialization
/// cycles *per flit* on both the source die's egress port and the
/// destination die's ingress port.
///
/// Like [`AnalyticNoc`] this is a link-schedule model: deliveries are
/// fully scheduled at `send` time, so conservation is
/// `injected == delivered + pending`, and [`ChipletNoc::inject_drop_flit`]
/// removes a scheduled delivery without touching the injection count
/// (which the audit then reports). The
/// narrow crossing is where bandwidth-constrained prefetching bites:
/// inter-die prefetch traffic queues behind demand traffic on the d2d
/// ports, moving the bandwidth cliff the paper's argument rests on.
#[derive(Debug, Clone)]
pub struct ChipletNoc {
    cfg: NocConfig,
    nodes: usize,
    /// Nodes per die (>= 1).
    cluster_nodes: usize,
    /// busy-until of each die's internal link fabric.
    local_free: Vec<Cycle>,
    /// busy-until of each die's d2d egress port.
    d2d_out_free: Vec<Cycle>,
    /// busy-until of each die's d2d ingress port.
    d2d_in_free: Vec<Cycle>,
    pending: Vec<(Cycle, Delivered)>,
    delivered_count: u64,
    total_latency: u64,
    flit_hops: u64,
    /// Packets accepted for delivery (conservation audit).
    injected: u64,
    /// Packets that crossed a die boundary (topology statistics).
    d2d_crossings: u64,
}

impl ChipletNoc {
    /// Builds the chiplet fabric over the same node space as the mesh
    /// (`mesh_cols * mesh_rows` nodes).
    ///
    /// # Panics
    ///
    /// Panics if the node space is empty or `chiplet_cluster` is zero.
    pub fn new(cfg: &NocConfig) -> Self {
        let nodes = cfg.mesh_cols * cfg.mesh_rows;
        assert!(nodes > 0, "chiplet fabric must have nodes");
        assert!(cfg.chiplet_cluster > 0, "cluster size must be non-zero");
        let clusters = nodes.div_ceil(cfg.chiplet_cluster);
        ChipletNoc {
            cfg: *cfg,
            nodes,
            cluster_nodes: cfg.chiplet_cluster,
            local_free: vec![0; clusters],
            d2d_out_free: vec![0; clusters],
            d2d_in_free: vec![0; clusters],
            pending: Vec::new(),
            delivered_count: 0,
            total_latency: 0,
            flit_hops: 0,
            injected: 0,
            d2d_crossings: 0,
        }
    }

    /// The die a node lives on.
    #[inline]
    pub fn cluster_of(&self, node: usize) -> usize {
        node / self.cluster_nodes
    }

    /// Packets that crossed a die-to-die link so far.
    pub fn d2d_crossings(&self) -> u64 {
        self.d2d_crossings
    }
}

impl NocModel for ChipletNoc {
    fn send(
        &mut self,
        src: usize,
        dst: usize,
        flits: usize,
        priority: Priority,
        payload: u64,
        now: Cycle,
    ) -> Result<(), NocFullError> {
        assert!(src < self.nodes && dst < self.nodes, "node out of range");
        let flits = flits.max(1) as u64;
        let (sc, dc) = (self.cluster_of(src), self.cluster_of(dst));
        let hop = 1 + self.cfg.router_stages;
        // Plain prefetches yield, as on the other fabrics: they see every
        // shared resource as busy slightly longer, approximating lost
        // arbitration against demand traffic.
        let yielding = self.cfg.prefetch_aware && priority == Priority::Prefetch;
        let done = if src == dst {
            // Same tile: no fabric resources, just tail serialization.
            now + flits
        } else if sc == dc {
            // On-die: one wide local link.
            if self.local_free[sc] > now + ANALYTIC_MAX_BACKLOG {
                return Err(NocFullError);
            }
            let penalty = if yielding { flits } else { 0 };
            let start = now.max(self.local_free[sc].saturating_add(penalty));
            self.local_free[sc] = start + flits;
            self.flit_hops += flits;
            start + hop + flits
        } else {
            // Cross-die: local egress, then the narrow d2d port pair,
            // then local ingress on the destination die.
            if self.local_free[sc] > now + ANALYTIC_MAX_BACKLOG
                || self.d2d_out_free[sc] > now + ANALYTIC_MAX_BACKLOG
            {
                return Err(NocFullError);
            }
            let ser = flits * self.cfg.d2d_flit_cycles;
            let local_penalty = if yielding { flits } else { 0 };
            let d2d_penalty = if yielding { ser } else { 0 };
            let t1 = now.max(self.local_free[sc].saturating_add(local_penalty));
            self.local_free[sc] = t1 + flits;
            // The crossing needs both the source egress and destination
            // ingress ports; the later one gates the transfer.
            let t2 = (t1 + hop).max(
                self.d2d_out_free[sc]
                    .max(self.d2d_in_free[dc])
                    .saturating_add(d2d_penalty),
            );
            self.d2d_out_free[sc] = t2 + ser;
            self.d2d_in_free[dc] = t2 + ser;
            let t3 = (t2 + self.cfg.d2d_latency + ser).max(self.local_free[dc]);
            self.local_free[dc] = t3 + flits;
            self.flit_hops += flits * 3;
            self.d2d_crossings += 1;
            t3 + hop + flits
        };
        self.injected += 1;
        self.pending.push((
            done,
            Delivered {
                node: dst,
                payload,
                done_cycle: done,
            },
        ));
        self.total_latency += done - now;
        Ok(())
    }

    fn tick(&mut self, now: Cycle) -> Vec<Delivered> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= now {
                let (_, d) = self.pending.swap_remove(i);
                self.delivered_count += 1;
                out.push(d);
            } else {
                i += 1;
            }
        }
        out
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    fn total_latency(&self) -> u64 {
        self.total_latency
    }

    fn flit_hops(&self) -> u64 {
        self.flit_hops
    }

    fn audit(&self, _full: bool) -> Result<(), String> {
        let outstanding = self.pending.len() as u64;
        if self.injected != self.delivered_count + outstanding {
            return Err(format!(
                "packet conservation broken: {} injected but {} delivered + {} pending (lost {})",
                self.injected,
                self.delivered_count,
                outstanding,
                self.injected as i64 - (self.delivered_count + outstanding) as i64
            ));
        }
        if self.d2d_crossings > self.injected {
            return Err(format!(
                "more d2d crossings ({}) than injected packets ({})",
                self.d2d_crossings, self.injected
            ));
        }
        Ok(())
    }

    fn inject_drop_flit(&mut self, selector: u64) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let victim = (selector % self.pending.len() as u64) as usize;
        self.pending.remove(victim);
        true
    }

    fn fingerprint(&self, h: &mut Fnv64, full: bool) {
        h.write_u64(self.injected)
            .write_u64(self.delivered_count)
            .write_u64(self.d2d_crossings)
            .write_usize(self.pending.len());
        if !full {
            return;
        }
        for &(done, d) in &self.pending {
            h.write_u64(done)
                .write_usize(d.node)
                .write_u64(d.payload)
                .write_u64(d.done_cycle);
        }
        for free in [&self.local_free, &self.d2d_out_free, &self.d2d_in_free] {
            for &f in free {
                h.write_u64(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NocConfig {
        NocConfig::default()
    }

    fn drain(noc: &mut impl NocModel, upto: Cycle) -> Vec<Delivered> {
        let mut v = Vec::new();
        for now in 0..upto {
            v.extend(noc.tick(now));
        }
        v
    }

    #[test]
    fn mesh_delivers_single_packet() {
        let mut noc = MeshNoc::new(&cfg());
        noc.send(0, 63, 8, Priority::Demand, 7, 0).unwrap();
        let d = drain(&mut noc, 300);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, 63);
        assert_eq!(d[0].payload, 7);
        // 14 hops * (1+2) + 8 flits ≈ 50+: sanity bounds.
        assert!(d[0].done_cycle >= 14, "too fast: {}", d[0].done_cycle);
        assert!(d[0].done_cycle <= 120, "too slow: {}", d[0].done_cycle);
    }

    #[test]
    fn mesh_local_delivery_works() {
        let mut noc = MeshNoc::new(&cfg());
        noc.send(5, 5, 1, Priority::Demand, 9, 0).unwrap();
        let d = drain(&mut noc, 50);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, 5);
    }

    #[test]
    fn mesh_delivers_many_packets_all_pairs() {
        let mut noc = MeshNoc::new(&cfg());
        let mut sent = 0u64;
        for s in 0..16usize {
            for t in 0..16usize {
                noc.send(s * 4, t * 4 % 64, 2, Priority::Demand, sent, 0)
                    .unwrap();
                sent += 1;
            }
        }
        let d = drain(&mut noc, 3000);
        assert_eq!(d.len() as u64, sent, "all packets must arrive");
    }

    #[test]
    fn mesh_contention_slows_delivery() {
        // Many packets crossing the same central links vs a single packet.
        let mut solo = MeshNoc::new(&cfg());
        solo.send(0, 7, 8, Priority::Demand, 0, 0).unwrap();
        let d_solo = drain(&mut solo, 2000);
        let t_solo = d_solo[0].done_cycle;

        let mut busy = MeshNoc::new(&cfg());
        for i in 0..40u64 {
            busy.send(0, 7, 8, Priority::Demand, i, 0).unwrap();
        }
        let d_busy = drain(&mut busy, 5000);
        assert_eq!(d_busy.len(), 40);
        let t_last = d_busy.iter().map(|d| d.done_cycle).max().unwrap();
        assert!(
            t_last > t_solo * 5,
            "40 packets over one path must serialize: {t_last} vs {t_solo}"
        );
    }

    #[test]
    fn mesh_priority_demand_beats_prefetch() {
        let mut noc = MeshNoc::new(&cfg());
        // Flood with prefetch packets, then inject one demand from a
        // different source crossing the same column.
        for i in 0..30u64 {
            noc.send(0, 56, 8, Priority::Prefetch, i, 0).unwrap();
        }
        noc.send(8, 56, 8, Priority::Demand, 999, 0).unwrap();
        let d = drain(&mut noc, 6000);
        let demand_t = d.iter().find(|x| x.payload == 999).unwrap().done_cycle;
        let pf_last = d
            .iter()
            .filter(|x| x.payload != 999)
            .map(|x| x.done_cycle)
            .max()
            .unwrap();
        assert!(
            demand_t < pf_last,
            "demand should not finish last ({demand_t} vs {pf_last})"
        );
    }

    #[test]
    fn mesh_injection_backpressure() {
        let mut noc = MeshNoc::new(&cfg());
        let mut accepted = 0;
        for i in 0..200u64 {
            if noc.send(3, 60, 8, Priority::Demand, i, 0).is_ok() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, INJECTION_QUEUE as u64);
    }

    #[test]
    fn analytic_matches_mesh_on_uncontended_latency() {
        let mut mesh = MeshNoc::new(&cfg());
        let mut ana = AnalyticNoc::new(&cfg());
        mesh.send(0, 63, 8, Priority::Demand, 1, 0).unwrap();
        ana.send(0, 63, 8, Priority::Demand, 1, 0).unwrap();
        let dm = drain(&mut mesh, 500)[0].done_cycle;
        let da = drain(&mut ana, 500)[0].done_cycle;
        let ratio = dm as f64 / da as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "models should agree within 2x uncontended: mesh={dm} analytic={da}"
        );
    }

    #[test]
    fn analytic_contention_accumulates() {
        let mut ana = AnalyticNoc::new(&cfg());
        for i in 0..40u64 {
            ana.send(0, 7, 8, Priority::Demand, i, 0).unwrap();
        }
        let d = drain(&mut ana, 5000);
        assert_eq!(d.len(), 40);
        let spread = d.iter().map(|x| x.done_cycle).max().unwrap()
            - d.iter().map(|x| x.done_cycle).min().unwrap();
        assert!(
            spread > 100,
            "serialization must spread deliveries: {spread}"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut noc = MeshNoc::new(&cfg());
        noc.send(0, 1, 1, Priority::Demand, 0, 0).unwrap();
        noc.send(1, 0, 1, Priority::Demand, 1, 0).unwrap();
        let _ = drain(&mut noc, 100);
        assert_eq!(noc.delivered_count(), 2);
        assert!(noc.total_latency() > 0);
    }

    #[test]
    fn demand_class_sees_lower_latency_under_contention() {
        let mut noc = MeshNoc::new(&cfg());
        // Saturate one column with a mixed workload: equal volumes of
        // demand and prefetch packets over the same links.
        let mut id = 0u64;
        for wave in 0..20u64 {
            for src in [0usize, 8, 16] {
                for prio in [Priority::Demand, Priority::Prefetch] {
                    let _ = noc.send(src, 56, 8, prio, id, wave * 4);
                    id += 1;
                }
            }
        }
        let _ = drain(&mut noc, 20_000);
        let demand = noc
            .avg_latency_for(Priority::Demand)
            .expect("demands arrived");
        let prefetch = noc
            .avg_latency_for(Priority::Prefetch)
            .expect("prefetches arrived");
        assert!(
            demand < prefetch,
            "prefetch-aware arbitration must favour demands: {demand:.0} vs {prefetch:.0}"
        );
        assert!(noc.delivered_for(Priority::Demand) > 0);
    }

    #[test]
    fn audit_passes_through_normal_traffic() {
        let mut mesh = MeshNoc::new(&cfg());
        let mut ana = AnalyticNoc::new(&cfg());
        for i in 0..10u64 {
            mesh.send(0, 63, 4, Priority::Demand, i, 0).unwrap();
            ana.send(0, 63, 4, Priority::Demand, i, 0).unwrap();
        }
        for now in 0..500 {
            mesh.tick(now);
            ana.tick(now);
            assert_eq!(mesh.audit(true), Ok(()), "cycle {now}");
            assert_eq!(ana.audit(true), Ok(()), "cycle {now}");
        }
    }

    #[test]
    fn dropped_flit_breaks_mesh_audit() {
        let mut mesh = MeshNoc::new(&cfg());
        mesh.send(0, 63, 4, Priority::Demand, 1, 0).unwrap();
        // Tick until a flit is in the fabric, then lose it.
        let mut dropped = false;
        for now in 0..50 {
            mesh.tick(now);
            if mesh.inject_drop_flit(3) {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "a flit should have been in flight");
        let err = mesh.audit(false).unwrap_err();
        assert!(err.contains("conservation broken"), "{err}");
    }

    #[test]
    fn dropped_delivery_breaks_analytic_audit() {
        let mut ana = AnalyticNoc::new(&cfg());
        ana.send(0, 63, 4, Priority::Demand, 1, 0).unwrap();
        assert!(ana.inject_drop_flit(0));
        let err = ana.audit(false).unwrap_err();
        assert!(err.contains("conservation broken"), "{err}");
        // Nothing left to drop.
        assert!(!ana.inject_drop_flit(0));
    }

    #[test]
    fn drop_on_idle_mesh_is_noop() {
        let mut mesh = MeshNoc::new(&cfg());
        assert!(!mesh.inject_drop_flit(7));
        assert_eq!(mesh.audit(true), Ok(()));
    }

    #[test]
    fn route_is_xy() {
        let noc = MeshNoc::new(&cfg());
        // From node 0 (0,0) to node 63 (7,7): go east first.
        assert_eq!(noc.route(0, 63), 2);
        // From (7,0)=7 to 63 (7,7): go south.
        assert_eq!(noc.route(7, 63), 1);
        assert_eq!(noc.route(63, 63), LOCAL);
    }

    #[test]
    fn numa_penalty_taxes_only_cross_half_traffic() {
        let latency_of = |penalty: u64, src: usize, dst: usize| {
            let mut noc = MeshNoc::new(&NocConfig {
                numa_penalty: penalty,
                ..cfg()
            });
            noc.send(src, dst, 8, Priority::Demand, 1, 0).unwrap();
            drain(&mut noc, 2000)[0].done_cycle
        };
        // Node 0 (col 0) to node 7 (col 7) crosses the column-half cut
        // once; the whole penalty lands exactly once per link crossing.
        let base = latency_of(0, 0, 7);
        let taxed = latency_of(40, 0, 7);
        assert!(
            taxed > base + 30,
            "cross-socket traffic must pay the penalty: {base} -> {taxed}"
        );
        // Traffic inside the left half (cols 0..4) is untouched.
        assert_eq!(latency_of(0, 0, 3), latency_of(40, 0, 3));
        // And the default of 0 is bit-identical to the pre-knob mesh.
        assert_eq!(base, latency_of(0, 0, 7));
    }

    /// Drives a mesh with seeded random traffic (mixed priorities, 1- and
    /// 8-flit packets, above the saturation load) for `inject_cycles`,
    /// then drains it. Returns the FNV fold of every delivery, in order,
    /// plus the number of refused sends, cycles with a held wormhole lock
    /// and cycles with a full VC buffer (a credit stall upstream).
    fn delivery_stream(cfg: &NocConfig, seed: u64, inject_cycles: Cycle) -> (u64, u64, u64, u64) {
        let mut noc = MeshNoc::new(cfg);
        let mut rng = clip_types::SimRng::seed_from_u64(seed);
        let mut h = Fnv64::new();
        let (mut refused, mut locked, mut full) = (0u64, 0u64, 0u64);
        let (mut sent, mut delivered) = (0u64, 0u64);
        let mut now = 0;
        while now < inject_cycles || delivered < sent {
            assert!(now < inject_cycles + 200_000, "mesh failed to drain");
            if now < inject_cycles {
                for src in 0..noc.nodes() {
                    if !rng.gen_bool(0.2) {
                        continue;
                    }
                    let dst = (rng.next_u64() % noc.nodes() as u64) as usize;
                    let flits = if rng.gen_bool(0.5) { 1 } else { 8 };
                    let prio = match rng.next_u64() % 3 {
                        0 => Priority::Demand,
                        1 => Priority::Writeback,
                        _ => Priority::Prefetch,
                    };
                    match noc.send(src, dst, flits, prio, sent, now) {
                        Ok(()) => sent += 1,
                        Err(NocFullError) => refused += 1,
                    }
                }
            }
            for d in noc.tick(now) {
                h.write_usize(d.node)
                    .write_u64(d.payload)
                    .write_u64(d.done_cycle);
                delivered += 1;
            }
            let routers = &noc.routers;
            if routers
                .iter()
                .any(|r| r.out_owner.iter().any(Option::is_some))
            {
                locked += 1;
            }
            let cap = cfg.vc_buffer_flits;
            if routers
                .iter()
                .any(|r| r.inputs.iter().flatten().any(|b| b.q.len() >= cap))
            {
                full += 1;
            }
            now += 1;
        }
        assert_eq!(noc.audit(true), Ok(()));
        (h.finish(), refused, locked, full)
    }

    #[test]
    fn mesh_delivery_stream_is_pinned() {
        // Any change to switch allocation, VC assignment or credit flow
        // that alters who wins a port in any cycle moves these folds.
        let aware = NocConfig {
            prefetch_aware: true,
            numa_penalty: 0,
            ..cfg()
        };
        let numa = NocConfig {
            prefetch_aware: false,
            numa_penalty: 3,
            ..cfg()
        };
        for (cfg, seed, expect) in [
            (aware, 0x5EED_0001, 0x80a6_4238_a768_37df),
            (numa, 0x5EED_0002, 0xcde0_32e3_6d85_d9d5),
        ] {
            let (fold, refused, locked, full) = delivery_stream(&cfg, seed, 2_000);
            assert!(refused > 0, "no injection back-pressure");
            assert!(locked > 0, "no wormhole lock held");
            assert!(full > 0, "no credit stall");
            assert_eq!(fold, expect, "delivery stream moved ({cfg:?})");
        }
    }

    #[test]
    fn mesh_packet_slab_stays_bounded_under_sustained_traffic() {
        // Every packet in flight is either in an injection queue or has
        // its tail flit in a VC buffer, so the recycled slab can never
        // hold more slots than that, however long the run.
        let cfg = cfg();
        let mut noc = MeshNoc::new(&cfg);
        let nodes = noc.nodes();
        let bound =
            nodes * INJECTION_QUEUE + nodes * PORTS * cfg.virtual_channels * cfg.vc_buffer_flits;
        let mut rng = clip_types::SimRng::seed_from_u64(0x51AB);
        let (mut sent, mut delivered) = (0u64, 0u64);
        let mut now = 0;
        while sent < 100_000 {
            for src in 0..nodes {
                if rng.gen_bool(0.1) {
                    let dst = (rng.next_u64() % nodes as u64) as usize;
                    let flits = if rng.gen_bool(0.5) { 1 } else { 8 };
                    if noc
                        .send(src, dst, flits, Priority::Demand, sent, now)
                        .is_ok()
                    {
                        sent += 1;
                    }
                }
            }
            delivered += noc.tick(now).len() as u64;
            assert!(
                noc.packets.len() <= bound,
                "packet table grew to {} slots (bound {bound}) after {sent} packets",
                noc.packets.len()
            );
            assert_eq!(noc.audit(true), Ok(()), "cycle {now}");
            now += 1;
        }
        assert!(delivered > 90_000, "traffic must keep flowing: {delivered}");
    }

    fn chiplet_cfg() -> NocConfig {
        NocConfig {
            chiplet_cluster: 16,
            ..cfg()
        }
    }

    #[test]
    fn chiplet_delivers_on_die_and_cross_die() {
        let mut noc = ChipletNoc::new(&chiplet_cfg());
        assert_eq!(noc.nodes(), 64);
        noc.send(0, 5, 8, Priority::Demand, 1, 0).unwrap(); // die 0 -> die 0
        noc.send(0, 63, 8, Priority::Demand, 2, 0).unwrap(); // die 0 -> die 3
        let d = drain(&mut noc, 2000);
        assert_eq!(d.len(), 2);
        assert_eq!(noc.d2d_crossings(), 1);
        let on_die = d.iter().find(|x| x.payload == 1).unwrap().done_cycle;
        let cross = d.iter().find(|x| x.payload == 2).unwrap().done_cycle;
        // The d2d port pair adds wire latency plus per-flit serialization.
        let cfg = chiplet_cfg();
        assert!(
            cross >= on_die + cfg.d2d_latency + 8 * cfg.d2d_flit_cycles,
            "cross-die must pay the crossing: {on_die} vs {cross}"
        );
    }

    #[test]
    fn chiplet_d2d_port_serializes_cross_die_traffic() {
        // Many packets between the same die pair queue on the narrow d2d
        // ports; the same load within one die streams through the wide
        // local link.
        let run = |srcs: std::ops::Range<usize>, dst: usize| {
            let mut noc = ChipletNoc::new(&chiplet_cfg());
            for (i, src) in srcs.enumerate() {
                noc.send(src, dst, 8, Priority::Demand, i as u64, 0)
                    .unwrap();
            }
            drain(&mut noc, 50_000)
                .iter()
                .map(|d| d.done_cycle)
                .max()
                .unwrap()
        };
        let on_die = run(0..16, 1);
        let cross_die = run(0..16, 63);
        assert!(
            cross_die > on_die * 2,
            "d2d crossing must serialize: {on_die} vs {cross_die}"
        );
    }

    #[test]
    fn chiplet_prefetch_yields_on_the_crossing() {
        // Same contended cross-die stream once as demands, once as plain
        // prefetches: with prefetch-aware arbitration the prefetch stream
        // must accumulate more latency (it yields on every shared
        // resource, the narrow d2d ports most of all).
        let total_latency = |prio: Priority| {
            let mut noc = ChipletNoc::new(&chiplet_cfg());
            for i in 0..10u64 {
                noc.send(0, 63, 8, prio, i, 0).unwrap();
            }
            let d = drain(&mut noc, 50_000);
            assert_eq!(d.len(), 10);
            noc.total_latency()
        };
        assert!(
            total_latency(Priority::Prefetch) > total_latency(Priority::Demand),
            "plain prefetches must yield on the crossing"
        );
    }

    #[test]
    fn chiplet_audit_catches_dropped_delivery() {
        let mut noc = ChipletNoc::new(&chiplet_cfg());
        for i in 0..4u64 {
            noc.send(0, 63, 4, Priority::Demand, i, 0).unwrap();
            noc.send(3, 9, 4, Priority::Demand, 10 + i, 0).unwrap();
        }
        assert_eq!(noc.audit(true), Ok(()));
        assert!(noc.inject_drop_flit(5));
        let err = noc.audit(false).unwrap_err();
        assert!(err.contains("conservation broken"), "{err}");
        // Idle fabric: nothing to drop.
        let mut idle = ChipletNoc::new(&chiplet_cfg());
        assert!(!idle.inject_drop_flit(0));
    }

    #[test]
    fn chiplet_backpressures_under_saturation() {
        let mut noc = ChipletNoc::new(&chiplet_cfg());
        let mut accepted = 0u64;
        for i in 0..20_000u64 {
            if noc.send(0, 63, 8, Priority::Demand, i, 0).is_ok() {
                accepted += 1;
            }
        }
        assert!(accepted > 0 && accepted < 20_000, "{accepted}");
        assert_eq!(noc.audit(true), Ok(()));
    }
}
