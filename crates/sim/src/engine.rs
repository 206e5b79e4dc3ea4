//! The engine: transaction slab, event ring, clock, and the clocked
//! NoC/DRAM components, plus the memory-controller message handlers.
//!
//! [`Engine`] owns everything that is *shared* between tiles — the NoC,
//! the DRAM channels, the LLC, the in-flight transaction slab, the event
//! ring and the [`SimClock`] — so tile-side code can borrow one tile and
//! the engine simultaneously (disjoint `System` fields). The NoC, DRAM
//! and LLC are wrapped in [`ClockedNoc`] / [`ClockedDram`] /
//! [`crate::llc::ClockedLlc`], which implement the [`Tick`] contract and
//! emit their outputs into typed [`Channel`]s the cycle loop drains.

use crate::llc::ClockedLlc;
use crate::ports::{NocPayload, OutMsg, TxnId};
use clip_dram::{ChannelStats, DramCompletion, DramModel, DramSystem, HbmDram, QueueFullError};
use clip_noc::{AnalyticNoc, ChipletNoc, Delivered, MeshNoc, NocFullError, NocModel};
use clip_types::{
    Channel, Cycle, DramConfig, DramKind, Ip, LineAddr, MemLevel, Priority, ReqId, SimClock,
    SimConfig, Tick,
};
use std::collections::HashMap;

pub(crate) const EVENT_RING: usize = 1 << 15;
pub(crate) const RETRY_DELAY: Cycle = 4;

/// DRAM ReqId bit marking a Hermes probe.
pub(crate) const PROBE_BIT: u64 = 1 << 62;

/// Which NoC implementation a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NocChoice {
    /// Flit-level wormhole mesh (default; the full substrate).
    #[default]
    Mesh,
    /// Link-schedule analytic model (fast, for wide sweeps).
    Analytic,
    /// Chiplet fabric: clusters of tiles with narrow die-to-die ports.
    Chiplet,
}

/// The fabric a run actually drives, dispatched behind [`NocModel`].
pub(crate) enum NocImpl {
    Mesh(MeshNoc),
    Analytic(AnalyticNoc),
    Chiplet(ChipletNoc),
}

impl NocImpl {
    /// Topology factory: builds the fabric `choice` selects over the
    /// configured node space.
    pub(crate) fn build(choice: NocChoice, cfg: &SimConfig) -> NocImpl {
        match choice {
            NocChoice::Mesh => NocImpl::Mesh(MeshNoc::new(&cfg.noc)),
            NocChoice::Analytic => NocImpl::Analytic(AnalyticNoc::new(&cfg.noc)),
            NocChoice::Chiplet => NocImpl::Chiplet(ChipletNoc::new(&cfg.noc)),
        }
    }

    fn as_model(&mut self) -> &mut dyn NocModel {
        match self {
            NocImpl::Mesh(m) => m,
            NocImpl::Analytic(a) => a,
            NocImpl::Chiplet(c) => c,
        }
    }

    fn as_model_ref(&self) -> &dyn NocModel {
        match self {
            NocImpl::Mesh(m) => m,
            NocImpl::Analytic(a) => a,
            NocImpl::Chiplet(c) => c,
        }
    }
}

impl NocModel for NocImpl {
    fn send(
        &mut self,
        src: usize,
        dst: usize,
        flits: usize,
        priority: Priority,
        payload: u64,
        now: Cycle,
    ) -> Result<(), NocFullError> {
        self.as_model()
            .send(src, dst, flits, priority, payload, now)
    }
    fn tick(&mut self, now: Cycle) -> Vec<Delivered> {
        self.as_model().tick(now)
    }
    fn nodes(&self) -> usize {
        self.as_model_ref().nodes()
    }
    fn delivered_count(&self) -> u64 {
        self.as_model_ref().delivered_count()
    }
    fn total_latency(&self) -> u64 {
        self.as_model_ref().total_latency()
    }
    fn flit_hops(&self) -> u64 {
        self.as_model_ref().flit_hops()
    }
    fn audit(&self, full: bool) -> Result<(), String> {
        self.as_model_ref().audit(full)
    }
    fn inject_drop_flit(&mut self, selector: u64) -> bool {
        self.as_model().inject_drop_flit(selector)
    }
    fn fingerprint(&self, h: &mut clip_types::Fnv64, full: bool) {
        self.as_model_ref().fingerprint(h, full);
    }
}

/// The memory backend a run actually drives, dispatched behind
/// [`DramModel`].
pub(crate) enum DramImpl {
    Ddr4(DramSystem),
    Hbm(HbmDram),
}

impl DramImpl {
    /// Memory factory: builds the backend `cfg.kind` selects.
    pub(crate) fn build(cfg: &DramConfig) -> DramImpl {
        match cfg.kind {
            DramKind::Ddr4 => DramImpl::Ddr4(DramSystem::new(cfg)),
            DramKind::Hbm => DramImpl::Hbm(HbmDram::new(cfg)),
        }
    }

    fn as_model(&mut self) -> &mut dyn DramModel {
        match self {
            DramImpl::Ddr4(d) => d,
            DramImpl::Hbm(h) => h,
        }
    }

    fn as_model_ref(&self) -> &dyn DramModel {
        match self {
            DramImpl::Ddr4(d) => d,
            DramImpl::Hbm(h) => h,
        }
    }
}

impl DramModel for DramImpl {
    fn channels(&self) -> usize {
        self.as_model_ref().channels()
    }
    fn channel_for(&self, line: LineAddr) -> usize {
        self.as_model_ref().channel_for(line)
    }
    fn read_queue_has_room(&self, channel: usize) -> bool {
        self.as_model_ref().read_queue_has_room(channel)
    }
    fn read_queue_len(&self, channel: usize) -> usize {
        self.as_model_ref().read_queue_len(channel)
    }
    fn enqueue_read(
        &mut self,
        channel: usize,
        id: ReqId,
        line: LineAddr,
        priority: Priority,
        now: Cycle,
    ) -> Result<(), QueueFullError> {
        self.as_model()
            .enqueue_read(channel, id, line, priority, now)
    }
    fn enqueue_write(&mut self, line: LineAddr, now: Cycle) -> Result<(), QueueFullError> {
        self.as_model().enqueue_write(line, now)
    }
    fn tick(&mut self, now: Cycle) -> Vec<DramCompletion> {
        self.as_model().tick(now)
    }
    fn stats(&self, channel: usize) -> &ChannelStats {
        self.as_model_ref().stats(channel)
    }
    fn total_stats(&self) -> ChannelStats {
        self.as_model_ref().total_stats()
    }
    fn audit(&self, now: Cycle, full: bool) -> Result<(), String> {
        self.as_model_ref().audit(now, full)
    }
    fn inject_swallow_completion(&mut self, selector: u64) -> bool {
        self.as_model().inject_swallow_completion(selector)
    }
    fn bandwidth_utilization(&self, elapsed: Cycle) -> f64 {
        self.as_model_ref().bandwidth_utilization(elapsed)
    }
    fn fingerprint(&self, h: &mut clip_types::Fnv64, full: bool) {
        self.as_model_ref().fingerprint(h, full);
    }
}

/// The NoC as a clocked component: each [`Tick::tick`] advances the
/// network one cycle and pushes completed deliveries into `delivered`.
/// Generic over the fabric so any [`NocModel`] slots in.
pub(crate) struct ClockedNoc<N: NocModel> {
    pub(crate) model: N,
    pub(crate) delivered: Channel<Delivered>,
}

impl<N: NocModel> Tick for ClockedNoc<N> {
    fn tick(&mut self, now: Cycle) {
        for d in self.model.tick(now) {
            self.delivered.push(d);
        }
    }
}

/// The DRAM channels as a clocked component: each [`Tick::tick`]
/// advances every channel one cycle and pushes finished reads into
/// `completed`. Generic over the backend so any [`DramModel`] slots in.
pub(crate) struct ClockedDram<D: DramModel> {
    pub(crate) mem: D,
    pub(crate) completed: Channel<DramCompletion>,
}

impl<D: DramModel> Tick for ClockedDram<D> {
    fn tick(&mut self, now: Cycle) {
        for c in self.mem.tick(now) {
            self.completed.push(c);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnKind {
    Demand,
    Store,
    Prefetch {
        fill_l1: bool,
        critical: bool,
        trigger_ip: Ip,
        /// Originating engine inside a composite ensemble (0 otherwise);
        /// carried so a cancel can release the right engine's credit.
        engine: u8,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProbeState {
    None,
    Pending,
    Done,
    /// The transaction reached the memory controller while the probe was
    /// still in flight; respond as soon as the probe lands.
    TxnWaiting,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Txn {
    pub tile: u16,
    pub ip: Ip,
    pub line: LineAddr,
    pub kind: TxnKind,
    pub issue: Cycle,
    pub level: MemLevel,
    pub probe: ProbeState,
    /// Unique id of this transaction's Hermes probe, if one is in flight.
    pub probe_id: Option<u64>,
    pub live: bool,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// L1 hit: respond to the core.
    L1Respond {
        tile: u16,
        req: ReqId,
        issue: Cycle,
    },
    L2Lookup {
        txn: TxnId,
    },
    DramEnqueue {
        txn: TxnId,
    },
    TileData {
        txn: TxnId,
    },
    /// Retry a DRAM writeback that found the write queue full.
    WbDram {
        line: LineAddr,
    },
}

/// The configuration slice the uncore needs: topology and packet sizes,
/// derived once from the [`SimConfig`] so the engine is self-contained.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineParams {
    pub cores: usize,
    pub nodes: usize,
    pub channels: usize,
    pub data_packet_flits: usize,
    pub addr_packet_flits: usize,
    pub llc_latency: Cycle,
}

impl EngineParams {
    pub(crate) fn from_config(cfg: &SimConfig) -> Self {
        EngineParams {
            cores: cfg.cores,
            nodes: cfg.noc.mesh_cols * cfg.noc.mesh_rows,
            channels: cfg.dram.channels,
            data_packet_flits: cfg.noc.data_packet_flits,
            addr_packet_flits: cfg.noc.addr_packet_flits,
            llc_latency: cfg.llc_slice.latency,
        }
    }
}

/// Shared (non-tile) simulator state: clock, interconnect, memory,
/// transactions, and the event ring. The engine owns the whole uncore
/// state machine — message handlers included — so the uncore message
/// flow never needs a tile borrow.
pub(crate) struct Engine {
    pub(crate) params: EngineParams,
    pub(crate) clock: SimClock,
    pub(crate) noc: ClockedNoc<NocImpl>,
    pub(crate) dram: ClockedDram<DramImpl>,
    pub(crate) llc: ClockedLlc,
    pub(crate) txns: Vec<Txn>,
    free_txns: Vec<TxnId>,
    ring: Vec<Vec<Ev>>,
    /// Events currently on the ring (O(1) view for the watchdog).
    events_pending: usize,
    /// Per-node injection outboxes (FIFO behind a refused packet).
    outbox: Vec<Channel<OutMsg>>,
    next_req: u64,
    /// In-flight Hermes probes: unique probe id → owning transaction.
    /// Probe ids must be generation-unique (not slot-derived): transaction
    /// slots are recycled, and a stale completion keyed by slot would be
    /// credited to the wrong transaction, eventually stranding one in
    /// `ProbeState::TxnWaiting` forever.
    pub(crate) probe_map: HashMap<u64, TxnId>,
    pub(crate) next_probe: u64,
}

impl Engine {
    pub(crate) fn new(noc: NocImpl, dram: DramImpl, llc: ClockedLlc, params: EngineParams) -> Self {
        Engine {
            params,
            clock: SimClock::new(),
            noc: ClockedNoc {
                model: noc,
                delivered: Channel::new(),
            },
            dram: ClockedDram {
                mem: dram,
                completed: Channel::new(),
            },
            llc,
            txns: Vec::with_capacity(4096),
            free_txns: Vec::new(),
            ring: (0..EVENT_RING).map(|_| Vec::new()).collect(),
            events_pending: 0,
            outbox: (0..params.nodes).map(|_| Channel::new()).collect(),
            next_req: 1,
            probe_map: HashMap::new(),
            next_probe: 0,
        }
    }

    #[inline]
    pub(crate) fn now(&self) -> Cycle {
        self.clock.now()
    }

    #[inline]
    pub(crate) fn fresh_req(&mut self) -> ReqId {
        let r = ReqId(self.next_req);
        self.next_req += 1;
        r
    }

    pub(crate) fn alloc_txn(&mut self, txn: Txn) -> TxnId {
        if let Some(i) = self.free_txns.pop() {
            self.txns[i as usize] = txn;
            i
        } else {
            self.txns.push(txn);
            (self.txns.len() - 1) as TxnId
        }
    }

    pub(crate) fn free_txn(&mut self, i: TxnId) {
        if let Some(pid) = self.txns[i as usize].probe_id.take() {
            // Orphan any in-flight probe so its completion is discarded
            // instead of being credited to a future occupant of this slot.
            self.probe_map.remove(&pid);
        }
        self.txns[i as usize].live = false;
        self.free_txns.push(i);
    }

    pub(crate) fn live_txns(&self) -> usize {
        self.txns.iter().filter(|t| t.live).count()
    }

    #[inline]
    pub(crate) fn schedule(&mut self, at: Cycle, ev: Ev) {
        let now = self.clock.now();
        let at = at.max(now + 1);
        debug_assert!(at - now < EVENT_RING as u64, "event beyond ring horizon");
        self.ring[(at as usize) % EVENT_RING].push(ev);
        self.events_pending += 1;
    }

    /// Takes this cycle's scheduled events off the ring.
    pub(crate) fn take_events(&mut self) -> Vec<Ev> {
        let now = self.clock.now();
        let evs = std::mem::take(&mut self.ring[(now as usize) % EVENT_RING]);
        self.events_pending -= evs.len();
        evs
    }

    pub(crate) fn pending_events(&self) -> usize {
        self.events_pending
    }

    pub(crate) fn outbox_backlog(&self) -> usize {
        self.outbox.iter().map(|o| o.len()).sum()
    }

    pub(crate) fn txn_priority(&self, t: TxnId) -> Priority {
        match self.txns[t as usize].kind {
            TxnKind::Demand | TxnKind::Store => Priority::Demand,
            TxnKind::Prefetch { critical, .. } => {
                if critical {
                    Priority::Demand
                } else {
                    Priority::Prefetch
                }
            }
        }
    }

    /// Fault injection: flips the criticality flag of the `sel % len`-th
    /// live prefetch transaction (slot order). Nothing becomes
    /// unaccounted for — the transaction just arbitrates at the wrong
    /// priority from here on — so no conservation audit can catch this;
    /// only the state-fingerprint comparison against a clean same-seed
    /// run localizes the divergence. Returns false when no prefetch is
    /// live.
    pub(crate) fn flip_prefetch_criticality(&mut self, sel: u64) -> bool {
        let candidates: Vec<usize> = self
            .txns
            .iter()
            .enumerate()
            .filter(|(_, t)| t.live && matches!(t.kind, TxnKind::Prefetch { .. }))
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let victim = candidates[(sel % candidates.len() as u64) as usize];
        if let TxnKind::Prefetch { critical, .. } = &mut self.txns[victim].kind {
            *critical = !*critical;
        }
        true
    }

    /// Legality scan over the live-transaction slab: every line must lie
    /// inside the simulated address space. Backstop for a corrupted
    /// prefetch address that left its tile queue between audit windows.
    ///
    /// # Errors
    ///
    /// Returns a description of the first illegal transaction.
    pub(crate) fn audit_txns(&self) -> Result<(), String> {
        for (i, t) in self.txns.iter().enumerate() {
            if t.live && !crate::tile::line_in_address_space(t.line) {
                return Err(format!(
                    "txn{i} (tile {}) targets line {:#x}, outside the \
                     simulated address space",
                    t.tile,
                    t.line.raw()
                ));
            }
        }
        Ok(())
    }

    /// Folds the live-transaction slab into a state fingerprint, in slot
    /// order (slot allocation is deterministic for a deterministic run).
    /// Includes the prefetch criticality/fill bits, so a flipped flag
    /// diverges here even before arbitration acts on it.
    pub(crate) fn fingerprint_txns(&self, h: &mut clip_types::Fnv64) {
        h.write_usize(self.live_txns());
        for (i, t) in self.txns.iter().enumerate() {
            if !t.live {
                continue;
            }
            let (tag, fill, crit, tip, eng) = match t.kind {
                TxnKind::Demand => (1u64, false, false, 0, 0),
                TxnKind::Store => (2, false, false, 0, 0),
                TxnKind::Prefetch {
                    fill_l1,
                    critical,
                    trigger_ip,
                    engine,
                } => (3, fill_l1, critical, trigger_ip.raw(), engine),
            };
            h.write_usize(i)
                .write_u64(u64::from(t.tile))
                .write_u64(t.ip.raw())
                .write_u64(t.line.raw())
                .write_u64(tag)
                .write_bool(fill)
                .write_bool(crit)
                .write_u64(tip)
                .write_u64(u64::from(eng))
                .write_u64(t.issue)
                .write_u64(t.level as u64);
        }
    }

    /// O(1)-balance variant of [`Engine::fingerprint_txns`] for `cheap`
    /// check runs: live-transaction count and ring/outbox occupancy.
    pub(crate) fn fingerprint_txns_cheap(&self, h: &mut clip_types::Fnv64) {
        h.write_usize(self.live_txns())
            .write_usize(self.events_pending)
            .write_usize(self.outbox_backlog());
    }

    /// Injects a message, spilling to the node's outbox on back-pressure
    /// (or when earlier spilled messages must keep FIFO order).
    pub(crate) fn send_msg(
        &mut self,
        src: usize,
        dst: usize,
        flits: usize,
        prio: Priority,
        pl: NocPayload,
    ) {
        let now = self.clock.now();
        if !self.outbox[src].is_empty() {
            self.outbox[src].push(OutMsg {
                dst,
                flits,
                priority: prio,
                payload: pl,
            });
            return;
        }
        if self
            .noc
            .model
            .send(src, dst, flits, prio, pl.encode(), now)
            .is_err()
        {
            self.outbox[src].push(OutMsg {
                dst,
                flits,
                priority: prio,
                payload: pl,
            });
        }
    }

    pub(crate) fn drain_outboxes(&mut self) {
        let now = self.clock.now();
        // Rotate the starting node each cycle: a fixed order would let
        // low-index tiles win saturated links every cycle and starve the
        // memory controllers' response packets (livelock under flood).
        let n = self.outbox.len();
        for k in 0..n {
            let node = (k + (now as usize % n.max(1))) % n;
            while let Some(m) = self.outbox[node].front() {
                let ok = self
                    .noc
                    .model
                    .send(node, m.dst, m.flits, m.priority, m.payload.encode(), now)
                    .is_ok();
                if ok {
                    self.outbox[node].pop();
                } else {
                    break;
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Uncore message flow: LLC slices and memory controllers. Engine-owned:
// these paths never touch a tile, so the uncore state machine is closed
// under `Engine` and `System` only forwards tile-facing events.
// ----------------------------------------------------------------------

impl Engine {
    #[inline]
    pub(crate) fn home_of(&self, line: LineAddr) -> usize {
        (clip_types::hash64(line.raw() ^ 0x110C) as usize) % self.params.cores
    }

    #[inline]
    pub(crate) fn mc_node(&self, channel: usize) -> usize {
        let nodes = self.params.nodes;
        (channel * nodes / self.params.channels) % nodes
    }

    /// Drains the clocked components' output channels into the uncore
    /// handlers: NoC deliveries, DRAM completions, due LLC lookups. The
    /// `lose_deliveries` flag is the `LoseDelivery` fault: packets arrive
    /// and vanish.
    pub(crate) fn drain_uncore(&mut self, now: Cycle, lose_deliveries: bool) {
        while let Some(d) = self.noc.delivered.pop() {
            if lose_deliveries {
                continue;
            }
            self.handle_delivery(d.node, d.payload, now);
        }
        while let Some(c) = self.dram.completed.pop() {
            self.handle_dram_completion(c.id);
        }
        while let Some(txn) = self.llc.ready.pop() {
            self.llc_lookup(txn, now);
        }
    }

    pub(crate) fn dram_enqueue(&mut self, txn: TxnId, now: Cycle) {
        match self.txns[txn as usize].probe {
            ProbeState::Done => {
                // Hermes probe already fetched the data at the controller.
                self.txns[txn as usize].level = MemLevel::Dram;
                self.data_from_mc(txn);
                return;
            }
            ProbeState::Pending => {
                self.txns[txn as usize].probe = ProbeState::TxnWaiting;
                return;
            }
            _ => {}
        }
        let tx = self.txns[txn as usize];
        let channel = self.dram.mem.channel_for(tx.line);
        let prio = self.txn_priority(txn);
        if self
            .dram
            .mem
            .enqueue_read(channel, ReqId(txn as u64), tx.line, prio, now)
            .is_err()
        {
            self.schedule(now + RETRY_DELAY, Ev::DramEnqueue { txn });
        }
    }

    /// Enqueues a dirty-line write at its controller, retrying through
    /// the event ring when the write queue is full.
    pub(crate) fn wb_dram(&mut self, line: LineAddr, now: Cycle) {
        if self.dram.mem.enqueue_write(line, now).is_err() {
            self.schedule(now + RETRY_DELAY * 2, Ev::WbDram { line });
        }
    }

    /// Sends the DRAM response packet toward the LLC home slice.
    fn data_from_mc(&mut self, txn: TxnId) {
        let tx = self.txns[txn as usize];
        let channel = self.dram.mem.channel_for(tx.line);
        let mc = self.mc_node(channel);
        let home = self.home_of(tx.line);
        let prio = self.txn_priority(txn);
        self.send_msg(
            mc,
            home,
            self.params.data_packet_flits,
            prio,
            NocPayload::DataLlc(txn),
        );
    }

    pub(crate) fn handle_dram_completion(&mut self, id: ReqId) {
        if id.0 & PROBE_BIT != 0 {
            let pid = id.0 & !PROBE_BIT;
            // Orphaned probes (owner already serviced on-chip) miss here.
            let Some(txn) = self.probe_map.remove(&pid) else {
                return;
            };
            self.txns[txn as usize].probe_id = None;
            match self.txns[txn as usize].probe {
                ProbeState::TxnWaiting => {
                    self.txns[txn as usize].level = MemLevel::Dram;
                    self.data_from_mc(txn);
                }
                ProbeState::Pending => self.txns[txn as usize].probe = ProbeState::Done,
                ProbeState::None | ProbeState::Done => {}
            }
            return;
        }
        let txn = id.0 as TxnId;
        if !self.txns[txn as usize].live {
            return;
        }
        self.txns[txn as usize].level = MemLevel::Dram;
        self.data_from_mc(txn);
    }

    pub(crate) fn handle_delivery(&mut self, node: usize, pl: u64, now: Cycle) {
        match NocPayload::decode(pl) {
            NocPayload::ReqLlc(txn) => {
                let delay = self.params.llc_latency;
                self.llc.schedule_lookup(txn, now, delay);
            }
            NocPayload::ReqMc(txn) => {
                self.schedule(now + 1, Ev::DramEnqueue { txn });
            }
            NocPayload::DataLlc(txn) => {
                self.llc_fill_and_forward(txn, now);
            }
            NocPayload::DataTile(txn) => {
                self.schedule(now + 1, Ev::TileData { txn });
            }
            NocPayload::WbLlc(line) => self.llc_writeback(node, line, now),
            NocPayload::WbMc(line) => self.wb_dram(line, now),
        }
    }

    pub(crate) fn writeback_to_dram(&mut self, from_node: usize, line: LineAddr) {
        let channel = self.dram.mem.channel_for(line);
        let mc = self.mc_node(channel);
        self.send_msg(
            from_node,
            mc,
            self.params.data_packet_flits,
            Priority::Writeback,
            NocPayload::WbMc(line),
        );
    }
}
