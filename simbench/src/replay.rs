//! Per-layer replays: each layer's public API driven on its own, sized
//! from the operation counts and rates a workload's `SimResult`s report.
//!
//! `System::tick` exposes no per-layer timers, so the traced run
//! measures each layer's host cost here, outside the simulator: the NoC
//! and DRAM at the workload's measured flit and transfer rates, the
//! caches, trace generator, core, prefetcher and CLIP over the
//! workload's own instruction streams. One round replays the operations
//! of one core's run; rounds repeat until the replay has run for
//! [`MIN_REPLAY_S`], and the cost per operation times the operation
//! count of the real run estimates that layer's share of the run.

use crate::spans::Tracer;
use clip_cache::Cache;
use clip_core::{Clip, ClipStats};
use clip_cpu::{Core, LoadOutcome, MemIssuePort};
use clip_dram::DramSystem;
use clip_noc::{AnalyticNoc, MeshNoc, NocModel};
use clip_prefetch::{AccessInfo, PrefetchCandidate};
use clip_sim::{NocChoice, Scheme, SimResult};
use clip_stats::LatencyStat;
use clip_trace::{Instr, InstrKind, WorkloadSpec};
use clip_types::{Addr, Cycle, Ip, LineAddr, MemLevel, Priority, ReqId, SimConfig, SimRng};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Minimum host time each replay runs for, so its cost per operation is
/// not dominated by clock resolution.
pub const MIN_REPLAY_S: f64 = 0.15;

/// Simulated counts summed over every result of one workload pass.
/// Window counts cover the measured windows only (what `SimResult`
/// reports); `instrs` and `total_cycles` include warmup.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub runs: u64,
    pub cores: usize,
    /// Instructions per core per run, warmup included.
    pub per_core_instrs: u64,
    /// All simulated instructions, warmup included.
    pub instrs: u64,
    /// All simulated cycles, warmup included.
    pub total_cycles: u64,
    /// Measured-window cycles.
    pub cycles: u64,
    /// (warmup + measure) / measure: scales window counts to whole runs.
    pub warmup_scale: f64,
    pub flit_hops: u64,
    pub dram_transfers: u64,
    pub dram_row_hits: u64,
    pub bw_util_sum: f64,
    pub max_channel_util_sum: f64,
    pub l1_accesses: u64,
    pub l1_misses: u64,
    pub l2_accesses: u64,
    pub l2_misses: u64,
    pub llc_accesses: u64,
    pub llc_misses: u64,
    /// L1 demand accesses of runs that had a prefetcher / had CLIP.
    pub pf_l1_accesses: u64,
    pub clip_l1_accesses: u64,
    pub pf_candidates: u64,
    pub pf_issued: u64,
    pub pf_useful: u64,
    pub pf_useless: u64,
    pub pf_late: u64,
    pub clip: ClipStats,
    pub ip_tp: u64,
    pub ip_fp: u64,
    pub ip_fn: u64,
    pub lat_l1_miss: LatencyStat,
    pub lat_llc: LatencyStat,
    pub lat_dram: LatencyStat,
}

impl Counts {
    /// Sums `results`; `total_cycles` is supplied by the caller (the
    /// simulator's clock after each run, or an estimate).
    pub fn of<'a>(
        results: impl IntoIterator<Item = &'a SimResult>,
        cores: usize,
        warmup: u64,
        measure: u64,
        total_cycles: u64,
    ) -> Counts {
        let mut c = Counts {
            cores,
            per_core_instrs: warmup + measure,
            warmup_scale: (warmup + measure) as f64 / measure.max(1) as f64,
            total_cycles,
            ..Counts::default()
        };
        for r in results {
            c.runs += 1;
            c.instrs += cores as u64 * (warmup + measure);
            c.cycles += r.cycles;
            c.flit_hops += r.noc_flit_hops;
            c.dram_transfers += r.dram_transfers;
            c.dram_row_hits += r.dram_row_hits;
            c.bw_util_sum += r.dram_bw_util;
            c.max_channel_util_sum += r.dram_max_channel_util;
            let m = &r.misses;
            c.l1_accesses += m.l1_accesses;
            c.l1_misses += m.l1_misses;
            c.l2_accesses += m.l2_accesses;
            c.l2_misses += m.l2_misses;
            c.llc_accesses += m.llc_accesses;
            c.llc_misses += m.llc_misses;
            let p = &r.prefetch;
            if p.candidates > 0 || r.clip.is_some() {
                c.pf_l1_accesses += m.l1_accesses;
            }
            c.pf_candidates += p.candidates;
            c.pf_issued += p.issued;
            c.pf_useful += p.useful;
            c.pf_useless += p.useless;
            c.pf_late += p.late;
            if let Some(cl) = &r.clip {
                c.clip_l1_accesses += m.l1_accesses;
                let s = &cl.stats;
                c.clip.candidates += s.candidates;
                c.clip.allowed_critical += s.allowed_critical;
                c.clip.allowed_explore += s.allowed_explore;
                c.clip.dropped_not_critical += s.dropped_not_critical;
                c.clip.dropped_predicted += s.dropped_predicted;
                c.clip.dropped_low_accuracy += s.dropped_low_accuracy;
                c.clip.dropped_phase += s.dropped_phase;
                c.ip_tp += cl.ip_eval.true_positive;
                c.ip_fp += cl.ip_eval.false_positive;
                c.ip_fn += cl.ip_eval.false_negative;
            }
            c.lat_l1_miss.merge(&r.latency.l1_miss);
            c.lat_llc.merge(&r.latency.by_llc);
            c.lat_dram.merge(&r.latency.by_dram);
        }
        c
    }

    /// Flit-hops per measured cycle.
    pub fn flits_per_cycle(&self) -> f64 {
        ratio(self.flit_hops as f64, self.cycles as f64)
    }

    /// DRAM transfers per measured cycle.
    pub fn transfers_per_cycle(&self) -> f64 {
        ratio(self.dram_transfers as f64, self.cycles as f64)
    }

    pub fn row_hit_ratio(&self) -> f64 {
        ratio(self.dram_row_hits as f64, self.dram_transfers as f64)
    }

    pub fn l1_miss_ratio(&self) -> f64 {
        ratio(self.l1_misses as f64, self.l1_accesses as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What one layer's replay measured.
#[derive(Debug, Clone)]
pub struct LayerCost {
    /// Metric-name prefix of the layer (`noc`, `dram`, ...).
    pub layer: &'static str,
    /// The operation the cost is per (`cycle`, `access`, ...).
    pub op: &'static str,
    /// Operations replayed.
    pub ops: u64,
    /// Host seconds the replayed operations took.
    pub seconds: f64,
    /// Operations of this kind in the real pass.
    pub real_ops: f64,
}

impl LayerCost {
    pub fn ns_per_op(&self) -> f64 {
        ratio(self.seconds * 1e9, self.ops as f64)
    }

    /// Estimated host seconds this layer took in the real pass.
    pub fn estimated_s(&self) -> f64 {
        self.ns_per_op() * self.real_ops * 1e-9
    }
}

/// Everything a replay needs about the workload.
pub struct ReplayInput<'a> {
    /// Platform of the runs with prefetching (and CLIP, where used).
    pub cfg: &'a SimConfig,
    pub noc: NocChoice,
    /// Workloads whose instruction streams the replays draw from.
    pub specs: &'a [WorkloadSpec],
    pub seed: u64,
    pub counts: &'a Counts,
}

/// The workload's instruction stream for one core's run (untimed
/// preparation shared by several replays), with each memory access's
/// L1 hit flag as an L1+L2 pair sees it and the candidates the L1
/// prefetcher emits.
struct Stream {
    instrs: Vec<Instr>,
    /// (ip, addr, is_store, l1 hit) per memory access, in order.
    accesses: Vec<(Ip, Addr, bool, bool)>,
    candidates: Vec<PrefetchCandidate>,
}

fn prepare(input: &ReplayInput) -> Stream {
    let n = input.counts.per_core_instrs.max(1) as usize;
    let per_spec = n.div_ceil(input.specs.len().max(1));
    let mut instrs = Vec::with_capacity(n);
    for (i, spec) in input.specs.iter().enumerate() {
        let mut g = spec.generator(input.seed ^ (i as u64).wrapping_mul(0x9E37));
        instrs.extend((0..per_spec).map(|_| g.next_instr()));
    }
    let mut l1 = Cache::new(&input.cfg.l1d);
    let mut l2 = Cache::new(&input.cfg.l2);
    let mut accesses = Vec::new();
    for (now, ins) in instrs.iter().enumerate() {
        let (addr, is_store) = match ins.kind {
            InstrKind::Load { addr, .. } => (addr, false),
            InstrKind::Store { addr } => (addr, true),
            _ => continue,
        };
        let hit = cache_access(&mut l1, &mut l2, addr.line(), is_store, now as Cycle);
        accesses.push((ins.ip, addr, is_store, hit));
    }
    let mut candidates = Vec::new();
    if let Some(mut pf) = l1_prefetcher(input.cfg) {
        for (now, &(ip, addr, is_store, hit)) in accesses.iter().enumerate() {
            let info = AccessInfo {
                ip,
                addr,
                hit,
                is_store,
                cycle: now as Cycle,
            };
            pf.on_access(&info, &mut candidates);
        }
    }
    Stream {
        instrs,
        accesses,
        candidates,
    }
}

fn l1_prefetcher(cfg: &SimConfig) -> Option<Box<dyn clip_prefetch::Prefetcher>> {
    [cfg.l1_prefetcher, cfg.l2_prefetcher]
        .into_iter()
        .find(|k| *k != clip_types::PrefetcherKind::None)
        .map(clip_prefetch::build)
}

/// L1 lookup, then L2 on a miss, filling both; returns the L1 hit flag.
fn cache_access(
    l1: &mut Cache,
    l2: &mut Cache,
    line: LineAddr,
    is_store: bool,
    now: Cycle,
) -> bool {
    if l1.lookup(line, is_store, now).is_hit() {
        return true;
    }
    if !l2.lookup(line, false, now).is_hit() {
        l2.fill(line, false, false, now);
    }
    l1.fill(line, is_store, false, now);
    false
}

/// Repeats `round` (which returns the operations it did and the host
/// seconds they took) until [`MIN_REPLAY_S`] has been measured.
fn repeat(mut round: impl FnMut() -> (u64, f64)) -> (u64, f64) {
    let (mut ops, mut secs) = (0, 0.0);
    loop {
        let (o, s) = round();
        ops += o;
        secs += s;
        if secs >= MIN_REPLAY_S || o == 0 {
            return (ops, secs);
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Cycles one NoC or DRAM replay round covers: one run's length.
fn round_cycles(c: &Counts) -> u64 {
    (c.total_cycles / c.runs.max(1)).clamp(2_000, 200_000)
}

/// Runs every layer replay, each inside a span named `<layer>.replay`.
pub fn run_all(input: &ReplayInput, tracer: &mut Tracer) -> Vec<LayerCost> {
    let root = tracer.begin("replay");
    let stream = tracer.scope("replay.prepare", || prepare(input));
    let c = input.counts;
    let with_warmup = |n: u64| n as f64 * c.warmup_scale;
    let mut out = Vec::new();

    let (ops, seconds) = tracer.scope("noc.replay", || replay_noc(input));
    out.push(LayerCost {
        layer: "noc",
        op: "cycle",
        ops,
        seconds,
        real_ops: c.total_cycles as f64,
    });
    let (ops, seconds) = tracer.scope("dram.replay", || replay_dram(input));
    out.push(LayerCost {
        layer: "dram",
        op: "cycle",
        ops,
        seconds,
        real_ops: c.total_cycles as f64,
    });
    let (ops, seconds) = tracer.scope("cache.replay", || replay_cache(input.cfg, &stream));
    out.push(LayerCost {
        layer: "cache",
        op: "access",
        ops,
        seconds,
        real_ops: with_warmup(c.l1_accesses + c.l2_accesses + c.llc_accesses),
    });
    // A core ticks every cycle whether or not it retires, so the estimate
    // uses the cost per tick; the cost per retired instruction is
    // reported beside it.
    let ((retired, ticks), seconds) = tracer.scope("cpu.replay", || replay_core(input, &stream));
    out.push(LayerCost {
        layer: "cpu",
        op: "tick",
        ops: ticks,
        seconds,
        real_ops: (c.total_cycles * c.cores as u64) as f64,
    });
    out.push(LayerCost {
        layer: "cpu",
        op: "instr",
        ops: retired,
        seconds,
        real_ops: 0.0,
    });
    let (ops, seconds) = tracer.scope("trace.replay", || replay_trace(input));
    out.push(LayerCost {
        layer: "trace",
        op: "instr",
        ops,
        seconds,
        real_ops: c.instrs as f64,
    });
    let (ops, seconds) = tracer.scope("prefetch.replay", || replay_prefetch(input.cfg, &stream));
    out.push(LayerCost {
        layer: "prefetch",
        op: "access",
        ops,
        seconds,
        real_ops: with_warmup(c.pf_l1_accesses),
    });
    let (filter, loads) = tracer.scope("clip.replay", || replay_clip(&stream));
    out.push(LayerCost {
        layer: "clip",
        op: "filter",
        ops: filter.0,
        seconds: filter.1,
        real_ops: with_warmup(c.clip.candidates),
    });
    out.push(LayerCost {
        layer: "clip",
        op: "load",
        ops: loads.0,
        seconds: loads.1,
        real_ops: with_warmup(c.clip_l1_accesses),
    });
    tracer.end(root);
    out
}

/// Uniform random traffic between distinct nodes, injected so that the
/// planned flit-hops per cycle match the workload's measured rate;
/// request (address) and response (data) packets alternate.
fn replay_noc(input: &ReplayInput) -> (u64, f64) {
    let cfg = &input.cfg.noc;
    let cols = cfg.mesh_cols.max(1);
    let nodes = cfg.mesh_cols * cfg.mesh_rows;
    let rate = input.counts.flits_per_cycle();
    let cycles = round_cycles(input.counts);
    let mut seed = input.seed;
    repeat(|| {
        let mut noc: Box<dyn NocModel> = match input.noc {
            NocChoice::Mesh => Box::new(MeshNoc::new(cfg)),
            _ => Box::new(AnalyticNoc::new(cfg)),
        };
        let mut rng = SimRng::seed_from_u64(seed);
        seed = seed.wrapping_add(1);
        let mut budget = 0.0;
        let mut packet = 0u64;
        let ((), secs) = timed(|| {
            for now in 0..cycles {
                budget += rate;
                while budget > 0.0 && nodes > 1 {
                    let src = rng.gen_range(0..nodes);
                    let dst = (src + rng.gen_range(1..nodes)) % nodes;
                    let flits = if packet.is_multiple_of(2) {
                        cfg.addr_packet_flits
                    } else {
                        cfg.data_packet_flits
                    };
                    let hops =
                        (src % cols).abs_diff(dst % cols) + (src / cols).abs_diff(dst / cols);
                    if noc
                        .send(src, dst, flits, Priority::Demand, packet, now)
                        .is_err()
                    {
                        break;
                    }
                    packet += 1;
                    budget -= (flits * hops) as f64;
                }
                black_box(noc.tick(now));
            }
        });
        (cycles, secs)
    })
}

/// Reads at the workload's measured transfer rate; with the measured
/// row-hit ratio a read continues the previous one's row.
fn replay_dram(input: &ReplayInput) -> (u64, f64) {
    let rate = input.counts.transfers_per_cycle();
    let row_hit = input.counts.row_hit_ratio();
    let cycles = round_cycles(input.counts);
    let mut seed = input.seed;
    repeat(|| {
        let mut dram = DramSystem::new(&input.cfg.dram);
        let mut rng = SimRng::seed_from_u64(seed);
        seed = seed.wrapping_add(1);
        let mut budget = 0.0;
        let mut id = 0u64;
        let mut line = 0u64;
        let ((), secs) = timed(|| {
            for now in 0..cycles {
                budget += rate;
                while budget >= 1.0 {
                    let next = if rng.gen_bool(row_hit) {
                        line + 1
                    } else {
                        rng.next_u64() >> 20
                    };
                    let l = LineAddr::new(next);
                    let ch = dram.channel_for(l);
                    if dram
                        .enqueue_read(ch, ReqId(id), l, Priority::Demand, now)
                        .is_err()
                    {
                        break;
                    }
                    line = next;
                    id += 1;
                    budget -= 1.0;
                }
                black_box(dram.tick(now));
            }
        });
        (cycles, secs)
    })
}

fn replay_cache(cfg: &SimConfig, s: &Stream) -> (u64, f64) {
    repeat(|| {
        let mut l1 = Cache::new(&cfg.l1d);
        let mut l2 = Cache::new(&cfg.l2);
        timed(|| {
            let mut ops = 0u64;
            for (now, &(_, addr, is_store, _)) in s.accesses.iter().enumerate() {
                let hit = cache_access(&mut l1, &mut l2, addr.line(), is_store, now as Cycle);
                ops += if hit { 1 } else { 2 };
            }
            ops
        })
    })
}

/// A memory port that accepts every access and completes each load a
/// fixed number of cycles later.
struct FixedLatencyPort {
    latency: Cycle,
    next_id: u64,
    pending: VecDeque<(Cycle, ReqId)>,
}

impl MemIssuePort for FixedLatencyPort {
    fn issue_load(&mut self, _ip: Ip, _addr: Addr, now: Cycle) -> Option<ReqId> {
        let id = ReqId(self.next_id);
        self.next_id += 1;
        self.pending.push_back((now + self.latency, id));
        Some(id)
    }

    fn issue_store(&mut self, _ip: Ip, _addr: Addr, _now: Cycle) -> bool {
        true
    }
}

/// The load latency the core sees on average: L1 hits at the L1
/// latency, misses at the workload's measured miss latency.
fn mean_load_latency(cfg: &SimConfig, c: &Counts) -> Cycle {
    let m = c.l1_miss_ratio();
    let l = cfg.l1d.latency as f64 * (1.0 - m) + c.lat_l1_miss.avg() * m;
    (l.round() as Cycle).clamp(1, 1_000)
}

/// Returns ((instructions retired, cycles ticked), seconds).
fn replay_core(input: &ReplayInput, s: &Stream) -> ((u64, u64), f64) {
    let latency = mean_load_latency(input.cfg, input.counts);
    let target = s.instrs.len() as u64;
    let (mut retired, mut ticks, mut secs) = (0, 0, 0.0);
    while secs < MIN_REPLAY_S {
        let mut core = Core::new(&input.cfg.core);
        let mut port = FixedLatencyPort {
            latency,
            next_id: 0,
            pending: VecDeque::new(),
        };
        let mut next = 0usize;
        let mut fetch = || {
            let i = s.instrs[next % s.instrs.len()];
            next += 1;
            i
        };
        let (now, t) = timed(|| {
            let mut now: Cycle = 0;
            while core.retired() < target && now < target * 1_000 {
                while port.pending.front().is_some_and(|&(due, _)| due <= now) {
                    let (_, id) = port.pending.pop_front().expect("front exists");
                    core.complete_load(id, MemLevel::L1, now);
                }
                core.tick(now, &mut fetch, &mut port);
                now += 1;
            }
            now
        });
        retired += core.retired();
        ticks += now;
        secs += t;
        if now == 0 {
            break;
        }
    }
    ((retired, ticks), secs)
}

fn replay_trace(input: &ReplayInput) -> (u64, f64) {
    let n = input.counts.per_core_instrs.max(1);
    let mut seed = input.seed;
    repeat(|| {
        let mut gens: Vec<_> = input.specs.iter().map(|s| s.generator(seed)).collect();
        seed = seed.wrapping_add(1);
        let per = n.div_ceil(gens.len() as u64);
        timed(|| {
            for g in &mut gens {
                for _ in 0..per {
                    black_box(g.next_instr());
                }
            }
            per * gens.len() as u64
        })
    })
}

fn replay_prefetch(cfg: &SimConfig, s: &Stream) -> (u64, f64) {
    repeat(|| {
        let Some(mut pf) = l1_prefetcher(cfg) else {
            return (0, 0.0);
        };
        let mut out = Vec::with_capacity(32);
        timed(|| {
            for (now, &(ip, addr, is_store, hit)) in s.accesses.iter().enumerate() {
                let info = AccessInfo {
                    ip,
                    addr,
                    hit,
                    is_store,
                    cycle: now as Cycle,
                };
                pf.on_access(&info, &mut out);
                black_box(&out);
                out.clear();
            }
            s.accesses.len() as u64
        })
    })
}

/// Trains CLIP on the stream's loads (an L1 miss counts as stalling the
/// ROB head), then gates the prefetcher's candidates. Returns
/// (ops, seconds) for the gate and for load training.
fn replay_clip(s: &Stream) -> ((u64, f64), (u64, f64)) {
    let cfg = Scheme::with_clip()
        .clip
        .expect("the CLIP scheme carries a CLIP configuration");
    let (mut filter, mut loads) = ((0, 0.0), (0, 0.0));
    loop {
        let mut clip = Clip::new(cfg.clone());
        let (n, secs) = timed(|| {
            let mut n = 0u64;
            for (now, &(ip, addr, is_store, hit)) in s.accesses.iter().enumerate() {
                if is_store {
                    continue;
                }
                let now = now as Cycle;
                clip.on_load_complete(&LoadOutcome {
                    ip,
                    addr,
                    level: if hit { MemLevel::L1 } else { MemLevel::Dram },
                    stalled_head: !hit,
                    stall_cycles: if hit { 0 } else { 100 },
                    rob_occupancy: 128,
                    outstanding_loads: 1,
                    done_cycle: now,
                    latency: if hit { 5 } else { 200 },
                });
                n += 1;
            }
            n
        });
        loads = (loads.0 + n, loads.1 + secs);
        let (n, secs) = timed(|| {
            for cand in &s.candidates {
                black_box(clip.filter_prefetch(cand.line, cand.trigger_ip));
            }
            s.candidates.len() as u64
        });
        filter = (filter.0 + n, filter.1 + secs);
        let filter_done = filter.1 >= MIN_REPLAY_S || s.candidates.is_empty();
        let loads_done = loads.1 >= MIN_REPLAY_S || loads.0 == 0;
        if filter_done && loads_done {
            break;
        }
    }
    (filter, loads)
}
