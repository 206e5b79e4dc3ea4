//! The three workloads and the closed loop that times them.
//!
//! Every workload is a fixed list of simulations generated from the
//! seed. One *pass* runs the whole list; passes repeat back to back
//! (closed loop: a job starts when the previous one completes) until
//! the run's time is up, and timings are medians over passes. Every
//! pass must reproduce the first pass's results byte for byte, which is
//! also the determinism check.

use crate::checks;
use crate::host;
use crate::metrics;
use crate::replay::{self, ratio, Counts, LayerCost, ReplayInput};
use crate::spans::Tracer;
use clip_bench::experiment::{clear_result_cache, execute_experiment, Experiment};
use clip_bench::{cache_stats, figures, place, strip_prefetchers, CacheStats, Scale};
use clip_sim::{run_mix_checked, NocChoice, RunOptions, Scheme, SimResult, System};
use clip_stats::{geomean, normalized_weighted_speedup, Json};
use clip_trace::{catalog, Mix, WorkloadSpec};
use clip_types::{Cycle, DramKind, PrefetcherKind, SimConfig, SimRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Paper reference values and the benchmark's seeds.
pub const REFERENCE: &str = include_str!("../reference.json");

/// Warm passes per sweep pass.
const WARM_REPEATS: usize = 15;

/// The workload every homogeneous 64-core cell runs.
const MCF: &str = "605.mcf_s-1554B";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Heterogeneous 8-core mixes on one DDR4 channel and the analytic
    /// NoC: the sweep-default cell, tile-bound.
    Mix8Analytic,
    /// 64-core mcf on eight channels and the 8x8 mesh: the paper's
    /// platform, NoC-bound.
    Mcf64Mesh,
    /// The registered `summary` experiment through the executor, cold
    /// cache then warm cache.
    SummarySweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Mix8Analytic,
        Workload::Mcf64Mesh,
        Workload::SummarySweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mix8Analytic => "mix8-analytic",
            Workload::Mcf64Mesh => "mcf64-mesh",
            Workload::SummarySweep => "summary-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's size; `tiny` is a seconds-long version of the same
    /// shape for the benchmark's own tests.
    pub fn size(self, tiny: bool) -> Size {
        match (self, tiny) {
            (Workload::Mix8Analytic, false) => Size {
                cores: 8,
                channels: 1,
                noc: NocChoice::Analytic,
                warmup: 500,
                measure: 2_000,
                mixes: 6,
                min_passes: 3,
            },
            (Workload::Mcf64Mesh, false) => Size {
                cores: 64,
                channels: 8,
                noc: NocChoice::Mesh,
                warmup: 200,
                measure: 1_000,
                mixes: 1,
                min_passes: 3,
            },
            (Workload::SummarySweep, false) => Size {
                cores: 8,
                channels: 1,
                noc: NocChoice::Analytic,
                warmup: 1_000,
                measure: 3_000,
                mixes: 5,
                min_passes: 2,
            },
            (Workload::Mix8Analytic, true) => Size {
                cores: 8,
                channels: 1,
                noc: NocChoice::Analytic,
                warmup: 100,
                measure: 300,
                mixes: 1,
                min_passes: 2,
            },
            (Workload::Mcf64Mesh, true) => Size {
                cores: 16,
                channels: 2,
                noc: NocChoice::Mesh,
                warmup: 50,
                measure: 150,
                mixes: 1,
                min_passes: 2,
            },
            (Workload::SummarySweep, true) => Size {
                cores: 4,
                channels: 1,
                noc: NocChoice::Analytic,
                warmup: 100,
                measure: 300,
                mixes: 2,
                min_passes: 2,
            },
        }
    }
}

/// How much one workload simulates.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub cores: usize,
    /// DRAM channels of the bandwidth-constrained platform.
    pub channels: usize,
    pub noc: NocChoice,
    pub warmup: u64,
    pub measure: u64,
    /// Mixes simulated per pass.
    pub mixes: usize,
    /// Passes run even when the time is up earlier.
    pub min_passes: usize,
}

impl Size {
    fn max_cycles(&self) -> Cycle {
        // The simulator's own default bound (see `RunOptions`).
        200_000 + (self.warmup + self.measure) * 150
    }

    fn options(&self, seed: u64) -> RunOptions {
        RunOptions {
            warmup_instrs: self.warmup,
            sim_instrs: self.measure,
            seed,
            noc: self.noc,
            ..RunOptions::default()
        }
    }
}

/// `n` heterogeneous mixes of `cores` workloads from a seeded shuffle of
/// the SPEC CPU2017 + GAP catalog, each workload at most once while the
/// catalog lasts. Every pass thus covers (nearly) the whole catalog and
/// the seed decides which workloads share a chip and their trace
/// streams; independent draws per mix would instead make the work per
/// pass swing with the seed.
pub fn stratified_mixes(n: usize, cores: usize, seed: u64) -> Vec<Mix> {
    let mut pool: Vec<WorkloadSpec> = catalog::spec_cpu2017()
        .into_iter()
        .chain(catalog::gap())
        .collect();
    let mut rng = SimRng::seed_from_u64(seed);
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..=i));
    }
    (0..n)
        .map(|m| Mix {
            name: format!("strat-{m:02}"),
            workloads: (0..cores)
                .map(|c| pool[(m * cores + c) % pool.len()].clone())
                .collect(),
        })
        .collect()
}

/// The Berti-at-L1 platform of a workload, bandwidth-constrained.
fn berti_config(size: &Size) -> SimConfig {
    let (l1, l2) = place(PrefetcherKind::Berti);
    SimConfig::builder()
        .cores(size.cores)
        .dram_channels(size.channels)
        .l1_prefetcher(l1)
        .l2_prefetcher(l2)
        .build()
        .expect("valid benchmark platform")
}

/// Everything one run of the benchmark reports.
pub struct Outcome {
    /// Human-readable lines, printed before the result line.
    pub lines: Vec<String>,
    /// End-to-end metrics, plus per-layer metrics when traced.
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed runs and checks, one line each.
    pub problems: Vec<String>,
    /// Spans of the traced run (empty when untraced).
    pub tracer: Tracer,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Failure bookkeeping shared by every pass.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn problem(&mut self, p: String) {
        self.failed += 1;
        self.problems.push(p);
    }
}

/// Paper-fidelity outputs of a pass (where the workload has them).
#[derive(Clone, Debug, Default)]
struct Fidelity {
    berti_ws: Option<f64>,
    berti_ws_ample: Option<f64>,
    traffic: Option<f64>,
    crit_ip_accuracy: Option<f64>,
    crit_ip_coverage: Option<f64>,
}

/// One timed pass over the workload's simulation list.
#[derive(Default)]
struct Pass {
    /// Host seconds of the pass (simulation, plus the warm pass for the
    /// sweep).
    wall: f64,
    /// Host seconds inside `run_checked` (the sweep: its cold pass).
    run: f64,
    setup: f64,
    rerun: f64,
    to_json_us: f64,
    from_json_us: f64,
    instrs: u64,
    total_cycles: u64,
    results: Vec<SimResult>,
    digests: Vec<u64>,
    clip_ws: f64,
    fidelity: Fidelity,
    /// Peak resident set during the pass, MiB.
    peak_rss: f64,
    /// Sweep only: executor jobs, cold and warm seconds, cache traffic.
    jobs: u64,
    cold: f64,
    warm: f64,
    cache: Option<CacheStats>,
}

/// One workload's inputs, generated from the seed.
struct Bench {
    workload: Workload,
    size: Size,
    seed: u64,
    cfg: SimConfig,
    mixes: Vec<Mix>,
    cache_dir: PathBuf,
}

impl Bench {
    fn new(workload: Workload, size: Size, seed: u64, out_dir: &Path) -> Bench {
        let cfg = berti_config(&size);
        let mixes = match workload {
            Workload::Mix8Analytic => stratified_mixes(size.mixes, size.cores, seed),
            Workload::Mcf64Mesh => {
                let spec = catalog::by_name(MCF).expect("mcf is in the catalog");
                vec![Mix::homogeneous(&spec, size.cores)]
            }
            // The registered experiment picks its own mixes.
            Workload::SummarySweep => Vec::new(),
        };
        Bench {
            workload,
            size,
            seed,
            cfg,
            mixes,
            cache_dir: out_dir.join(format!("cache-{}", std::process::id())),
        }
    }

    fn pass(&self, tally: &mut Tally, tracer: &mut Tracer) -> Pass {
        tracer.next_run();
        let root = tracer.begin(self.workload.name());
        let pass = match self.workload {
            Workload::SummarySweep => self.sweep_pass(tally, tracer),
            _ => self.cell_pass(tally, tracer),
        };
        tracer.end(root);
        pass
    }

    /// Each mix under Berti+CLIP, then under no prefetching, each through
    /// `System::new` + `System::run_checked`.
    fn cell_pass(&self, tally: &mut Tally, tracer: &mut Tracer) -> Pass {
        let base = strip_prefetchers(&self.cfg);
        let clip = Scheme::with_clip();
        let plain = Scheme::plain();
        let mut p = Pass::default();
        let mut ws = Vec::new();
        for mix in &self.mixes {
            let mut pair = Vec::new();
            for (cfg, scheme) in [(&self.cfg, &clip), (&base, &plain)] {
                let t = Instant::now();
                let mut sys = tracer.scope("sim.setup", || {
                    System::new(cfg, scheme, mix, self.seed, self.size.noc)
                });
                p.setup += t.elapsed().as_secs_f64();
                let t_run = Instant::now();
                let r = tracer.scope("sim.run", || {
                    sys.run_checked(self.size.warmup, self.size.measure, self.size.max_cycles())
                });
                p.run += t_run.elapsed().as_secs_f64();
                p.wall += t.elapsed().as_secs_f64();
                p.total_cycles += sys.cycle();
                p.instrs += (self.size.cores as u64) * (self.size.warmup + self.size.measure);
                tally.attempted += 1;
                match r {
                    Ok(r) => {
                        if sys.cycle() >= self.size.max_cycles() {
                            tally.problem(format!("{}: hit the cycle bound", mix.name));
                        }
                        for bad in checks::invariants(&r, self.size.cores, self.size.measure) {
                            tally.problem(format!("{}: {bad}", mix.name));
                        }
                        pair.push(r);
                    }
                    Err(e) => tally.problem(format!("{}: run failed: {e}", mix.name)),
                }
            }
            if let [with_clip, without] = &pair[..] {
                ws.push(normalized_weighted_speedup(
                    &with_clip.per_core_ipc,
                    &without.per_core_ipc,
                ));
            }
            p.results.extend(pair);
        }
        p.clip_ws = geomean(&ws);
        p.digests = p.results.iter().map(checks::digest).collect();
        self.rerun(&mut p, tally, tracer);
        p
    }

    /// Re-renders the pass's report from its serialized results (the
    /// single-cell analogue of the sweep's warm pass), checking that the
    /// JSON round trip loses nothing. Each sample re-renders often enough
    /// to cover about 24 results, so that no sample is a sub-millisecond
    /// reading. The re-render time is the fastest sample: on a shared host
    /// the round trip runs for seconds at a time at one of a few speeds
    /// set by the neighbours, and which one a pass meets decides its
    /// median. The serialization times are medians.
    fn rerun(&self, p: &mut Pass, tally: &mut Tally, tracer: &mut Tracer) {
        const SAMPLES: usize = 201;
        let n = p.results.len().max(1);
        let per_sample = (24 / n).max(1);
        let mut rerun = Vec::new();
        let mut to_json = Vec::new();
        let mut from_json = Vec::new();
        for _ in 0..SAMPLES {
            let t = Instant::now();
            let (mut to_s, mut from_s) = (0.0, 0.0);
            for _ in 0..per_sample {
                let Some((a, b)) = self.round_trip(p, tracer) else {
                    tally.problem("JSON round trip changed a result".into());
                    return;
                };
                to_s += a;
                from_s += b;
            }
            let k = per_sample as f64;
            rerun.push(t.elapsed().as_secs_f64() / k);
            to_json.push(to_s * 1e6 / (k * n as f64));
            from_json.push(from_s * 1e6 / (k * n as f64));
        }
        p.rerun = minimum(&rerun);
        p.to_json_us = median(&to_json);
        p.from_json_us = median(&from_json);
    }

    /// One re-render: serialize, parse back, recompute digests and WS.
    /// Returns the seconds spent serializing and deserializing, or `None`
    /// when the round trip changed a result.
    fn round_trip(&self, p: &Pass, tracer: &mut Tracer) -> Option<(f64, f64)> {
        let t = Instant::now();
        let texts: Vec<String> = tracer.scope("stats.to_json", || {
            p.results.iter().map(|r| r.to_json().render()).collect()
        });
        let t_mid = Instant::now();
        let back: Vec<Option<SimResult>> = tracer.scope("stats.from_json", || {
            texts
                .iter()
                .map(|s| Json::parse(s).ok().and_then(|j| SimResult::from_json(&j)))
                .collect()
        });
        let t_end = Instant::now();
        let digests: Vec<u64> = back
            .iter()
            .map(|r| r.as_ref().map_or(0, checks::digest))
            .collect();
        let ws: Vec<f64> = back
            .chunks(2)
            .filter_map(|pair| match pair {
                [Some(a), Some(b)] => Some(normalized_weighted_speedup(
                    &a.per_core_ipc,
                    &b.per_core_ipc,
                )),
                _ => None,
            })
            .collect();
        (digests == p.digests && std::hint::black_box(geomean(&ws)) == p.clip_ws)
            .then(|| ((t_mid - t).as_secs_f64(), (t_end - t_mid).as_secs_f64()))
    }

    /// The registered `summary` experiment at this workload's size, with
    /// the benchmark's seed.
    fn experiment(&self) -> Experiment {
        let scale = Scale {
            cores: self.size.cores,
            instrs: self.size.measure,
            warmup: self.size.warmup,
            homo_mixes: self.size.mixes,
            hetero_mixes: self.size.mixes,
            noc: self.size.noc,
            dram: DramKind::Ddr4,
        };
        let entry = figures::registry()
            .into_iter()
            .find(|e| e.name == "summary")
            .expect("the summary experiment is registered");
        let mut exp = (entry.build)(&scale)
            .into_iter()
            .next()
            .expect("summary builds one experiment");
        exp.opts.seed = self.seed;
        exp
    }

    /// Cold pass against an empty result cache, then a warm pass with the
    /// in-process memo cleared so every job is read back from the cache.
    fn sweep_pass(&self, tally: &mut Tally, tracer: &mut Tracer) -> Pass {
        let mut p = Pass::default();
        let t = Instant::now();
        let setup = tracer.begin("sim.setup");
        let exp = self.experiment();
        let jobs = sweep_jobs(&exp);
        for (cfg, scheme, mix) in &jobs {
            drop(std::hint::black_box(System::new(
                cfg,
                scheme,
                mix,
                exp.opts.seed,
                exp.opts.noc,
            )));
        }
        tracer.end(setup);
        p.setup = t.elapsed().as_secs_f64();
        p.jobs = jobs.len() as u64;

        // The cache directory is this pass's own and starts empty.
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        if let Err(e) = std::fs::create_dir_all(&self.cache_dir) {
            tally.problem(format!("cannot create the result cache: {e}"));
            return p;
        }
        clear_result_cache();
        let before = cache_stats();
        let t = Instant::now();
        let (text, artifact) = tracer.scope("bench.cold", || execute_experiment(&exp));
        p.cold = t.elapsed().as_secs_f64();
        // The warm pass is short; its median over a few repeats is steadier.
        let mut warm = Vec::new();
        let mut warm_out = Vec::new();
        for _ in 0..WARM_REPEATS {
            clear_result_cache();
            let t = Instant::now();
            warm_out.push(tracer.scope("bench.warm", || execute_experiment(&exp)));
            warm.push(t.elapsed().as_secs_f64());
        }
        p.warm = median(&warm);
        p.rerun = minimum(&warm);
        let after = cache_stats();
        p.cache = Some(CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            stores: after.stores - before.stores,
            evictions: after.evictions - before.evictions,
        });
        p.wall = p.cold + warm.iter().sum::<f64>();
        p.run = p.cold;

        tally.attempted += p.jobs;
        let errors = artifact
            .get("errors")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        if errors > 0 {
            tally.problem(format!("{errors} sweep job(s) failed:\n{text}"));
        }
        if warm_out
            .iter()
            .any(|(t, a)| *t != text || a.render() != artifact.render())
        {
            tally.problem("a warm pass did not reproduce the cold pass".into());
        }
        let hits = p.cache.map_or(0, |c| c.hits);
        if hits != p.jobs * WARM_REPEATS as u64 {
            tally.problem(format!(
                "warm passes read {hits} results from the cache, expected {}",
                p.jobs * WARM_REPEATS as u64
            ));
        }
        match parse_summary(&artifact) {
            Some(f) => {
                p.clip_ws = f.0;
                p.fidelity = f.1;
            }
            None => tally.problem(format!("summary output not understood:\n{text}")),
        }

        // Every result the cold pass simulated, back from the cache.
        let t = Instant::now();
        let cached = tracer.scope("stats.from_json", || read_cache(&self.cache_dir));
        let read_s = t.elapsed().as_secs_f64();
        if cached.len() as u64 != p.jobs {
            tally.problem(format!(
                "result cache holds {} results for {} jobs",
                cached.len(),
                p.jobs
            ));
        }
        for (name, r) in &cached {
            for bad in checks::invariants(r, self.size.cores, self.size.measure) {
                tally.problem(format!("{name}: {bad}"));
            }
        }
        p.results = cached.into_iter().map(|(_, r)| r).collect();
        p.digests = p.results.iter().map(checks::digest).collect();
        p.digests.push(checks::fnv64(
            format!("{text}{}", artifact.render()).as_bytes(),
        ));
        let n = p.results.len().max(1) as f64;
        p.from_json_us = read_s * 1e6 / n;
        let t = Instant::now();
        let rendered: usize = tracer.scope("stats.to_json", || {
            p.results.iter().map(|r| r.to_json().render().len()).sum()
        });
        std::hint::black_box(rendered);
        p.to_json_us = t.elapsed().as_secs_f64() * 1e6 / n;
        p.instrs = p.jobs * self.size.cores as u64 * (self.size.warmup + self.size.measure);
        // SimResult reports measured-window cycles only; scale by the
        // instruction ratio to include warmup.
        let window: u64 = p.results.iter().map(|r| r.cycles).sum();
        p.total_cycles = (window as f64 * self.size.warmup_scale()) as u64;
        p
    }

    /// Berti alone on each mix (no CLIP), for the traffic and WS
    /// comparisons the paper makes; the sweep has them built in.
    fn berti_runs(
        &self,
        first: &Pass,
        c: &Counts,
        tally: &mut Tally,
        tracer: &mut Tracer,
    ) -> Fidelity {
        if self.workload == Workload::SummarySweep {
            return first.fidelity.clone();
        }
        let opts = self.size.options(self.seed);
        let mut berti_ws = Vec::new();
        let mut berti_issued = 0;
        let mut clip_issued = 0;
        for (mix, pair) in self.mixes.iter().zip(first.results.chunks(2)) {
            tally.attempted += 1;
            let r = tracer.scope("sim.berti_run", || {
                run_mix_checked(&self.cfg, &Scheme::plain(), mix, &opts)
            });
            match (r, pair) {
                (Ok(r), [with_clip, base]) => {
                    for bad in checks::invariants(&r, self.size.cores, self.size.measure) {
                        tally.problem(format!("{}: {bad}", mix.name));
                    }
                    berti_ws.push(normalized_weighted_speedup(
                        &r.per_core_ipc,
                        &base.per_core_ipc,
                    ));
                    berti_issued += r.prefetch.issued;
                    clip_issued += with_clip.prefetch.issued;
                }
                (Ok(_), _) => {}
                (Err(e), _) => tally.problem(format!("{}: Berti run failed: {e}", mix.name)),
            }
        }
        Fidelity {
            berti_ws: (!berti_ws.is_empty()).then(|| geomean(&berti_ws)),
            berti_ws_ample: None,
            traffic: (berti_issued > 0).then(|| clip_issued as f64 / berti_issued as f64),
            crit_ip_accuracy: Some(ratio(c.ip_tp as f64, (c.ip_tp + c.ip_fp) as f64)),
            crit_ip_coverage: Some(ratio(c.ip_tp as f64, (c.ip_tp + c.ip_fn) as f64)),
        }
    }

    /// Workload specs the layer replays draw instruction streams from.
    fn specs(&self) -> Vec<WorkloadSpec> {
        let mut specs: Vec<WorkloadSpec> = match self.workload {
            Workload::SummarySweep => self
                .experiment()
                .rows
                .iter()
                .flat_map(|r| r.mixes.iter())
                .map(|m| m.workloads[0].clone())
                .collect(),
            _ => self
                .mixes
                .iter()
                .flat_map(|m| m.workloads.iter().cloned())
                .collect(),
        };
        specs.dedup_by(|a, b| a.name == b.name);
        specs.truncate(8);
        specs
    }
}

impl Size {
    fn warmup_scale(&self) -> f64 {
        (self.warmup + self.measure) as f64 / self.measure as f64
    }
}

/// Every distinct simulation of an experiment, baselines included.
fn sweep_jobs(exp: &Experiment) -> Vec<(SimConfig, Scheme, Mix)> {
    let mut seen = std::collections::HashSet::new();
    let mut jobs = Vec::new();
    for row in &exp.rows {
        for cell in &row.cells {
            for mix in &row.mixes {
                for (cfg, scheme) in [
                    (cell.cfg.clone(), cell.scheme.clone()),
                    (strip_prefetchers(&cell.cfg), Scheme::plain()),
                ] {
                    if seen.insert(format!("{cfg:?}{scheme:?}{mix:?}")) {
                        jobs.push((cfg, scheme, mix.clone()));
                    }
                }
            }
        }
    }
    jobs
}

/// Results stored in a result-cache directory, sorted by file name.
fn read_cache(dir: &Path) -> Vec<(String, SimResult)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
        .into_iter()
        .filter_map(|path| {
            let text = std::fs::read_to_string(&path).ok()?;
            let entry = Json::parse(&text).ok()?;
            let r = SimResult::from_json(entry.get("result")?)?;
            let name = path.file_name()?.to_string_lossy().into_owned();
            Some((name, r))
        })
        .collect()
}

/// The numbers after the last " : " of a summary note.
fn note_numbers(note: &str) -> Vec<f64> {
    let Some((_, tail)) = note.rsplit_once(" : ") else {
        return Vec::new();
    };
    tail.split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .filter_map(|s| s.parse().ok())
        .collect()
}

/// CLIP WS and the fidelity outputs, from the summary's notes.
fn parse_summary(artifact: &Json) -> Option<(f64, Fidelity)> {
    let notes: Vec<&str> = artifact
        .get("notes")?
        .as_array()?
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let claim = |n: &str| -> Option<Vec<f64>> {
        notes
            .iter()
            .find(|s| s.starts_with(n))
            .map(|s| note_numbers(s))
    };
    let berti_low = *claim("1.")?.first()?;
    let berti_high = *claim("2.")?.first()?;
    let clip_ws = *claim("3.")?.first()?;
    let traffic = *claim("4.")?.first()?;
    let pred = claim("6.")?;
    Some((
        clip_ws,
        Fidelity {
            berti_ws: Some(berti_low),
            berti_ws_ample: Some(berti_high),
            traffic: Some(traffic),
            crit_ip_accuracy: Some(*pred.first()? / 100.0),
            crit_ip_coverage: Some(*pred.get(1)? / 100.0),
        },
    ))
}

/// Cycles the mean core took to retire its `measure` instructions. The
/// measured window itself ends with the slowest core, a tail statistic
/// that swings with the seed far more than host cost does.
fn mean_core_cycles(r: &SimResult, measure: u64) -> f64 {
    let ipcs = &r.per_core_ipc;
    let sum: f64 = ipcs
        .iter()
        .filter(|&&i| i > 0.0)
        .map(|&i| measure as f64 / i)
        .sum();
    ratio(sum, ipcs.len() as f64)
}

/// The smallest of `xs`, or 0 when there is none.
fn minimum(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of a non-empty sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs passes until `seconds` have passed and at least `min_passes`
/// ran; checks every pass against the first.
fn timed_passes(
    bench: &Bench,
    seconds: f64,
    min_passes: usize,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        host::reset_peak_rss();
        let mut p = bench.pass(tally, tracer);
        p.peak_rss = host::peak_rss_mb();
        if let Some(first) = passes.first() {
            let what = format!("pass {} vs pass 1", passes.len() + 1);
            for d in checks::compare_digests(&what, &first.digests, &p.digests) {
                tally.problem(d);
            }
        }
        passes.push(p);
        if tally.problems.len() > 20 {
            break;
        }
    }
    passes
}

/// Median over passes, leaving out the first when there are others: it
/// also pays for warming the host's caches and the allocator.
fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    let timed = if passes.len() > 1 {
        &passes[1..]
    } else {
        passes
    };
    median(&timed.iter().map(f).collect::<Vec<_>>())
}

fn reference() -> Json {
    Json::parse(REFERENCE).expect("reference.json is valid JSON")
}

fn paper(key: &str) -> f64 {
    reference()
        .get("paper")
        .and_then(|p| p.get(key))
        .and_then(Json::as_f64)
        .expect("reference value present")
}

/// Runs one workload: the untraced timed phase, then, with `trace`, the
/// traced phase and the layer replays.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out_dir: &Path,
) -> Outcome {
    let size = workload.size(tiny);
    let bench = Bench::new(workload, size, seed, out_dir);
    let mut tally = Tally::default();
    let mut lines = vec![
        host::tags(Path::new(".")),
        format!(
            "workload: {} seed={seed} cores={} channels={} noc={:?} warmup={} measure={} mixes={} threads={}",
            workload.name(),
            size.cores,
            size.channels,
            size.noc,
            size.warmup,
            size.measure,
            size.mixes,
            if workload == Workload::SummarySweep { host::threads() } else { 1 },
        ),
    ];
    std::env::set_var("CLIP_THREADS", host::threads().to_string());
    std::env::set_var("CLIP_CACHE_DIR", &bench.cache_dir);

    let mut untraced = Tracer::new(false);
    let passes = timed_passes(&bench, seconds, size.min_passes, &mut tally, &mut untraced);
    let first = &passes[0];
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let wall = med(&passes, |p| p.wall);
    let run_s = med(&passes, |p| p.run);
    let core_cycles: f64 = first
        .results
        .iter()
        .map(|r| mean_core_cycles(r, size.measure))
        .sum();
    m.insert("wall_s", wall);
    m.insert("sim_kips", first.instrs as f64 / run_s / 1e3);
    m.insert("sim_mcps", core_cycles / run_s / 1e6);
    m.insert("setup_s", med(&passes, |p| p.setup));
    // Memory of a fresh process running the workload once: after a few
    // passes the allocator may keep arenas of exited sweep workers, and
    // later peaks jump by whole arenas depending on thread timing.
    m.insert("peak_rss_mb", first.peak_rss);
    // The fastest re-render of the whole run, the first pass included:
    // the more samples the run has, the likelier one met a quiet host.
    m.insert(
        "rerun_s",
        minimum(&passes.iter().map(|p| p.rerun).collect::<Vec<_>>()),
    );
    m.insert("clip_ws", first.clip_ws);
    lines.push(format!(
        "passes: {} (closed loop, {seconds} s), wall s: {}, peak MiB: {}; results digest {:016x}",
        passes.len(),
        passes
            .iter()
            .map(|p| format!("{:.3}", p.wall))
            .collect::<Vec<_>>()
            .join(" "),
        passes
            .iter()
            .map(|p| format!("{:.1}", p.peak_rss))
            .collect::<Vec<_>>()
            .join(" "),
        checks::combine(&first.digests)
    ));
    for (i, d) in first.digests.iter().enumerate() {
        lines.push(format!("  result {i}: {d:016x}"));
    }

    let mut tracer = Tracer::new(trace);
    if trace {
        let traced = timed_passes(&bench, seconds / 2.0, 2, &mut tally, &mut tracer);
        for (i, p) in traced.iter().enumerate() {
            for d in checks::compare_digests(
                &format!("traced pass {}", i + 1),
                &first.digests,
                &p.digests,
            ) {
                tally.problem(d);
            }
        }
        let traced_wall = med(&traced, |p| p.wall);
        let counts = Counts::of(
            &first.results,
            size.cores,
            size.warmup,
            size.measure,
            first.total_cycles,
        );
        let fidelity = bench.berti_runs(first, &counts, &mut tally, &mut tracer);
        let specs = bench.specs();
        let costs = replay::run_all(
            &ReplayInput {
                cfg: &bench.cfg,
                noc: size.noc,
                specs: &specs,
                seed,
                counts: &counts,
            },
            &mut tracer,
        );
        // Host seconds the simulations took, in thread-seconds.
        let threads = if workload == Workload::SummarySweep {
            host::threads() as f64
        } else {
            1.0
        };
        let run_s = run_s * threads;
        let setup_s = med(&passes, |p| p.setup);
        per_layer(
            &mut m,
            first,
            &counts,
            &costs,
            &fidelity,
            (setup_s, run_s),
            size.measure,
        );
        m.insert("spans.count", tracer.spans().len() as f64);
        m.insert("spans.overhead_pct", (traced_wall / wall - 1.0) * 100.0);
        lines.extend(layer_lines(&costs, run_s, workload));
        lines.extend(fidelity_lines(first.clip_ws, &fidelity));
        for (name, (total, own)) in tracer.self_times() {
            lines.push(format!("span {name}: total {total:.4} s, self {own:.4} s"));
        }
    } else if workload == Workload::SummarySweep {
        lines.extend(fidelity_lines(first.clip_ws, &first.fidelity));
    } else {
        lines.push(format!(
            "clip_ws {:.4} vs paper {:.2}: error {:+.1}%",
            first.clip_ws,
            paper("clip_ws"),
            (first.clip_ws / paper("clip_ws") - 1.0) * 100.0
        ));
    }
    let _ = std::fs::remove_dir_all(&bench.cache_dir);
    let failed = tally.failed.min(tally.attempted);
    m.insert("error_rate", ratio(failed as f64, tally.attempted as f64));
    Outcome {
        lines,
        metrics: m,
        attempted: tally.attempted,
        failed,
        problems: tally.problems,
        tracer,
    }
}

fn per_layer(
    m: &mut BTreeMap<&'static str, f64>,
    first: &Pass,
    c: &Counts,
    costs: &[LayerCost],
    f: &Fidelity,
    (setup_s, run_s): (f64, f64),
    measure: u64,
) {
    let cost = |layer: &str, op: &str| {
        costs
            .iter()
            .find(|l| l.layer == layer && l.op == op)
            .expect("every layer is replayed")
    };
    let share = |layer: &str| -> f64 {
        let est: f64 = costs
            .iter()
            .filter(|l| l.layer == layer)
            .map(LayerCost::estimated_s)
            .sum();
        ratio(est, run_s)
    };
    let attributed: f64 = costs.iter().map(LayerCost::estimated_s).sum();
    let runs = c.runs.max(1) as f64;
    m.insert("sim.setup_s", setup_s);
    m.insert("sim.run_s", run_s);
    m.insert(
        "sim.host_ns_per_cycle",
        ratio(run_s * 1e9, c.total_cycles as f64),
    );
    m.insert("sim.unattributed_s", run_s - attributed);
    m.insert("noc.flit_hops", c.flit_hops as f64);
    m.insert("noc.flits_per_cycle", c.flits_per_cycle());
    m.insert("noc.llc_latency_cyc", c.lat_llc.avg());
    m.insert("noc.host_ns_per_cycle", cost("noc", "cycle").ns_per_op());
    m.insert("noc.run_share", share("noc"));
    m.insert("dram.transfers", c.dram_transfers as f64);
    m.insert("dram.row_hit_ratio", c.row_hit_ratio());
    m.insert("dram.bw_util", c.bw_util_sum / runs);
    m.insert("dram.max_channel_util", c.max_channel_util_sum / runs);
    m.insert("dram.latency_cyc", c.lat_dram.avg());
    m.insert("dram.host_ns_per_cycle", cost("dram", "cycle").ns_per_op());
    m.insert("dram.run_share", share("dram"));
    m.insert(
        "cache.accesses",
        (c.l1_accesses + c.l2_accesses + c.llc_accesses) as f64,
    );
    m.insert("cache.l1_miss_ratio", c.l1_miss_ratio());
    m.insert(
        "cache.l2_miss_ratio",
        ratio(c.l2_misses as f64, c.l2_accesses as f64),
    );
    m.insert(
        "cache.llc_miss_ratio",
        ratio(c.llc_misses as f64, c.llc_accesses as f64),
    );
    m.insert(
        "cache.host_ns_per_access",
        cost("cache", "access").ns_per_op(),
    );
    m.insert("cache.run_share", share("cache"));
    let retired = c.runs * c.cores as u64 * measure;
    let ipcs: Vec<f64> = first
        .results
        .iter()
        .flat_map(|r| r.per_core_ipc.iter().copied())
        .collect();
    m.insert("cpu.retired", retired as f64);
    m.insert("cpu.ipc", ratio(ipcs.iter().sum(), ipcs.len() as f64));
    m.insert("cpu.host_ns_per_instr", cost("cpu", "instr").ns_per_op());
    m.insert("cpu.run_share", share("cpu"));
    m.insert("trace.instrs", c.instrs as f64);
    m.insert(
        "trace.host_ns_per_instr",
        cost("trace", "instr").ns_per_op(),
    );
    m.insert("trace.run_share", share("trace"));
    m.insert("prefetch.candidates", c.pf_candidates as f64);
    m.insert("prefetch.issued", c.pf_issued as f64);
    m.insert(
        "prefetch.accuracy",
        ratio(c.pf_useful as f64, (c.pf_useful + c.pf_useless) as f64),
    );
    m.insert(
        "prefetch.lateness",
        ratio(c.pf_late as f64, (c.pf_late + c.pf_useful) as f64),
    );
    m.insert("prefetch.berti_ws", f.berti_ws.unwrap_or(0.0));
    m.insert(
        "prefetch.host_ns_per_access",
        cost("prefetch", "access").ns_per_op(),
    );
    m.insert("prefetch.run_share", share("prefetch"));
    let s = &c.clip;
    m.insert("clip.candidates", s.candidates as f64);
    m.insert(
        "clip.pass_ratio",
        ratio(
            (s.allowed_critical + s.allowed_explore) as f64,
            s.candidates as f64,
        ),
    );
    m.insert("clip.dropped_not_critical", s.dropped_not_critical as f64);
    m.insert("clip.dropped_predicted", s.dropped_predicted as f64);
    m.insert("clip.dropped_low_accuracy", s.dropped_low_accuracy as f64);
    m.insert("clip.dropped_phase", s.dropped_phase as f64);
    m.insert("clip.crit_ip_accuracy", f.crit_ip_accuracy.unwrap_or(0.0));
    m.insert("clip.crit_ip_coverage", f.crit_ip_coverage.unwrap_or(0.0));
    m.insert("clip.pf_traffic_vs_berti", f.traffic.unwrap_or(0.0));
    m.insert(
        "clip.host_ns_per_filter",
        cost("clip", "filter").ns_per_op(),
    );
    m.insert("clip.host_ns_per_load", cost("clip", "load").ns_per_op());
    m.insert("clip.run_share", share("clip"));
    m.insert("stats.to_json_us", first.to_json_us);
    m.insert("stats.from_json_us", first.from_json_us);
    let cache = first.cache.unwrap_or(CacheStats {
        hits: 0,
        misses: 0,
        stores: 0,
        evictions: 0,
    });
    m.insert("bench.jobs", first.jobs as f64);
    m.insert("bench.cold_s", first.cold);
    m.insert("bench.warm_s", first.warm);
    m.insert("bench.cache_hits", cache.hits as f64);
    m.insert("bench.cache_misses", cache.misses as f64);
    m.insert("bench.cache_stores", cache.stores as f64);
    m.insert("bench.cache_evictions", cache.evictions as f64);
    m.insert(
        "bench.cache_hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
}

fn layer_lines(costs: &[LayerCost], run_s: f64, workload: Workload) -> Vec<String> {
    let mut out = vec![format!(
        "layer replays (host cost per operation x operations of one pass, against {run_s:.3} s of simulation):"
    )];
    for l in costs.iter().filter(|l| l.real_ops > 0.0) {
        out.push(format!(
            "  {:<8} {:>10.1} ns/{:<6} x {:>14.0} = {:>8.3} s ({:>5.1}%)  [{} ops replayed in {:.3} s]",
            l.layer,
            l.ns_per_op(),
            l.op,
            l.real_ops,
            l.estimated_s(),
            ratio(l.estimated_s(), run_s) * 100.0,
            l.ops,
            l.seconds
        ));
    }
    if workload == Workload::Mcf64Mesh {
        let noc: f64 = costs
            .iter()
            .filter(|l| l.layer == "noc")
            .map(LayerCost::estimated_s)
            .sum();
        out.push(format!(
            "mesh share of run time: {:.0}% at 64 cores (ROADMAP: 61% of tick time at 16 cores)",
            ratio(noc, run_s) * 100.0
        ));
    }
    out.push(format!(
        "unmeasured layers (off in every workload): {}",
        metrics::UNMEASURED_LAYERS.join(", ")
    ));
    out
}

fn fidelity_lines(clip_ws: f64, f: &Fidelity) -> Vec<String> {
    let mut out = vec![
        "fidelity vs the paper (the model is checked against published numbers only):".to_string(),
    ];
    let mut line = |what: &str, got: Option<f64>, key: &str| {
        if let Some(v) = got {
            let want = paper(key);
            out.push(format!(
                "  {what:<34} {v:>7.3}  paper {want:>5.2}  error {:+6.1}%",
                (v / want - 1.0) * 100.0
            ));
        }
    };
    line(
        "Berti WS, constrained bandwidth",
        f.berti_ws,
        "berti_ws_constrained",
    );
    line(
        "Berti WS, ample bandwidth",
        f.berti_ws_ample,
        "berti_ws_ample",
    );
    line("Berti+CLIP WS, constrained", Some(clip_ws), "clip_ws");
    line(
        "CLIP prefetch traffic vs Berti",
        f.traffic,
        "pf_traffic_vs_berti",
    );
    line(
        "critical-IP accuracy",
        f.crit_ip_accuracy,
        "crit_ip_accuracy",
    );
    line(
        "critical-IP coverage",
        f.crit_ip_coverage,
        "crit_ip_coverage",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_notes_parse() {
        let art = Json::object([(
            "notes",
            Json::array(
                [
                    "",
                    "1. Berti loses under constrained bandwidth (paper: 0.84 at 8ch) : WS 0.932  [REPRODUCED]",
                    "2. Berti wins with ample bandwidth (paper: ~1.35 at 64ch)       : WS 1.273  [REPRODUCED]",
                    "3. CLIP recovers the constrained case (paper: 0.84 -> 1.08)     : WS 0.952  [REPRODUCED]",
                    "4. CLIP halves prefetch traffic (paper: ~0.50x)                 : 0.30x  [REPRODUCED]",
                    "5. Prefetching inflates miss latency when constrained (Fig. 3)  : 1.79x  [REPRODUCED]",
                    "6. CLIP's critical-IP prediction (paper: 93% acc / 76% cov)     : 100% / 98%  [REPRODUCED]",
                ]
                .map(Json::from),
            ),
        )]);
        let (ws, f) = parse_summary(&art).expect("parses");
        assert_eq!(ws, 0.952);
        assert_eq!(f.berti_ws, Some(0.932));
        assert_eq!(f.berti_ws_ample, Some(1.273));
        assert_eq!(f.traffic, Some(0.30));
        assert_eq!(f.crit_ip_accuracy, Some(1.0));
        assert_eq!(f.crit_ip_coverage, Some(0.98));
    }

    #[test]
    fn reference_values_load() {
        assert_eq!(paper("clip_ws"), 1.08);
        let seeds = reference();
        let seeds = seeds.get("seeds").expect("seeds");
        assert_ne!(seeds.get("default"), seeds.get("held_out"));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn minimum_of_some_and_none() {
        assert_eq!(minimum(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(minimum(&[]), 0.0);
    }
}
