//! Cycle-level many-core simulator for the CLIP reproduction.
//!
//! Assembles the substrates of this workspace — out-of-order cores
//! (`clip-cpu`), caches and MSHRs (`clip-cache`), the wormhole mesh
//! (`clip-noc`), DDR4 channels (`clip-dram`), prefetchers
//! (`clip-prefetch`), CLIP itself (`clip-core`), and the comparison
//! mechanisms (`clip-crit`, `clip-throttle`, `clip-offchip`) — into the
//! 64-core baseline platform of Table 3, and drives whole workload mixes
//! through it.
//!
//! # Examples
//!
//! ```
//! use clip_sim::{run_mix, RunOptions, Scheme};
//! use clip_trace::Mix;
//! use clip_types::{PrefetcherKind, SimConfig};
//!
//! let cfg = SimConfig::builder()
//!     .cores(2)
//!     .dram_channels(1)
//!     .l1_prefetcher(PrefetcherKind::NextLine)
//!     .build()
//!     .expect("valid config");
//! let spec = &clip_trace::catalog::spec_cpu2017()[0];
//! let mix = Mix::homogeneous(spec, 2);
//! let opts = RunOptions { warmup_instrs: 200, sim_instrs: 1000, ..RunOptions::default() };
//! let result = run_mix(&cfg, &Scheme::plain(), &mix, &opts);
//! assert!(result.mean_ipc() > 0.0);
//! ```

mod engine;
pub mod fault;
pub mod fingerprint;
mod integrity;
mod llc;
mod ports;
pub mod report;
pub mod result;
pub mod scheme;
mod snapshot;
pub mod system;
mod tile;

pub use clip_types::{CheckLevel, SimError, SimErrorKind};
pub use engine::NocChoice;
pub use fault::{FaultKind, FaultSpec};
pub use fingerprint::{run_jobs_localized, WindowFingerprint};
pub use report::ComparisonReport;
pub use result::{ClipReport, LatencyReport, MissReport, PrefetchReport, SimResult, TimelinePoint};
pub use scheme::Scheme;
pub use system::System;

use clip_trace::Mix;
use clip_types::{knob, Cycle, SimConfig};
use std::time::{Duration, Instant};

/// Options controlling one simulation run.
#[derive(Clone)]
pub struct RunOptions {
    /// Instructions per core to warm caches/predictors before measuring.
    pub warmup_instrs: u64,
    /// Instructions per core in the measured window.
    pub sim_instrs: u64,
    /// Workload-generation seed.
    pub seed: u64,
    /// NoC implementation.
    pub noc: NocChoice,
    /// Hard cycle bound (guards pathological configurations). `0` picks a
    /// generous default based on the instruction counts.
    pub max_cycles: Cycle,
    /// When non-zero, sample a [`TimelinePoint`] every this many cycles
    /// during the measurement phase.
    pub timeline_interval: Cycle,
    /// Integrity check level. `None` (the default) reads `CLIP_CHECK` at
    /// run time — keeping the `Debug` form (and thus sweep cache keys)
    /// identical across environments.
    pub check: Option<CheckLevel>,
    /// Audit cadence in cycles (`0` picks the default, 2048).
    pub check_cadence: Cycle,
    /// Forward-progress watchdog window in cycles (`0` picks the
    /// default, 50 000).
    pub watchdog_window: Cycle,
    /// Deterministic fault to inject, if any (see [`fault`]).
    pub fault: Option<FaultSpec>,
    /// Wall-clock budget for this run. `None` (the default) reads
    /// `CLIP_JOB_DEADLINE_MS` at run time (unset there too = no
    /// deadline). The budget is checked cooperatively at audit-cadence
    /// boundaries; exceeding it surfaces [`SimErrorKind::Timeout`].
    /// Like `check`, this field is excluded from the `Debug` form so
    /// sweep cache keys never depend on how patient the host was.
    pub deadline: Option<Duration>,
}

/// `RunOptions`' `Debug` form doubles as the sweep cache / fingerprint /
/// journal key (see `clip-bench`'s `job_key`), so it must stay byte-stable
/// as execution-policy fields are added. This hand-written impl emits
/// exactly what `#[derive(Debug)]` produced before `deadline` existed;
/// result-affecting fields added later must be appended here too.
impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("warmup_instrs", &self.warmup_instrs)
            .field("sim_instrs", &self.sim_instrs)
            .field("seed", &self.seed)
            .field("noc", &self.noc)
            .field("max_cycles", &self.max_cycles)
            .field("timeline_interval", &self.timeline_interval)
            .field("check", &self.check)
            .field("check_cadence", &self.check_cadence)
            .field("watchdog_window", &self.watchdog_window)
            .field("fault", &self.fault)
            .finish()
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            warmup_instrs: 2_000,
            sim_instrs: 10_000,
            seed: 42,
            noc: NocChoice::Mesh,
            max_cycles: 0,
            timeline_interval: 0,
            check: None,
            check_cadence: 0,
            watchdog_window: 0,
            fault: None,
            deadline: None,
        }
    }
}

impl RunOptions {
    fn resolved_max_cycles(&self) -> Cycle {
        if self.max_cycles > 0 {
            self.max_cycles
        } else {
            // IPC floors around 0.01 in the worst bandwidth-starved mixes.
            200_000 + (self.warmup_instrs + self.sim_instrs) * 150
        }
    }

    /// The effective per-job wall-clock budget: the explicit field, else
    /// `CLIP_JOB_DEADLINE_MS` (validated, warn-once; `0` is legal and
    /// times out at the first cadence boundary — the forced-timeout knob
    /// the determinism tests use). `None` = unlimited.
    fn resolved_deadline(&self) -> Option<Duration> {
        self.deadline.or_else(|| {
            knob::env_u64("CLIP_JOB_DEADLINE_MS", 0, 86_400_000).map(Duration::from_millis)
        })
    }
}

/// The process-wide sweep epoch: the instant resilience bookkeeping first
/// ran. `CLIP_SWEEP_BUDGET_MS` counts from here.
fn sweep_epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// True when the whole-sweep wall-clock budget (`CLIP_SWEEP_BUDGET_MS`,
/// validated warn-once, counted from the first batch this process ran) is
/// exhausted. Executors consult this before dispatching each cell: once
/// it trips, new cells are cancelled ([`SimErrorKind::Cancelled`]) while
/// in-flight cells drain normally — graceful degradation, not abort.
/// Always `false` when the knob is unset; `0` cancels every dispatch
/// (the deterministic "resume everything" setting).
pub fn sweep_budget_exhausted() -> bool {
    match knob::env_u64("CLIP_SWEEP_BUDGET_MS", 0, 86_400_000) {
        None => false,
        Some(ms) => sweep_epoch().elapsed() >= Duration::from_millis(ms),
    }
}

/// Simulates one mix under one scheme and returns the result.
///
/// # Panics
///
/// Panics when the configuration is invalid, the mix does not match the
/// configured core count, or an integrity auditor fires (use
/// [`run_mix_checked`] to surface that as an error instead).
pub fn run_mix(cfg: &SimConfig, scheme: &Scheme, mix: &Mix, opts: &RunOptions) -> SimResult {
    run_mix_checked(cfg, scheme, mix, opts)
        .unwrap_or_else(|e| panic!("simulation integrity failure: {e}"))
}

/// Simulates one mix under one scheme, surfacing integrity failures.
///
/// # Errors
///
/// Returns a [`SimError`] when the forward-progress watchdog or a
/// conservation auditor fires — always, when `opts.fault` is armed and
/// checks are enabled. Completed runs are bit-identical across check
/// levels (audits are read-only).
///
/// # Panics
///
/// Panics when the configuration is invalid or the mix does not match the
/// configured core count (construction errors, not run-time failures).
pub fn run_mix_checked(
    cfg: &SimConfig,
    scheme: &Scheme,
    mix: &Mix,
    opts: &RunOptions,
) -> Result<SimResult, SimError> {
    let mut sys = System::new(cfg, scheme, mix, opts.seed, opts.noc);
    sys.set_timeline_interval(opts.timeline_interval);
    sys.set_integrity(
        opts.check.unwrap_or_else(CheckLevel::from_env),
        opts.check_cadence,
        opts.watchdog_window,
    );
    sys.set_deadline(opts.resolved_deadline());
    if let Some(spec) = opts.fault {
        sys.set_fault(spec, opts.seed);
    }
    let mut r = sys.run_checked(
        opts.warmup_instrs,
        opts.sim_instrs,
        opts.resolved_max_cycles(),
    )?;
    r.label = format!("{}/{}", scheme.label(cfg.l1_prefetcher_label()), mix.name);
    Ok(r)
}

/// One unit of sweep work: a (config, scheme, mix) triple to simulate.
#[derive(Clone)]
pub struct SweepJob {
    pub cfg: SimConfig,
    pub scheme: Scheme,
    pub mix: Mix,
}

/// Resolves the worker thread count for a batch of `job_count` jobs.
///
/// `CLIP_THREADS` accepts integers in `1..=1024` (`1` forces the serial
/// path). `0`, out-of-range, or unparsable values are rejected with a
/// single stderr warning and the default — the host's available
/// parallelism — is used instead.
fn thread_count(job_count: usize) -> usize {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = knob::env_u64("CLIP_THREADS", 1, 1024)
        .map(|n| n as usize)
        .unwrap_or(default);
    threads.min(job_count)
}

/// Runs a batch of independent jobs across threads, returning each job's
/// outcome in job order — panic- and error-isolated.
///
/// Each simulation is single-threaded and fully deterministic, so the
/// output is bit-identical to mapping [`run_mix_checked`] over the jobs
/// serially — threads only change wall-clock time, never results. Work is
/// handed out through a shared atomic index (jobs vary wildly in cost, so
/// static partitioning would leave threads idle), and each outcome lands
/// in its job's dedicated slot.
///
/// A job that fails an integrity check yields its [`SimError`]; a job
/// that panics is caught per-thread and yields a
/// [`SimErrorKind::Panic`] error carrying the payload. Either way, every
/// other job's result is unaffected. Thread count is resolved as
/// documented on `CLIP_THREADS` (see the crate docs): host parallelism by
/// default, overridable within `1..=1024`.
pub fn run_jobs_checked(jobs: &[SweepJob], opts: &RunOptions) -> Vec<Result<SimResult, SimError>> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    if jobs.is_empty() {
        return Vec::new();
    }
    // Pin the sweep epoch no later than the first batch so the budget
    // counts execution time, not process startup.
    let _ = sweep_epoch();
    let run_one = |j: &SweepJob| -> Result<SimResult, SimError> {
        if sweep_budget_exhausted() {
            return Err(SimError::new(
                0,
                "driver",
                SimErrorKind::Cancelled,
                "sweep wall-clock budget (CLIP_SWEEP_BUDGET_MS) exhausted \
                 before dispatch; cell left pending for a resumed sweep",
            ));
        }
        catch_unwind(AssertUnwindSafe(|| {
            run_mix_checked(&j.cfg, &j.scheme, &j.mix, opts)
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(SimError::new(0, "job", SimErrorKind::Panic, msg))
        })
    };

    let threads = thread_count(jobs.len());
    if threads <= 1 {
        return jobs.iter().map(run_one).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<SimResult, SimError>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                // A poisoned slot is recoverable: the panic that
                // poisoned it was already converted into this job's
                // outcome.
                *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(run_one(&jobs[i]));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or_else(|| {
                    Err(SimError::new(
                        0,
                        "driver",
                        SimErrorKind::Internal,
                        "a claimed job never filled its result slot",
                    ))
                })
        })
        .collect()
}

/// Runs a batch of independent jobs across threads and returns their
/// results in job order, panicking on the first failed job.
///
/// See [`run_jobs_checked`] for the isolation-preserving variant and the
/// `CLIP_THREADS` contract.
///
/// # Panics
///
/// Panics when any job fails an integrity check or panics itself.
pub fn run_jobs_parallel(jobs: &[SweepJob], opts: &RunOptions) -> Vec<SimResult> {
    run_jobs_checked(jobs, opts)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("simulation integrity failure: {e}")))
        .collect()
}

/// Runs one scheme over many mixes in parallel; results follow mix order.
///
/// Identical output to a serial `mixes.iter().map(|m| run_mix(..))` loop
/// (see [`run_jobs_parallel`]).
pub fn run_mixes_parallel(
    cfg: &SimConfig,
    scheme: &Scheme,
    mixes: &[Mix],
    opts: &RunOptions,
) -> Vec<SimResult> {
    let jobs: Vec<SweepJob> = mixes
        .iter()
        .map(|mix| SweepJob {
            cfg: cfg.clone(),
            scheme: scheme.clone(),
            mix: mix.clone(),
        })
        .collect();
    run_jobs_parallel(&jobs, opts)
}

/// Convenience: label helper picking the active prefetcher.
trait PrefetcherLabel {
    fn l1_prefetcher_label(&self) -> clip_types::PrefetcherKind;
}

impl PrefetcherLabel for SimConfig {
    fn l1_prefetcher_label(&self) -> clip_types::PrefetcherKind {
        if self.l1_prefetcher != clip_types::PrefetcherKind::None {
            self.l1_prefetcher
        } else {
            self.l2_prefetcher
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clip_trace::{catalog, Mix};
    use clip_types::PrefetcherKind;

    fn small_cfg(pf: PrefetcherKind, channels: usize) -> SimConfig {
        SimConfig::builder()
            .cores(4)
            .dram_channels(channels)
            .l1_prefetcher(pf)
            .build()
            .expect("valid config")
    }

    fn mix_of(name: &str, cores: usize) -> Mix {
        Mix::homogeneous(&catalog::by_name(name).expect("known workload"), cores)
    }

    fn quick() -> RunOptions {
        RunOptions {
            warmup_instrs: 500,
            sim_instrs: 3_000,
            seed: 7,
            ..RunOptions::default()
        }
    }

    #[test]
    fn nopf_run_completes_with_sane_ipc() {
        let cfg = small_cfg(PrefetcherKind::None, 2);
        let mix = mix_of("605.mcf_s-1554B", 4);
        let r = run_mix(&cfg, &Scheme::plain(), &mix, &quick());
        assert_eq!(r.per_core_ipc.len(), 4);
        for &ipc in &r.per_core_ipc {
            assert!(ipc > 0.001 && ipc <= 4.0, "ipc={ipc}");
        }
        assert!(r.misses.l1_misses > 0, "mcf must miss");
        assert!(r.dram_transfers > 0, "mcf must reach DRAM");
    }

    #[test]
    fn berti_reduces_misses_on_streaming_workload() {
        let cfg_no = small_cfg(PrefetcherKind::None, 4);
        let cfg_pf = small_cfg(PrefetcherKind::Berti, 4);
        let mix = mix_of("619.lbm_s-4268B", 4);
        let base = run_mix(&cfg_no, &Scheme::plain(), &mix, &quick());
        let pf = run_mix(&cfg_pf, &Scheme::plain(), &mix, &quick());
        assert!(pf.prefetch.issued > 0, "Berti must issue prefetches");
        assert!(
            pf.prefetch.useful > 0,
            "stream prefetches must be useful: {:?}",
            pf.prefetch
        );
        // Miss coverage: prefetching removes L1 demand misses.
        assert!(
            pf.misses.l1_misses < base.misses.l1_misses,
            "prefetch: {} vs base: {}",
            pf.misses.l1_misses,
            base.misses.l1_misses
        );
    }

    #[test]
    fn clip_reduces_prefetch_traffic() {
        let cfg = small_cfg(PrefetcherKind::Berti, 1);
        let mix = mix_of("605.mcf_s-1554B", 4);
        let plain = run_mix(&cfg, &Scheme::plain(), &mix, &quick());
        let clip = run_mix(&cfg, &Scheme::with_clip(), &mix, &quick());
        assert!(
            clip.prefetch.issued < plain.prefetch.issued,
            "CLIP must drop prefetches: {} vs {}",
            clip.prefetch.issued,
            plain.prefetch.issued
        );
        let report = clip.clip.expect("clip report present");
        assert!(report.stats.candidates > 0);
    }

    #[test]
    fn latencies_grow_when_bandwidth_shrinks() {
        let mix = mix_of("619.lbm_s-2676B", 4);
        let wide = run_mix(
            &small_cfg(PrefetcherKind::None, 8),
            &Scheme::plain(),
            &mix,
            &quick(),
        );
        let narrow = run_mix(
            &small_cfg(PrefetcherKind::None, 1),
            &Scheme::plain(),
            &mix,
            &quick(),
        );
        assert!(
            narrow.latency.by_dram.avg() > wide.latency.by_dram.avg(),
            "narrow {} vs wide {}",
            narrow.latency.by_dram.avg(),
            wide.latency.by_dram.avg()
        );
    }

    #[test]
    fn baseline_evaluators_produce_counts() {
        let cfg = small_cfg(PrefetcherKind::None, 2);
        let mix = mix_of("605.mcf_s-1536B", 4);
        let scheme = Scheme {
            evaluate_baselines: true,
            ..Scheme::plain()
        };
        let r = run_mix(&cfg, &scheme, &mix, &quick());
        assert_eq!(r.baseline_evals.len(), 6);
        assert!(r.baseline_evals.iter().any(|(_, c)| c.total() > 0));
    }

    #[test]
    fn analytic_noc_agrees_qualitatively() {
        let cfg = small_cfg(PrefetcherKind::None, 2);
        let mix = mix_of("603.bwaves_s-891B", 4);
        let mesh = run_mix(&cfg, &Scheme::plain(), &mix, &quick());
        let opts = RunOptions {
            noc: NocChoice::Analytic,
            ..quick()
        };
        let ana = run_mix(&cfg, &Scheme::plain(), &mix, &opts);
        let ratio = mesh.mean_ipc() / ana.mean_ipc();
        assert!(
            (0.4..=2.5).contains(&ratio),
            "NoC models should agree within ~2x: mesh={} ana={}",
            mesh.mean_ipc(),
            ana.mean_ipc()
        );
    }

    #[test]
    fn hermes_trains_and_runs() {
        let cfg = small_cfg(PrefetcherKind::Berti, 2);
        let mix = mix_of("605.mcf_s-472B", 4);
        let r = run_mix(&cfg, &Scheme::with_hermes(), &mix, &quick());
        assert!(r.mean_ipc() > 0.0);
    }

    #[test]
    fn hermes_with_prefetcher_never_wedges() {
        // Regression: Hermes probe ids used to be derived from transaction
        // slots; slot recycling (probes orphaned by L2 hits under a
        // prefetcher) shifted stale completions onto later transactions
        // until one waited forever, wedging the whole system. The
        // streaming workload + Berti + analytic NoC combination below
        // reproduced it reliably.
        let cfg = SimConfig::builder()
            .cores(8)
            .dram_channels(2)
            .l1_prefetcher(PrefetcherKind::Berti)
            .build()
            .expect("valid config");
        let mix = mix_of("619.lbm_s-3766B", 8);
        let opts = RunOptions {
            warmup_instrs: 800,
            sim_instrs: 2_000,
            seed: 42,
            noc: NocChoice::Analytic,
            ..RunOptions::default()
        };
        let r = run_mix(&cfg, &Scheme::with_hermes(), &mix, &opts);
        assert!(
            r.mean_ipc() > 0.005,
            "system wedged under Hermes probes: IPC {}",
            r.mean_ipc()
        );
        assert!(r.dram_transfers > 0, "no forward progress in measurement");
    }

    #[test]
    fn throttler_scheme_runs() {
        let cfg = small_cfg(PrefetcherKind::IpStride, 1);
        let mix = mix_of("619.lbm_s-2677B", 4);
        let r = run_mix(
            &cfg,
            &Scheme::with_throttler(clip_throttle::ThrottlerKind::Fdp),
            &mix,
            &quick(),
        );
        assert!(r.mean_ipc() > 0.0);
    }

    #[test]
    fn l2_prefetcher_path_works() {
        let cfg = SimConfig::builder()
            .cores(4)
            .dram_channels(2)
            .l2_prefetcher(PrefetcherKind::SppPpf)
            .build()
            .expect("valid config");
        let mix = mix_of("603.bwaves_s-1740B", 4);
        let r = run_mix(&cfg, &Scheme::plain(), &mix, &quick());
        assert!(r.prefetch.issued > 0, "SPP-PPF at L2 must prefetch");
    }

    #[test]
    fn timeline_sampling_produces_series() {
        let cfg = small_cfg(PrefetcherKind::Berti, 2);
        let mix = mix_of("619.lbm_s-2676B", 4);
        let opts = RunOptions {
            timeline_interval: 2_000,
            ..quick()
        };
        let r = run_mix(&cfg, &Scheme::plain(), &mix, &opts);
        assert!(
            r.timeline.len() >= 2,
            "expected several samples, got {}",
            r.timeline.len()
        );
        let total_retired: u64 = r.timeline.iter().map(|p| p.retired).sum();
        assert!(total_retired > 0);
        for p in &r.timeline {
            assert!((0.0..=1.0).contains(&p.bw_util));
            assert!(p.ipc(2_000, 4) <= 4.0);
        }
        // Disabled by default.
        let r2 = run_mix(&cfg, &Scheme::plain(), &mix, &quick());
        assert!(r2.timeline.is_empty());
    }

    #[test]
    fn page_mode_clip_gates_l2_prefetcher() {
        // §4.2: when the L2 prefetcher has no IP information, CLIP tracks
        // accuracy per 4 KiB page. Exercise the combination end to end.
        let cfg = SimConfig::builder()
            .cores(4)
            .dram_channels(1)
            .l2_prefetcher(PrefetcherKind::SppPpf)
            .build()
            .expect("valid config");
        let scheme = Scheme {
            clip: Some(clip_core::ClipConfig {
                page_mode: true,
                ..clip_core::ClipConfig::default()
            }),
            ..Scheme::plain()
        };
        let mix = mix_of("603.bwaves_s-2609B", 4);
        let plain = run_mix(&cfg, &Scheme::plain(), &mix, &quick());
        let paged = run_mix(&cfg, &scheme, &mix, &quick());
        assert!(
            paged.prefetch.issued <= plain.prefetch.issued,
            "page-mode CLIP must filter: {} vs {}",
            paged.prefetch.issued,
            plain.prefetch.issued
        );
        assert!(paged.mean_ipc() > 0.0);
    }

    #[test]
    fn dynamic_clip_bypasses_with_ample_bandwidth() {
        // With far more bandwidth than demand, the governor should open
        // the gate and DynCLIP should issue at least as many prefetches
        // as plain CLIP.
        let cfg = SimConfig::builder()
            .cores(4)
            .dram_channels(16)
            .l1_prefetcher(PrefetcherKind::Berti)
            .build()
            .expect("valid config");
        let mix = mix_of("619.lbm_s-4268B", 4);
        let opts = quick();
        let clip = run_mix(&cfg, &Scheme::with_clip(), &mix, &opts);
        let dyn_clip = run_mix(&cfg, &Scheme::with_dynamic_clip(), &mix, &opts);
        assert!(
            dyn_clip.prefetch.issued >= clip.prefetch.issued,
            "bypassed governor must not reduce traffic below CLIP: {} vs {}",
            dyn_clip.prefetch.issued,
            clip.prefetch.issued
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small_cfg(PrefetcherKind::Berti, 2);
        let mix = mix_of("654.roms_s-523B", 4);
        let a = run_mix(&cfg, &Scheme::plain(), &mix, &quick());
        let b = run_mix(&cfg, &Scheme::plain(), &mix, &quick());
        assert_eq!(a.per_core_ipc, b.per_core_ipc);
        assert_eq!(a.dram_transfers, b.dram_transfers);
    }
}
