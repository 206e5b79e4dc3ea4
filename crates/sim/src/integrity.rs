//! The integrity auditor: forward-progress watchdog + conservation
//! audits over the whole Tick stack.
//!
//! The cycle loop calls [`System::integrity_tick`] after every tick; at
//! the configured cadence it runs the component audits (NoC flit
//! conservation, DRAM command legality, LLC lookup-ring occupancy, every
//! MSHR file's allocation/release balance, every core's ROB/load-queue
//! balance, and every tile's prefetch-queue conservation + address
//! legality), captures a per-component state fingerprint under
//! `CLIP_CHECK=full` (see [`crate::fingerprint`]), and samples a global
//! progress signature. If the signature does not change for a whole
//! watchdog window while work is still in flight, the run is declared
//! deadlocked with a report naming the stuck transactions and every
//! queue's occupancy. All checks are read-only: simulation results are
//! bit-identical across [`CheckLevel`]s.

use crate::system::System;
use clip_dram::DramModel;
use clip_noc::NocModel;
use clip_types::{CheckLevel, Cycle, SimError, SimErrorKind};
use std::time::{Duration, Instant};

/// Default audit cadence in cycles.
pub(crate) const DEFAULT_CHECK_CADENCE: Cycle = 2048;
/// Default forward-progress window in cycles. Generous: FR-FCFS can
/// legitimately starve a plain prefetch for thousands of cycles under
/// saturation, but *some* global progress always happens within this
/// window unless the system is truly wedged.
pub(crate) const DEFAULT_WATCHDOG_WINDOW: Cycle = 50_000;

/// How many stuck transactions the deadlock report names.
const REPORT_TXNS: usize = 5;

/// Auditor state owned by the [`System`].
pub(crate) struct Integrity {
    pub(crate) level: CheckLevel,
    pub(crate) cadence: Cycle,
    pub(crate) window: Cycle,
    /// Last cycle the progress signature changed.
    last_progress: Cycle,
    /// (retired, noc delivered, dram reads+writes, llc lookups fired).
    signature: (u64, u64, u64, u64),
}

impl Integrity {
    pub(crate) fn new(level: CheckLevel, cadence: Cycle, window: Cycle) -> Self {
        Integrity {
            level,
            cadence,
            window,
            last_progress: 0,
            signature: (0, 0, 0, 0),
        }
    }
}

/// An armed wall-clock budget for one run (see `RunOptions::deadline`).
///
/// The clock is the *host's*, so which cadence boundary trips it depends
/// on machine speed — but the error itself is deterministic at any given
/// boundary: the detail is built only from simulated state. A zero budget
/// (the forced-timeout test knob) trips at the first boundary on every
/// host, making full `SimError` equality testable serial vs parallel.
pub(crate) struct JobDeadline {
    pub(crate) start: Instant,
    pub(crate) budget: Duration,
}

impl System {
    /// Runs the watchdog + audits if the cadence divides `now`.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`SimError`].
    pub(crate) fn integrity_tick(&mut self, now: Cycle) -> Result<(), SimError> {
        if !self.integrity.level.audits_enabled() || !now.is_multiple_of(self.integrity.cadence) {
            return Ok(());
        }
        let full = self.integrity.level.full();

        self.engine
            .noc
            .model
            .audit(full)
            .map_err(|e| component_error(now, "noc", e))?;
        self.engine
            .dram
            .mem
            .audit(now, full)
            .map_err(|e| component_error(now, "dram", e))?;
        self.engine
            .llc
            .audit(now, full)
            .map_err(|e| component_error(now, "llc", e))?;
        if full {
            self.engine
                .audit_txns()
                .map_err(|e| component_error(now, "txns", e))?;
        }
        for (i, t) in self.tiles.iter().enumerate() {
            t.l1_mshr
                .audit(now, full)
                .map_err(|e| component_error(now, format!("tile{i}.l1-mshr"), e))?;
            t.l2_mshr
                .audit(now, full)
                .map_err(|e| component_error(now, format!("tile{i}.l2-mshr"), e))?;
            t.core
                .as_ref()
                .expect("core present")
                .audit(full)
                .map_err(|e| component_error(now, format!("tile{i}.core"), e))?;
            t.audit_pf_queue(full)
                .map_err(|e| component_error(now, format!("tile{i}.pf-queue"), e))?;
        }

        // Fingerprints are captured at every enabled check level: `full`
        // hashes per-entry state, `cheap` only the O(1) balances — cheap
        // streams are affordable for long sweeps and still localize
        // occupancy-visible divergence (the baseline store keys the two
        // levels separately).
        self.capture_fingerprint(now, full);

        // Forward progress: the signature moves whenever any core retires
        // or any uncore channel drains anything.
        let sig = self.progress_signature();
        if sig != self.integrity.signature {
            self.integrity.signature = sig;
            self.integrity.last_progress = now;
        } else if self.work_in_flight()
            && now - self.integrity.last_progress >= self.integrity.window
        {
            return Err(SimError::new(
                now,
                "watchdog",
                SimErrorKind::Deadlock,
                self.deadlock_report(now),
            ));
        }
        Ok(())
    }

    fn progress_signature(&self) -> (u64, u64, u64, u64) {
        let retired: u64 = self
            .tiles
            .iter()
            .map(|t| t.core.as_ref().expect("core present").retired())
            .sum();
        let ds = self.engine.dram.mem.total_stats();
        (
            retired,
            self.engine.noc.model.delivered_count(),
            ds.reads + ds.writes,
            self.engine.llc.fired(),
        )
    }

    fn work_in_flight(&self) -> bool {
        self.engine.live_txns() > 0
            || self.engine.outbox_backlog() > 0
            || self.engine.pending_events() > 0
    }

    /// A structured report of what is stuck: the oldest live transactions
    /// (tile, line, level, age) and every queue's occupancy, mirroring
    /// the `CLIP_DEBUG_STALL` dump.
    fn deadlock_report(&self, now: Cycle) -> String {
        format!(
            "no forward progress for {} cycles with {}",
            now - self.integrity.last_progress,
            self.queue_snapshot(now),
        )
    }

    /// The shared diagnostic core of the deadlock and timeout reports:
    /// live-transaction count, every queue's occupancy, and the oldest
    /// in-flight transactions (tile, line, level, age). Built from
    /// simulated state only, so it is deterministic at any given cycle.
    fn queue_snapshot(&self, now: Cycle) -> String {
        let mut live: Vec<(Cycle, usize)> = self
            .engine
            .txns
            .iter()
            .enumerate()
            .filter(|(_, t)| t.live)
            .map(|(i, t)| (t.issue, i))
            .collect();
        live.sort_unstable();
        let mut stuck = String::new();
        for &(issue, i) in live.iter().take(REPORT_TXNS) {
            let t = &self.engine.txns[i];
            stuck.push_str(&format!(
                " txn{i}{{tile={} line={:#x} level={:?} age={}}}",
                t.tile,
                t.line.raw(),
                t.level,
                now.saturating_sub(issue)
            ));
        }
        let l1m: usize = self.tiles.iter().map(|t| t.l1_mshr.len()).sum();
        let l2m: usize = self.tiles.iter().map(|t| t.l2_mshr.len()).sum();
        let rq: usize = (0..self.cfg.dram.channels)
            .map(|c| self.engine.dram.mem.read_queue_len(c))
            .sum();
        format!(
            "{} live txns \
             (l1_mshr={l1m} l2_mshr={l2m} llc_mshr={} outbox={} pf_queue={} \
             dram_read_q={rq} pending_events={}); oldest:{stuck}",
            live.len(),
            self.engine.llc.mshr_occupancy(),
            self.engine.outbox_backlog(),
            self.tiles.iter().map(|t| t.pf_queue.len()).sum::<usize>(),
            self.engine.pending_events(),
        )
    }

    /// Trips [`SimErrorKind::Timeout`] once the armed wall-clock budget is
    /// spent. Checked only at audit-cadence boundaries so serial and
    /// parallel runs on any host observe the deadline at the same
    /// simulated cycle; runs independently of the
    /// [`CheckLevel`] (a watchdog for the *host*, not the model).
    pub(crate) fn deadline_tick(&self, now: Cycle) -> Result<(), SimError> {
        let Some(d) = self.deadline.as_ref() else {
            return Ok(());
        };
        if !now.is_multiple_of(self.integrity.cadence) || d.start.elapsed() < d.budget {
            return Ok(());
        }
        Err(SimError::new(
            now,
            "deadline",
            SimErrorKind::Timeout,
            format!(
                "wall-clock deadline of {}ms exceeded at cycle {now} with {}",
                d.budget.as_millis(),
                self.queue_snapshot(now),
            ),
        ))
    }
}

/// Wraps a component audit failure, classifying legality-scan failures
/// (stale or future-dated entries, addresses outside the simulated
/// space) as illegal state rather than lost work.
fn component_error(now: Cycle, component: impl Into<String>, detail: String) -> SimError {
    let kind = if detail.contains("future")
        || detail.contains("stale")
        || detail.contains("outside the simulated address space")
    {
        SimErrorKind::IllegalState
    } else {
        SimErrorKind::Conservation
    };
    SimError::new(now, component, kind, detail)
}
