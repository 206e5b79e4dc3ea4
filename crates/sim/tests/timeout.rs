//! Wall-clock deadline determinism: a blown deadline is wall-clock
//! *detected* but must be cycle-deterministically *reported*. The check
//! only fires at audit-cadence boundaries, and a zero budget is already
//! exhausted at the very first boundary on any host, so a
//! `deadline: Some(Duration::ZERO)` run must produce the **same**
//! `SimError` — cycle, component, detail, everything — no matter the
//! machine or the worker-thread count. Timed-out cells must also leave
//! sibling jobs untouched: the clean jobs in the same batch stay
//! byte-identical to a run with no deadline at all.
//!
//! Env-mutating (`CLIP_THREADS`), so this lives in its own integration
//! binary with a single `#[test]`.

use clip_sim::{
    run_jobs_checked, CheckLevel, RunOptions, Scheme, SimError, SimErrorKind, SimResult, SweepJob,
};
use clip_trace::Mix;
use clip_types::{PrefetcherKind, SimConfig};
use std::time::Duration;

fn jobs() -> Vec<SweepJob> {
    let cfg = SimConfig::builder()
        .cores(4)
        .dram_channels(1)
        .l1_prefetcher(PrefetcherKind::Berti)
        .build()
        .expect("valid config");
    ["605.mcf_s-1554B", "619.lbm_s-4268B", "602.gcc_s-734B"]
        .iter()
        .map(|name| SweepJob {
            cfg: cfg.clone(),
            scheme: Scheme::with_clip(),
            mix: Mix::homogeneous(
                &clip_trace::catalog::by_name(name).expect("known workload"),
                4,
            ),
        })
        .collect()
}

fn opts(deadline: Option<Duration>) -> RunOptions {
    RunOptions {
        warmup_instrs: 200,
        sim_instrs: 1_000,
        seed: 7,
        check: Some(CheckLevel::Cheap),
        check_cadence: 64,
        deadline,
        ..RunOptions::default()
    }
}

fn renders(outcomes: &[Result<SimResult, SimError>]) -> Vec<String> {
    outcomes
        .iter()
        .map(|r| r.as_ref().expect("clean run").to_json().render())
        .collect()
}

#[test]
fn zero_deadline_times_out_deterministically_and_spares_siblings() {
    let batch = jobs();

    // Reference: the batch with no deadline completes cleanly.
    let clean = renders(&run_jobs_checked(&batch, &opts(None)));

    // Zero budget: every job must time out at its first cadence
    // boundary, naming the deadline component and the queue state.
    let timed: Vec<SimError> = run_jobs_checked(&batch, &opts(Some(Duration::ZERO)))
        .into_iter()
        .map(|r| r.expect_err("a zero deadline must time out"))
        .collect();
    for e in &timed {
        assert_eq!(e.kind, SimErrorKind::Timeout, "kind: {e}");
        assert_eq!(e.component, "deadline", "component: {e}");
        assert!(
            e.cycle > 0 && e.cycle.is_multiple_of(64),
            "the deadline must fire exactly on a cadence boundary, got cycle {}",
            e.cycle
        );
        assert!(
            e.detail.contains("wall-clock deadline") && e.detail.contains("live txns"),
            "detail must name the budget and the queue snapshot: {e}"
        );
    }

    // Same errors — full struct equality — across two worker threads.
    std::env::set_var("CLIP_THREADS", "2");
    let parallel: Vec<SimError> = run_jobs_checked(&batch, &opts(Some(Duration::ZERO)))
        .into_iter()
        .map(|r| r.expect_err("a zero deadline must time out"))
        .collect();
    std::env::remove_var("CLIP_THREADS");
    assert_eq!(timed, parallel, "serial vs CLIP_THREADS=2");

    // Sibling isolation: deadline state carries nothing across runs —
    // re-running the batch cleanly is byte-identical to the reference.
    assert_eq!(
        renders(&run_jobs_checked(&batch, &opts(None))),
        clean,
        "a timed-out batch must leave later clean runs byte-identical"
    );
}
