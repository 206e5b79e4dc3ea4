//! The benchmark's own tests: tiny versions of every workload print every
//! metric with its unit and pass their checks, and every layer replay
//! does work.

use clip_sim::{run_mix, NocChoice, RunOptions, Scheme};
use clip_stats::Json;
use clip_trace::{heterogeneous_mixes, Mix};
use clip_types::{PrefetcherKind, SimConfig};
use simbench::replay::{self, Counts, ReplayInput};
use simbench::spans::Tracer;
use simbench::workloads::{self, Workload};
use simbench::{host, metrics, report};
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("simbench-out")
}

/// Checks the printed lines and the result line of one outcome.
fn assert_reported(o: &workloads::Outcome, trace: bool, what: &str) {
    assert!(o.correct(), "{what}: {:?}", o.problems);
    assert!(o.attempted > 0, "{what}: nothing attempted");
    let lines = report::lines(o, trace).join("\n");
    let mut expected: Vec<(&str, &str)> = metrics::END_TO_END.to_vec();
    if trace {
        expected.extend_from_slice(metrics::PER_LAYER);
    }
    for (name, unit) in &expected {
        assert!(
            lines
                .lines()
                .any(|l| l.split_whitespace().next() == Some(name)
                    && l.ends_with(&format!(" {unit}"))),
            "{what}: {name} [{unit}] not printed:\n{lines}"
        );
    }
    let result = Json::parse(&report::result_line(o, trace)).expect("result line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{what}"
    );
    let reported = result.get("metrics").expect("metrics");
    let want = report::reported(trace);
    assert_eq!(
        reported.keys().len(),
        want.len(),
        "{what}: extra or missing metrics"
    );
    for (name, unit) in want {
        let m = reported
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{what}: {name}"
        );
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{what}: {name}"
        );
    }
}

// One test function: workloads set process-wide environment variables.
#[test]
fn tiny_workloads_report_every_metric() {
    host::pin_environment();
    let dir = out_dir();
    for w in Workload::ALL {
        let o = workloads::run(w, 7, 0.01, true, true, &dir);
        assert_reported(&o, true, w.name());
        for (name, _) in metrics::END_TO_END {
            assert!(o.metrics[name] != 0.0, "{}: {name} is 0", w.name());
        }
        assert!(!o.tracer.spans().is_empty());
    }
    let o = workloads::run(Workload::Mix8Analytic, 7, 0.01, false, true, &dir);
    assert_reported(&o, false, "untraced");
    assert!(o.tracer.spans().is_empty());
    // The same seed gives the same simulated results.
    let again = workloads::run(Workload::Mix8Analytic, 7, 0.01, false, true, &dir);
    assert_eq!(o.metrics["clip_ws"], again.metrics["clip_ws"]);
    assert_eq!(
        o.lines
            .iter()
            .find(|l| l.starts_with("passes:"))
            .map(|l| l.split_once(';').map(|x| x.1.to_string())),
        again
            .lines
            .iter()
            .find(|l| l.starts_with("passes:"))
            .map(|l| l.split_once(';').map(|x| x.1.to_string())),
    );
}

#[test]
fn every_layer_replay_does_work() {
    for noc in [NocChoice::Analytic, NocChoice::Mesh] {
        let cfg = SimConfig::builder()
            .cores(4)
            .dram_channels(1)
            .l1_prefetcher(PrefetcherKind::Berti)
            .build()
            .expect("valid config");
        let mix: Mix = heterogeneous_mixes(1, 4, 3).remove(0);
        let opts = RunOptions {
            warmup_instrs: 100,
            sim_instrs: 400,
            seed: 3,
            noc,
            ..RunOptions::default()
        };
        let r = run_mix(&cfg, &Scheme::with_clip(), &mix, &opts);
        let counts = Counts::of([&r], 4, 100, 400, r.cycles * 5 / 4);
        let costs = replay::run_all(
            &ReplayInput {
                cfg: &cfg,
                noc,
                specs: &mix.workloads,
                seed: 3,
                counts: &counts,
            },
            &mut Tracer::new(false),
        );
        let layers: Vec<&str> = costs.iter().map(|c| c.layer).collect();
        for layer in ["noc", "dram", "cache", "cpu", "trace", "prefetch", "clip"] {
            assert!(layers.contains(&layer), "{noc:?}: {layer} not replayed");
        }
        for c in &costs {
            assert!(c.ops > 0 && c.seconds > 0.0, "{noc:?}: {c:?} did no work");
        }
    }
}
