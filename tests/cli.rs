//! End-to-end tests of the command-line binaries.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn clipsim_lists_workloads() {
    let out = Command::new(env!("CARGO_BIN_EXE_clipsim"))
        .arg("--list-workloads")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("605.mcf_s-1554B"));
    assert!(stdout.contains("cloudsuite.cassandra"));
    assert!(stdout.lines().count() >= 45 + 6 + 10);
}

#[test]
fn clipsim_exits_quietly_when_stdout_closes_early() {
    // `clipsim --list-workloads | head -1`: the reader takes one line (or
    // none) and closes the pipe; the rest of the listing must not panic.
    for lines_read in [1, 0] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_clipsim"))
            .arg("--list-workloads")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        for _ in 0..lines_read {
            let mut line = String::new();
            stdout.read_line(&mut line).expect("first line");
            assert!(!line.is_empty(), "the listing starts with a workload");
        }
        drop(stdout);
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
        assert!(out.status.success(), "status {}: {stderr}", out.status);
    }
}

#[test]
fn clipsim_runs_a_tiny_simulation() {
    let out = Command::new(env!("CARGO_BIN_EXE_clipsim"))
        .args([
            "--workload",
            "603.bwaves_s-891B",
            "--cores",
            "2",
            "--channels",
            "1",
            "--prefetcher",
            "berti",
            "--clip",
            "--instrs",
            "800",
            "--warmup",
            "200",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("normalized WS"));
    assert!(stdout.contains("CLIP"));
}

#[test]
fn clipsim_rejects_unknown_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_clipsim"))
        .arg("--frobnicate")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn clipsim_rejects_unknown_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_clipsim"))
        .args(["--workload", "not-a-workload", "--instrs", "100"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn trace_info_reports_a_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_clip-trace-info"))
        .arg("605.mcf_s-1554B")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MPKI"));
    assert!(stdout.contains("chase loads"));
}

#[test]
fn trace_info_record_and_analyse_roundtrip() {
    let path = std::env::temp_dir().join("clip-cli-test.trace");
    let rec = Command::new(env!("CARGO_BIN_EXE_clip-trace-info"))
        .args([
            "--record",
            "619.lbm_s-4268B",
            path.to_str().expect("utf8 path"),
            "2000",
        ])
        .output()
        .expect("binary runs");
    assert!(rec.status.success());
    let ana = Command::new(env!("CARGO_BIN_EXE_clip-trace-info"))
        .args(["--analyse", path.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert!(ana.status.success());
    assert!(String::from_utf8_lossy(&ana.stdout).contains("619.lbm_s-4268B"));
    let _ = std::fs::remove_file(&path);
}
