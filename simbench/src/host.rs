//! The benchmark's environment: pinned `CLIP_*` knobs and host tags.

use std::path::Path;

/// Removes every inherited `CLIP_*` variable, so the workload alone
/// decides what runs: the integrity check level falls back to its
/// default (`cheap`), ticking to the event wheel, and journals,
/// fingerprint baselines, deadlines, budgets and retries to off.
/// Call before any thread starts.
pub fn pin_environment() {
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CLIP_"))
        .collect();
    for k in inherited {
        std::env::remove_var(k);
    }
    // A retried job would hide a failure from the error count.
    std::env::set_var("CLIP_RETRY", "0");
}

/// Worker threads the benchmark may use: at most two, at most `nproc`.
pub fn threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model named in `/proc/cpuinfo`, if any.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in `root`, read from `.git` without running
/// git; "unknown" outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the next reading is
/// the peak since now. Best effort: without it, readings are the peak
/// since the process started.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One line naming the host and the pinned run mode.
pub fn tags(root: &Path) -> String {
    format!(
        "host: nproc={} cpu=\"{}\" commit={} scheduler=wheel check={:?} threads<={}",
        nproc(),
        cpu_model(),
        git_commit(root),
        clip_sim::CheckLevel::from_env(),
        threads()
    )
}
