//! Output checks: result digests and sanity invariants.
//!
//! A digest is the FNV-1a hash of a result's rendered
//! `SimResult::to_json`, so two commits (or two passes of one run) can be
//! compared exactly on every simulated statistic.

use clip_sim::SimResult;

/// FNV-1a (64-bit) over bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of one result's JSON form.
pub fn digest(r: &SimResult) -> u64 {
    fnv64(r.to_json().render().as_bytes())
}

/// Digest of a list of digests (order-sensitive).
pub fn combine(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv64(&bytes)
}

/// Describes every position where `again` differs from `first`.
pub fn compare_digests(what: &str, first: &[u64], again: &[u64]) -> Vec<String> {
    if first.len() != again.len() {
        return vec![format!(
            "{what}: {} results, first pass had {}",
            again.len(),
            first.len()
        )];
    }
    first
        .iter()
        .zip(again)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, (a, b))| format!("{what}: result {i} digest {b:016x} != first pass {a:016x}"))
        .collect()
}

/// Sanity invariants of one result of a run with `cores` cores that
/// measured `measure` instructions per core. Returns one line per
/// violation.
pub fn invariants(r: &SimResult, cores: usize, measure: u64) -> Vec<String> {
    let mut bad = Vec::new();
    let label = if r.label.is_empty() {
        "result"
    } else {
        &r.label
    };
    if r.per_core_ipc.len() != cores {
        bad.push(format!(
            "{label}: {} per-core IPCs for {cores} cores",
            r.per_core_ipc.len()
        ));
    }
    // A core's IPC is measure / its own finish time, so a core that
    // retired its measured instructions within the window satisfies
    // ipc * cycles >= measure.
    for (i, &ipc) in r.per_core_ipc.iter().enumerate() {
        if !(ipc.is_finite() && ipc > 0.0 && ipc * r.cycles as f64 >= measure as f64 * (1.0 - 1e-9))
        {
            bad.push(format!(
                "{label}: core {i} did not retire its {measure} measured instructions \
                 (ipc {ipc}, {} cycles)",
                r.cycles
            ));
        }
    }
    let p = &r.prefetch;
    if p.issued > p.candidates {
        bad.push(format!(
            "{label}: prefetches issued {} > candidates {}",
            p.issued, p.candidates
        ));
    }
    if p.useful + p.useless > p.issued {
        bad.push(format!(
            "{label}: useful {} + useless {} > issued {}",
            p.useful, p.useless, p.issued
        ));
    }
    if let Some(c) = &r.clip {
        let s = &c.stats;
        let dropped =
            s.dropped_not_critical + s.dropped_predicted + s.dropped_low_accuracy + s.dropped_phase;
        if dropped > s.candidates {
            bad.push(format!(
                "{label}: CLIP dropped {dropped} > candidates {}",
                s.candidates
            ));
        }
    }
    for (name, u) in [
        ("dram_bw_util", r.dram_bw_util),
        ("dram_max_channel_util", r.dram_max_channel_util),
    ] {
        if !(0.0..=1.0).contains(&u) {
            bad.push(format!("{label}: {name} {u} outside [0, 1]"));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimResult {
        SimResult {
            per_core_ipc: vec![0.5, 0.25],
            cycles: 4000,
            dram_transfers: 100,
            ..SimResult::default()
        }
    }

    #[test]
    fn digest_flags_a_perturbed_result() {
        let a = sample();
        let mut b = a.clone();
        b.dram_transfers += 1;
        let first = [digest(&a), digest(&a)];
        assert!(compare_digests("x", &first, &[digest(&a), digest(&a)]).is_empty());
        let diffs = compare_digests("x", &first, &[digest(&a), digest(&b)]);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("result 1"));
    }

    #[test]
    fn invariants_hold_and_fire() {
        let r = sample();
        assert!(invariants(&r, 2, 1000).is_empty());
        let mut slow = r.clone();
        slow.per_core_ipc[1] = 0.1;
        assert_eq!(invariants(&slow, 2, 1000).len(), 1);
        let mut util = r;
        util.dram_bw_util = 1.5;
        assert_eq!(invariants(&util, 2, 1000).len(), 1);
    }
}
