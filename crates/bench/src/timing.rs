//! A minimal timing harness for the workspace's micro-benchmarks.
//!
//! The workspace builds with zero external crates, so the benches under
//! `benches/` are plain `fn main()` programs (`harness = false`) driven
//! by this module instead of criterion. The methodology is deliberately
//! simple: warm up, then take the median of several timed batches so a
//! single scheduler hiccup cannot skew the report.

use std::hint::black_box;
use std::time::Instant;

/// Number of timed batches per benchmark; the median is reported.
const BATCHES: usize = 7;

/// Runs `f` repeatedly and prints `name: <median ns/iter>`.
///
/// `iters` is the batch size — pick it large enough that one batch takes
/// well over a microsecond so `Instant` resolution is irrelevant.
pub fn bench<T>(name: &str, iters: u64, mut f: impl FnMut() -> T) {
    // Warmup: one full batch, unmeasured.
    for _ in 0..iters {
        black_box(f());
    }
    let mut ns_per_iter: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    ns_per_iter.sort_by(|a, b| a.total_cmp(b));
    let median = ns_per_iter[BATCHES / 2];
    if median >= 1_000_000.0 {
        println!("{name:<40} {:>12.3} ms/iter", median / 1_000_000.0);
    } else if median >= 1_000.0 {
        println!("{name:<40} {:>12.3} us/iter", median / 1_000.0);
    } else {
        println!("{name:<40} {median:>12.1} ns/iter");
    }
}
