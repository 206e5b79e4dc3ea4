//! Metric names and units, in print order.
//!
//! `error_rate` is reported with the per-layer metrics: it is 0 on
//! correct code, and an end-to-end metric is compared as a share of its
//! median, which a metric that is always 0 does not have. The same
//! count reaches the result line as `failed` / `attempted`.

/// What a user of the simulator sees; measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_kips", "kinstr/s"),
    ("sim_mcps", "Mcycle/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rerun_s", "s"),
    ("clip_ws", "ratio"),
];

/// Per-layer metrics (layer = crate); reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.setup_s", "s"),
    ("sim.run_s", "s"),
    ("sim.host_ns_per_cycle", "ns/cycle"),
    ("sim.unattributed_s", "s"),
    ("noc.flit_hops", "count"),
    ("noc.flits_per_cycle", "flits/cycle"),
    ("noc.llc_latency_cyc", "cycles"),
    ("noc.host_ns_per_cycle", "ns/cycle"),
    ("noc.run_share", "ratio"),
    ("dram.transfers", "count"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.bw_util", "ratio"),
    ("dram.max_channel_util", "ratio"),
    ("dram.latency_cyc", "cycles"),
    ("dram.host_ns_per_cycle", "ns/cycle"),
    ("dram.run_share", "ratio"),
    ("cache.accesses", "count"),
    ("cache.l1_miss_ratio", "ratio"),
    ("cache.l2_miss_ratio", "ratio"),
    ("cache.llc_miss_ratio", "ratio"),
    ("cache.host_ns_per_access", "ns/access"),
    ("cache.run_share", "ratio"),
    ("cpu.retired", "count"),
    ("cpu.ipc", "instr/cycle"),
    ("cpu.host_ns_per_instr", "ns/instr"),
    ("cpu.run_share", "ratio"),
    ("trace.instrs", "count"),
    ("trace.host_ns_per_instr", "ns/instr"),
    ("trace.run_share", "ratio"),
    ("prefetch.candidates", "count"),
    ("prefetch.issued", "count"),
    ("prefetch.accuracy", "ratio"),
    ("prefetch.lateness", "ratio"),
    ("prefetch.berti_ws", "ratio"),
    ("prefetch.host_ns_per_access", "ns/access"),
    ("prefetch.run_share", "ratio"),
    ("clip.candidates", "count"),
    ("clip.pass_ratio", "ratio"),
    ("clip.dropped_not_critical", "count"),
    ("clip.dropped_predicted", "count"),
    ("clip.dropped_low_accuracy", "count"),
    ("clip.dropped_phase", "count"),
    ("clip.crit_ip_accuracy", "ratio"),
    ("clip.crit_ip_coverage", "ratio"),
    ("clip.pf_traffic_vs_berti", "ratio"),
    ("clip.host_ns_per_filter", "ns/filter"),
    ("clip.host_ns_per_load", "ns/load"),
    ("clip.run_share", "ratio"),
    ("stats.to_json_us", "us"),
    ("stats.from_json_us", "us"),
    ("bench.jobs", "count"),
    ("bench.cold_s", "s"),
    ("bench.warm_s", "s"),
    ("bench.cache_hits", "count"),
    ("bench.cache_misses", "count"),
    ("bench.cache_stores", "count"),
    ("bench.cache_evictions", "count"),
    ("bench.cache_hit_ratio", "ratio"),
    ("spans.count", "count"),
    ("spans.overhead_pct", "%"),
    ("error_rate", "ratio"),
];

/// Layers that none of the workloads exercise.
pub const UNMEASURED_LAYERS: &[&str] = &["critpred", "throttle", "offchip"];
