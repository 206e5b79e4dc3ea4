//! Rendering a run's outcome: the human-readable lines and the final
//! one-line JSON result.

use crate::metrics;
use crate::workloads::Outcome;

/// The metrics a run reports: end-to-end ones untraced, per-layer ones
/// traced, in table order.
pub fn reported(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    }
}

/// Every line printed before the result line: notes, problems, and one
/// `name value unit` line per metric.
pub fn lines(o: &Outcome, trace: bool) -> Vec<String> {
    let mut out = o.lines.clone();
    out.extend(o.problems.iter().map(|p| format!("problem: {p}")));
    for (table, title) in [
        (metrics::END_TO_END, "end-to-end"),
        (metrics::PER_LAYER, "per-layer"),
    ] {
        if table == metrics::PER_LAYER && !trace {
            continue;
        }
        out.push(format!("{title} metrics:"));
        for (name, unit) in table {
            if let Some(v) = o.metrics.get(name) {
                out.push(format!("  {name:<30} {v:>16.6} {unit}"));
            }
        }
    }
    if !trace {
        if let Some(e) = o.metrics.get("error_rate") {
            out.push(format!("  {:<30} {e:>16.6} ratio", "error_rate"));
        }
    }
    out
}

/// The final result line. A metric that is missing or not finite makes
/// the result incorrect and reads 0.
pub fn result_line(o: &Outcome, trace: bool) -> String {
    let mut correct = o.correct();
    let fields: Vec<String> = reported(trace)
        .iter()
        .map(|(name, unit)| {
            let v = match o.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    correct = false;
                    0.0
                }
            };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        fields.join(", ")
    )
}
