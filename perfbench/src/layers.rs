//! Per-layer metrics of a traced run.
//!
//! Layer times are span self times, averaged per call of the layer's
//! public entry point; shares are a layer's total self time over the
//! total time of all root spans (requests and set-up). A layer a workload
//! never calls reports 0.

use crate::spans::{self, Recorder};
use crate::Metric;

/// Counts recorded at the same boundaries as the spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// Thread blocks simulated inside single-device `des` spans.
    pub des_tbs: u64,
    /// `RunReport::cache_hits` summed over every report.
    pub cache_hits: u64,
    /// `RunReport::cache_misses` summed over every report.
    pub cache_misses: u64,
    /// Guard rounds (recovery rounds + 1) of each guarded report.
    pub guard_rounds: Vec<f64>,
    /// Interconnect transfers of each multi-device report.
    pub multi_xfers: Vec<f64>,
    /// Partition cut fraction of each multi-device report.
    pub multi_cut: Vec<f64>,
    /// Checkpointed-minus-plain run time of each paired request, ms.
    pub checkpoint_ms: Vec<f64>,
    /// Snapshot bytes written per checkpointed request, KiB.
    pub checkpoint_kib: Vec<f64>,
    /// Serve admission-to-start wait per request, ms.
    pub serve_queue_ms: Vec<f64>,
    /// Serve start-to-complete time per request, ms.
    pub serve_run_ms: Vec<f64>,
    /// Serve attempts per request.
    pub serve_attempts: Vec<f64>,
    /// Open-loop generator lateness per request, ms.
    pub gen_late_ms: Vec<f64>,
    /// Host time of the untraced half of each traced/untraced pair, ns.
    pub untraced_ns: u64,
    /// Host time of the traced half of each pair, ns.
    pub traced_ns: u64,
}

/// Every per-layer metric name with its unit, in `BENCHMARK.json` order.
pub const NAMES: [(&str, &str); 21] = [
    ("guard.serial_ms", "ms"),
    ("guard.replay_ms", "ms"),
    ("guard.share", "fraction"),
    ("guard.rounds", "count"),
    ("jit.ms", "ms"),
    ("jit.share", "fraction"),
    ("jit.cache_hit_ratio", "fraction"),
    ("des.ms", "ms"),
    ("des.ns_per_tb", "ns"),
    ("multi.ms", "ms"),
    ("multi.xfers_per_run", "count"),
    ("multi.cut_frac", "fraction"),
    ("checkpoint.ms", "ms"),
    ("checkpoint.kib", "KiB"),
    ("export.ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.attempts_per_req", "count"),
    ("gen.late_ms", "ms"),
    ("bench.span_coverage", "fraction"),
    ("bench.trace_overhead_frac", "fraction"),
];

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run, plus the minimum span coverage
/// over its request spans.
pub fn metrics(rec: &Recorder, c: &Counts) -> (Vec<Metric>, f64) {
    let by = spans::self_by_name(&rec.spans);
    let total = |name: &str| by.get(name).map_or(0, |&(ns, _)| ns) as f64;
    let per_call_ms = |name: &str| {
        by.get(name)
            .map_or(0.0, |&(ns, n)| ratio(ns as f64, n as f64) / 1e6)
    };
    let roots: f64 = rec
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur() as f64)
        .sum();
    let coverage = rec
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "request")
        .map(|(i, _)| spans::coverage(&rec.spans, i))
        .fold(f64::INFINITY, f64::min);
    let coverage = if coverage.is_finite() { coverage } else { 0.0 };
    let values = [
        per_call_ms("guard.serial"),
        per_call_ms("guard.replay"),
        ratio(total("guard.serial") + total("guard.replay"), roots),
        mean(&c.guard_rounds),
        per_call_ms("jit"),
        ratio(total("jit"), roots),
        ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        per_call_ms("des"),
        ratio(total("des"), c.des_tbs as f64),
        per_call_ms("multi"),
        mean(&c.multi_xfers),
        mean(&c.multi_cut),
        mean(&c.checkpoint_ms),
        mean(&c.checkpoint_kib),
        per_call_ms("export"),
        mean(&c.serve_queue_ms),
        mean(&c.serve_run_ms),
        mean(&c.serve_attempts),
        mean(&c.gen_late_ms),
        coverage,
        ratio(
            c.traced_ns as f64 - c.untraced_ns as f64,
            c.untraced_ns as f64,
        ),
    ];
    let metrics = NAMES
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    (metrics, coverage)
}
