//! perfbench — end-to-end and per-layer host-time benchmark of the
//! BlockMaestro pipeline.
//!
//! ```text
//! perfbench --workload <guarded|sweep|serve> --seed N --seconds S --trace <0|1>
//! perfbench --workload <name> --write-golden <path>
//! ```
//!
//! Every workload drives only the public entry points (`try_run_app`,
//! `try_run_analyzed`, `bm_multi::try_run_analyzed_multi`,
//! `bm_serve::RunService`), checks every report against the committed
//! golden digests, and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs the traced variant and
//! prints the per-layer metrics. `README.md` beside this crate maps each
//! metric to its layer and workload.

mod gen;
mod golden;
mod guarded;
mod layers;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Nominal run length; sets the fixed request count.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Write the golden table for the workload here instead of running.
    pub write_golden: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        write_golden: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = num(value()?)?,
            "--seconds" => args.seconds = num(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--write-golden" => args.write_golden = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests issued.
    pub attempted: u64,
    /// Requests that failed, were refused or shed, or whose report
    /// digest did not match the golden table.
    pub failed: u64,
    /// Further correctness checks (traced-vs-untraced digests, span
    /// coverage) that do not belong to one request.
    pub check_failures: Vec<String>,
    /// Metrics to print.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Latency of a failed request: it misses every latency limit.
pub const FAILED_MS: f64 = f64::INFINITY;

/// The end-to-end metrics shared by every workload.
///
/// `latencies_ms` holds one entry per attempted request ([`FAILED_MS`]
/// for failures); `tbs` is the number of thread blocks simulated by the
/// successful ones over `busy_s` host seconds.
pub fn end_to_end(
    out: &mut Outcome,
    latencies_ms: Vec<f64>,
    tbs: u64,
    busy_s: f64,
    setup_s: f64,
) -> Result<(), String> {
    let sorted = stats::sorted(latencies_ms);
    let p50 = stats::percentile(&sorted, 500).ok_or("no requests ran")?;
    let tail = stats::tail(&sorted).ok_or_else(|| {
        format!(
            "{} requests cannot support a tail with {} samples beyond it; \
             run longer",
            sorted.len(),
            stats::MIN_BEYOND
        )
    })?;
    for p in [p50, tail] {
        out.notes.push(format!(
            "latency {} = {:.3} ms over {} requests ({} beyond)",
            p.label(),
            p.value,
            p.count,
            p.beyond
        ));
    }
    out.metrics.extend([
        Metric {
            name: "tb_per_s",
            value: tbs as f64 / busy_s,
            unit: "1/s",
        },
        Metric {
            name: "req_p50_ms",
            value: p50.value,
            unit: "ms",
        },
        Metric {
            name: "req_tail_ms",
            value: tail.value,
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
    ]);
    Ok(())
}

/// Runs `f` `reps` times; returns the last result and the median time in
/// seconds.
pub fn timed_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("at least one repetition"),
        stats::median(&times),
    ))
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Builds a suite application by Table II name.
pub fn build_app(name: &str, scale: bm_workloads::Scale) -> Result<bm_cmdq::Application, String> {
    let b = bm_workloads::suite()
        .into_iter()
        .find(|b| b.name == name)
        .ok_or_else(|| format!("no application named {name}"))?;
    Ok((b.build)(scale))
}

/// Finishes a traced run: the per-layer metrics, the check that spans
/// cover at least `min_coverage` of every request, and the span file,
/// written once at the end.
pub fn finish_traced(
    args: &Args,
    rec: &spans::Recorder,
    c: &layers::Counts,
    out: &mut Outcome,
    min_coverage: f64,
) {
    let (metrics, coverage) = layers::metrics(rec, c);
    if coverage < min_coverage {
        out.check_failures.push(format!(
            "spans cover {coverage:.4} of a request, below {min_coverage}"
        ));
    }
    out.metrics = metrics;
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_jsonl())) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            rec.spans.len(),
            path.display()
        )),
        Err(e) => out
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        format!("{:e}", f64::MAX)
    } else {
        "null".into()
    }
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.check_failures.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<Option<Outcome>, String> {
    if let Some(path) = &args.write_golden {
        let (header, entries) = match args.workload.as_str() {
            "guarded" => ("guarded: try_run_app", guarded::golden_entries()?),
            "sweep" => (
                "sweep: try_run_analyzed / try_run_analyzed_multi",
                sweep::golden_entries()?,
            ),
            "serve" => (
                "serve: try_run_app (RunService must agree)",
                serve::golden_entries()?,
            ),
            w => return Err(format!("unknown workload {w:?}")),
        };
        let text = golden::Golden::render(header, &entries);
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{} golden digests written to {path}", entries.len());
        return Ok(None);
    }
    let out = match args.workload.as_str() {
        "guarded" => guarded::run(args)?,
        "sweep" => sweep::run(args)?,
        "serve" => serve::run(args)?,
        w => return Err(format!("unknown workload {w:?} (guarded, sweep, serve)")),
    };
    Ok(Some(out))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(Some(out)) => {
            for n in &out.notes {
                println!("{n}");
            }
            for c in &out.check_failures {
                println!("CHECK FAILED: {c}");
            }
            println!(
                "{}: {} failed of {} attempted",
                args.workload, out.failed, out.attempted
            );
            println!("{}", result_line(&out));
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 1,
            metrics: vec![Metric {
                name: "req_p50_ms",
                value: FAILED_MS,
                unit: "ms",
            }],
            ..Outcome::default()
        };
        let line = result_line(&out);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
        assert!(line.contains("\"req_p50_ms\": {\"value\": 1.7976931348623157e308"));
    }

    #[test]
    fn args_are_validated() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload sweep --seed 9 --seconds 5 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (9, 5, true));
        assert!(parse_args(&v("--trace 2")).is_err());
        assert!(parse_args(&v("--seconds 0")).is_err());
        assert!(parse_args(&v("--bogus 1")).is_err());
    }
}
