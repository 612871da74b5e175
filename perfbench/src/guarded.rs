//! `guarded`: a closed loop of one client calling `try_run_app` on apps
//! whose soundness guard (serialized reference run plus schedule replay)
//! is at least three quarters of the request time.
//!
//! Class weights put the median inside the FFT class and the p90 tail
//! inside the PATH class, away from any boundary between two classes.

use crate::gen::{self, GUARD_MODES};
use crate::golden::{digest, Checker, Golden};
use crate::layers::Counts;
use crate::spans::Recorder;
use crate::{build_app, end_to_end, finish_traced, timed_setup, Args, Outcome, FAILED_MS};
use blockmaestro::{
    try_jit_analyze_app, try_run_analyzed, try_run_app, verify_soundness, ExecMode, GuardReport,
    RunReport,
};
use bm_cmdq::Application;
use bm_depgraph::HazardMode;
use bm_simt::GpuConfig;
use bm_workloads::Scale;
use std::collections::BTreeMap;
use std::time::Instant;

/// Apps in ascending request time, with their scale.
const APPS: [(&str, Scale); 4] = [
    ("HS", Scale::Small),
    ("FDTD-2D", Scale::Small),
    ("FFT", Scale::Full),
    ("PATH", Scale::Full),
];
const NAMES: [&str; 4] = [APPS[0].0, APPS[1].0, APPS[2].0, APPS[3].0];

/// Requests of each app per deck: HS and FDTD-2D hold ranks 0–30%, FFT
/// 30–75% (the median), PATH 75–100% (the p90 tail).
const WEIGHTS: [usize; 4] = [3, 3, 9, 5];

/// A deck takes about 2.9 s at the seed on a 2-vCPU host.
const DECKS_PER_SECOND: f64 = 0.35;

/// Set-up (building the apps) is a few ms; repeat it for a steady median.
const SETUP_REPS: usize = 51;

/// Share of each request's wall time its layer spans must cover.
pub(crate) const MIN_COVERAGE: f64 = 0.95;

fn build_apps() -> Result<Vec<Application>, String> {
    APPS.iter().map(|&(n, s)| build_app(n, s)).collect()
}

/// Runs `split` under a `request` span. Returns the assembled report
/// with its digest, and the request span's duration minus its `export`
/// span (the untraced side of a pair does not serialize), in ns.
pub(crate) fn traced_request(
    rec: &mut Recorder,
    c: &mut Counts,
    cfg: &GpuConfig,
    app: &Application,
    mode: ExecMode,
    id: u64,
) -> (Result<(RunReport, u64), String>, u64) {
    let root = rec.open("request", id, None);
    let res = split(rec, c, cfg, app, mode, id, root);
    rec.close(root);
    let export: u64 = rec.spans[root..]
        .iter()
        .filter(|s| s.parent == Some(root) && s.name == "export")
        .map(|s| s.dur())
        .sum();
    (res, rec.spans[root].dur() - export)
}

/// The pipeline `try_run_app` runs, split at its public layer boundaries
/// — `validate`, `try_jit_analyze_app`, `try_run_serialized`,
/// `try_run_analyzed`, `verify_soundness` — with each call in a span
/// under `root`, then exported (`to_json`) and digested.
fn split(
    rec: &mut Recorder,
    c: &mut Counts,
    cfg: &GpuConfig,
    app: &Application,
    mode: ExecMode,
    id: u64,
    root: usize,
) -> Result<(RunReport, u64), String> {
    let p = Some(root);
    rec.time("validate", id, p, || app.validate())
        .map_err(|e| e.to_string())?;
    let jit = rec
        .time("jit", id, p, || {
            try_jit_analyze_app(cfg, app, HazardMode::Raw)
        })
        .map_err(|e| e.to_string())?;
    let expected_fp = rec
        .time("guard.serial", id, p, || {
            app.try_run_serialized().map(|m| m.fingerprint())
        })
        .map_err(|e| e.to_string())?;
    let mut report = rec
        .time("des", id, p, || try_run_analyzed(cfg, app, &jit, mode))
        .map_err(|e| e.to_string())?;
    let outcome = rec
        .time("guard.replay", id, p, || {
            verify_soundness(app, &jit, &report.schedule, expected_fp)
        })
        .map_err(|e| e.to_string())?;
    if !outcome.is_sound() {
        return Err(format!(
            "request {id}: guard rejected round 0; the split pipeline does not model recovery"
        ));
    }
    // An accepted first round carries an all-zero guard report.
    report.guard = GuardReport::default();
    let d = rec.time("export", id, p, || digest(&report));
    c.des_tbs += report.schedule.len() as u64;
    c.cache_hits += report.cache_hits;
    c.cache_misses += report.cache_misses;
    c.guard_rounds
        .push(f64::from(report.guard.recovery_rounds) + 1.0);
    Ok((report, d))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = GpuConfig::titan_x_pascal();
    let checker = Checker::new(Golden::parse(include_str!("../golden/guarded.txt"))?);
    let (apps, setup_s) = timed_setup(SETUP_REPS, build_apps)?;
    let reqs = gen::guarded(
        args.seed,
        &WEIGHTS,
        gen::decks_for(args.seconds, DECKS_PER_SECOND),
    );
    let mut out = Outcome::default();
    if !args.trace {
        out.attempted = reqs.len() as u64;
        let mut lat = Vec::with_capacity(reqs.len());
        let (mut tbs, mut busy) = (0u64, 0.0f64);
        for r in &reqs {
            let t = Instant::now();
            let res = try_run_app(&cfg, &apps[r.app], r.mode);
            let s = t.elapsed().as_secs_f64();
            busy += s;
            match res {
                Ok(rep) if checker.check(&r.key(&NAMES), &rep) => {
                    tbs += rep.schedule.len() as u64;
                    lat.push(s * 1e3);
                }
                _ => {
                    out.failed += 1;
                    lat.push(FAILED_MS);
                }
            }
        }
        end_to_end(&mut out, lat, tbs, busy, setup_s)?;
        return Ok(out);
    }

    // Traced run: half the requests, each run untraced (`try_run_app`)
    // and traced (the split pipeline) in alternating order.
    let mut rec = Recorder::new();
    let mut c = Counts::default();
    let half = &reqs[..reqs.len() / 2];
    out.attempted = half.len() as u64;
    for (i, r) in half.iter().enumerate() {
        let app = &apps[r.app];
        let untraced = || {
            let t = Instant::now();
            let rep = try_run_app(&cfg, app, r.mode).map_err(|e| e.to_string());
            (rep, t.elapsed().as_nanos() as u64)
        };
        let (plain, traced) = if i % 2 == 0 {
            let u = untraced();
            (u, traced_request(&mut rec, &mut c, &cfg, app, r.mode, r.id))
        } else {
            let t = traced_request(&mut rec, &mut c, &cfg, app, r.mode, r.id);
            (untraced(), t)
        };
        pair_outcome(
            &mut out,
            &mut c,
            &checker,
            &r.key(&NAMES),
            r.id,
            plain,
            traced,
        );
    }
    finish_traced(args, &rec, &c, &mut out, MIN_COVERAGE);
    Ok(out)
}

/// One untraced run and one traced run of the same request, each with its
/// host time in ns: both must match the golden report, and each other.
pub(crate) fn pair_outcome(
    out: &mut Outcome,
    c: &mut Counts,
    checker: &Checker,
    key: &str,
    id: u64,
    plain: (Result<RunReport, String>, u64),
    traced: (Result<(RunReport, u64), String>, u64),
) {
    match (plain, traced) {
        ((Ok(rp), plain_ns), (Ok((rt, dt)), traced_ns)) => {
            c.untraced_ns += plain_ns;
            c.traced_ns += traced_ns;
            if !checker.check_digest(key, dt) || !checker.check(key, &rp) {
                out.failed += 1;
            }
            if rp != rt {
                out.check_failures
                    .push(format!("request {id}: traced and untraced reports differ"));
            }
        }
        ((Err(e), _), _) | (_, (Err(e), _)) => {
            out.failed += 1;
            out.notes.push(format!("request {id}: {e}"));
        }
    }
}

/// Digests of every (app, mode) class through `try_run_app`.
pub fn golden_entries() -> Result<BTreeMap<String, u64>, String> {
    try_run_app_digests(&build_apps()?, &NAMES)
}

/// `try_run_app` digests of `apps` under every mode in [`GUARD_MODES`].
pub(crate) fn try_run_app_digests(
    apps: &[Application],
    names: &[&str],
) -> Result<BTreeMap<String, u64>, String> {
    let cfg = GpuConfig::titan_x_pascal();
    let mut out = BTreeMap::new();
    for (app, name) in apps.iter().zip(names) {
        for mode in GUARD_MODES {
            let rep = try_run_app(&cfg, app, mode).map_err(|e| e.to_string())?;
            out.insert(gen::golden_key(name, mode, 1), digest(&rep));
        }
    }
    Ok(out)
}
