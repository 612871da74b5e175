//! `sweep`: one DES run per request over apps analysed once in set-up —
//! eight modes × {1, 2, 4} devices. DES and the multi-device coordinator
//! do all the per-request work; the guard, the interpreter and the JIT do
//! none, so changes to those should leave this workload unchanged.
//!
//! NW is dealt twice per deck so the median sits inside the NW class
//! (ranks 40–80%) rather than on the gap between the sub-4 ms LUD and
//! GRAMSCHM runs and the 6 ms-and-up NW runs; the p99 tail falls inside
//! the 4-device GAUSSIAN runs.

use crate::gen::{self, SWEEP_DEVICES, SWEEP_MODES};
use crate::golden::{digest, Checker, Golden};
use crate::guarded::pair_outcome;
use crate::layers::Counts;
use crate::spans::Recorder;
use crate::{build_app, end_to_end, finish_traced, timed_setup, Args, Outcome, FAILED_MS};
use blockmaestro::{try_jit_analyze_app, try_run_analyzed, BmError, JitKernel, RunReport};
use bm_cmdq::Application;
use bm_depgraph::HazardMode;
use bm_multi::{try_run_analyzed_multi, MultiGpuConfig};
use bm_simt::GpuConfig;
use bm_workloads::Scale;
use std::collections::BTreeMap;
use std::time::Instant;

const NAMES: [&str; 4] = ["GAUSSIAN", "NW", "LUD", "GRAMSCHM"];
const WEIGHTS: [usize; 4] = [1, 2, 1, 1];

/// A deck (120 requests) takes about 1.5 s at the seed on a 2-vCPU host.
const DECKS_PER_SECOND: f64 = 0.65;

/// Set-up (build and analyse all four apps) takes about 3 s; three
/// repetitions give its median.
const SETUP_REPS: usize = 3;

struct Analysed {
    app: Application,
    jit: Vec<JitKernel>,
}

/// Runs `f`, inside a set-up span when recording.
fn span<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    root: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(r) => r.time(name, u64::MAX, root, f),
        None => f(),
    }
}

/// Builds and analyses every app, recording `build` and `jit` spans under
/// one `setup` span when a recorder is given.
fn setup(mut rec: Option<&mut Recorder>) -> Result<Vec<Analysed>, String> {
    let cfg = GpuConfig::titan_x_pascal();
    let root = rec.as_deref_mut().map(|r| r.open("setup", u64::MAX, None));
    let mut out = Vec::with_capacity(NAMES.len());
    for name in NAMES {
        let app = span(&mut rec, "build", root, || build_app(name, Scale::Full))?;
        let jit = span(&mut rec, "jit", root, || {
            try_jit_analyze_app(&cfg, &app, HazardMode::Raw).map_err(|e| e.to_string())
        })?;
        out.push(Analysed { app, jit });
    }
    if let (Some(r), Some(root)) = (rec, root) {
        r.close(root);
    }
    Ok(out)
}

fn des(
    cfg: &GpuConfig,
    a: &Analysed,
    mode: blockmaestro::ExecMode,
    devices: u32,
) -> Result<RunReport, BmError> {
    if devices == 1 {
        Ok(try_run_analyzed(cfg, &a.app, &a.jit, mode)?)
    } else {
        try_run_analyzed_multi(cfg, &MultiGpuConfig::devices(devices), &a.app, &a.jit, mode)
    }
}

/// One request under a `request` span, its DES call in a `des` or
/// `multi` span and its export in an `export` span. Returns the report
/// with its digest, and the request span's duration minus the export.
fn traced_request(
    rec: &mut Recorder,
    c: &mut Counts,
    cfg: &GpuConfig,
    a: &Analysed,
    r: &gen::Request,
) -> (Result<(RunReport, u64), String>, u64) {
    let root = rec.open("request", r.id, None);
    let layer = if r.devices == 1 { "des" } else { "multi" };
    let res = rec
        .time(layer, r.id, Some(root), || des(cfg, a, r.mode, r.devices))
        .map_err(|e| e.to_string());
    let (res, export) = match res {
        Ok(rep) => {
            let e = rec.open("export", r.id, Some(root));
            let d = digest(&rep);
            rec.close(e);
            c.cache_hits += rep.cache_hits;
            c.cache_misses += rep.cache_misses;
            match &rep.multi {
                Some(m) => {
                    c.multi_xfers.push(m.transfers as f64);
                    c.multi_cut.push(m.cut_fraction());
                }
                None => c.des_tbs += rep.schedule.len() as u64,
            }
            (Ok((rep, d)), rec.spans[e].dur())
        }
        Err(e) => (Err(e), 0),
    };
    rec.close(root);
    (res, rec.spans[root].dur() - export)
}

/// Requests of the traced run: one in [`TRACED_EVERY`], each run
/// untraced and traced.
const TRACED_EVERY: usize = 3;

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = GpuConfig::titan_x_pascal();
    let checker = Checker::new(Golden::parse(include_str!("../golden/sweep.txt"))?);
    let reqs = gen::sweep(
        args.seed,
        &WEIGHTS,
        gen::decks_for(args.seconds, DECKS_PER_SECOND),
    );
    let mut out = Outcome::default();
    if !args.trace {
        let (apps, setup_s) = timed_setup(SETUP_REPS, || setup(None))?;
        out.attempted = reqs.len() as u64;
        let mut lat = Vec::with_capacity(reqs.len());
        let (mut tbs, mut busy) = (0u64, 0.0f64);
        for r in &reqs {
            let t = Instant::now();
            let res = des(&cfg, &apps[r.app], r.mode, r.devices);
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

    // Traced run: set-up under spans, then every third request run
    // untraced and traced in alternating order.
    let mut rec = Recorder::new();
    let mut c = Counts::default();
    let mut apps = Vec::new();
    for _ in 0..SETUP_REPS {
        apps = setup(Some(&mut rec))?;
    }
    for (i, r) in reqs.iter().step_by(TRACED_EVERY).enumerate() {
        let a = &apps[r.app];
        let untraced = || {
            let t = Instant::now();
            let rep = des(&cfg, a, r.mode, r.devices).map_err(|e| e.to_string());
            (rep, t.elapsed().as_nanos() as u64)
        };
        let (plain, traced) = if i % 2 == 0 {
            let u = untraced();
            (u, traced_request(&mut rec, &mut c, &cfg, a, r))
        } else {
            let t = traced_request(&mut rec, &mut c, &cfg, a, r);
            (untraced(), t)
        };
        out.attempted += 1;
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
    // A sweep request is one DES call and its export, not a decomposed
    // pipeline: no coverage floor applies.
    finish_traced(args, &rec, &c, &mut out, 0.0);
    Ok(out)
}

/// Digests of every (app, mode, devices) class.
pub fn golden_entries() -> Result<BTreeMap<String, u64>, String> {
    let cfg = GpuConfig::titan_x_pascal();
    let apps = setup(None)?;
    let mut out = BTreeMap::new();
    for (a, analysed) in apps.iter().enumerate() {
        for mode in SWEEP_MODES {
            for devices in SWEEP_DEVICES {
                let rep = des(&cfg, analysed, mode, devices).map_err(|e| e.to_string())?;
                out.insert(gen::golden_key(NAMES[a], mode, devices), digest(&rep));
            }
        }
    }
    Ok(out)
}
