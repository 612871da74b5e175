//! `serve`: an open loop at one fixed offered rate into
//! `bm_serve::RunService` (default configuration: two workers, a snapshot
//! at every kernel boundary, no pinned analysis parallelism), with the
//! generator on the main thread.
//!
//! The apps are small-scale and JIT-heavy, their fingerprints repeat, and
//! one request per deck carries a `kill_at_kernel` fault so retry and
//! resume from the last snapshot run. This is the only workload that
//! exercises queueing, concurrency, checkpoint encoding and retry.
//!
//! Every request is timed from when it was due, not from when it was
//! sent, so a stall also counts against the requests queued behind it.

use crate::gen;
use crate::golden::{Checker, Golden};
use crate::guarded::{pair_outcome, traced_request, try_run_app_digests, MIN_COVERAGE};
use crate::layers::Counts;
use crate::spans::Recorder;
use crate::{build_app, end_to_end, finish_traced, timed_setup, Args, Outcome, FAILED_MS};
use blockmaestro::{try_run_app, try_run_app_checkpointed, CheckpointPolicy, FaultPlan, MemStore};
use bm_cmdq::Application;
use bm_depgraph::HazardMode;
use bm_serve::{Pending, RunRequest, RunService, ServeConfig, WallClock};
use bm_simt::GpuConfig;
use bm_trace::TraceEvent;
use bm_workloads::Scale;
use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

const NAMES: [&str; 4] = ["GAUSSIAN", "GRAMSCHM", "LUD", "3MM"];

/// Five of each app per deck, one of the twenty killed.
const WEIGHTS: [usize; 4] = [5, 5, 5, 5];
const KILLS_PER_DECK: usize = 1;

/// Offered rate, requests per second. The two workers' capacity on a
/// 2-vCPU host is about twice this, so queues form but do not grow.
const RATE: f64 = 60.0;

/// Waiter threads collecting completions.
const WAITERS: usize = 16;

/// Build the apps (and nothing else); a fraction of a millisecond, so
/// repeat it for a steady median.
const SETUP_REPS: usize = 51;

/// One in this many requests of the traced run is also decomposed layer
/// by layer.
const DECOMPOSE_EVERY: usize = 3;

fn build_apps() -> Result<Vec<Application>, String> {
    NAMES.iter().map(|&n| build_app(n, Scale::Small)).collect()
}

/// One finished request as seen by the generator's waiter threads.
struct Done {
    idx: usize,
    latency_ms: f64,
    tbs: u64,
    ok: bool,
    attempts: u32,
}

/// Offers `reqs` at [`RATE`]; returns the finished requests and the time
/// from the first due instant to the last completion.
fn open_loop(
    cfg: &GpuConfig,
    apps: &[Application],
    reqs: &[gen::Request],
    checker: &Checker,
    c: &mut Counts,
) -> (Vec<Done>, f64, Vec<TraceEvent>) {
    let clock = WallClock::new();
    let scfg = ServeConfig {
        // Deep enough that admission never refuses at this rate: the
        // benchmark measures latency, not load shedding.
        queue_depth: 256,
        ..ServeConfig::default()
    };
    let svc = RunService::start(cfg.clone(), scfg, clock);
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let (job_tx, job_rx) = mpsc::channel::<(usize, Instant, String, Pending)>();
    let job_rx = Mutex::new(job_rx);
    std::thread::scope(|s| {
        // A fixed pool of waiters, started before the clock runs, records
        // each completion the moment it happens; far more waiters than
        // requests are ever in flight at this rate.
        for _ in 0..WAITERS {
            let done_tx = done_tx.clone();
            let job_rx = &job_rx;
            s.spawn(move || loop {
                let job = job_rx
                    .lock()
                    .expect("no waiter panics while holding the job queue")
                    .recv();
                let Ok((idx, due, key, pending)) = job else {
                    return;
                };
                let outcome = pending.wait();
                let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                let (ok, tbs) = match &outcome.result {
                    Ok(rep) if !outcome.shed => {
                        (checker.check(&key, rep), rep.schedule.len() as u64)
                    }
                    _ => (false, 0),
                };
                let _ = done_tx.send(Done {
                    idx,
                    latency_ms,
                    tbs,
                    ok,
                    attempts: outcome.attempts,
                });
            });
        }
        let t0 = Instant::now();
        for (idx, r) in reqs.iter().enumerate() {
            let due = t0 + interval * idx as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            c.gen_late_ms
                .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            let mut req = RunRequest::new(r.id, apps[r.app].clone());
            req.mode = r.mode;
            req.fault = FaultPlan {
                kill_at_kernel: r.kill_at,
                ..FaultPlan::default()
            };
            match svc.submit(req) {
                Ok(pending) => {
                    let _ = job_tx.send((idx, due, r.key(&NAMES), pending));
                }
                Err(_) => {
                    let _ = done_tx.send(Done {
                        idx,
                        latency_ms: FAILED_MS,
                        tbs: 0,
                        ok: false,
                        attempts: 0,
                    });
                }
            }
        }
        drop(job_tx);
    });
    drop(done_tx);
    let done: Vec<Done> = done_rx.into_iter().collect();
    let span_s = done
        .iter()
        .filter(|d| d.latency_ms.is_finite())
        .map(|d| (interval * d.idx as u32).as_secs_f64() + d.latency_ms / 1e3)
        .fold(0.0, f64::max);
    let events = svc.events();
    svc.shutdown();
    (done, span_s, events)
}

/// Admission-to-first-start and first-start-to-completion per request,
/// from the service's own events (millisecond ticks).
fn serve_waits(events: &[TraceEvent], c: &mut Counts) {
    let mut admit = BTreeMap::new();
    let mut start = BTreeMap::new();
    for ev in events {
        match ev {
            TraceEvent::ServeAdmit { tick, request, .. } => {
                admit.insert(*request, *tick);
            }
            TraceEvent::ServeStart { tick, request, .. } => {
                start.entry(*request).or_insert(*tick);
            }
            TraceEvent::ServeComplete { tick, request, .. } => {
                if let (Some(a), Some(s)) = (admit.get(request), start.get(request)) {
                    c.serve_queue_ms.push(s.saturating_sub(*a) as f64);
                    c.serve_run_ms.push(tick.saturating_sub(*s) as f64);
                }
            }
            _ => {}
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let cfg = GpuConfig::titan_x_pascal();
    let checker = Checker::new(Golden::parse(include_str!("../golden/serve.txt"))?);
    let (apps, setup_s) = timed_setup(SETUP_REPS, build_apps)?;
    let n_kernels: Vec<usize> = apps.iter().map(Application::num_kernels).collect();
    let decks = gen::decks_for(args.seconds, RATE / WEIGHTS.iter().sum::<usize>() as f64);
    let reqs = gen::serve(args.seed, &WEIGHTS, decks, KILLS_PER_DECK, &n_kernels);
    let mut out = Outcome::default();
    let mut c = Counts::default();
    if !args.trace {
        let (done, span_s, _) = open_loop(&cfg, &apps, &reqs, &checker, &mut c);
        out.attempted = reqs.len() as u64;
        let mut lat = Vec::with_capacity(done.len());
        let mut tbs = 0;
        for d in &done {
            if d.ok {
                tbs += d.tbs;
                lat.push(d.latency_ms);
            } else {
                out.failed += 1;
                lat.push(FAILED_MS);
            }
        }
        out.notes.push(format!(
            "offered {RATE} req/s; generator late by {:.3} ms on average",
            c.gen_late_ms.iter().sum::<f64>() / c.gen_late_ms.len().max(1) as f64
        ));
        end_to_end(&mut out, lat, tbs, span_s, setup_s)?;
        return Ok(out);
    }

    // Traced run, part 1: the open loop over half the requests, read
    // through the service's events.
    let half = &reqs[..reqs.len() / 2];
    let (done, _, events) = open_loop(&cfg, &apps, half, &checker, &mut c);
    out.attempted = half.len() as u64;
    for d in &done {
        c.serve_attempts.push(f64::from(d.attempts));
        if !d.ok {
            out.failed += 1;
        }
    }
    serve_waits(&events, &mut c);

    // Part 2: every third request again in the main thread — plain
    // `try_run_app`, the pipeline split under spans, and the run
    // checkpointed at every kernel boundary into a `MemStore` — in
    // rotating order.
    let mut rec = Recorder::new();
    for (i, r) in half.iter().step_by(DECOMPOSE_EVERY).enumerate() {
        let app = &apps[r.app];
        let key = r.key(&NAMES);
        let mut plain = None;
        let mut traced = None;
        let mut ckpt = None;
        for step in 0..3 {
            match (step + i) % 3 {
                0 => {
                    let t = Instant::now();
                    let rep = try_run_app(&cfg, app, r.mode).map_err(|e| e.to_string());
                    plain = Some((rep, t.elapsed().as_nanos() as u64));
                }
                1 => traced = Some(traced_request(&mut rec, &mut c, &cfg, app, r.mode, r.id)),
                _ => {
                    let mut store = MemStore::default();
                    let t = Instant::now();
                    let rep = try_run_app_checkpointed(
                        &cfg,
                        app,
                        r.mode,
                        HazardMode::Raw,
                        &FaultPlan::default(),
                        CheckpointPolicy::every_kernels(1),
                        &mut store,
                        false,
                    );
                    let ns = t.elapsed().as_nanos() as u64;
                    let kib = store.snaps.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
                    ckpt = Some((rep, ns, kib));
                }
            }
        }
        let (plain, traced, ckpt) = (
            plain.expect("step 0 ran"),
            traced.expect("step 1 ran"),
            ckpt.expect("step 2 ran"),
        );
        let plain_ns = plain.1;
        match ckpt {
            (Ok(rep), ns, kib) if checker.check(&key, &rep) => {
                c.checkpoint_ms.push((ns as f64 - plain_ns as f64) / 1e6);
                c.checkpoint_kib.push(kib);
            }
            _ => out.check_failures.push(format!(
                "request {}: the checkpointed run failed or disagrees with the golden report",
                r.id
            )),
        }
        pair_outcome(&mut out, &mut c, &checker, &key, r.id, plain, traced);
    }
    finish_traced(args, &rec, &c, &mut out, MIN_COVERAGE);
    Ok(out)
}

/// Digests of every (app, mode) class through `try_run_app`; the service
/// must return the same reports.
pub fn golden_entries() -> Result<BTreeMap<String, u64>, String> {
    try_run_app_digests(&build_apps()?, &NAMES)
}
