//! Seeded request generation.
//!
//! Each workload is a fixed multiset of request classes (a "deck") dealt
//! a fixed number of times; the seed shuffles every deck and draws the
//! per-request choices (execution mode, kill point). The class counts are
//! therefore identical for every seed — the latency percentiles land on
//! the same class whatever the seed — while the request list itself
//! differs from seed to seed.

use blockmaestro::ExecMode;

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `decks` shuffled copies of `deck`, concatenated.
pub fn deal(rng: &mut Rng, deck: &[usize], decks: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(deck.len() * decks);
    for _ in 0..decks {
        let mut d = deck.to_vec();
        rng.shuffle(&mut d);
        out.extend(d);
    }
    out
}

/// A deck holding `weights[c]` copies of class `c`.
pub fn deck(weights: &[usize]) -> Vec<usize> {
    weights
        .iter()
        .enumerate()
        .flat_map(|(c, &w)| std::iter::repeat_n(c, w))
        .collect()
}

/// Decks needed so a run lasts about `seconds` at `decks_per_second`
/// (a constant per workload, so the work done depends on `--seconds`
/// only, never on how fast this host happens to be).
pub fn decks_for(seconds: u64, decks_per_second: f64) -> usize {
    ((seconds as f64 * decks_per_second).round() as usize).max(1)
}

/// Modes the guarded and serve workloads draw from: every pre-launching
/// mode at windows 2–4, plus the baseline.
pub const GUARD_MODES: [ExecMode; 10] = [
    ExecMode::Baseline,
    ExecMode::PreLaunch { window: 2 },
    ExecMode::PreLaunch { window: 3 },
    ExecMode::PreLaunch { window: 4 },
    ExecMode::ProducerPriority { window: 2 },
    ExecMode::ProducerPriority { window: 3 },
    ExecMode::ProducerPriority { window: 4 },
    ExecMode::ConsumerPriority { window: 2 },
    ExecMode::ConsumerPriority { window: 3 },
    ExecMode::ConsumerPriority { window: 4 },
];

/// The sweep's eight modes.
pub const SWEEP_MODES: [ExecMode; 8] = [
    ExecMode::Baseline,
    ExecMode::IdealBaseline,
    ExecMode::GraphLaunch,
    ExecMode::PreLaunch { window: 2 },
    ExecMode::ProducerPriority { window: 2 },
    ExecMode::ConsumerPriority { window: 2 },
    ExecMode::ConsumerPriority { window: 3 },
    ExecMode::ConsumerPriority { window: 4 },
];

/// The sweep's device counts.
pub const SWEEP_DEVICES: [u32; 3] = [1, 2, 4];

/// One generated request. `app` indexes the workload's app table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Position in the request list.
    pub id: u64,
    /// Application index.
    pub app: usize,
    /// Execution mode.
    pub mode: ExecMode,
    /// Simulated devices.
    pub devices: u32,
    /// Kill the first attempt at this kernel boundary (serve only).
    pub kill_at: Option<u32>,
}

impl Request {
    /// Golden-table key: everything that determines the report. The kill
    /// point is absent on purpose — a resumed run must report exactly what
    /// an uninterrupted one does.
    pub fn key(&self, app_names: &[&str]) -> String {
        golden_key(app_names[self.app], self.mode, self.devices)
    }
}

/// Golden-table key of one request class.
pub fn golden_key(app: &str, mode: ExecMode, devices: u32) -> String {
    format!("{app}/{mode:?}/d{devices}").replace(' ', "")
}

/// Closed-loop guarded requests: the app classes are dealt from
/// `weights`, the mode drawn uniformly from [`GUARD_MODES`].
pub fn guarded(seed: u64, weights: &[usize], decks: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    deal(&mut rng, &deck(weights), decks)
        .into_iter()
        .enumerate()
        .map(|(i, app)| Request {
            id: i as u64,
            app,
            mode: GUARD_MODES[rng.below(GUARD_MODES.len() as u64) as usize],
            devices: 1,
            kill_at: None,
        })
        .collect()
}

/// Sweep requests: every (app, mode, devices) class `weights[app]` times
/// per deck.
pub fn sweep(seed: u64, weights: &[usize], decks: usize) -> Vec<Request> {
    let per_app = SWEEP_MODES.len() * SWEEP_DEVICES.len();
    let class_weights: Vec<usize> = weights
        .iter()
        .flat_map(|&w| std::iter::repeat_n(w, per_app))
        .collect();
    let mut rng = Rng::new(seed);
    deal(&mut rng, &deck(&class_weights), decks)
        .into_iter()
        .enumerate()
        .map(|(i, class)| {
            let within = class % per_app;
            Request {
                id: i as u64,
                app: class / per_app,
                mode: SWEEP_MODES[within / SWEEP_DEVICES.len()],
                devices: SWEEP_DEVICES[within % SWEEP_DEVICES.len()],
                kill_at: None,
            }
        })
        .collect()
}

/// Open-loop serve requests: apps dealt from `weights`, modes uniform,
/// and exactly `kills_per_deck` requests of every deck carry a kill
/// point at a seeded interior kernel boundary (`n_kernels[app]` kernels).
pub fn serve(
    seed: u64,
    weights: &[usize],
    decks: usize,
    kills_per_deck: usize,
    n_kernels: &[usize],
) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let d = deck(weights);
    let mut out = Vec::with_capacity(d.len() * decks);
    for _ in 0..decks {
        let mut apps = d.clone();
        rng.shuffle(&mut apps);
        let mut killed: Vec<bool> = (0..apps.len()).map(|i| i < kills_per_deck).collect();
        rng.shuffle(&mut killed);
        for (app, kill) in apps.into_iter().zip(killed) {
            let mode = GUARD_MODES[rng.below(GUARD_MODES.len() as u64) as usize];
            let k = n_kernels[app] as u64;
            let kill_at = (kill && k > 1).then(|| 1 + rng.below(k - 1) as u32);
            out.push(Request {
                id: out.len() as u64,
                app,
                mode,
                devices: 1,
                kill_at,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_list_other_seed_other_list() {
        let w = [3, 3, 9, 5];
        assert_eq!(guarded(7, &w, 4), guarded(7, &w, 4));
        assert_ne!(guarded(7, &w, 4), guarded(8, &w, 4));
        assert_eq!(sweep(1, &[1, 2, 1, 1], 2), sweep(1, &[1, 2, 1, 1], 2));
        assert_ne!(sweep(1, &[1, 2, 1, 1], 2), sweep(2, &[1, 2, 1, 1], 2));
        let k = [30, 40, 20, 3];
        assert_eq!(serve(5, &[5; 4], 3, 1, &k), serve(5, &[5; 4], 3, 1, &k));
        assert_ne!(serve(5, &[5; 4], 3, 1, &k), serve(6, &[5; 4], 3, 1, &k));
    }

    #[test]
    fn class_counts_do_not_depend_on_the_seed() {
        let w = [3, 3, 9, 5];
        for seed in 0..20 {
            let reqs = guarded(seed, &w, 7);
            assert_eq!(reqs.len(), 140);
            for (app, &wt) in w.iter().enumerate() {
                assert_eq!(reqs.iter().filter(|r| r.app == app).count(), wt * 7);
            }
        }
        let reqs = sweep(3, &[1, 2, 1, 1], 2);
        assert_eq!(reqs.len(), 2 * 5 * 24);
        let nw_d4 = reqs
            .iter()
            .filter(|r| r.app == 1 && r.devices == 4 && r.mode == SWEEP_MODES[7])
            .count();
        assert_eq!(nw_d4, 4);
    }

    #[test]
    fn kills_are_seeded_interior_boundaries() {
        let k = [30, 40, 20, 3];
        let reqs = serve(11, &[5; 4], 6, 1, &k);
        assert_eq!(reqs.iter().filter(|r| r.kill_at.is_some()).count(), 6);
        for r in &reqs {
            if let Some(at) = r.kill_at {
                assert!(at >= 1 && (at as usize) < k[r.app]);
            }
        }
    }

    #[test]
    fn keys_name_the_class_not_the_request() {
        let r = Request {
            id: 9,
            app: 1,
            mode: ExecMode::ConsumerPriority { window: 3 },
            devices: 2,
            kill_at: Some(4),
        };
        assert_eq!(r.key(&["A", "B"]), "B/ConsumerPriority{window:3}/d2");
    }
}
