//! Golden-report check.
//!
//! Every request's `RunReport::to_json()` text is hashed and compared with
//! the digest committed for its class (app, mode, devices), generated at
//! the commit that introduced the benchmark. Simulated results are
//! outputs, not performance: a change that moves a single simulated
//! counter fails the request.

use blockmaestro::RunReport;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a report: FNV-1a of its JSON text.
pub fn digest(report: &RunReport) -> u64 {
    fnv1a(report.to_json().to_string().as_bytes())
}

/// Committed digests by class key.
#[derive(Debug, Default)]
pub struct Golden(BTreeMap<String, u64>);

impl Golden {
    /// Parses `key hexdigest` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, hex) = line
                .split_once(' ')
                .ok_or_else(|| format!("golden line {}: expected `key digest`", n + 1))?;
            let d = u64::from_str_radix(hex.trim(), 16)
                .map_err(|e| format!("golden line {}: {e}", n + 1))?;
            map.insert(key.to_string(), d);
        }
        Ok(Golden(map))
    }

    /// Whether `digest` is the committed digest of class `key`. A class
    /// with no committed digest never matches.
    pub fn matches(&self, key: &str, digest: u64) -> bool {
        self.0.get(key) == Some(&digest)
    }

    /// Renders a table in the format [`Golden::parse`] reads.
    pub fn render(header: &str, entries: &BTreeMap<String, u64>) -> String {
        let mut out = format!("# {header}\n");
        for (k, d) in entries {
            out.push_str(&format!("{k} {d:016x}\n"));
        }
        out
    }
}

/// Checks reports against a [`Golden`] table. The first report of a class
/// is checked by digest; once it matches, it is kept, and later reports of
/// the class are compared with it field by field — as strict as the
/// digest (the JSON text is a function of the report) but without
/// serializing every large report.
pub struct Checker {
    golden: Golden,
    verified: Mutex<HashMap<String, RunReport>>,
}

impl Checker {
    /// A checker over `golden`.
    pub fn new(golden: Golden) -> Self {
        Checker {
            golden,
            verified: Mutex::new(HashMap::new()),
        }
    }

    /// Whether `digest` is the committed digest of class `key`.
    pub fn check_digest(&self, key: &str, digest: u64) -> bool {
        self.golden.matches(key, digest)
    }

    /// Whether `report` is the committed result of class `key`.
    pub fn check(&self, key: &str, report: &RunReport) -> bool {
        if let Some(v) = self
            .verified
            .lock()
            .expect("no checker thread panics while holding the lock")
            .get(key)
        {
            return v == report;
        }
        let ok = self.golden.matches(key, digest(report));
        if ok {
            self.verified
                .lock()
                .expect("no checker thread panics while holding the lock")
                .insert(key.to_string(), report.clone());
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockmaestro::{try_run_app, ExecMode};
    use bm_simt::GpuConfig;
    use bm_workloads::{suite, Scale};

    #[test]
    fn fnv_reference_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn perturbing_one_field_fails_the_check() {
        let app = (suite()
            .into_iter()
            .find(|b| b.name == "FFT")
            .expect("FFT is in the suite")
            .build)(Scale::Small);
        let report = try_run_app(&GpuConfig::small(), &app, ExecMode::Baseline).expect("runs");
        let mut entries = BTreeMap::new();
        entries.insert("FFT/Baseline/d1".to_string(), digest(&report));
        let golden = Golden::parse(&Golden::render("test", &entries)).expect("parses");
        assert!(golden.matches("FFT/Baseline/d1", digest(&report)));
        assert!(!golden.matches("FFT/Baseline/d2", digest(&report)));

        let mut cycles = report.clone();
        cycles.total_cycles += 1;
        assert!(!golden.matches("FFT/Baseline/d1", digest(&cycles)));
        let mut sched = report.clone();
        sched.schedule[0].2 += 1;
        assert!(!golden.matches("FFT/Baseline/d1", digest(&sched)));
        let mut hits = report.clone();
        hits.cache_hits += 1;
        assert!(!golden.matches("FFT/Baseline/d1", digest(&hits)));

        // The checker rejects the perturbed reports both before and after
        // the class has a verified report.
        let checker = Checker::new(golden);
        assert!(!checker.check("FFT/Baseline/d1", &cycles));
        assert!(checker.check("FFT/Baseline/d1", &report));
        assert!(checker.check("FFT/Baseline/d1", &report));
        for bad in [&cycles, &sched, &hits] {
            assert!(!checker.check("FFT/Baseline/d1", bad));
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Golden::parse("key-without-digest").is_err());
        assert!(Golden::parse("key zz").is_err());
        assert!(Golden::parse("# comment\n\nk 0a").unwrap().matches("k", 10));
    }
}
