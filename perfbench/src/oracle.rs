//! Correctness oracle that does not share the MTBDD path: every check
//! here re-simulates concrete failure scenarios with the enumerative
//! engine (`yu::baselines::jingubang::replay_scenario`). It runs outside
//! every timed region.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use yu::core::Violation;
use yu::mtbdd::Ratio;
use yu::net::{LoadPoint, Scenario, ULinkId, DEFAULT_MAX_HOPS};
use yu::spec::VerifySpec;

/// One line per requirement (point, bounds, and either "holds" or the
/// violating load and scenario), sorted.
pub fn verdict_lines(spec: &VerifySpec, violations: &[Violation]) -> Vec<String> {
    let by_point: HashMap<LoadPoint, &Violation> =
        violations.iter().map(|v| (v.point, v)).collect();
    let mut lines: Vec<String> = spec
        .tlp
        .reqs
        .iter()
        .map(|req| {
            let verdict = match by_point.get(&req.point) {
                Some(v) => format!("violated {} {:?}", v.load, v.scenario),
                None => "holds".to_string(),
            };
            format!("{:?} {:?} {:?} {verdict}", req.point, req.min, req.max)
        })
        .collect();
    lines.sort();
    lines
}

/// A 64-bit FNV-1a digest of [`verdict_lines`], as 16 hex digits.
pub fn verdict_digest(spec: &VerifySpec, violations: &[Violation]) -> String {
    fnv_hex(&verdict_lines(spec, violations).join("\n"))
}

/// 64-bit FNV-1a of `text`, as 16 hex digits.
pub fn fnv_hex(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// What the oracle found: requirement indices whose reported verdict a
/// concrete replay contradicts, and how many scenarios it replayed.
#[derive(Debug, Default)]
pub struct OracleReport {
    pub failed_reqs: BTreeSet<usize>,
    pub scenarios: usize,
    pub notes: Vec<String>,
}

/// Checks a batch outcome against concrete replays:
/// 1. every reported violation, replayed, must show exactly the reported
///    load, and that load must break the requirement's bound;
/// 2. in `samples` seeded scenarios of at most `k` link failures (the
///    no-failure scenario first), no requirement reported as holding may
///    break its bound.
pub fn check_batch(
    spec: &VerifySpec,
    violations: &[Violation],
    samples: usize,
    seed: u64,
) -> OracleReport {
    let mut report = OracleReport::default();
    let reqs = &spec.tlp.reqs;
    let replay = |s: &Scenario| {
        yu::baselines::jingubang::replay_scenario(&spec.network, &spec.flows, s, DEFAULT_MAX_HOPS)
    };
    let load_at = |loads: &HashMap<LoadPoint, Ratio>, p: LoadPoint| {
        loads.get(&p).cloned().unwrap_or(Ratio::ZERO)
    };
    for v in violations {
        let Some(ix) = reqs.iter().position(|r| r.point == v.point) else {
            report
                .notes
                .push(format!("violation at unknown point {:?}", v.point));
            continue;
        };
        let load = load_at(&replay(&v.scenario), v.point);
        report.scenarios += 1;
        if load != v.load || reqs[ix].satisfied_by(load.clone()) {
            report.failed_reqs.insert(ix);
            report.notes.push(format!(
                "violation at {:?} under {:?}: reported load {}, replayed {}",
                v.point, v.scenario, v.load, load
            ));
        }
    }
    let violated: BTreeSet<LoadPoint> = violations.iter().map(|v| v.point).collect();
    let ulinks = spec.network.topo.num_ulinks();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0AC1_E000_0000_0001);
    for s in 0..samples {
        let failures = if s == 0 {
            0
        } else {
            (spec.k as usize).min(ulinks)
        };
        let mut failed = BTreeSet::new();
        while failed.len() < failures {
            failed.insert(ULinkId(rng.random_range(0..ulinks as u32)));
        }
        let scenario = Scenario::links(failed);
        let loads = replay(&scenario);
        report.scenarios += 1;
        for (ix, req) in reqs.iter().enumerate() {
            if violated.contains(&req.point) {
                continue;
            }
            let load = load_at(&loads, req.point);
            if !req.satisfied_by(load.clone()) {
                report.failed_reqs.insert(ix);
                report.notes.push(format!(
                    "{:?} reported as holding but carries {} under {:?}",
                    req.point, load, scenario
                ));
            }
        }
    }
    report
}
