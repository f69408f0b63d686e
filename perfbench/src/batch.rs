//! Batch workloads: spec text in, `VerificationOutcome` out, the way
//! `yu verify` runs it.

use crate::stats::created_total;
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Instant;
use yu::analysis::{Preflight, PreflightConfig, ReqClass};
use yu::core::{check_requirement, global_groups_classified, Violation, YuOptions, YuVerifier};
use yu::net::{FailureMode, Flow};
use yu::spec::VerifySpec;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The options `yu verify` uses by default: sequential exec and
/// `--check-workers auto` capped at the hardware thread count.
pub fn options(k: u32, mode: FailureMode) -> YuOptions {
    YuOptions {
        k,
        mode,
        workers: 1,
        check_workers: nproc(),
        check_workers_auto: true,
        ..Default::default()
    }
}

/// Parses and lints a spec; a generated spec must never fail either.
pub fn parse(text: &str) -> VerifySpec {
    let spec = VerifySpec::from_json(black_box(text)).expect("generated spec parses");
    assert!(
        !spec.validate().iter().any(|d| d.is_error()),
        "generated spec lints clean"
    );
    spec
}

/// One verification's timings and deterministic counts.
pub struct Rep {
    /// Spec parse + lint + `YuVerifier::new`.
    pub setup_s: f64,
    /// Spec text to `VerificationOutcome`.
    pub verdict_s: f64,
    pub violations: Vec<Violation>,
    pub groups: usize,
    pub routing_nodes: usize,
    pub exec_nodes: usize,
    pub nodes_created: usize,
    /// Link-local equivalence classes and flow groups summed over the
    /// checked points (the outcome's per-point aggregation stats).
    pub classes: usize,
    pub point_flows: usize,
}

/// Runs one verification exactly as `yu verify` does.
pub fn run_rep(text: &str) -> Rep {
    let t0 = Instant::now();
    let VerifySpec {
        network,
        flows,
        tlp,
        k,
        mode,
    } = parse(text);
    let mut v = YuVerifier::new(network, options(k, mode));
    let setup_s = t0.elapsed().as_secs_f64();
    let routing_nodes = created_total(&v.mtbdd_stats());
    v.add_flows(&flows);
    let exec_nodes = created_total(&v.mtbdd_stats()) - routing_nodes;
    let out = black_box(v.verify(&tlp));
    let verdict_s = t0.elapsed().as_secs_f64();
    drop(v);
    Rep {
        setup_s,
        verdict_s,
        groups: out.stats.flow_groups,
        routing_nodes,
        exec_nodes,
        nodes_created: out.stats.mtbdd.nodes_created,
        classes: out.stats.per_point.values().map(|a| a.classes).sum(),
        point_flows: out.stats.per_point.values().map(|a| a.flows).sum(),
        violations: out.violations,
    }
}

/// What the traced pass measured, besides its spans.
pub struct Traced {
    pub root: usize,
    pub verdict_s: f64,
    pub violations: Vec<Violation>,
    pub flows: usize,
    pub groups: usize,
    pub reqs: usize,
    pub discharged: usize,
    pub check_workers: usize,
    pub routing_nodes: usize,
    pub exec_nodes: usize,
    pub aggregate_nodes: usize,
    pub check_nodes: usize,
    pub point_secs: Vec<f64>,
    pub mtbdd: yu::mtbdd::MtbddStats,
    pub live_nodes_end: usize,
}

/// The same verification driven layer by layer through the public API,
/// with a span around each call: `YuVerifier::new` (routing),
/// `global_groups_classified` (equivalence), `add_flows` (exec, given
/// the group representatives so it does not group again),
/// `Preflight::classify_req` (preflight), `auto_check_workers`
/// (parallel), then per kept requirement `load_mtbdd` (aggregate) and
/// `check_requirement` (check). The check stage runs sequentially, so
/// when the cost model picks more than one check worker the untraced
/// run shards it and the traced one does not.
pub fn traced_rep(text: &str, tr: &mut Tracer) -> Traced {
    let root = tr.begin("verdict");
    let spec = tr.time("spec.parse", || {
        VerifySpec::from_json(black_box(text)).expect("generated spec parses")
    });
    let lint = tr.time("spec.validate", || spec.validate());
    assert!(
        !lint.iter().any(|d| d.is_error()),
        "generated spec lints clean"
    );
    let VerifySpec {
        network,
        flows,
        tlp,
        k,
        mode,
    } = spec;
    let opts = options(k, mode);
    let mut v = tr.time("routing", || YuVerifier::new(network, opts));
    let routing_nodes = created_total(&v.mtbdd_stats());
    let reps: Vec<Flow> = tr.time("equivalence", || {
        global_groups_classified(v.network(), &flows)
            .into_iter()
            .map(|g| {
                let mut f = g.rep;
                f.volume = g.volume;
                f
            })
            .collect()
    });
    tr.time("exec", || v.add_flows(&reps));
    let exec_nodes = created_total(&v.mtbdd_stats()) - routing_nodes;

    let mut kept = Vec::with_capacity(tlp.reqs.len());
    let mut discharged = 0;
    if opts.static_prune && !tlp.reqs.is_empty() {
        let id = tr.begin("preflight");
        let cfg = PreflightConfig {
            k,
            mode,
            max_hops: opts.max_hops,
        };
        let mut pf = Preflight::new(v.network(), &reps, cfg);
        for (ix, req) in tlp.reqs.iter().enumerate() {
            match pf.classify_req(ix, req).class {
                ReqClass::ProvenSafe => discharged += 1,
                _ => kept.push(req.clone()),
            }
        }
        tr.end(id);
    } else {
        kept = tlp.reqs.clone();
    }
    let check_workers = tr.time("parallel", || {
        if kept.len() <= 1 || opts.check_workers <= 1 {
            1
        } else {
            v.auto_check_workers(&kept)
        }
    });

    let fv = v.failure_vars().clone();
    let mut violations = Vec::new();
    let mut point_secs = Vec::with_capacity(kept.len());
    let (mut aggregate_nodes, mut check_nodes) = (0, 0);
    for req in &kept {
        let n0 = created_total(&v.mtbdd_stats());
        let id = tr.begin("aggregate");
        let tau = v.load_mtbdd(req.point);
        point_secs.push(tr.end(id));
        let n1 = created_total(&v.mtbdd_stats());
        let found = tr.time("check", || {
            check_requirement(v.manager_mut(), &fv, tau, req, k)
        });
        check_nodes += created_total(&v.mtbdd_stats()) - n1;
        aggregate_nodes += n1 - n0;
        violations.extend(found);
    }
    let verdict_s = tr.end(root);
    Traced {
        root,
        verdict_s,
        violations,
        flows: flows.len(),
        groups: reps.len(),
        reqs: tlp.reqs.len(),
        discharged,
        check_workers,
        routing_nodes,
        exec_nodes,
        aggregate_nodes,
        check_nodes,
        point_secs,
        mtbdd: v.mtbdd_stats(),
        live_nodes_end: v.manager().live_nodes(),
    }
}
