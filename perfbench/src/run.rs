//! One benchmark run of one workload: measure, check, report.

use crate::batch::{run_rep, traced_rep, Rep, Traced};
use crate::oracle::{check_batch, verdict_digest, verdict_lines};
use crate::serve_loop::{run_pass, setup, Pass};
use crate::stats::{another_fits, hit_rate, mean, median, peak_rss_mb, quantile, Metrics};
use crate::trace::Tracer;
use crate::workloads::{serve_script, spec, Kind, ReqKind, Workload};
use std::collections::BTreeMap;
use std::time::Instant;
use yu::core::DeltaStats;
use yu::spec::VerifySpec;

/// Seeded ≤k-failure scenarios the batch oracle replays per run.
const ORACLE_SCENARIOS: usize = 6;
/// Share of serve requests compared against a scratch verification.
const SERVE_SAMPLE: f64 = 0.1;
/// Scratch verifications of the base spec timed after each serve pass.
/// With each pass's final-state check they are the serve workload's
/// `verdict_s` samples, spread over the whole run like the requests.
const SERVE_SCRATCH: usize = 3;
/// Timed serve passes per run at least. N1 has 44 backbone links and a
/// pass reroutes 30, so two passes reroute every one of them.
const SERVE_PASSES: usize = 2;
/// Requests of the short edit loop the traced batch pass runs to measure
/// the serve layers on the batch instance (one of each kind).
const BATCH_SERVE_REQUESTS: usize = 5;

/// Counts that must repeat exactly for a given workload and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub violations: usize,
    pub digest: String,
    pub groups: usize,
    pub routing_nodes: usize,
    pub exec_nodes: usize,
    pub nodes_created: usize,
}

/// The result of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    pub counts: Counts,
    pub notes: Vec<String>,
    /// The traced pass's spans (trace runs only).
    pub spans: Option<(Tracer, usize)>,
}

impl Outcome {
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// Runs workload `w` for `seconds`, untraced (end-to-end metrics) or
/// traced (per-layer metrics).
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let spec = spec(w, seed);
    match (w.kind, trace) {
        (Kind::Batch, false) => batch(&spec, seed, seconds),
        (Kind::Batch, true) => batch_traced(&spec, seed),
        (Kind::Serve, false) => serve(w, &spec, seed, seconds),
        (Kind::Serve, true) => serve_traced(w, &spec, seed),
    }
}

fn counts_of(spec: &VerifySpec, rep: &Rep) -> Counts {
    Counts {
        violations: rep.violations.len(),
        digest: verdict_digest(spec, &rep.violations),
        groups: rep.groups,
        routing_nodes: rep.routing_nodes,
        exec_nodes: rep.exec_nodes,
        nodes_created: rep.nodes_created,
    }
}

/// Requirements whose verdict line differs between two runs.
fn verdict_mismatches(
    spec: &VerifySpec,
    a: &[yu::core::Violation],
    b: &[yu::core::Violation],
) -> usize {
    let (la, lb) = (verdict_lines(spec, a), verdict_lines(spec, b));
    la.iter().zip(&lb).filter(|(x, y)| x != y).count()
}

/// The concrete-replay oracle over one batch outcome.
fn batch_oracle(spec: &VerifySpec, rep: &Rep, seed: u64, notes: &mut Vec<String>) -> usize {
    let report = check_batch(spec, &rep.violations, ORACLE_SCENARIOS, seed);
    notes.push(format!(
        "oracle: {} violation(s) and {} sampled scenario(s) replayed concretely, {} requirement(s) contradicted",
        rep.violations.len(),
        report.scenarios - rep.violations.len(),
        report.failed_reqs.len()
    ));
    notes.extend(report.notes);
    report.failed_reqs.len()
}

fn batch(spec: &VerifySpec, seed: u64, seconds: f64) -> Outcome {
    let text = spec.to_json();
    let t0 = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut verdicts: Vec<f64> = Vec::new();
    while reps.len() < 2 || another_fits(t0, seconds, &verdicts) {
        let rep = run_rep(&text);
        verdicts.push(rep.verdict_s);
        reps.push(rep);
    }
    let rss = peak_rss_mb();
    let mut notes = Vec::new();
    let counts = counts_of(spec, &reps[0]);
    let mut failed = batch_oracle(spec, &reps[0], seed, &mut notes);
    let mut correct = true;
    for (i, rep) in reps.iter().enumerate().skip(1) {
        failed += verdict_mismatches(spec, &reps[0].violations, &rep.violations);
        if counts_of(spec, rep) != counts {
            correct = false;
            notes.push(format!(
                "rep {i} counts {:?} differ from rep 0 {counts:?}",
                counts_of(spec, rep)
            ));
        }
    }
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut m = Metrics::default();
    m.push("verdict_s", mean(&verdicts), "s");
    m.push("setup_s", mean(&setups), "s");
    m.push("req_p50_ms", 1e3 * median(&verdicts), "ms");
    m.push("req_p95_ms", 1e3 * quantile(&verdicts, 0.95), "ms");
    m.push(
        "req_per_s",
        reps.len() as f64 / verdicts.iter().sum::<f64>(),
        "1/s",
    );
    m.push("peak_rss_mb", rss, "MB");
    let times: Vec<String> = verdicts.iter().map(|v| format!("{v:.3}")).collect();
    notes.push(format!(
        "{} verification(s) in the closed loop, {} s each",
        reps.len(),
        times.join(" / ")
    ));
    Outcome {
        correct: correct && failed == 0,
        attempted: reps.len() * spec.tlp.reqs.len(),
        failed,
        metrics: m,
        counts,
        notes,
        spans: None,
    }
}

/// p50 of the spans named `serve.<kind>` in milliseconds (0 when the
/// script has no request of that kind).
fn kind_p50_ms(tr: &Tracer, kind: ReqKind) -> f64 {
    let d = tr.durations(&format!("serve.{}", kind.name()));
    if d.is_empty() {
        0.0
    } else {
        1e3 * median(&d)
    }
}

/// Per-layer metrics of one traced verification plus one traced serve
/// pass, in the order `BENCHMARK.json` lists them.
fn layer_metrics(
    tr: &Tracer,
    t: &Traced,
    classes_per_flow: f64,
    deltas: &[DeltaStats],
    overhead: f64,
) -> Metrics {
    let selfs = tr.self_times(t.root);
    let s = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let frac = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut m = Metrics::default();
    m.push("routing.route_sim_s", s("routing"), "s");
    m.push("routing.nodes", t.routing_nodes as f64, "count");
    m.push("equivalence.group_s", s("equivalence"), "s");
    m.push(
        "equivalence.flows_per_group",
        frac(t.flows, t.groups),
        "ratio",
    );
    m.push("exec.s", s("exec"), "s");
    m.push("exec.nodes", t.exec_nodes as f64, "count");
    m.push("preflight.s", s("preflight"), "s");
    m.push(
        "preflight.discharge_frac",
        frac(t.discharged, t.reqs),
        "frac",
    );
    m.push("aggregate.s", s("aggregate"), "s");
    let (p50, max) = if t.point_secs.is_empty() {
        (0.0, 0.0)
    } else {
        (median(&t.point_secs), quantile(&t.point_secs, 1.0))
    };
    m.push("aggregate.point_p50_ms", 1e3 * p50, "ms");
    m.push("aggregate.point_max_ms", 1e3 * max, "ms");
    m.push("aggregate.classes_per_flow", classes_per_flow, "ratio");
    m.push("aggregate.nodes", t.aggregate_nodes as f64, "count");
    m.push("check.s", s("check"), "s");
    m.push("check.nodes", t.check_nodes as f64, "count");
    m.push("parallel.check_workers", t.check_workers as f64, "count");
    let st = &t.mtbdd;
    m.push("mtbdd.nodes_created", st.nodes_created as f64, "count");
    m.push("mtbdd.unique_peak", st.unique_table_peak as f64, "count");
    m.push("mtbdd.live_nodes_end", t.live_nodes_end as f64, "count");
    m.push(
        "mtbdd.fused_hit_rate",
        hit_rate(st.fused_cache_hits, st.fused_cache_misses),
        "frac",
    );
    m.push(
        "mtbdd.apply_hit_rate",
        hit_rate(st.apply_cache_hits, st.apply_cache_misses),
        "frac",
    );
    m.push(
        "mtbdd.kreduce_hit_rate",
        hit_rate(st.kreduce_cache_hits, st.kreduce_cache_misses),
        "frac",
    );
    m.push(
        "mtbdd.fused_evictions",
        st.fused_cache_evictions as f64,
        "count",
    );
    m.push(
        "mtbdd.apply_evictions",
        st.apply_cache_evictions as f64,
        "count",
    );
    m.push("mtbdd.gc_runs", st.gc_runs as f64, "count");
    m.push("mtbdd.gc_reclaimed", st.gc_reclaimed_nodes as f64, "count");
    m.push("serve.noop_ms", kind_p50_ms(tr, ReqKind::Noop), "ms");
    m.push("serve.volume_ms", kind_p50_ms(tr, ReqKind::Volume), "ms");
    m.push("serve.reroute_ms", kind_p50_ms(tr, ReqKind::Reroute), "ms");
    m.push("serve.restore_ms", kind_p50_ms(tr, ReqKind::Restore), "ms");
    let sum = |f: fn(&DeltaStats) -> usize| deltas.iter().map(f).sum::<usize>();
    let reused_groups = sum(|d| d.reused_groups);
    let reused_reqs = sum(|d| d.reused_reqs);
    m.push(
        "delta.reused_groups_frac",
        frac(reused_groups, reused_groups + sum(|d| d.recomputed_groups)),
        "frac",
    );
    m.push(
        "delta.reused_reqs_frac",
        frac(reused_reqs, reused_reqs + sum(|d| d.rechecked_reqs)),
        "frac",
    );
    m.push(
        "delta.dirty_points",
        sum(|d| d.dirty_points) as f64,
        "count",
    );
    m.push(
        "delta.full_rebuilds",
        sum(|d| usize::from(d.full_rebuild)) as f64,
        "count",
    );
    m.push("trace.overhead_frac", overhead, "frac");
    m
}

/// A note splitting the traced verdict into layer self times, with the
/// time outside every layer span.
fn split_note(tr: &Tracer, t: &Traced) -> String {
    let selfs: BTreeMap<String, f64> = tr.self_times(t.root);
    let parts: Vec<String> = selfs
        .iter()
        .map(|(k, v)| {
            let k = if k == "verdict" { "outside spans" } else { k };
            format!("{k} {v:.4}s")
        })
        .collect();
    format!("traced verdict {:.4}s = {}", t.verdict_s, parts.join(" + "))
}

fn batch_traced(spec: &VerifySpec, seed: u64) -> Outcome {
    let text = spec.to_json();
    let rep = run_rep(&text);
    let mut tr = Tracer::new();
    let traced = traced_rep(&text, &mut tr);
    let script = serve_script(spec, BATCH_SERVE_REQUESTS, seed, 0);
    let pass = run_pass(&text, &script, 0.0, false, seed, Some(&mut tr));
    let mut notes = vec![split_note(&tr, &traced)];
    let mut failed = batch_oracle(spec, &rep, seed, &mut notes);
    failed += verdict_mismatches(spec, &rep.violations, &traced.violations);
    failed += pass.refused;
    let classes_per_flow = rep.classes as f64 / rep.point_flows.max(1) as f64;
    let overhead = traced.verdict_s / rep.verdict_s - 1.0;
    let metrics = layer_metrics(&tr, &traced, classes_per_flow, &pass.deltas, overhead);
    Outcome {
        correct: failed == 0,
        attempted: 2 * spec.tlp.reqs.len() + script.len(),
        failed,
        metrics,
        counts: counts_of(spec, &rep),
        notes,
        spans: Some((tr, traced.root)),
    }
}

/// Refused requests and scratch disagreements of the serve passes.
fn serve_pass_checks(passes: &[Pass], notes: &mut Vec<String>) -> usize {
    let compared: usize = passes.iter().map(|p| p.compared).sum();
    let failed: usize = passes.iter().map(|p| p.refused + p.mismatched).sum();
    notes.push(format!(
        "oracle: {compared} state(s) compared with a scratch verification, {} mismatched, {} refused; final verdict digest {}",
        passes.iter().map(|p| p.mismatched).sum::<usize>(),
        passes.iter().map(|p| p.refused).sum::<usize>(),
        passes[0].final_digest
    ));
    failed
}

fn serve(w: &Workload, spec: &VerifySpec, seed: u64, seconds: f64) -> Outcome {
    let text = spec.to_json();
    let mut notes = Vec::new();
    let t0 = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut pass_secs: Vec<f64> = Vec::new();
    let mut scratch_s: Vec<f64> = Vec::new();
    while passes.len() < SERVE_PASSES || another_fits(t0, seconds, &pass_secs) {
        let script = serve_script(spec, w.requests, seed, passes.len());
        let p0 = Instant::now();
        passes.push(run_pass(&text, &script, 0.0, true, seed, None));
        setups.push(setup(&text).1);
        scratch_s.extend((0..SERVE_SCRATCH).map(|_| run_rep(&text).verdict_s));
        pass_secs.push(p0.elapsed().as_secs_f64());
    }
    setups.extend(passes.iter().map(|p| p.setup_s));
    scratch_s.extend(passes.iter().flat_map(|p| p.scratch_s.iter().copied()));
    let rss = peak_rss_mb();
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies.iter().map(|&(_, s)| s))
        .collect();
    // The sampled comparisons get a pass of their own, after the timed
    // ones, so their scratch verifications share neither the timed
    // requests' caches nor their memory peak. Its requests are the first
    // timed pass's.
    let timed = passes.len();
    let script = serve_script(spec, w.requests, seed, 0);
    passes.push(run_pass(&text, &script, SERVE_SAMPLE, true, seed, None));
    let oracle = &passes[timed];
    let mut failed = serve_pass_checks(&passes, &mut notes);
    if oracle.final_digest != passes[0].final_digest {
        failed += 1;
        notes.push("the oracle pass ended in other verdicts than the first timed pass".into());
    }
    // The deterministic counts of the serve workload are those of a
    // scratch verification of the base spec.
    let counts = counts_of(spec, &run_rep(&text));
    let mut m = Metrics::default();
    m.push("verdict_s", mean(&scratch_s), "s");
    m.push("setup_s", mean(&setups), "s");
    m.push("req_p50_ms", 1e3 * median(&lat), "ms");
    m.push("req_p95_ms", 1e3 * quantile(&lat, 0.95), "ms");
    m.push(
        "req_per_s",
        lat.len() as f64 / lat.iter().sum::<f64>(),
        "1/s",
    );
    m.push("peak_rss_mb", rss, "MB");
    let ms = |xs: &[f64]| -> String {
        let v: Vec<String> = xs.iter().map(|x| format!("{:.1}", 1e3 * x)).collect();
        v.join(" ")
    };
    notes.push(format!("scratch verdicts (ms): {}", ms(&scratch_s)));
    notes.push(format!("set-ups (ms): {}", ms(&setups)));
    notes.push(format!(
        "{} request(s) over {timed} timed pass(es); {} set-up(s); {} scratch verdict(s)",
        lat.len(),
        setups.len(),
        scratch_s.len()
    ));
    Outcome {
        correct: failed == 0,
        attempted: lat.len() + oracle.latencies.len(),
        failed,
        metrics: m,
        counts,
        notes,
        spans: None,
    }
}

fn serve_traced(w: &Workload, spec: &VerifySpec, seed: u64) -> Outcome {
    let text = spec.to_json();
    let script = serve_script(spec, w.requests, seed, 0);
    let mut notes = Vec::new();
    let rep = run_rep(&text);
    let counts = counts_of(spec, &rep);
    let mut tr = Tracer::new();
    let traced = traced_rep(&text, &mut tr);
    let pass = run_pass(&text, &script, SERVE_SAMPLE, true, seed, Some(&mut tr));
    notes.push(split_note(&tr, &traced));
    let mut failed = serve_pass_checks(std::slice::from_ref(&pass), &mut notes);
    if verdict_digest(spec, &traced.violations) != counts.digest {
        failed += 1;
        notes.push("traced verdicts differ from the untraced run".into());
    }
    let overhead = traced.verdict_s / rep.verdict_s - 1.0;
    let classes_per_flow = rep.classes as f64 / rep.point_flows.max(1) as f64;
    let metrics = layer_metrics(&tr, &traced, classes_per_flow, &pass.deltas, overhead);
    Outcome {
        correct: failed == 0,
        attempted: script.len() + 2,
        failed,
        metrics,
        counts,
        notes,
        spans: Some((tr, traced.root)),
    }
}
