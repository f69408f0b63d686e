//! The serve workload: one client in a closed loop over a scripted
//! change-set sequence against a `ServeSession`.

use crate::batch::{options, parse};
use crate::oracle::fnv_hex;
use crate::trace::Tracer;
use crate::workloads::{ReqKind, ScriptedRequest};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Value;
use std::time::Instant;
use yu::core::{DeltaStats, YuVerifier};
use yu::serve::ServeSession;
use yu::spec::VerifySpec;

/// Spec parse + lint + `ServeSession::new` (which includes the first
/// full verification). Returns the session and the elapsed seconds.
pub fn setup(text: &str) -> (ServeSession, f64) {
    let t0 = Instant::now();
    let spec = parse(text);
    let session = ServeSession::new(&spec, options(spec.k, spec.mode));
    (session, t0.elapsed().as_secs_f64())
}

/// The session's current state as a spec.
pub fn current_spec(session: &ServeSession) -> VerifySpec {
    let inc = session.verifier();
    let opts = inc.verifier().options();
    VerifySpec {
        network: inc.network().clone(),
        flows: inc.flows().to_vec(),
        tlp: inc.tlp().clone(),
        k: opts.k,
        mode: opts.mode,
    }
}

/// A scratch verification of `spec` from its text, as `yu verify` runs
/// it: the serve oracle. Returns the violations in the JSON form a serve
/// response carries them, and the seconds from spec text to outcome.
pub fn scratch(spec: &VerifySpec) -> (Value, f64) {
    let text = spec.to_json();
    let t0 = Instant::now();
    let s = parse(&text);
    let mut v = YuVerifier::new(s.network, options(s.k, s.mode));
    v.add_flows(&s.flows);
    let out = v.verify(&s.tlp);
    let secs = t0.elapsed().as_secs_f64();
    let text = serde_json::to_string(&out.violations).expect("violations serialize");
    (serde_json::from_str(&text).expect("violations parse"), secs)
}

/// One pass over the script against a fresh session.
pub struct Pass {
    pub setup_s: f64,
    /// (kind, seconds) per request, in script order.
    pub latencies: Vec<(ReqKind, f64)>,
    pub deltas: Vec<DeltaStats>,
    pub refused: usize,
    /// Requests (plus the final state) compared against a scratch run.
    pub compared: usize,
    pub mismatched: usize,
    /// Seconds from spec text to outcome of each scratch verification.
    pub scratch_s: Vec<f64>,
    /// Digest of the verdicts the last response reported.
    pub final_digest: String,
}

impl Pass {
    /// Compares the violations a response reported for `state` with a
    /// scratch verification of it.
    fn compare(&mut self, state: &VerifySpec, reported: &Value, request: usize) {
        let (violations, secs) = scratch(state);
        self.compared += 1;
        self.scratch_s.push(secs);
        if &violations != reported {
            self.mismatched += 1;
            eprintln!("perfbench: state after request {request} differs from a scratch run");
        }
    }
}

/// Runs the script once. A seeded `sample` share of the requests, and
/// with `check_final` the final state, are compared with a scratch
/// `YuVerifier` run outside the timed region. With a tracer, each
/// request gets a span named `serve.<kind>` and the set-up one named
/// `serve.setup`.
pub fn run_pass(
    text: &str,
    script: &[ScriptedRequest],
    sample: f64,
    check_final: bool,
    seed: u64,
    mut tr: Option<&mut Tracer>,
) -> Pass {
    let span = tr.as_deref_mut().map(|t| t.begin("serve.setup"));
    let (mut session, setup_s) = setup(text);
    if let (Some(t), Some(id)) = (tr.as_deref_mut(), span) {
        t.end(id);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A3B_0000_0000_0001);
    let mut pass = Pass {
        setup_s,
        latencies: Vec::with_capacity(script.len()),
        deltas: Vec::with_capacity(script.len()),
        refused: 0,
        compared: 0,
        mismatched: 0,
        scratch_s: Vec::new(),
        final_digest: String::new(),
    };
    let mut last_violations = Value::Seq(Vec::new());
    for (i, req) in script.iter().enumerate() {
        let name = format!("serve.{}", req.kind.name());
        let span = tr.as_deref_mut().map(|t| t.begin(&name));
        let t0 = Instant::now();
        let resp = session.handle_line(&req.line);
        let secs = t0.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (tr.as_deref_mut(), span) {
            t.end(id);
        }
        pass.latencies.push((req.kind, secs));
        pass.deltas.push(session.verifier().delta_stats());
        let value: Value = serde_json::from_str(&resp).expect("responses are JSON");
        let map = value.as_object().expect("responses are objects");
        if map.get("ok") != Some(&Value::Bool(true)) {
            pass.refused += 1;
            eprintln!("perfbench: request {i} refused: {resp}");
            continue;
        }
        last_violations = map.get("violations").cloned().unwrap_or(Value::Null);
        if i + 1 < script.len() && sample > 0.0 && rng.random_bool(sample) {
            pass.compare(&current_spec(&session), &last_violations, i);
        }
    }
    if check_final {
        // Compare the final state once the session is gone, so the
        // scratch run does not add to the session's memory peak.
        let state = current_spec(&session);
        drop(session);
        pass.compare(&state, &last_violations, script.len().saturating_sub(1));
    }
    pass.final_digest = fnv_hex(&last_violations.to_string());
    pass
}
