//! Benchmark of the yu verifier: time to verdict on two batch workloads
//! and a serve edit loop, plus per-layer timings taken from outside the
//! program. See `perfbench/README.md` for the metrics and workloads.
//!
//! ```text
//! perfbench --workload <n2-k2|wan-k2-light|serve-n1> --seed N --seconds S --trace 0|1 [--record]
//! perfbench --smoke [--seed N]
//! perfbench --ladder
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; everything else goes to stderr.

mod batch;
mod ladder;
mod oracle;
mod run;
mod serve_loop;
mod stats;
mod trace;
mod workloads;

use run::{Counts, Outcome};
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// The benchmark package's directory: expected counts live there and
/// run artifacts go under its `out/`.
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    smoke: bool,
    ladder: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: false,
        smoke: false,
        ladder: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--record" => a.record = true,
            "--smoke" => a.smoke = true,
            "--ladder" => a.ladder = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("perfbench: {} hardware thread(s)", batch::nproc());
    if args.ladder {
        return ladder::run(&bench_dir());
    }
    if args.smoke {
        return smoke(args.seed);
    }
    let Some(w) = args.workload.as_deref().and_then(workloads::find) else {
        eprintln!("perfbench: --workload must be one of n2-k2, wan-k2-light, serve-n1");
        return ExitCode::from(2);
    };
    let mut out = run::run(&w, args.seed, args.seconds, args.trace);
    check_expected(&w, args.seed, &mut out);
    report(&w, args.seed, &out);
    if let Some((tr, root)) = &out.spans {
        write_spans(&w, args.seed, tr, *root);
    }
    if args.record {
        record_expected(&w, args.seed, &out.counts);
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}

fn report(w: &Workload, seed: u64, out: &Outcome) {
    for note in &out.notes {
        eprintln!("perfbench: {note}");
    }
    let c = &out.counts;
    eprintln!(
        "perfbench: {} seed {seed}: violations {} digest {} groups {} routing.nodes {} exec.nodes {} mtbdd.nodes_created {}",
        w.name, c.violations, c.digest, c.groups, c.routing_nodes, c.exec_nodes, c.nodes_created
    );
    for (name, value, unit) in &out.metrics.0 {
        eprintln!("perfbench: {:<28} {:>16.6} {unit}", name, value);
    }
    eprintln!(
        "perfbench: error_frac {} ({} failed / {} attempted), correct {}",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
        out.correct
    );
}

fn expected_path() -> PathBuf {
    bench_dir().join("expected.json")
}

fn read_expected() -> Value {
    std::fs::read_to_string(expected_path())
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok())
        .unwrap_or_else(|| Value::Map(serde::Map::new()))
}

fn counts_value(c: &Counts) -> Value {
    let mut m = serde::Map::new();
    m.insert("violations", Value::Int(c.violations as i128));
    m.insert("digest", Value::Str(c.digest.clone()));
    m.insert("groups", Value::Int(c.groups as i128));
    m.insert("routing_nodes", Value::Int(c.routing_nodes as i128));
    m.insert("exec_nodes", Value::Int(c.exec_nodes as i128));
    m.insert("nodes_created", Value::Int(c.nodes_created as i128));
    Value::Map(m)
}

/// Compares this run's counts with the ones recorded for the same
/// workload and seed. A different verdict digest or violation count
/// fails the run; other counts (node counts, groups) are expected to
/// move when a later change optimises a layer, so a difference there is
/// only reported.
fn check_expected(w: &Workload, seed: u64, out: &mut Outcome) {
    let expected = read_expected();
    let Some(rec) = expected
        .as_object()
        .and_then(|m| m.get(w.name))
        .and_then(Value::as_object)
        .and_then(|m| m.get(&seed.to_string()))
        .and_then(Value::as_object)
    else {
        out.notes
            .push(format!("no recorded counts for {} seed {seed}", w.name));
        return;
    };
    let now = counts_value(&out.counts);
    let now = now.as_object().expect("counts are a map");
    for (key, value) in rec.iter() {
        if now.get(key) == Some(value) {
            continue;
        }
        let gated = key == "digest" || key == "violations";
        out.notes.push(format!(
            "{} {key}: recorded {value}, now {}{}",
            if gated { "MISMATCH" } else { "note:" },
            now.get(key).map_or("missing".to_string(), Value::to_string),
            if gated { "" } else { " (not gated)" }
        ));
        if gated {
            out.correct = false;
        }
    }
}

fn record_expected(w: &Workload, seed: u64, counts: &Counts) {
    let mut expected = read_expected();
    let root = expected.as_object_mut().expect("expected counts are a map");
    let mut per_seed = match root.remove(w.name) {
        Some(Value::Map(m)) => m,
        _ => serde::Map::new(),
    };
    per_seed.insert(seed.to_string(), counts_value(counts));
    root.insert(w.name, Value::Map(per_seed));
    let text = serde_json::to_string_pretty(&expected).expect("counts serialize");
    std::fs::write(expected_path(), text + "\n").expect("write expected counts");
    eprintln!("perfbench: recorded counts for {} seed {seed}", w.name);
}

/// Writes the traced pass's spans and layer self times to
/// `out/<workload>-seed<N>.spans.json` in the benchmark directory.
fn write_spans(w: &Workload, seed: u64, tr: &trace::Tracer, root: usize) {
    let dir = bench_dir().join("out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return;
    }
    let selfs: Vec<String> = tr
        .self_times(root)
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:.9}"))
        .collect();
    let text = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"verdict_s\": {:.9}, \"self_s\": {{{}}}, \"spans\": {}}}\n",
        w.name,
        tr.span(root).secs(),
        selfs.join(", "),
        tr.to_json()
    );
    let path = dir.join(format!("{}-seed{seed}.spans.json", w.name));
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    v.as_object()
        .and_then(|m| m.get(key))
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .filter_map(|m| m.as_object()?.get("name")?.as_str().map(str::to_string))
        .collect()
}

/// Every workload's code path at smoke size, untraced and traced: each
/// run must print exactly the declared metrics and fail nothing.
fn smoke(seed: u64) -> ExitCode {
    let mut ok = true;
    for w in workloads::WORKLOADS {
        let w = w.smoke();
        for trace in [false, true] {
            let out = run::run(&w, seed, 0.0, trace);
            report(&w, seed, &out);
            let names: Vec<String> = out
                .metrics
                .0
                .iter()
                .map(|(n, _, _)| n.to_string())
                .collect();
            let want = declared(if trace { "per_layer" } else { "end_to_end" });
            let good = out.correct && out.failed == 0 && names == want;
            eprintln!(
                "perfbench: smoke {} trace {}: {}",
                w.name,
                u8::from(trace),
                if good { "ok" } else { "FAILED" }
            );
            if names != want {
                eprintln!("perfbench: printed {names:?}, declared {want:?}");
            }
            ok &= good;
        }
    }
    println!("{{\"smoke\": {ok}}}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
