//! The ladder: one untraced and one traced verification of each preset
//! at several failure budgets (N0/N1/N2 at k=1..3, WAN at k=1) with the
//! figure harness's flow counts and Zipf draw. Not gated; it writes the
//! per-layer split of every rung to `ladder.json` in the benchmark
//! directory.

use crate::batch::{run_rep, traced_rep};
use crate::stats::peak_rss_mb;
use crate::trace::Tracer;
use crate::workloads::{spec, Kind, Workload};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use yu::gen::WanPreset;

const RUNGS: [(WanPreset, usize, u32); 10] = [
    (WanPreset::N0, 2_000, 1),
    (WanPreset::N0, 2_000, 2),
    (WanPreset::N0, 2_000, 3),
    (WanPreset::N1, 5_000, 1),
    (WanPreset::N1, 5_000, 2),
    (WanPreset::N1, 5_000, 3),
    (WanPreset::N2, 10_000, 1),
    (WanPreset::N2, 10_000, 2),
    (WanPreset::Wan, 20_000, 1),
    // Last: the largest rung, so a run that cannot finish it still
    // leaves every smaller rung written.
    (WanPreset::N2, 10_000, 3),
];

/// Layer spans in pipeline order.
const LAYERS: [&str; 9] = [
    "spec.parse",
    "spec.validate",
    "routing",
    "equivalence",
    "exec",
    "preflight",
    "parallel",
    "aggregate",
    "check",
];

pub fn run(dir: &Path) -> ExitCode {
    let path = dir.join("ladder.json");
    let mut rows = Vec::new();
    eprintln!(
        "{:<5} {:>2} {:>10} {:>10}  layer self times (s)",
        "net", "k", "verdict_s", "traced_s"
    );
    for (preset, flows, k) in RUNGS {
        let w = Workload {
            name: preset.name(),
            kind: Kind::Batch,
            preset,
            flows,
            k,
            requests: 0,
        };
        let spec = spec(&w, 0);
        let text = spec.to_json();
        let rep = run_rep(&text);
        let mut tr = Tracer::new();
        let traced = traced_rep(&text, &mut tr);
        let selfs = tr.self_times(traced.root);
        let mut split = String::new();
        let mut layers = Vec::new();
        for name in LAYERS {
            let s = selfs.get(name).copied().unwrap_or(0.0);
            let _ = write!(split, " {name} {s:.3}");
            layers.push(format!("\"{name}\": {s:.6}"));
        }
        let outside = selfs.get("verdict").copied().unwrap_or(0.0);
        layers.push(format!("\"outside_spans\": {outside:.6}"));
        eprintln!(
            "{:<5} {:>2} {:>10.3} {:>10.3} {split} outside {outside:.3}",
            preset.name(),
            k,
            rep.verdict_s,
            traced.verdict_s
        );
        rows.push(format!(
            "    {{\"net\": \"{}\", \"k\": {k}, \"flows\": {flows}, \"verdict_s\": {:.6}, \"setup_s\": {:.6}, \
             \"traced_verdict_s\": {:.6}, \"violations\": {}, \"groups\": {}, \"check_workers\": {}, \
             \"mtbdd_nodes_created\": {}, \"unique_peak\": {}, \"peak_rss_mb_so_far\": {:.1}, \
             \"self_s\": {{{}}}}}",
            preset.name(),
            rep.verdict_s,
            rep.setup_s,
            traced.verdict_s,
            rep.violations.len(),
            rep.groups,
            traced.check_workers,
            traced.mtbdd.nodes_created,
            traced.mtbdd.unique_table_peak,
            peak_rss_mb(),
            layers.join(", ")
        ));
        // Rewrite after every rung so finished rungs survive a later one
        // that runs out of memory.
        let text = format!(
            "{{\n  \"hardware_threads\": {},\n  \"rungs\": [\n{}\n  ]\n}}\n",
            crate::batch::nproc(),
            rows.join(",\n")
        );
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!("perfbench: ladder written to {}", path.display());
    ExitCode::SUCCESS
}
