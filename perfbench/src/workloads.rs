//! Workload definitions: the generated spec of each workload and the
//! serve workload's request script, both pure functions of the seed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use yu::gen::{wan, WanPreset};
use yu::mtbdd::Ratio;
use yu::net::{Change, FailureMode, RouterId, Tlp};
use yu::spec::VerifySpec;

/// How a workload drives the verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One client verifying whole specs back to back (`yu verify`).
    Batch,
    /// One client sending change-sets to a serve session (`yu serve`).
    Serve,
}

/// One named workload at one size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub preset: WanPreset,
    pub flows: usize,
    pub k: u32,
    /// Requests per serve pass (0 for batch workloads).
    pub requests: usize,
}

/// The benchmark's workloads at full size.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "n2-k2",
        kind: Kind::Batch,
        preset: WanPreset::N2,
        flows: 10_000,
        k: 2,
        requests: 0,
    },
    // Runnable by name but not listed in `BENCHMARK.json`: one
    // verification takes about 14 s, too few per run to be steady.
    Workload {
        name: "wan-k2-light",
        kind: Kind::Batch,
        preset: WanPreset::Wan,
        flows: 500,
        k: 2,
        requests: 0,
    },
    Workload {
        name: "serve-n1",
        kind: Kind::Serve,
        preset: WanPreset::N1,
        flows: 5_000,
        k: 1,
        requests: 200,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same workload shrunk to smoke size: the N0 preset, a few
    /// hundred flows and a short serve script, through the same code.
    pub fn smoke(self) -> Workload {
        Workload {
            preset: WanPreset::N0,
            flows: 300,
            requests: if self.requests > 0 { 20 } else { 0 },
            ..self
        }
    }
}

/// The Zipf flow draw for `seed`: seed 0 is the figure harness's draw
/// (`0xF10F`), other seeds are independent draws of the same size.
pub fn flow_seed(seed: u64) -> u64 {
    0xF10F_u64.wrapping_add(seed.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The spec of workload `w` for `seed`: preset network, the first
/// `w.flows` flows of the seeded Zipf draw, and the 95% no-overload TLP.
pub fn spec(w: &Workload, seed: u64) -> VerifySpec {
    let gen = wan(w.preset.params());
    let flows = gen.flows(w.flows, flow_seed(seed));
    VerifySpec {
        tlp: Tlp::no_overload(&gen.net.topo, Ratio::new(95, 100)),
        network: gen.net,
        flows,
        k: w.k,
        mode: FailureMode::Links,
    }
}

/// The kind of one scripted serve request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Empty change-set: every verdict comes from the caches.
    Noop,
    /// One flow's volume changes.
    Volume,
    /// One backbone link's IGP cost goes up.
    Reroute,
    /// That link's cost goes back to its original value.
    Restore,
}

impl ReqKind {
    pub fn name(self) -> &'static str {
        match self {
            ReqKind::Noop => "noop",
            ReqKind::Volume => "volume",
            ReqKind::Reroute => "reroute",
            ReqKind::Restore => "restore",
        }
    }
}

/// The order of request kinds in every block of 20: 8 no-ops, 6 volume
/// edits, 3 reroutes and 3 restores (40/30/15/15), each reroute undone
/// by the next restore, so at most one link is perturbed at a time.
const BLOCK: [ReqKind; 20] = {
    use ReqKind::*;
    [
        Reroute, Noop, Volume, Noop, Restore, Volume, Noop, Reroute, Noop, Volume, Noop, Restore,
        Volume, Reroute, Noop, Volume, Noop, Restore, Volume, Noop,
    ]
};

/// One scripted request: its kind and its JSON line.
pub struct ScriptedRequest {
    pub kind: ReqKind,
    pub line: String,
}

/// The serve script for `seed`, pass `pass`: `n` requests in blocks of
/// [`BLOCK`]. The seed fixes an order of the backbone links; reroutes walk
/// that order, continuing across passes, so consecutive passes together
/// reroute every backbone link before any repeats. The seed and pass
/// pick which flows get which new volume.
pub fn serve_script(spec: &VerifySpec, n: usize, seed: u64, pass: usize) -> Vec<ScriptedRequest> {
    let topo = &spec.network.topo;
    // Backbone links (both ends in the same AS) as (from, to, parallel
    // index, cost); the index counts earlier links between the same two
    // routers, which is how `SetLinkCost` tells parallel links apart.
    let mut seen: HashMap<(RouterId, RouterId), usize> = HashMap::new();
    let mut backbone: Vec<(String, String, usize, u64)> = topo
        .ulinks()
        .filter_map(|u| {
            let lk = topo.link(topo.directions(u).0);
            let pair = (lk.from.min(lk.to), lk.from.max(lk.to));
            let index = *seen.entry(pair).and_modify(|c| *c += 1).or_insert(0);
            (topo.router(lk.from).asn == topo.router(lk.to).asn).then(|| {
                (
                    topo.router(lk.from).name.clone(),
                    topo.router(lk.to).name.clone(),
                    index,
                    lk.igp_cost,
                )
            })
        })
        .collect();
    assert!(!backbone.is_empty(), "the preset has backbone links");
    let mut order_rng = StdRng::seed_from_u64(seed ^ 0x5E4E_0000_0000_0001);
    for i in (1..backbone.len()).rev() {
        backbone.swap(i, order_rng.random_range(0..=i));
    }
    let reroutes_per_pass = (0..n)
        .filter(|i| BLOCK[i % BLOCK.len()] == ReqKind::Reroute)
        .count();
    let mut next_link = pass * reroutes_per_pass;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E_0000_0000_0002 ^ ((pass as u64) << 32));
    let mut perturbed: Option<&(String, String, usize, u64)> = None;
    (0..n)
        .map(|i| {
            let kind = BLOCK[i % BLOCK.len()];
            let changes = match kind {
                ReqKind::Noop => Vec::new(),
                ReqKind::Volume => vec![Change::SetFlowVolume {
                    flow: rng.random_range(0..spec.flows.len()),
                    volume: Ratio::new(rng.random_range(1..=80i128), 100),
                }],
                ReqKind::Reroute => {
                    let link = &backbone[next_link % backbone.len()];
                    next_link += 1;
                    perturbed = Some(link);
                    let (from, to, index, cost) = link;
                    vec![Change::SetLinkCost {
                        from: from.clone(),
                        to: to.clone(),
                        index: *index,
                        cost: cost * 7 + 100,
                    }]
                }
                ReqKind::Restore => {
                    let (from, to, index, cost) =
                        perturbed.take().expect("every restore follows a reroute");
                    vec![Change::SetLinkCost {
                        from: from.clone(),
                        to: to.clone(),
                        index: *index,
                        cost: *cost,
                    }]
                }
            };
            let changes = serde_json::to_string(&changes).expect("changes serialize");
            ScriptedRequest {
                kind,
                line: format!("{{\"id\":{i},\"changes\":{changes}}}"),
            }
        })
        .collect()
}
