//! Sharded parallel symbolic execution and property checking.
//!
//! Two stages of the pipeline are embarrassingly parallel and share the
//! worker-pool plumbing here:
//!
//! * **Execution** (§5): every flow group's symbolic traffic function is
//!   built independently before loads are summed per link, so flow groups
//!   are dealt round-robin across a pool of OS threads
//!   ([`execute_sharded`]).
//! * **Checking** (§4.5/§5.3): every requirement's load point is
//!   aggregated and scanned independently, so requirements are dealt the
//!   same way (`check_sharded`, driven by the verifier's check stage).
//!
//! In both stages **each worker owns a private [`Mtbdd`] arena** — no
//! locks, no contended unique tables, no sharing of apply caches. An
//! execution worker allocates its own failure variables (deterministically
//! identical to the main arena's, because [`FailureVars::allocate`] is a
//! pure function of topology and mode), recomputes the guarded routing
//! state locally, executes its share of the flows with per-worker
//! `KREDUCE`, and hands back its arena plus per-flow STFs; the caller
//! imports the results into the main arena with
//! [`yu_mtbdd::Mtbdd::import`] in *flow order*, so the merged state is
//! independent of thread scheduling.
//!
//! A check worker goes the other way: the main arena is **frozen** once
//! ([`yu_mtbdd::Mtbdd::freeze`]) and every worker opens a zero-copy
//! overlay on it ([`Mtbdd::with_base`]). Main-arena handles stay valid
//! inside the overlay, so workers fold the link-local class
//! representatives the main thread computed *directly* — no per-worker
//! import, no memo tables, no duplicated diagrams — and allocate only
//! their private result nodes while aggregating with the fused n-ary
//! `Σ∘KREDUCE` kernel and scanning terminals locally. Because
//! hash-consed MTBDDs with a fixed variable order are canonical and
//! `KREDUCE` is canonicalizing, the reduced diagram a worker scans
//! denotes exactly the function the sequential checker builds, so the
//! returned [`crate::Violation`]s are **bit-identical** to a sequential
//! run — independent of worker count and scheduling.
//!
//! Per-worker `KREDUCE` before any merge is sound in both stages:
//! k-failure equivalence is a congruence under pointwise `+`, `min`, and
//! `max` (Lemma 2 / Theorem 5.1 of the paper), and `KREDUCE` is
//! canonicalizing for `≈ₖ`, so reducing early and reducing late yield the
//! same final diagrams.

use crate::attribution::{flow_label, EntityCost};
use crate::check::CheckUnit;
use crate::equivalence::FlowGroup;
use crate::exec::{simulate_flow, simulate_flow_traced, ExecOptions, FlowStf};
use crate::trace::RouteTrace;
use std::time::Instant;
use yu_mtbdd::{Mtbdd, MtbddStats};
use yu_net::{FailureMode, FailureVars, Network};
use yu_routing::SymbolicRoutes;

/// Runs `job(w)` for `w in 0..workers` on scoped OS threads, each with
/// its own telemetry track (named by `track`) and a `span_name` stage
/// span, flushing the thread-local telemetry buffer before joining.
///
/// # Panics
/// Propagates panics from worker threads (including audit failures when
/// `YU_AUDIT=1`).
fn run_worker_pool<T: Send>(
    workers: usize,
    track: impl Fn(usize) -> String + Sync,
    span_name: &'static str,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (track, job) = (&track, &job);
                scope.spawn(move || {
                    // Each worker records into its own thread-local
                    // telemetry buffer (its own trace track); the flush
                    // before returning makes the buffer visible to the
                    // main thread's snapshot without any contention
                    // during execution.
                    yu_telemetry::set_thread_track(track(w));
                    let out = {
                        let _stage = yu_telemetry::span(span_name);
                        job(w)
                    };
                    yu_telemetry::flush_thread();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// The result of one execution worker: its private arena and the symbolic
/// traffic functions it produced, tagged with the global flow-group index.
pub struct Shard {
    /// The worker's private arena. All [`FlowStf`] handles in
    /// [`Shard::stfs`] live here until imported.
    pub arena: Mtbdd,
    /// `(global group index, STF, route trace)` triples, in this worker's
    /// execution order (ascending group index by construction). The trace
    /// is `Some` iff the shard ran with `record_traces` and holds handles
    /// of this shard's arena until imported.
    pub stfs: Vec<(usize, FlowStf, Option<RouteTrace>)>,
    /// Per-entity costs of this worker (its local route recompute plus
    /// one entry per flow group), measured against the private arena.
    /// Empty unless the shard ran with `profile`. The entity node deltas
    /// telescope from an empty arena, so they sum exactly to
    /// `arena.stats().nodes_created`.
    pub costs: Vec<EntityCost>,
}

/// Executes `groups` across `workers` threads, each with a private arena
/// and locally recomputed routing state.
///
/// Sharding is deterministic (round-robin by group index), and so is
/// each shard's content; only wall-clock interleaving varies between
/// runs. Returns one [`Shard`] per worker, indexed by worker id.
///
/// # Panics
/// Propagates panics from worker threads (including audit failures when
/// `YU_AUDIT=1`).
#[allow(clippy::too_many_arguments)]
pub fn execute_sharded(
    net: &Network,
    mode: FailureMode,
    routes_k: Option<u32>,
    groups: &[FlowGroup],
    opts: ExecOptions,
    workers: usize,
    record_traces: bool,
    profile: bool,
) -> Vec<Shard> {
    let workers = workers.clamp(1, groups.len().max(1));
    run_worker_pool(
        workers,
        |w| format!("worker-{w}"),
        "exec.worker",
        move |w| {
            let mut costs = Vec::new();
            let t_routes = Instant::now();
            let mut m = Mtbdd::new();
            let fv = FailureVars::allocate(&mut m, &net.topo, mode);
            let mut routes = SymbolicRoutes::compute(&mut m, net, &fv, routes_k);
            if profile {
                costs.push(EntityCost {
                    label: format!("worker-{w} route_sim"),
                    wall_us: t_routes.elapsed().as_micros() as u64,
                    nodes_delta: m.stats().nodes_created as i64,
                });
            }
            let mut stfs = Vec::new();
            for (ix, g) in groups.iter().enumerate().skip(w).step_by(workers) {
                let t_flow = Instant::now();
                let nodes_before = m.stats().nodes_created as i64;
                if record_traces {
                    let (stf, trace) =
                        simulate_flow_traced(&mut m, net, &fv, &mut routes, &g.rep, opts);
                    stfs.push((ix, stf, Some(trace)));
                } else {
                    let stf = simulate_flow(&mut m, net, &fv, &mut routes, &g.rep, opts);
                    stfs.push((ix, stf, None));
                }
                let wall_us = t_flow.elapsed().as_micros() as u64;
                yu_telemetry::with_registry(|r| r.flow_exec_seconds.record(wall_us));
                if profile {
                    costs.push(EntityCost {
                        label: flow_label(net, &g.rep, g.members),
                        wall_us,
                        nodes_delta: m.stats().nodes_created as i64 - nodes_before,
                    });
                }
            }
            Shard {
                arena: m,
                stfs,
                costs,
            }
        },
    )
}

/// Runs `unit(overlay, ix)` for every requirement index `ix < reqs`
/// across `workers` threads (round-robin by index), each on its own
/// overlay of the once-frozen main arena `m`. Returns the units in index
/// order and every overlay's final statistics.
///
/// # Panics
/// Propagates panics from worker threads (including audit failures when
/// `YU_AUDIT=1`).
pub(crate) fn check_sharded(
    m: &Mtbdd,
    reqs: usize,
    workers: usize,
    unit: impl Fn(&mut Mtbdd, usize) -> CheckUnit + Sync,
) -> (Vec<CheckUnit>, Vec<MtbddStats>) {
    let workers = workers.clamp(1, reqs.max(1));
    let t_freeze = Instant::now();
    let frozen = m.freeze();
    yu_telemetry::counter("check.freeze_us", t_freeze.elapsed().as_micros() as u64);
    let (frozen, unit) = (&frozen, &unit);
    let shards = run_worker_pool(
        workers,
        |w| format!("check-worker-{w}"),
        "check.worker",
        move |w| {
            let mut m = Mtbdd::with_base(frozen);
            let units: Vec<CheckUnit> = (w..reqs)
                .step_by(workers)
                .map(|ix| unit(&mut m, ix))
                .collect();
            (units, m.stats())
        },
    );
    let (units, stats): (Vec<Vec<CheckUnit>>, Vec<MtbddStats>) = shards.into_iter().unzip();
    let mut units: Vec<CheckUnit> = units.into_iter().flatten().collect();
    units.sort_by_key(|u| u.req_ix);
    (units, stats)
}
