//! The check stage (paper §4.5, §5.3): the one place that aggregates
//! requirements' loads and scans them for violations. Batch verification
//! and the incremental engine ([`crate::delta`]) both run
//! [`YuVerifier::preflight`] and then [`YuVerifier::check`], which
//!
//! 1. walks the flow groups once per uncached load point to build its
//!    link-local equivalence classes (the `auto` cost model sizes the
//!    same classes);
//! 2. folds the classes into `τ = Σ vol · ω` — on the main arena with the
//!    load cache and GC checkpoints, or on check workers' overlays of the
//!    frozen main arena ([`crate::parallel::check_sharded`]);
//! 3. scans τ's terminals (the fused kernels already k-reduce it, so only
//!    the KREDUCE-off ablation reduces here); and
//! 4. merges the units in requirement order: latency histogram,
//!    attribution, and the early-stop cut.

use crate::api::YuVerifier;
use crate::attribution::{req_label, EntityCost};
use crate::equivalence::AggStats;
use crate::exec::FlowStf;
use crate::parallel::check_sharded;
use crate::verify::{reduced_load, scan, Violation};
use std::collections::HashMap;
use std::time::Instant;
use yu_analysis::ReqClass;
use yu_mtbdd::{Mtbdd, NodeRef, Ratio, Term};
use yu_net::{FailureVars, Flow, LoadPoint, TlpReq};

/// Fixed-cost estimate (in arena nodes) charged per check worker by the
/// `--check-workers auto` cost model: thread spawn plus the cold overlay
/// caches a worker has to re-warm. Small networks fall below it and run
/// sequentially; the acceptance workloads clear it comfortably.
const AUTO_SETUP_NODES_PER_WORKER: usize = 25_000;

/// Cache key of a requirement: its verdict and its preflight class are
/// pure functions of the (canonical) load at the point and the bounds.
pub(crate) type ReqKey = (LoadPoint, Option<Ratio>, Option<Ratio>);

pub(crate) fn req_key(req: &TlpReq) -> ReqKey {
    (req.point, req.min.clone(), req.max.clone())
}

/// The verdict for one requirement of the list handed to
/// [`YuVerifier::check`], with its cost.
pub(crate) struct CheckUnit {
    pub req_ix: usize,
    pub point: LoadPoint,
    /// At most one violation unless enumerating.
    pub violations: Vec<Violation>,
    pub agg: AggStats,
    pub wall_us: u64,
    /// Net growth of the arena (main or overlay) while checking it.
    pub nodes_delta: i64,
}

/// The link-local equivalence classes of one load point (§5.3), in
/// first-seen group order: a representative *flow-group index* and the
/// summed volume per class. Indices rather than handles, so a fold can
/// garbage-collect midway and re-derive fresh handles.
pub(crate) struct Classes {
    reps: Vec<(usize, Ratio)>,
    agg: AggStats,
}

/// An arena [`fold`] can aggregate on.
trait FoldArena {
    fn arena(&mut self) -> &mut Mtbdd;
    /// The fraction of flow group `rep` at `point`, as a current handle.
    fn stf(&self, rep: usize, point: LoadPoint) -> NodeRef;
    /// A GC checkpoint between fold steps; `live` survives, remapped.
    fn checkpoint(&mut self, live: &mut [NodeRef]);
}

/// The main arena: collecting between steps bounds the working set of
/// the paper's Fig. 18 blow-up.
impl FoldArena for YuVerifier {
    fn arena(&mut self) -> &mut Mtbdd {
        &mut self.m
    }
    fn stf(&self, rep: usize, point: LoadPoint) -> NodeRef {
        self.results[rep].at(&self.m, point)
    }
    fn checkpoint(&mut self, live: &mut [NodeRef]) {
        self.maybe_gc(live);
    }
}

/// A check worker's overlay on the frozen main arena: base handles are
/// valid in it as they are (no import, no copy), and it never collects.
struct Overlay<'a> {
    m: &'a mut Mtbdd,
    results: &'a [FlowStf],
}

impl FoldArena for Overlay<'_> {
    fn arena(&mut self) -> &mut Mtbdd {
        self.m
    }
    fn stf(&self, rep: usize, point: LoadPoint) -> NodeRef {
        self.results[rep].at(self.m, point)
    }
    fn checkpoint(&mut self, _live: &mut [NodeRef]) {}
}

/// Folds a point's classes into its load `τ = Σ vol · ω`, k-reduced when
/// `k` is set.
fn fold(
    a: &mut impl FoldArena,
    point: LoadPoint,
    reps: impl IntoIterator<Item = (usize, Ratio)>,
    k: Option<u32>,
) -> NodeRef {
    let reps = reps.into_iter();
    let mut level: Vec<NodeRef> = Vec::with_capacity(reps.size_hint().0);
    for (rep, vol) in reps {
        let stf = a.stf(rep, point);
        // The fused kernels reduce during the apply, so the un-reduced
        // intermediates never hit the arena.
        let scaled = match k {
            Some(k) => a.arena().scale_kreduce(stf, Term::Num(vol), k),
            None => a.arena().scale(stf, Term::Num(vol)),
        };
        level.push(scaled);
        a.checkpoint(&mut level);
    }
    match k {
        // The n-ary fused kernel materializes βₖ(Σ) directly: the
        // pairwise partial sums (the transients of the paper's Fig. 18
        // blow-up) never hit the arena at all.
        Some(k) => a.arena().sum_kreduce(&level, k),
        None => {
            // Exact (un-reduced) aggregation: balanced pairwise
            // accumulation with GC checkpoints keeps most additions
            // between small diagrams and bounds the arena.
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                for pair in level.chunks(2) {
                    next.push(if pair.len() == 2 {
                        a.arena().add(pair[0], pair[1])
                    } else {
                        pair[0]
                    });
                }
                level = next;
                a.checkpoint(&mut level);
            }
            level.pop().unwrap_or_else(|| a.arena().zero())
        }
    }
}

/// How the stage scans each aggregated load.
#[derive(Clone, Copy)]
struct Scan {
    k: u32,
    use_kreduce: bool,
    /// `None`: the first violation; `Some(n)`: up to `n` of them.
    limit: Option<usize>,
}

impl Scan {
    /// Scans one requirement's aggregated load and packages the verdict
    /// with its cost since `start` (wall clock, `nodes_created`).
    fn unit(
        self,
        m: &mut Mtbdd,
        fv: &FailureVars,
        req_ix: usize,
        req: &TlpReq,
        (tau, agg): (NodeRef, AggStats),
        start: (Instant, i64),
    ) -> CheckUnit {
        let reduced = reduced_load(m, tau, self.k, self.use_kreduce);
        CheckUnit {
            req_ix,
            point: req.point,
            violations: scan(m, fv, reduced, req, self.limit),
            agg,
            wall_us: start.0.elapsed().as_micros() as u64,
            nodes_delta: m.stats().nodes_created as i64 - start.1,
        }
    }
}

/// The early-stop cut: drops every unit after the first violating one.
pub(crate) fn cut_after_first_violation(units: &mut Vec<CheckUnit>) {
    if let Some(first) = units.iter().position(|u| !u.violations.is_empty()) {
        units.truncate(first + 1);
    }
}

impl YuVerifier {
    /// The semantic preflight pass: classifies every requirement with
    /// the static analyzer and returns the ones the symbolic engine
    /// still has to check, plus the number discharged. Only
    /// `ProvenSafe` requirements are pruned — they hold in every ≤ k
    /// scenario, so dropping them changes neither the verdict nor the
    /// violations (proven-violated requirements still run: the report
    /// needs the engine's exact counterexample). When auditing is on,
    /// every discharge certificate is re-validated by its independent
    /// checker before the requirement is skipped.
    ///
    /// Classifications are read from and added to `cache`; the caller
    /// must clear it whenever the network or the flows change (a batch
    /// run passes an empty one). The classifier is deterministic in
    /// those inputs, so cached and fresh decisions are bit-identical.
    pub(crate) fn preflight(
        &self,
        reqs: &[TlpReq],
        cache: &mut HashMap<ReqKey, ReqClass>,
    ) -> (Vec<TlpReq>, usize) {
        if !self.opts.static_prune || reqs.is_empty() {
            return (reqs.to_vec(), 0);
        }
        let _stage = yu_telemetry::span("preflight");
        if reqs.iter().any(|r| !cache.contains_key(&req_key(r))) {
            // Classify over the executed flow groups: a group's
            // representative forwards identically to all members and
            // carries the summed volume, so bounds over groups equal
            // bounds over the raw flows.
            let flows: Vec<Flow> = self
                .groups
                .iter()
                .map(|g| {
                    let mut f = g.rep.clone();
                    f.volume = g.volume.clone();
                    f
                })
                .collect();
            let cfg = yu_analysis::PreflightConfig {
                k: self.opts.k,
                mode: self.opts.mode,
                max_hops: self.opts.max_hops,
            };
            let mut pf = yu_analysis::Preflight::new(&self.net, &flows, cfg);
            for (ix, req) in reqs.iter().enumerate() {
                let std::collections::hash_map::Entry::Vacant(slot) = cache.entry(req_key(req))
                else {
                    continue;
                };
                let classification = {
                    let _s = yu_telemetry::span_detail("preflight.classify", || {
                        req.point.describe(&self.net.topo)
                    });
                    pf.classify_req(ix, req)
                };
                if classification.class == ReqClass::ProvenSafe && yu_mtbdd::audit_enabled() {
                    yu_analysis::check_certificate(&self.net, &flows, req, cfg, &classification)
                        .unwrap_or_else(|e| {
                            panic!("preflight certificate failed its independent check: {e}")
                        });
                }
                slot.insert(classification.class);
            }
        }
        let classes: Vec<ReqClass> = reqs.iter().map(|r| cache[&req_key(r)]).collect();
        let count = |c: ReqClass| classes.iter().filter(|&&x| x == c).count();
        yu_telemetry::counter("preflight.proven_safe", count(ReqClass::ProvenSafe) as u64);
        yu_telemetry::counter(
            "preflight.proven_violated",
            count(ReqClass::ProvenViolated) as u64,
        );
        yu_telemetry::counter(
            "preflight.needs_symbolic",
            count(ReqClass::NeedsSymbolic) as u64,
        );
        let kept = reqs
            .iter()
            .zip(&classes)
            .filter(|&(_, &c)| c != ReqClass::ProvenSafe)
            .map(|(r, _)| r.clone())
            .collect();
        (kept, count(ReqClass::ProvenSafe))
    }

    /// The check stage: aggregates every requirement's load and scans it
    /// for violations — the first (fewest-failure) one per requirement
    /// when `max_violations <= 1`, else up to `max_violations` of them.
    /// Units come back in requirement order; with `early_stop` and
    /// `max_violations <= 1` they end at the first violating requirement.
    /// Bit-identical for every worker count (see [`crate::parallel`]).
    pub(crate) fn check(&mut self, reqs: &[TlpReq], max_violations: usize) -> Vec<CheckUnit> {
        let scan = Scan {
            k: self.opts.k,
            use_kreduce: self.opts.use_kreduce,
            limit: (max_violations > 1).then_some(max_violations),
        };
        let mut classes = HashMap::new();
        let workers = if reqs.len() <= 1 || self.opts.check_workers <= 1 {
            1
        } else if self.opts.check_workers_auto {
            self.auto_workers(reqs, &mut classes)
        } else {
            self.opts.check_workers
        };
        let (mut units, arena_nodes) = if workers > 1 {
            self.check_on_overlays(reqs, &mut classes, scan, workers)
        } else {
            self.check_on_main(reqs, classes, scan)
        };
        yu_telemetry::with_registry(|r| {
            for u in &units {
                r.req_check_seconds.record(u.wall_us);
            }
        });
        if self.opts.profile {
            // Attribute every unit processed, including any past an
            // early-stop cut — the work was done either way.
            self.check_attr.nodes_delta += arena_nodes;
            for u in &units {
                self.check_attr.entities.push(EntityCost {
                    label: req_label(&self.net, &reqs[u.req_ix]),
                    wall_us: u.wall_us,
                    nodes_delta: u.nodes_delta,
                });
            }
        }
        if scan.limit.is_none() && self.opts.early_stop {
            cut_after_first_violation(&mut units);
        }
        units
    }

    /// The sequential check on the main arena, stopping after the first
    /// violation under `early_stop`. Returns the units and the arena's
    /// growth.
    fn check_on_main(
        &mut self,
        reqs: &[TlpReq],
        mut classes: HashMap<LoadPoint, Classes>,
        scan: Scan,
    ) -> (Vec<CheckUnit>, i64) {
        let stop_early = scan.limit.is_none() && self.opts.early_stop;
        let nodes_at_start = self.m.stats().nodes_created as i64;
        let mut units = Vec::with_capacity(reqs.len());
        for (ix, req) in reqs.iter().enumerate() {
            let start = (Instant::now(), self.m.stats().nodes_created as i64);
            let load = self.load_with_stats(req.point, classes.remove(&req.point));
            let unit = scan.unit(&mut self.m, &self.fv, ix, req, load, start);
            let violated = !unit.violations.is_empty();
            units.push(unit);
            if stop_early && violated {
                break;
            }
        }
        (units, self.m.stats().nodes_created as i64 - nodes_at_start)
    }

    /// The sharded check: `workers` overlays of the frozen main arena
    /// fold and scan the requirements. A cached load is a base handle,
    /// valid in every overlay; the rest are folded from their point's
    /// classes. Returns the units and the overlays' summed growth.
    fn check_on_overlays(
        &mut self,
        reqs: &[TlpReq],
        classes: &mut HashMap<LoadPoint, Classes>,
        scan: Scan,
        workers: usize,
    ) -> (Vec<CheckUnit>, i64) {
        self.plan_classes(reqs, classes);
        let classes = &*classes;
        let loads: Vec<Result<(NodeRef, AggStats), &Classes>> = reqs
            .iter()
            .map(|r| {
                let cached = self.load_cache.get(&r.point).copied();
                cached.ok_or_else(|| &classes[&r.point])
            })
            .collect();
        let k = scan.use_kreduce.then_some(scan.k);
        let (fv, results) = (&self.fv, &self.results);
        let (units, stats) = check_sharded(&self.m, reqs.len(), workers, |m, ix| {
            let start = (Instant::now(), m.stats().nodes_created as i64);
            let point = reqs[ix].point;
            let load = loads[ix].unwrap_or_else(|c| {
                let _stage = yu_telemetry::span_detail("aggregate", || format!("{point:?}"));
                let tau = fold(
                    &mut Overlay { m, results },
                    point,
                    c.reps.iter().cloned(),
                    k,
                );
                (tau, c.agg)
            });
            scan.unit(m, fv, ix, &reqs[ix], load, start)
        });
        let mut nodes = 0;
        for s in &stats {
            self.worker_stats.merge(s);
            nodes += s.nodes_created as i64;
        }
        (units, nodes)
    }

    /// The aggregated load at `point` on the main arena: from the load
    /// cache, else folded from `classes` (walked here when not supplied)
    /// and cached.
    pub(crate) fn load_with_stats(
        &mut self,
        point: LoadPoint,
        classes: Option<Classes>,
    ) -> (NodeRef, AggStats) {
        if let Some(&hit) = self.load_cache.get(&point) {
            return hit;
        }
        let _stage = yu_telemetry::span_detail("aggregate", || format!("{point:?}"));
        self.maybe_gc(&mut []);
        let Classes { reps, agg } = classes.unwrap_or_else(|| self.classes_at(point));
        let k = self.opts.use_kreduce.then_some(self.opts.k);
        let tau = fold(self, point, reps, k);
        self.load_cache.insert(point, (tau, agg));
        (tau, agg)
    }

    /// The link-local equivalence classes at `point`: the one walk over
    /// the flow groups. Groups whose fraction at the point is the same
    /// hash-consed handle share a class (pointer equality, §5.3).
    fn classes_at(&self, point: LoadPoint) -> Classes {
        let zero = self.m.zero();
        let mut reps: Vec<(usize, Ratio)> = Vec::new();
        let mut flows = 0usize;
        let mut by_stf: HashMap<NodeRef, usize> = HashMap::new();
        for (ix, (stf, g)) in self.results.iter().zip(&self.groups).enumerate() {
            let handle = stf.at(&self.m, point);
            if handle == zero || g.volume.is_zero() {
                continue;
            }
            flows += 1;
            if self.opts.use_link_local_equiv {
                match by_stf.entry(handle) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        reps[*e.get()].1 += &g.volume;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(reps.len());
                        reps.push((ix, g.volume.clone()));
                    }
                }
            } else {
                reps.push((ix, g.volume.clone()));
            }
        }
        let agg = AggStats {
            flows,
            classes: reps.len(),
        };
        Classes { reps, agg }
    }

    /// Adds the classes of every point among `reqs` that is neither in
    /// the load cache nor already in `classes`.
    fn plan_classes(&self, reqs: &[TlpReq], classes: &mut HashMap<LoadPoint, Classes>) {
        for req in reqs {
            if !self.load_cache.contains_key(&req.point) && !classes.contains_key(&req.point) {
                classes.insert(req.point, self.classes_at(req.point));
            }
        }
    }

    /// The cost model behind `--check-workers auto`: shards the check
    /// stage only when the estimated per-worker work can pay for the
    /// fixed setup (freezing the arena — a copy of the live node and
    /// slot tables — plus spawning the threads). Returns the worker
    /// count to use, degrading to `1` (and booking the
    /// `check.auto_degraded` telemetry counter) when sharding cannot
    /// pay. Purely a wall-clock decision: verdicts are bit-identical
    /// either way.
    pub fn auto_check_workers(&mut self, reqs: &[TlpReq]) -> usize {
        self.auto_workers(reqs, &mut HashMap::new())
    }

    fn auto_workers(&self, reqs: &[TlpReq], classes: &mut HashMap<LoadPoint, Classes>) -> usize {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cap = self.opts.check_workers.min(hw).min(reqs.len());
        if cap <= 1 {
            yu_telemetry::counter("check.auto_degraded", 1);
            return 1;
        }
        self.plan_classes(reqs, classes);
        // The symbolic work, in nodes: per requirement, the summed sizes
        // of its point's class representatives — what the fused kernel
        // walks. Cached loads need no aggregation and count nothing.
        // Sizes are memoized per handle: one DFS per distinct diagram.
        let mut sizes: HashMap<NodeRef, usize> = HashMap::new();
        let mut work = 0usize;
        for req in reqs {
            for &(rep, _) in classes.get(&req.point).map_or(&[][..], |c| &c.reps) {
                let handle = self.results[rep].at(&self.m, req.point);
                work += *sizes
                    .entry(handle)
                    .or_insert_with(|| self.m.node_count(handle));
            }
        }
        // Freezing clones the live arena once; each worker costs a
        // thread spawn plus cold overlay caches, charged as if it were
        // re-deriving a slice of the arena.
        let setup = self.m.live_nodes() + AUTO_SETUP_NODES_PER_WORKER * cap;
        let workers = if work / cap >= setup { cap } else { 1 };
        yu_telemetry::counter("check.auto_workers", workers as u64);
        if workers == 1 {
            yu_telemetry::counter("check.auto_degraded", 1);
        }
        workers
    }
}
