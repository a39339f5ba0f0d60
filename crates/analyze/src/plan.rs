//! Auto-partitioner: PDG → SCC condensation → ranked candidate stage
//! plans, certified against the hand-written Table 2 partitions.
//!
//! The pipeline so far *grades* a hand-written [`StageSpec`] partition;
//! this module *derives* one. From a recorded loop trace it builds an
//! address-level dependence graph (intra-iteration load-before-store
//! edges between addresses, plus the per-address loop-carried edges the
//! PDG classified), condenses it into strongly connected components with
//! Tarjan's algorithm, classifies every SCC by the weakest schedule that
//! preserves it, and emits ranked candidate plans made of real
//! [`StageSpec`] values that run unmodified through the same linter,
//! certifier, and (via [`crate::exec`]) the real runtime:
//!
//! * **sequential** SCC — some member has a *value-changing* loop-carried
//!   flow dependence: speculating it misspeculates, so it must live in a
//!   [`StageRole::Sequential`] stage (or be forwarded, which the
//!   auto-planner does not emit);
//! * **accumulator** SCC — carried dependences exist but every carried
//!   flow is a silent store (and anti/output deps are ordered by in-order
//!   group commit): value-based validation can never observe a conflict,
//!   so the SCC is safely *speculated* in a parallel stage;
//! * **doall** SCC — no carried dependences at all: freely replicable.
//!
//! Candidates are scored with the same model the linter exposes —
//! predicted misspeculations per 1000 iterations — plus a pipeline
//! balance term (the bottleneck stage's cost in recorded accesses, with
//! parallel stages divided by [`NOMINAL_REPLICAS`]). A candidate whose
//! lint report contains an Error finding (e.g. a DOALL shape over a
//! value-changing accumulator) is **refused**, not ranked.
//!
//! The differ compares the top-ranked auto plan against the kernel's
//! hand-written stages address by address and reports where they agree
//! and why they diverge.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use dsmtx::{Region, StageRole, StageSpec};
use dsmtx_mem::{AccessKind, AccessRecord};
use dsmtx_obs::{json, schema, Registry};
use dsmtx_uva::VAddr;
use dsmtx_workloads::AnalysisPlan;

use crate::lint::{lint, LintReport};
use crate::pdg::{build, DepGraph};
use crate::record::{record, LoopTrace};

/// Replica count the balance model assumes for a parallel stage.
pub const NOMINAL_REPLICAS: u64 = 4;

/// Non-doall SCCs listed individually in the text report (the rest are
/// rolled up into an explicit "+N more" line, never silently dropped).
const SCC_LIST_CAP: usize = 12;

/// The weakest schedule that preserves an SCC's dependences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SccClass {
    /// A member has a value-changing loop-carried flow dependence:
    /// speculation *will* misspeculate, so the SCC needs a sequential
    /// stage.
    Sequential,
    /// Carried dependences exist but are invisible to value-based
    /// validation (silent flows; anti/output ordered by in-order
    /// commit): speculable with zero predicted misspeculation.
    Accumulator,
    /// No carried dependences: freely replicable.
    Doall,
}

impl SccClass {
    /// Stable lowercase name for reports and golden files.
    pub fn name(self) -> &'static str {
        match self {
            SccClass::Sequential => "sequential",
            SccClass::Accumulator => "accumulator",
            SccClass::Doall => "doall",
        }
    }
}

/// One condensed component of the address dependence graph.
#[derive(Debug, Clone)]
pub struct SccSummary {
    /// Classification.
    pub class: SccClass,
    /// Member addresses (sorted).
    pub members: Vec<VAddr>,
    /// Total recorded accesses touching the members — the cost weight
    /// the balance model assigns the SCC.
    pub cost: u64,
    /// Value-changing carried-flow instances across the members.
    pub value_changing: u64,
}

/// The planner's cost model verdict on one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Score {
    /// Summed predicted misspeculations per 1000 iterations from the
    /// candidate's own lint report (the linter's model, reused).
    pub misspec_per_1k: u64,
    /// Cost of the slowest stage: sequential stages at full cost,
    /// parallel stages divided by [`NOMINAL_REPLICAS`].
    pub bottleneck_cost: u64,
    /// Total recorded accesses (identical across candidates; kept for
    /// the report's utilization line).
    pub total_cost: u64,
}

/// One accepted candidate plan, ready to lint, render, and execute.
pub struct Candidate {
    /// Shape name: `"doall"`, `"seq-par"`, `"par-seq"`, `"sequential"`.
    pub name: &'static str,
    /// Real stage specs (address-union footprints, region name `auto`).
    pub stages: Vec<StageSpec>,
    /// Which stage owns each address (total over recorded addresses).
    pub assignment: BTreeMap<VAddr, usize>,
    /// Cost-model verdict.
    pub score: Score,
    /// The linter's full verdict on this candidate's stages.
    pub report: LintReport,
}

impl std::fmt::Debug for Candidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Candidate")
            .field("name", &self.name)
            .field("stages", &self.stages)
            .field("score", &self.score)
            .finish_non_exhaustive()
    }
}

impl Candidate {
    /// Stage roles in pipeline order, for rendering ("sequential/parallel").
    pub fn shape(&self) -> String {
        let names: Vec<&str> = self.stages.iter().map(|s| s.role.name()).collect();
        names.join("/")
    }
}

/// A candidate the planner refused to rank: its lint report contains an
/// Error finding, i.e. the runtime would misspeculate on it (or its
/// self-description would be wrong).
#[derive(Debug, Clone)]
pub struct Rejected {
    /// Shape name.
    pub name: &'static str,
    /// The first Error finding, as `rule: message`.
    pub reason: String,
}

/// One aggregated divergence between the auto and hand partitions.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The hand plan's treatment of the addresses ("parallel",
    /// "sequential", "ring", "forwarded", "mixed", "undeclared").
    pub hand: &'static str,
    /// The auto plan's stage role for the addresses.
    pub auto_role: &'static str,
    /// Why the planner chose differently (from the SCC classification).
    pub why: String,
    /// How many addresses diverge this way.
    pub addrs: u64,
    /// A representative address (lowest).
    pub example: VAddr,
}

/// Address-by-address comparison of the top-ranked auto plan against the
/// hand-written stages.
#[derive(Debug, Clone, Default)]
pub struct PlanDiff {
    /// Addresses compared.
    pub total: u64,
    /// Addresses where both plans schedule the address compatibly
    /// (parallel↔parallel; sequential↔{sequential, ring, forwarded}).
    pub agreements: u64,
    /// Aggregated disagreements, sorted by (hand, auto, why).
    pub divergences: Vec<Divergence>,
}

/// Everything the auto-partitioner derived from one recorded loop.
pub struct PlanOutcome {
    /// Workload name.
    pub name: &'static str,
    /// Iterations recorded.
    pub iterations: u64,
    /// Distinct addresses in the trace.
    pub addresses: u64,
    /// Doall-class SCC count.
    pub doall_sccs: u64,
    /// Accumulator-class SCC count.
    pub accumulator_sccs: u64,
    /// Sequential-class SCC count.
    pub sequential_sccs: u64,
    /// Non-doall SCCs, highest cost first.
    pub sccs: Vec<SccSummary>,
    /// Accepted candidates, best first.
    pub candidates: Vec<Candidate>,
    /// Refused candidates, in generation order.
    pub rejected: Vec<Rejected>,
    /// Top candidate vs the hand plan.
    pub diff: PlanDiff,
    /// Per-iteration raw access streams, kept for the replay executor
    /// ([`crate::exec::run_candidate`]).
    pub raw_iters: Vec<Vec<AccessRecord>>,
}

impl std::fmt::Debug for PlanOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanOutcome")
            .field("name", &self.name)
            .field("addresses", &self.addresses)
            .field("candidates", &self.candidates)
            .field("rejected", &self.rejected)
            .finish_non_exhaustive()
    }
}

impl PlanOutcome {
    /// The top-ranked accepted candidate.
    pub fn best(&self) -> Option<&Candidate> {
        self.candidates.first()
    }
}

/// Per-address facts distilled from the trace and PDG.
#[derive(Debug, Default, Clone, Copy)]
struct AddrInfo {
    loads: u64,
    stores: u64,
    /// Carried flow edges whose source store changed the value.
    carried_changing: u64,
    /// Carried flow edges that were silent.
    carried_silent: u64,
    /// Carried anti + output edges.
    carried_other: u64,
}

impl AddrInfo {
    fn cost(&self) -> u64 {
        self.loads + self.stores
    }
}

fn collect_addr_info(trace: &LoopTrace, graph: &DepGraph) -> BTreeMap<VAddr, AddrInfo> {
    let mut info: BTreeMap<VAddr, AddrInfo> = BTreeMap::new();
    for t in &trace.iters {
        for r in &t.raw {
            let e = info.entry(r.addr).or_default();
            match r.kind {
                AccessKind::Load => e.loads += 1,
                AccessKind::Store => e.stores += 1,
            }
        }
    }
    for e in &graph.edges {
        if !e.carried() {
            continue;
        }
        let a = info.entry(e.addr).or_default();
        match e.kind {
            crate::pdg::DepKind::Flow => {
                if e.value_changed {
                    a.carried_changing += 1;
                } else {
                    a.carried_silent += 1;
                }
            }
            crate::pdg::DepKind::Anti | crate::pdg::DepKind::Output => a.carried_other += 1,
        }
    }
    info
}

/// Intra-iteration cross-address edges: within one iteration, a load of
/// `A` before a store to `B` means `B`'s value may depend on `A`, so the
/// two must not be split across stages in the wrong order — and a cycle
/// of such edges welds the addresses into one SCC.
fn intra_edges(trace: &LoopTrace, index_of: &BTreeMap<VAddr, usize>) -> Vec<Vec<usize>> {
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut loaded: BTreeSet<usize> = BTreeSet::new();
    for t in &trace.iters {
        loaded.clear();
        for r in &t.raw {
            let i = index_of[&r.addr];
            match r.kind {
                AccessKind::Load => {
                    loaded.insert(i);
                }
                AccessKind::Store => {
                    for &src in &loaded {
                        if src != i {
                            edges.insert((src, i));
                        }
                    }
                }
            }
        }
    }
    let mut adj = vec![Vec::new(); index_of.len()];
    for (a, b) in edges {
        adj[a].push(b);
    }
    adj
}

/// Iterative Tarjan SCC: returns a component id per node. Deterministic
/// for a deterministic adjacency list.
fn tarjan(n: usize, adj: &[Vec<usize>]) -> Vec<usize> {
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut next = 0u32;
    let mut comps = 0usize;

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, 0));
        while let Some(&mut (v, ref mut edge)) = frames.last_mut() {
            if *edge < adj[v].len() {
                let w = adj[v][*edge];
                *edge += 1;
                if index[w] == UNVISITED {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (p, _)) = frames.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp[w] = comps;
                        if w == v {
                            break;
                        }
                    }
                    comps += 1;
                }
            }
        }
    }
    comp
}

/// Merges a sorted address set into contiguous word runs with per-run
/// access modes — the union footprint a generated stage declares.
fn union_regions(addrs: &BTreeSet<VAddr>, info: &BTreeMap<VAddr, AddrInfo>) -> Vec<Region> {
    #[derive(PartialEq, Eq, Clone, Copy)]
    enum M {
        R,
        W,
        Rw,
    }
    let mode_of = |a: &AddrInfo| match (a.loads > 0, a.stores > 0) {
        (true, true) => M::Rw,
        (true, false) => M::R,
        _ => M::W,
    };
    let mut out: Vec<Region> = Vec::new();
    let mut run: Option<(VAddr, u64, M, VAddr)> = None; // base, words, mode, last
    for &addr in addrs {
        let m = mode_of(&info[&addr]);
        match run {
            Some((base, words, mode, last))
                if mode == m
                    && last.owner() == addr.owner()
                    && last.offset() + 8 == addr.offset() =>
            {
                run = Some((base, words + 1, mode, addr));
            }
            Some((base, words, mode, _)) => {
                out.push(match mode {
                    M::R => Region::read("auto", base, words),
                    M::W => Region::write("auto", base, words),
                    M::Rw => Region::read_write("auto", base, words),
                });
                run = Some((addr, 1, m, addr));
            }
            None => run = Some((addr, 1, m, addr)),
        }
    }
    if let Some((base, words, mode, _)) = run {
        out.push(match mode {
            M::R => Region::read("auto", base, words),
            M::W => Region::write("auto", base, words),
            M::Rw => Region::read_write("auto", base, words),
        });
    }
    out
}

fn make_stage(name: &'static str, role: StageRole, regions: Vec<Region>) -> StageSpec {
    StageSpec::new(name, role, Box::new(move |_| regions.clone()))
}

fn stage_cost(addrs: &BTreeSet<VAddr>, info: &BTreeMap<VAddr, AddrInfo>) -> u64 {
    addrs.iter().map(|a| info[a].cost()).sum()
}

struct Shape {
    name: &'static str,
    /// (stage name, role, owned addresses) in pipeline order.
    stages: Vec<(&'static str, StageRole, BTreeSet<VAddr>)>,
}

fn score_shape(shape: &Shape, info: &BTreeMap<VAddr, AddrInfo>, misspec: u64) -> Score {
    let total: u64 = info.values().map(AddrInfo::cost).sum();
    let bottleneck = shape
        .stages
        .iter()
        .map(|(_, role, addrs)| {
            let c = stage_cost(addrs, info);
            match role {
                StageRole::Parallel => c.div_ceil(NOMINAL_REPLICAS),
                _ => c,
            }
        })
        .max()
        .unwrap_or(0);
    Score {
        misspec_per_1k: misspec,
        bottleneck_cost: bottleneck,
        total_cost: total,
    }
}

/// Derives the auto-partition for `plan`: records the loop, condenses
/// the address dependence graph, emits and lints candidate plans, ranks
/// the survivors, and diffs the winner against the hand-written stages.
///
/// Runs the plan's recovery body for every iteration (mutating
/// `plan.master`); callers that want to *execute* a candidate afterwards
/// must rebuild a fresh plan (see [`crate::exec::run_candidate`]).
pub fn auto_plan(plan: &mut AnalysisPlan) -> PlanOutcome {
    let trace = record(plan);
    let graph = build(&trace);
    let info = collect_addr_info(&trace, &graph);
    let addrs: Vec<VAddr> = info.keys().copied().collect();
    let index_of: BTreeMap<VAddr, usize> = addrs.iter().enumerate().map(|(i, &a)| (a, i)).collect();

    // Condense: intra-iteration load→store edges between addresses.
    // Carried edges are per-address (self-loops) — they cannot merge
    // components, so they enter classification, not condensation.
    let adj = intra_edges(&trace, &index_of);
    let comp = tarjan(addrs.len(), &adj);
    let n_comps = comp.iter().copied().max().map_or(0, |m| m + 1);
    let mut members: Vec<Vec<VAddr>> = vec![Vec::new(); n_comps];
    for (i, &c) in comp.iter().enumerate() {
        members[c].push(addrs[i]);
    }

    let mut sccs: Vec<SccSummary> = Vec::new();
    let (mut doall, mut accum, mut seq) = (0u64, 0u64, 0u64);
    for m in &mut members {
        m.sort_unstable();
        let cost: u64 = m.iter().map(|a| info[a].cost()).sum();
        let changing: u64 = m.iter().map(|a| info[a].carried_changing).sum();
        let carried_any = m
            .iter()
            .any(|a| info[a].carried_silent + info[a].carried_other > 0);
        let class = if changing > 0 {
            seq += 1;
            SccClass::Sequential
        } else if carried_any {
            accum += 1;
            SccClass::Accumulator
        } else {
            doall += 1;
            SccClass::Doall
        };
        if class != SccClass::Doall {
            sccs.push(SccSummary {
                class,
                members: m.clone(),
                cost,
                value_changing: changing,
            });
        }
    }
    sccs.sort_by(|a, b| b.cost.cmp(&a.cost).then_with(|| a.members.cmp(&b.members)));

    // Partition addresses by required schedule.
    let mut seq_addrs: BTreeSet<VAddr> = BTreeSet::new();
    let mut par_addrs: BTreeSet<VAddr> = BTreeSet::new();
    for (m, scc_class) in members.iter().zip(comp_classes(&members, &info)) {
        let target = if scc_class == SccClass::Sequential {
            &mut seq_addrs
        } else {
            &mut par_addrs
        };
        target.extend(m.iter().copied());
    }
    let all_addrs: BTreeSet<VAddr> = addrs.iter().copied().collect();

    // Candidate shapes, in generation order.
    let mut shapes: Vec<Shape> = Vec::new();
    shapes.push(Shape {
        name: "doall",
        stages: vec![("auto-par", StageRole::Parallel, all_addrs.clone())],
    });
    if !seq_addrs.is_empty() && !par_addrs.is_empty() {
        shapes.push(Shape {
            name: "seq-par",
            stages: vec![
                ("auto-seq", StageRole::Sequential, seq_addrs.clone()),
                ("auto-par", StageRole::Parallel, par_addrs.clone()),
            ],
        });
        shapes.push(Shape {
            name: "par-seq",
            stages: vec![
                ("auto-par", StageRole::Parallel, par_addrs.clone()),
                ("auto-seq", StageRole::Sequential, seq_addrs.clone()),
            ],
        });
    }
    shapes.push(Shape {
        name: "sequential",
        stages: vec![("auto-all", StageRole::Sequential, all_addrs.clone())],
    });

    let mut candidates: Vec<Candidate> = Vec::new();
    let mut rejected: Vec<Rejected> = Vec::new();
    for shape in shapes {
        let stages: Vec<StageSpec> = shape
            .stages
            .iter()
            .map(|(name, role, owned)| make_stage(name, *role, union_regions(owned, &info)))
            .collect();
        let report = lint(&trace, &graph, &stages, plan.shard_map.as_ref());
        if report.has_errors() {
            let f = report.errors().next().expect("has_errors");
            rejected.push(Rejected {
                name: shape.name,
                reason: format!("{}: {}", f.kind.name(), f.message),
            });
            continue;
        }
        let misspec: u64 = report
            .findings
            .iter()
            .map(|f| f.predicted_misspec_per_1k)
            .sum();
        let score = score_shape(&shape, &info, misspec);
        let mut assignment: BTreeMap<VAddr, usize> = BTreeMap::new();
        for (i, (_, _, owned)) in shape.stages.iter().enumerate() {
            for &a in owned {
                assignment.insert(a, i);
            }
        }
        candidates.push(Candidate {
            name: shape.name,
            stages,
            assignment,
            score,
            report,
        });
    }
    // Stable sort: ties keep generation order, which prefers the
    // conventional sequential-first pipeline shape over its mirror.
    candidates.sort_by(|a, b| {
        a.score
            .misspec_per_1k
            .cmp(&b.score.misspec_per_1k)
            .then_with(|| a.score.bottleneck_cost.cmp(&b.score.bottleneck_cost))
            .then_with(|| a.stages.len().cmp(&b.stages.len()))
    });

    let diff = match candidates.first() {
        Some(best) => diff_against_hand(
            &trace,
            &plan.stages,
            best,
            &members,
            &comp,
            &index_of,
            &info,
        ),
        None => PlanDiff::default(),
    };

    PlanOutcome {
        name: trace.name,
        iterations: graph.iterations,
        addresses: addrs.len() as u64,
        doall_sccs: doall,
        accumulator_sccs: accum,
        sequential_sccs: seq,
        sccs,
        candidates,
        rejected,
        diff,
        raw_iters: trace.iters.into_iter().map(|t| t.raw).collect(),
    }
}

fn comp_classes(members: &[Vec<VAddr>], info: &BTreeMap<VAddr, AddrInfo>) -> Vec<SccClass> {
    members
        .iter()
        .map(|m| {
            let changing: u64 = m.iter().map(|a| info[a].carried_changing).sum();
            let carried_any = m
                .iter()
                .any(|a| info[a].carried_silent + info[a].carried_other > 0);
            if changing > 0 {
                SccClass::Sequential
            } else if carried_any {
                SccClass::Accumulator
            } else {
                SccClass::Doall
            }
        })
        .collect()
}

/// The hand plan's treatment of one address, from its declared stages.
fn hand_label(stages: &[StageSpec], trace: &LoopTrace, addr: VAddr) -> &'static str {
    if stages.iter().any(|s| s.forwards(addr)) {
        return "forwarded";
    }
    let mut roles: BTreeSet<&'static str> = BTreeSet::new();
    for t in &trace.iters {
        for r in &t.raw {
            if r.addr != addr {
                continue;
            }
            for s in stages {
                let covered = match r.kind {
                    AccessKind::Load => s.covers_load(t.iter, r.addr),
                    AccessKind::Store => s.covers_store(t.iter, r.addr),
                };
                if covered {
                    roles.insert(s.role.name());
                }
            }
        }
    }
    match roles.len() {
        0 => "undeclared",
        1 => roles.iter().next().expect("one role"),
        _ => "mixed",
    }
}

fn class_why(class: SccClass, a: &AddrInfo) -> String {
    match class {
        SccClass::Sequential => format!(
            "value-changing loop-carried flow ({} of {} carried instances) forces \
             a sequential stage",
            a.carried_changing,
            a.carried_changing + a.carried_silent
        ),
        SccClass::Accumulator => "carried dependences are silent or ordered by in-order \
             commit; value validation cannot observe them, so speculation is free"
            .to_string(),
        SccClass::Doall => "no loop-carried dependences recorded".to_string(),
    }
}

#[allow(clippy::too_many_arguments)] // internal seam of auto_plan
fn diff_against_hand(
    trace: &LoopTrace,
    hand: &[StageSpec],
    best: &Candidate,
    members: &[Vec<VAddr>],
    comp: &[usize],
    index_of: &BTreeMap<VAddr, usize>,
    info: &BTreeMap<VAddr, AddrInfo>,
) -> PlanDiff {
    let classes = comp_classes(members, info);
    // Pre-compute hand labels once per address (hand_label walks the trace).
    let mut agg: BTreeMap<(&'static str, &'static str, String), (u64, VAddr)> = BTreeMap::new();
    let mut agreements = 0u64;
    let mut total = 0u64;
    for (&addr, &stage) in &best.assignment {
        total += 1;
        let auto_role = best.stages[stage].role.name();
        let hand = hand_label(hand, trace, addr);
        let agree = match auto_role {
            "parallel" => hand == "parallel",
            _ => matches!(hand, "sequential" | "ring" | "forwarded"),
        };
        if agree {
            agreements += 1;
            continue;
        }
        let class = classes[comp[index_of[&addr]]];
        let why = class_why(class, &info[&addr]);
        let e = agg.entry((hand, auto_role, why)).or_insert((0, addr));
        e.0 += 1;
        if addr < e.1 {
            e.1 = addr;
        }
    }
    let divergences = agg
        .into_iter()
        .map(|((hand, auto_role, why), (addrs, example))| Divergence {
            hand,
            auto_role,
            why,
            addrs,
            example,
        })
        .collect();
    PlanDiff {
        total,
        agreements,
        divergences,
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

/// Renders the planner's outcome as indented text for `repro plan`.
pub fn render_plan_text(outcome: &PlanOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {}: auto-partition ==", outcome.name);
    let _ = writeln!(
        out,
        "iterations {}  addresses {}  sccs {} (doall {}, accumulator {}, sequential {})",
        outcome.iterations,
        outcome.addresses,
        outcome.doall_sccs + outcome.accumulator_sccs + outcome.sequential_sccs,
        outcome.doall_sccs,
        outcome.accumulator_sccs,
        outcome.sequential_sccs
    );
    if !outcome.sccs.is_empty() {
        let _ = writeln!(out, "non-doall sccs (by cost):");
        for s in outcome.sccs.iter().take(SCC_LIST_CAP) {
            let _ = writeln!(
                out,
                "  [{}] {} addr(s) from {}  cost {}  value-changing {}",
                s.class.name(),
                s.members.len(),
                s.members[0],
                s.cost,
                s.value_changing
            );
        }
        if outcome.sccs.len() > SCC_LIST_CAP {
            let _ = writeln!(out, "  ... and {} more", outcome.sccs.len() - SCC_LIST_CAP);
        }
    }
    let _ = writeln!(out, "candidates (ranked):");
    for (i, c) in outcome.candidates.iter().enumerate() {
        let warnings = c
            .report
            .findings
            .iter()
            .filter(|f| f.severity == crate::lint::Severity::Warning)
            .count();
        let _ = writeln!(
            out,
            "  #{} {:<10} [{}]  misspec/1k {}  bottleneck {}/{}  warnings {}",
            i + 1,
            c.name,
            c.shape(),
            c.score.misspec_per_1k,
            c.score.bottleneck_cost,
            c.score.total_cost,
            warnings
        );
    }
    for r in &outcome.rejected {
        let _ = writeln!(out, "  refused {:<9} {}", r.name, r.reason);
    }
    let _ = writeln!(
        out,
        "diff vs hand plan: agree {}/{} addresses",
        outcome.diff.agreements, outcome.diff.total
    );
    for d in &outcome.diff.divergences {
        let _ = writeln!(
            out,
            "  hand {} vs auto {}: {} addr(s) (e.g. {}) — {}",
            d.hand, d.auto_role, d.addrs, d.example, d.why
        );
    }
    out
}

/// Renders the planner's outcome as JSONL: one `plan` summary row, one
/// `plan_candidate` row per ranked candidate, one `plan_rejected` row
/// per refusal, one `plan_diff` row per aggregated divergence.
pub fn render_plan_jsonl(outcome: &PlanOutcome) -> String {
    let mut out = String::new();
    let picked = outcome.best().map_or("none", |c| c.name);
    let _ = writeln!(
        out,
        "{{\"record\":\"plan\",\"workload\":{},\"iterations\":{},\
         \"addresses\":{},\"sccs_doall\":{},\"sccs_accumulator\":{},\
         \"sccs_sequential\":{},\"candidates\":{},\"rejected\":{},\
         \"picked\":{},\"diff_agreements\":{},\"diff_total\":{}}}",
        json::string(outcome.name),
        outcome.iterations,
        outcome.addresses,
        outcome.doall_sccs,
        outcome.accumulator_sccs,
        outcome.sequential_sccs,
        outcome.candidates.len(),
        outcome.rejected.len(),
        json::string(picked),
        outcome.diff.agreements,
        outcome.diff.total
    );
    for (i, c) in outcome.candidates.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"record\":\"plan_candidate\",\"workload\":{},\"rank\":{},\
             \"name\":{},\"shape\":{},\"misspec_per_1k\":{},\
             \"bottleneck_cost\":{},\"total_cost\":{},\"findings\":{}}}",
            json::string(outcome.name),
            i + 1,
            json::string(c.name),
            json::string(&c.shape()),
            c.score.misspec_per_1k,
            c.score.bottleneck_cost,
            c.score.total_cost,
            c.report.findings.len()
        );
    }
    for r in &outcome.rejected {
        let _ = writeln!(
            out,
            "{{\"record\":\"plan_rejected\",\"workload\":{},\"name\":{},\"reason\":{}}}",
            json::string(outcome.name),
            json::string(r.name),
            json::string(&r.reason)
        );
    }
    for d in &outcome.diff.divergences {
        let _ = writeln!(
            out,
            "{{\"record\":\"plan_diff\",\"workload\":{},\"hand\":{},\
             \"auto\":{},\"addrs\":{},\"example\":{},\"why\":{}}}",
            json::string(outcome.name),
            json::string(d.hand),
            json::string(d.auto_role),
            d.addrs,
            json::string(&d.example.to_string()),
            json::string(&d.why)
        );
    }
    out
}

/// Exports the planner's outcome into an observability registry under
/// the shared `plan.*` schema names, labeled by workload.
pub fn export_plan_metrics(reg: &mut Registry, outcome: &PlanOutcome) {
    let labels = [("workload", outcome.name)];
    for (name, value) in [
        (
            schema::PLAN_SCCS,
            outcome.doall_sccs + outcome.accumulator_sccs + outcome.sequential_sccs,
        ),
        (schema::PLAN_CANDIDATES, outcome.candidates.len() as u64),
        (schema::PLAN_REJECTED, outcome.rejected.len() as u64),
        (schema::PLAN_AGREEMENTS, outcome.diff.agreements),
        (
            schema::PLAN_DIVERGENCES,
            outcome.diff.total - outcome.diff.agreements,
        ),
    ] {
        reg.add(name, &labels, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmtx::{IterOutcome, MtxId};
    use dsmtx_mem::MasterMem;
    use dsmtx_uva::{OwnerId, VAddr};

    fn at(off: u64) -> VAddr {
        VAddr::new(OwnerId(0), off)
    }

    /// acc += table[i] with a doall output table: one value-changing
    /// accumulator cell, the rest freely parallel.
    fn acc_plus_table(stages: Vec<StageSpec>) -> AnalysisPlan {
        let mut master = MasterMem::new();
        for i in 0..8u64 {
            master.write(at(64 + i * 8), 10 + i);
        }
        AnalysisPlan {
            name: "acc+table",
            iterations: 8,
            master,
            recovery: Box::new(|mtx: MtxId, master: &mut MasterMem| {
                let acc = master.read(at(0));
                let v = master.read(at(64 + mtx.0 * 8));
                master.write(at(0), acc + v);
                master.write(at(1024 + mtx.0 * 8), v * 2);
                IterOutcome::Continue
            }),
            stages,
            shard_map: None,
        }
    }

    #[test]
    fn accumulator_forces_seq_par_and_refuses_doall() {
        let mut plan = acc_plus_table(Vec::new());
        let outcome = auto_plan(&mut plan);
        assert_eq!(outcome.sequential_sccs, 1, "{outcome:?}");
        let best = outcome.best().expect("candidates");
        assert_eq!(best.name, "seq-par");
        assert_eq!(best.score.misspec_per_1k, 0);
        assert!(!best.report.has_errors());
        // The accumulator cell sits in the sequential stage.
        assert_eq!(
            best.stages[*best.assignment.get(&at(0)).unwrap()]
                .role
                .name(),
            "sequential"
        );
        // DOALL over a value-changing accumulator is refused, with the
        // forcing dependence named.
        let refused = outcome
            .rejected
            .iter()
            .find(|r| r.name == "doall")
            .expect("doall refused");
        assert!(
            refused.reason.contains("unforwarded_loop_carried_flow"),
            "{}",
            refused.reason
        );
    }

    #[test]
    fn pure_doall_picks_the_parallel_shape() {
        let mut plan = AnalysisPlan {
            name: "pure-doall",
            iterations: 8,
            master: MasterMem::new(),
            recovery: Box::new(|mtx: MtxId, master: &mut MasterMem| {
                master.write(at(mtx.0 * 8), mtx.0 * 3 + 1);
                IterOutcome::Continue
            }),
            stages: Vec::new(),
            shard_map: None,
        };
        let outcome = auto_plan(&mut plan);
        assert_eq!(outcome.sequential_sccs, 0);
        assert_eq!(outcome.doall_sccs, 8);
        let best = outcome.best().expect("candidates");
        assert_eq!(best.name, "doall");
        assert!(outcome.rejected.is_empty(), "{:?}", outcome.rejected);
        // Only doall + sequential shapes exist without a sequential SCC.
        let names: Vec<&str> = outcome.candidates.iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["doall", "sequential"]);
    }

    #[test]
    fn silent_accumulator_is_speculated_not_serialized() {
        let mut plan = AnalysisPlan {
            name: "silent-acc",
            iterations: 6,
            master: MasterMem::new(),
            recovery: Box::new(|mtx: MtxId, master: &mut MasterMem| {
                let v = master.read(at(0));
                master.write(at(0), v); // silent rewrite every iteration
                master.write(at(1024 + mtx.0 * 8), mtx.0);
                IterOutcome::Continue
            }),
            stages: Vec::new(),
            shard_map: None,
        };
        let outcome = auto_plan(&mut plan);
        assert_eq!(outcome.accumulator_sccs, 1);
        assert_eq!(outcome.sequential_sccs, 0);
        let best = outcome.best().expect("candidates");
        assert_eq!(
            best.name, "doall",
            "silent carried flow is free to speculate"
        );
    }

    #[test]
    fn diff_reports_divergence_from_a_parallel_hand_plan() {
        // Hand plan wrongly declares everything parallel; auto planner
        // puts the accumulator in a sequential stage → divergence with
        // the forcing dependence in the why.
        let hand = vec![StageSpec::new(
            "compute",
            StageRole::Parallel,
            Box::new(|mtx| {
                vec![
                    Region::read_write("acc", at(0), 1),
                    Region::read("table", at(64 + mtx * 8), 1),
                    Region::write("out", at(1024 + mtx * 8), 1),
                ]
            }),
        )];
        let mut plan = acc_plus_table(hand);
        let outcome = auto_plan(&mut plan);
        assert!(outcome.diff.total > 0);
        let d = outcome
            .diff
            .divergences
            .iter()
            .find(|d| d.hand == "parallel" && d.auto_role == "sequential")
            .expect("accumulator divergence");
        assert_eq!(d.addrs, 1);
        assert_eq!(d.example, at(0));
        assert!(d.why.contains("value-changing"), "{}", d.why);
        // Table + output words agree (parallel on both sides).
        assert_eq!(outcome.diff.agreements, outcome.diff.total - 1);
    }

    #[test]
    fn intra_iteration_chain_condenses_into_one_scc() {
        // Each iteration: tmp = in[i]; out = f(tmp) — but through a
        // shared scratch cell read AND written both ways, welding a
        // two-address cycle: load scratch→store acc, load acc→store
        // scratch.
        let mut plan = AnalysisPlan {
            name: "cycle",
            iterations: 4,
            master: MasterMem::new(),
            recovery: Box::new(|_mtx: MtxId, master: &mut MasterMem| {
                let a = master.read(at(0));
                master.write(at(8), a + 1);
                let b = master.read(at(8));
                master.write(at(0), b + 1);
                IterOutcome::Continue
            }),
            stages: Vec::new(),
            shard_map: None,
        };
        let outcome = auto_plan(&mut plan);
        assert_eq!(outcome.sequential_sccs, 1, "{outcome:?}");
        let scc = &outcome.sccs[0];
        assert_eq!(scc.members, vec![at(0), at(8)], "cycle welds both cells");
    }

    #[test]
    fn outcome_is_deterministic_and_jsonl_parses() {
        let render = || {
            let mut plan = acc_plus_table(Vec::new());
            let outcome = auto_plan(&mut plan);
            (render_plan_text(&outcome), render_plan_jsonl(&outcome))
        };
        let (t1, j1) = render();
        let (t2, j2) = render();
        assert_eq!(t1, t2, "text output must be deterministic");
        assert_eq!(j1, j2, "jsonl output must be deterministic");
        for line in j1.lines() {
            dsmtx_obs::json::validate(line).expect("row parses");
        }
        assert!(j1.contains("\"record\":\"plan\""));
        assert!(j1.contains("\"record\":\"plan_candidate\""));
        assert!(j1.contains("\"record\":\"plan_rejected\""));
    }

    #[test]
    fn plan_metrics_export_under_the_shared_schema() {
        let mut plan = acc_plus_table(Vec::new());
        let outcome = auto_plan(&mut plan);
        let mut reg = Registry::new();
        export_plan_metrics(&mut reg, &outcome);
        let labels = [("workload", outcome.name)];
        assert_eq!(
            reg.counter(schema::PLAN_CANDIDATES, &labels),
            Some(outcome.candidates.len() as u64)
        );
        assert_eq!(reg.counter(schema::PLAN_REJECTED, &labels), Some(1));
        for line in reg.to_jsonl().lines() {
            dsmtx_obs::json::validate(line).expect("metric rows parse");
        }
    }
}
