//! Partition linter: checks a recorded dependence graph against a plan's
//! declared stage partition and emits typed findings.
//!
//! The rules mirror what the runtime actually does, not a generic static
//! analysis:
//!
//! * a loop-carried flow dependence is **safe** iff some [`StageRole::Sequential`]
//!   stage covers both its endpoints (the single replica retains its own
//!   stores across iterations) or the address is declared forwarded
//!   (produce/consume or ring sync). Anything else the runtime
//!   *speculates on* — [`FindingKind::UnforwardedLoopCarriedFlow`];
//! * value-based validation means a dependence whose every instance is a
//!   silent store can never manifest as a conflict, so such findings are
//!   downgraded to [`Severity::Warning`];
//! * an access outside every declared footprint is
//!   [`FindingKind::CapturedStateEscape`] — the plan's description of
//!   itself is wrong, and every certification downstream of it is void;
//! * stores to one address attributed to different stages are a
//!   [`FindingKind::CrossStageOutputDep`] — commit order, not stage
//!   order, decides the final value;
//! * a skewed filtered-store stream at a candidate shard count is a
//!   [`FindingKind::ShardHotspot`] — sharded try-commit would serialize
//!   on one unit.

use std::collections::{BTreeMap, BTreeSet};

use dsmtx::{StageRole, StageSpec};
use dsmtx_mem::{store_shard_load, AccessKind, ShardMap};
use dsmtx_uva::VAddr;

use crate::pdg::{DepGraph, DepKind};
use crate::record::LoopTrace;

/// One shard's filtered-store share (percent) above which it is a
/// hotspot.
pub const HOTSPOT_SHARE_PCT: u64 = 60;
/// Minimum filtered stores before shard balance is worth flagging.
pub const HOTSPOT_MIN_STORES: u64 = 128;
/// Candidate shard counts the hotspot check evaluates.
pub const HOTSPOT_SHARDS: [usize; 2] = [2, 4];

/// Finding severity. `Error` findings fail the CI gate for shipped plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Acknowledged and mitigated as far as the mechanism allows — kept
    /// in the report for visibility (e.g. a store skew that a shipped
    /// shard map balanced down to the single-page floor).
    Info,
    /// Real but benign under value-based validation, or a throughput
    /// concern rather than a correctness one.
    Warning,
    /// The runtime will misspeculate (or the plan's self-description is
    /// wrong, which is worse).
    Error,
}

impl Severity {
    /// Lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// What kind of partition defect a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A loop-carried flow dependence neither contained in a sequential
    /// stage nor forwarded: the runtime speculates on it.
    UnforwardedLoopCarriedFlow,
    /// Stores to one address attributed to different stages.
    CrossStageOutputDep,
    /// An access the declared footprints do not cover.
    CapturedStateEscape,
    /// One try-commit shard would own a supermajority of speculative
    /// stores at a candidate shard count.
    ShardHotspot,
}

impl FindingKind {
    /// Snake-case name used in the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::UnforwardedLoopCarriedFlow => "unforwarded_loop_carried_flow",
            FindingKind::CrossStageOutputDep => "cross_stage_output_dep",
            FindingKind::CapturedStateEscape => "captured_state_escape",
            FindingKind::ShardHotspot => "shard_hotspot",
        }
    }
}

/// One typed lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What rule fired.
    pub kind: FindingKind,
    /// Whether the CI gate fails on it.
    pub severity: Severity,
    /// Short machine-usable subject ("addr 0+0x40", "shards=4 shard=1").
    pub subject: String,
    /// Pages implicated (raw `PageId` values, sorted, deduped).
    pub pages: Vec<u64>,
    /// Dependence/access instances behind the finding.
    pub instances: u64,
    /// Instances whose store actually changed the cell's value — the
    /// ones value-based validation can observe.
    pub value_changing: u64,
    /// Predicted misspeculations per 1000 iterations, from the recorded
    /// value-changing rate.
    pub predicted_misspec_per_1k: u64,
    /// Human-readable explanation.
    pub message: String,
}

/// The linter's verdict on one plan.
#[derive(Debug)]
pub struct LintReport {
    /// Workload name.
    pub name: &'static str,
    /// Iterations the verdict is based on.
    pub iterations: u64,
    /// All findings, errors first.
    pub findings: Vec<Finding>,
    /// Conservative superset of pages where the runtime may observe a
    /// try-commit conflict: every unforwarded carried-flow page plus
    /// every escaped page. Certification asserts observed ⊆ this set.
    pub predicted_conflict_pages: BTreeSet<u64>,
}

impl LintReport {
    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// Whether the CI gate fails.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }
}

/// The first declared region (footprint or forwarded, any stage) that
/// contains `addr` at iteration `iter` — for naming findings.
fn region_name(stages: &[StageSpec], iter: u64, addr: VAddr) -> Option<&'static str> {
    for s in stages {
        if let Some(r) = (s.footprint)(iter).iter().find(|r| r.contains(addr)) {
            return Some(r.name);
        }
        if let Some(r) = s.forwarded.iter().find(|r| r.contains(addr)) {
            return Some(r.name);
        }
    }
    None
}

/// Runs every lint rule over a recorded trace, its dependence graph, and
/// the plan's declared stages. `shard_map` is the plan's shipped
/// page→shard placement, if any: the hotspot rule weighs *its* histogram
/// instead of the hash partition's, so a profile-balanced plan is graded
/// on the routing it will actually run with.
pub fn lint(
    trace: &LoopTrace,
    graph: &DepGraph,
    stages: &[StageSpec],
    shard_map: Option<&ShardMap>,
) -> LintReport {
    let iterations = graph.iterations.max(1);
    let mut findings = Vec::new();
    let mut predicted: BTreeSet<u64> = BTreeSet::new();

    // Rule 1: unforwarded loop-carried flow dependences.
    let mut carried_by_addr: BTreeMap<VAddr, Vec<(u64, u64, bool)>> = BTreeMap::new();
    for e in graph.carried_flows() {
        carried_by_addr
            .entry(e.addr)
            .or_default()
            .push((e.src_iter, e.dst_iter, e.value_changed));
    }
    for (addr, edges) in &carried_by_addr {
        if stages.iter().any(|s| s.forwards(*addr)) {
            continue;
        }
        let speculated: Vec<_> = edges
            .iter()
            .filter(|(src, dst, _)| {
                !stages.iter().any(|s| {
                    s.role == StageRole::Sequential
                        && s.covers_store(*src, *addr)
                        && s.covers_load(*dst, *addr)
                })
            })
            .collect();
        if speculated.is_empty() {
            continue;
        }
        let value_changing = speculated.iter().filter(|(_, _, c)| *c).count() as u64;
        let severity = if value_changing > 0 {
            Severity::Error
        } else {
            Severity::Warning
        };
        let region = region_name(stages, speculated[0].1, *addr).unwrap_or("<undeclared>");
        predicted.insert(addr.page().0);
        findings.push(Finding {
            kind: FindingKind::UnforwardedLoopCarriedFlow,
            severity,
            subject: format!("addr {addr} region {region}"),
            pages: vec![addr.page().0],
            instances: speculated.len() as u64,
            value_changing,
            predicted_misspec_per_1k: value_changing * 1000 / iterations,
            message: format!(
                "loop-carried flow dependence on {region} ({addr}) is speculated: \
                 {} of {} instances change the value; no sequential stage contains \
                 both endpoints and the address is not forwarded",
                value_changing,
                speculated.len()
            ),
        });
    }

    // Rule 2: accesses outside every declared footprint.
    let mut escapes: BTreeMap<u64, (u64, u64, BTreeSet<VAddr>)> = BTreeMap::new();
    for t in &trace.iters {
        for r in &t.raw {
            let covered = stages.iter().any(|s| {
                s.forwards(r.addr)
                    || match r.kind {
                        AccessKind::Load => s.covers_load(t.iter, r.addr),
                        AccessKind::Store => s.covers_store(t.iter, r.addr),
                    }
            });
            if !covered {
                let e = escapes.entry(r.addr.page().0).or_default();
                match r.kind {
                    AccessKind::Load => e.0 += 1,
                    AccessKind::Store => e.1 += 1,
                }
                e.2.insert(r.addr);
            }
        }
    }
    for (page, (loads, stores, addrs)) in &escapes {
        predicted.insert(*page);
        let first = addrs.iter().next().expect("non-empty escape group");
        findings.push(Finding {
            kind: FindingKind::CapturedStateEscape,
            severity: Severity::Error,
            subject: format!("page {page} (first {first})"),
            pages: vec![*page],
            instances: loads + stores,
            value_changing: *stores,
            predicted_misspec_per_1k: (loads + stores) * 1000 / iterations,
            message: format!(
                "{} loads and {} stores across {} addresses on page {page} are \
                 outside every declared stage footprint; the plan's \
                 self-description is incomplete",
                loads,
                stores,
                addrs.len()
            ),
        });
    }

    // Rule 3: stores to one address attributed to different stages.
    let stage_of_store =
        |iter: u64, addr: VAddr| stages.iter().position(|s| s.covers_store(iter, addr));
    let mut cross: BTreeMap<VAddr, u64> = BTreeMap::new();
    for e in graph.of_kind(DepKind::Output) {
        if let (Some(a), Some(b)) = (
            stage_of_store(e.src_iter, e.addr),
            stage_of_store(e.dst_iter, e.addr),
        ) {
            if a != b {
                *cross.entry(e.addr).or_default() += 1;
            }
        }
    }
    for (addr, count) in &cross {
        let region = region_name(stages, 0, *addr).unwrap_or("<undeclared>");
        findings.push(Finding {
            kind: FindingKind::CrossStageOutputDep,
            severity: Severity::Warning,
            subject: format!("addr {addr} region {region}"),
            pages: vec![addr.page().0],
            instances: *count,
            value_changing: 0,
            predicted_misspec_per_1k: 0,
            message: format!(
                "{count} output dependences on {region} ({addr}) cross stage \
                 boundaries; the final value depends on commit order, not stage \
                 order"
            ),
        });
    }

    // Rule 4: shard balance of the validation-visible store stream,
    // weighed under the routing the plan ships (its page→shard map when
    // present, the hash partition otherwise).
    let stream = trace.filtered_stream();
    let mut per_page: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &stream {
        if r.kind == AccessKind::Store {
            *per_page.entry(r.addr.page().0).or_insert(0) += 1;
        }
    }
    let top_page = per_page.iter().max_by_key(|(_, &c)| c);
    for n in HOTSPOT_SHARDS {
        let counts = store_shard_load(&stream, shard_map, n);
        let total: u64 = counts.iter().sum();
        if total < HOTSPOT_MIN_STORES {
            continue;
        }
        let (hot, &hot_count) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .expect("n >= 2 shards");
        if hot_count * 100 > total * HOTSPOT_SHARE_PCT {
            // Page granularity is the floor: when a single page alone
            // exceeds the hotspot share, no page→shard placement can
            // split it. A plan that shipped a balanced map has done all
            // the mechanism allows — demote to Info instead of Warning.
            let irreducible = matches!(
                top_page,
                Some((_, &c)) if c * 100 > total * HOTSPOT_SHARE_PCT
            );
            let (severity, note) = if shard_map.is_some() && irreducible {
                (
                    Severity::Info,
                    "; the shipped shard map balanced the rest, and the residual \
                     skew is a single page — irreducible at page granularity",
                )
            } else {
                (Severity::Warning, "")
            };
            findings.push(Finding {
                kind: FindingKind::ShardHotspot,
                severity,
                subject: format!("shards={n} shard={hot}"),
                pages: Vec::new(),
                instances: total,
                value_changing: hot_count,
                predicted_misspec_per_1k: 0,
                message: format!(
                    "at {n} try-commit shards, shard {hot} owns {hot_count} of \
                     {total} filtered stores ({}%); sharded validation would \
                     serialize on it{note}",
                    hot_count * 100 / total
                ),
            });
        }
    }

    // Fully deterministic report order: severity (errors first), then
    // rule name, then subject — so golden files and CI artifacts diff
    // cleanly across runs.
    findings.sort_by(|a, b| {
        std::cmp::Reverse(a.severity)
            .cmp(&std::cmp::Reverse(b.severity))
            .then_with(|| a.kind.name().cmp(b.kind.name()))
            .then_with(|| a.subject.cmp(&b.subject))
    });
    LintReport {
        name: graph.name,
        iterations: graph.iterations,
        findings,
        predicted_conflict_pages: predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdg::build;
    use crate::record::record;
    use dsmtx::{IterOutcome, MtxId, Region};
    use dsmtx_mem::MasterMem;
    use dsmtx_uva::{OwnerId, PageId, PAGE_BYTES};
    use dsmtx_workloads::AnalysisPlan;

    fn at(off: u64) -> VAddr {
        VAddr::new(OwnerId(0), off)
    }

    fn lint_plan(mut plan: AnalysisPlan) -> LintReport {
        let trace = record(&mut plan);
        let graph = build(&trace);
        lint(&trace, &graph, &plan.stages, plan.shard_map.as_ref())
    }

    fn accumulator_body() -> dsmtx::RecoveryFn {
        Box::new(|mtx: MtxId, master: &mut MasterMem| {
            let acc = master.read(at(0));
            master.write(at(0), acc + mtx.0 + 1);
            IterOutcome::Continue
        })
    }

    #[test]
    fn doall_plan_is_clean() {
        let report = lint_plan(AnalysisPlan {
            name: "doall",
            iterations: 8,
            master: MasterMem::new(),
            recovery: Box::new(|mtx, master| {
                master.write(at(1024 + mtx.0 * 8), mtx.0 * 3);
                IterOutcome::Continue
            }),
            stages: vec![StageSpec::new(
                "compute",
                StageRole::Parallel,
                Box::new(|mtx| vec![Region::write("out", at(1024 + mtx * 8), 1)]),
            )],
            shard_map: None,
        });
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.predicted_conflict_pages.is_empty());
    }

    #[test]
    fn speculated_accumulator_is_an_error() {
        let report = lint_plan(AnalysisPlan {
            name: "acc",
            iterations: 8,
            master: MasterMem::new(),
            recovery: accumulator_body(),
            stages: vec![StageSpec::new(
                "compute",
                StageRole::Parallel,
                Box::new(|_| vec![Region::read_write("acc", at(0), 1)]),
            )],
            shard_map: None,
        });
        assert!(report.has_errors());
        let f = &report.findings[0];
        assert_eq!(f.kind, FindingKind::UnforwardedLoopCarriedFlow);
        assert_eq!(f.instances, 7);
        assert_eq!(f.value_changing, 7);
        assert_eq!(f.predicted_misspec_per_1k, 7 * 1000 / 8);
        assert!(report.predicted_conflict_pages.contains(&at(0).page().0));
    }

    #[test]
    fn sequential_stage_contains_the_carried_flow() {
        let report = lint_plan(AnalysisPlan {
            name: "acc-seq",
            iterations: 8,
            master: MasterMem::new(),
            recovery: accumulator_body(),
            stages: vec![StageSpec::new(
                "reduce",
                StageRole::Sequential,
                Box::new(|_| vec![Region::read_write("acc", at(0), 1)]),
            )],
            shard_map: None,
        });
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn forwarded_address_is_safe() {
        let report = lint_plan(AnalysisPlan {
            name: "acc-fwd",
            iterations: 8,
            master: MasterMem::new(),
            recovery: accumulator_body(),
            stages: vec![StageSpec::new(
                "scan",
                StageRole::Ring,
                Box::new(|_| vec![Region::read_write("acc", at(0), 1)]),
            )
            .forward(Region::read_write("acc", at(0), 1))],
            shard_map: None,
        });
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn silent_carried_flow_is_only_a_warning() {
        let report = lint_plan(AnalysisPlan {
            name: "silent",
            iterations: 8,
            master: MasterMem::new(),
            recovery: Box::new(|_mtx, master| {
                let v = master.read(at(0));
                master.write(at(0), v); // silent rewrite
                IterOutcome::Continue
            }),
            stages: vec![StageSpec::new(
                "compute",
                StageRole::Parallel,
                Box::new(|_| vec![Region::read_write("acc", at(0), 1)]),
            )],
            shard_map: None,
        });
        assert!(!report.has_errors());
        let f = &report.findings[0];
        assert_eq!(f.kind, FindingKind::UnforwardedLoopCarriedFlow);
        assert_eq!(f.severity, Severity::Warning);
        assert_eq!(f.value_changing, 0);
        assert_eq!(f.predicted_misspec_per_1k, 0);
        // Still a predicted conflict page: the superset is conservative.
        assert!(report.predicted_conflict_pages.contains(&at(0).page().0));
    }

    #[test]
    fn undeclared_access_is_an_escape() {
        let report = lint_plan(AnalysisPlan {
            name: "escape",
            iterations: 4,
            master: MasterMem::new(),
            recovery: Box::new(|mtx, master| {
                master.write(at(1024 + mtx.0 * 8), 1); // declared
                master.write(at(65536), mtx.0); // not declared anywhere
                IterOutcome::Continue
            }),
            stages: vec![StageSpec::new(
                "compute",
                StageRole::Parallel,
                Box::new(|mtx| vec![Region::write("out", at(1024 + mtx * 8), 1)]),
            )],
            shard_map: None,
        });
        assert!(report.has_errors());
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::CapturedStateEscape)
            .expect("escape finding");
        assert_eq!(f.instances, 4);
        assert_eq!(f.value_changing, 4, "all escapes are stores");
        assert!(report
            .predicted_conflict_pages
            .contains(&at(65536).page().0));
    }

    #[test]
    fn cross_stage_stores_are_flagged() {
        // Even iterations write the cell from stage 0, odd ones from
        // stage 1 — the declared partition splits one output cell.
        let report = lint_plan(AnalysisPlan {
            name: "cross",
            iterations: 6,
            master: MasterMem::new(),
            recovery: Box::new(|mtx, master| {
                master.write(at(0), mtx.0 + 1);
                IterOutcome::Continue
            }),
            stages: vec![
                StageSpec::new(
                    "even",
                    StageRole::Parallel,
                    Box::new(|mtx| {
                        if mtx % 2 == 0 {
                            vec![Region::write("cell", at(0), 1)]
                        } else {
                            Vec::new()
                        }
                    }),
                ),
                StageSpec::new(
                    "odd",
                    StageRole::Parallel,
                    Box::new(|mtx| {
                        if mtx % 2 == 1 {
                            vec![Region::write("cell", at(0), 1)]
                        } else {
                            Vec::new()
                        }
                    }),
                ),
            ],
            shard_map: None,
        });
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::CrossStageOutputDep)
            .expect("cross-stage finding");
        assert_eq!(f.severity, Severity::Warning);
        assert_eq!(f.instances, 5, "every adjacent store pair crosses");
    }

    #[test]
    fn skewed_store_stream_is_a_hotspot() {
        // Route every store to pages that land on shard 0 at n=2.
        let pages: Vec<u64> = (0..4096u64)
            .filter(|p| dsmtx_mem::shard_of(PageId(*p), 2) == 0)
            .take(200)
            .collect();
        let n = pages.len() as u64;
        assert!(n >= HOTSPOT_MIN_STORES);
        let report = lint_plan(AnalysisPlan {
            name: "hotspot",
            iterations: n,
            master: MasterMem::new(),
            recovery: Box::new(move |mtx, master| {
                master.write(at(pages[mtx.0 as usize] * PAGE_BYTES), mtx.0);
                IterOutcome::Continue
            }),
            stages: vec![StageSpec::new(
                "compute",
                StageRole::Parallel,
                Box::new(|_| vec![Region::write("all", at(0), 4096 * 512)]),
            )],
            shard_map: None,
        });
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::ShardHotspot && f.subject.starts_with("shards=2"))
            .expect("hotspot finding at 2 shards");
        assert_eq!(f.severity, Severity::Warning);
        assert_eq!(f.value_changing, f.instances, "one shard owns everything");
    }

    #[test]
    fn balanced_map_clears_a_multi_page_hotspot() {
        // Eight equal-weight pages all hashing to shard 0 at n=2: a
        // hotspot under the hash partition, fully balanceable by an
        // explicit map because no single page dominates.
        let pages: Vec<u64> = (0..4096u64)
            .filter(|p| dsmtx_mem::shard_of(PageId(*p), 2) == 0)
            .take(8)
            .collect();
        let iters = 8 * HOTSPOT_MIN_STORES / 4;
        let make_plan = || AnalysisPlan {
            name: "skew",
            iterations: iters,
            master: MasterMem::new(),
            recovery: {
                let pages = pages.clone();
                Box::new(move |mtx: MtxId, master: &mut MasterMem| {
                    let page = pages[(mtx.0 % 8) as usize];
                    master.write(at(page * PAGE_BYTES + (mtx.0 / 8) * 8), mtx.0);
                    IterOutcome::Continue
                })
            },
            stages: vec![StageSpec::new(
                "compute",
                StageRole::Parallel,
                Box::new(|_| vec![Region::write("all", at(0), 4096 * 512)]),
            )],
            shard_map: None,
        };

        let unmapped = lint_plan(make_plan());
        assert!(
            unmapped
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::ShardHotspot && f.severity == Severity::Warning),
            "hash partition must show the planted hotspot"
        );

        let mut plan = make_plan();
        let trace = record(&mut plan);
        let map = dsmtx_mem::ShardMap::balance(&trace.filtered_stream(), 4);
        let graph = build(&trace);
        let report = lint(&trace, &graph, &plan.stages, Some(&map));
        assert!(
            !report
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::ShardHotspot),
            "balanced map clears the finding entirely: {:?}",
            report.findings
        );
    }

    #[test]
    fn irreducible_single_page_skew_demotes_to_info() {
        // Every store on one page: no page→shard map can split it, so a
        // plan that ships a balanced map gets Info, not Warning.
        let iters = HOTSPOT_MIN_STORES + 8;
        let make_plan = |map: Option<dsmtx_mem::ShardMap>| AnalysisPlan {
            name: "one-page",
            iterations: iters,
            master: MasterMem::new(),
            recovery: Box::new(|mtx: MtxId, master: &mut MasterMem| {
                master.write(at((mtx.0 % 512) * 8), mtx.0 + 1);
                IterOutcome::Continue
            }),
            stages: vec![StageSpec::new(
                "compute",
                StageRole::Parallel,
                Box::new(|_| vec![Region::read_write("all", at(0), 512)]),
            )],
            shard_map: map,
        };

        let unmapped = lint_plan(make_plan(None));
        let f = unmapped
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::ShardHotspot)
            .expect("hotspot without a map");
        assert_eq!(f.severity, Severity::Warning);

        let mut probe = make_plan(None);
        let trace = record(&mut probe);
        let map = dsmtx_mem::ShardMap::balance(&trace.filtered_stream(), 4);
        let mapped = lint_plan(make_plan(Some(map)));
        let f = mapped
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::ShardHotspot)
            .expect("skew is irreducible, finding stays");
        assert_eq!(f.severity, Severity::Info, "demoted: map did all it could");
        assert!(f.message.contains("irreducible at page granularity"));
        assert!(!mapped.has_errors());
    }

    #[test]
    fn findings_sort_by_severity_then_rule_then_subject() {
        // A plan with an escape (error), a carried flow (error), and a
        // hotspot (warning): order must be fully deterministic.
        let iters = HOTSPOT_MIN_STORES + 8;
        let report = lint_plan(AnalysisPlan {
            name: "mixed",
            iterations: iters,
            master: MasterMem::new(),
            recovery: Box::new(|mtx: MtxId, master: &mut MasterMem| {
                let v = master.read(at(0));
                master.write(at(0), v + 1);
                master.write(at(8 + (mtx.0 % 512) * 8), mtx.0 + 1);
                master.write(at(1 << 20), mtx.0 + 1); // escape
                IterOutcome::Continue
            }),
            stages: vec![StageSpec::new(
                "compute",
                StageRole::Parallel,
                Box::new(|_| vec![Region::read_write("all", at(0), 513)]),
            )],
            shard_map: None,
        });
        let keys: Vec<(Severity, &str, &str)> = report
            .findings
            .iter()
            .map(|f| (f.severity, f.kind.name(), f.subject.as_str()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_by(|a, b| {
            std::cmp::Reverse(a.0)
                .cmp(&std::cmp::Reverse(b.0))
                .then_with(|| a.1.cmp(b.1))
                .then_with(|| a.2.cmp(b.2))
        });
        assert_eq!(keys, sorted, "report order must match the sort key");
        assert!(keys.len() >= 3, "expected several findings: {keys:?}");
        assert_eq!(keys[0].0, Severity::Error);
    }
}
