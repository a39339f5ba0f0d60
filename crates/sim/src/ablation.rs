//! Ablations of DSMTX's design choices.
//!
//! The paper motivates several mechanisms qualitatively; these sweeps
//! quantify them on the performance model:
//!
//! * [`batch_sweep`] — §4.2/§5.3: how queue batching buys back the
//!   per-message MPI cost.
//! * [`runahead_sweep`] — §5.4's closing remark: deep run-ahead (big
//!   queues / many outstanding MTX versions) speeds clean execution but
//!   inflates the RFP cost of every rollback.
//! * [`latency_sweep`] — Figure 1 generalized to the full system: DSWP's
//!   speedup barely moves with inter-node latency while TLS's collapses.
//! * [`coa_granularity`] — §4.2: why Copy-On-Access transfers whole pages
//!   rather than single words.

use crate::cluster::ClusterConfig;
use crate::engine::SimEngine;
use crate::profile::WorkloadProfile;

/// One point of the batching sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPoint {
    /// Items coalesced per message.
    pub batch_items: f64,
    /// Full-application speedup at the chosen core count.
    pub speedup: f64,
}

/// Sweeps the queue batch size for one profile.
pub fn batch_sweep(profile: &WorkloadProfile, cores: u32, batches: &[f64]) -> Vec<BatchPoint> {
    batches
        .iter()
        .map(|&batch_items| {
            let cluster = ClusterConfig {
                batch_items,
                ..ClusterConfig::paper()
            };
            BatchPoint {
                batch_items,
                speedup: SimEngine::new(cluster)
                    .simulate_spec_dswp(profile, cores, 0.0)
                    .app_speedup,
            }
        })
        .collect()
}

/// One point of the run-ahead sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunaheadPoint {
    /// Maximum iterations in flight past the commit point.
    pub runahead: u64,
    /// Speedup with no misspeculation.
    pub clean_speedup: f64,
    /// Speedup with the injected misspeculation rate.
    pub misspec_speedup: f64,
    /// RFP's share of the attributed recovery overhead (0..1).
    pub rfp_share: f64,
}

/// Sweeps the run-ahead bound: the §5.4 trade-off between clean
/// throughput and wasted work per rollback.
pub fn runahead_sweep(
    profile: &WorkloadProfile,
    cores: u32,
    misspec_rate: f64,
    runaheads: &[u64],
) -> Vec<RunaheadPoint> {
    runaheads
        .iter()
        .map(|&runahead| {
            let cluster = ClusterConfig {
                max_runahead: runahead,
                ..ClusterConfig::paper()
            };
            let engine = SimEngine::new(cluster);
            let clean = engine.simulate_spec_dswp(profile, cores, 0.0);
            let dirty = engine.simulate_spec_dswp(profile, cores, misspec_rate);
            let total = dirty.recovery.total();
            RunaheadPoint {
                runahead,
                clean_speedup: clean.app_speedup,
                misspec_speedup: dirty.app_speedup,
                rfp_share: if total > 0.0 {
                    dirty.recovery.rfp / total
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// One point of the latency sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPoint {
    /// Base one-way inter-node latency in seconds.
    pub latency: f64,
    /// Spec-DSWP full-application speedup.
    pub dswp: f64,
    /// TLS full-application speedup.
    pub tls: f64,
}

/// Sweeps the inter-node latency: the system-level Figure 1.
pub fn latency_sweep(
    profile: &WorkloadProfile,
    cores: u32,
    latencies: &[f64],
) -> Vec<LatencyPoint> {
    latencies
        .iter()
        .map(|&latency| {
            let cluster = ClusterConfig {
                latency,
                ..ClusterConfig::paper()
            };
            let engine = SimEngine::new(cluster);
            LatencyPoint {
                latency,
                dswp: engine.simulate_spec_dswp(profile, cores, 0.0).app_speedup,
                tls: engine.simulate_tls(profile, cores, 0.0).app_speedup,
            }
        })
        .collect()
}

/// Cost of initializing one worker's working set by Copy-On-Access at
/// page vs word granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoaCost {
    /// Pages in the working set.
    pub pages: u64,
    /// Fraction of each page's words the worker actually touches.
    pub density: f64,
    /// Seconds to fault the working set in page-granular COA.
    pub page_granular: f64,
    /// Seconds with a (hypothetical) word-granular COA.
    pub word_granular: f64,
}

/// §4.2: page-granularity COA amortizes the round trip over nearby words
/// (constructive prefetching); word granularity pays a round trip per
/// touched word and is prohibitive on a cluster.
pub fn coa_granularity(cluster: &ClusterConfig, pages: u64, density: f64) -> CoaCost {
    assert!((0.0..=1.0).contains(&density), "density is a fraction");
    let round_trip = |bytes: f64| {
        2.0 * cluster.latency
            + cluster.wire_time(bytes)
            + cluster.instr_time(cluster.send_instr + cluster.recv_instr)
    };
    let words_touched = (pages as f64 * 512.0 * density).ceil();
    CoaCost {
        pages,
        density,
        page_granular: pages as f64 * round_trip(4096.0),
        word_granular: words_touched * round_trip(8.0),
    }
}

/// One point of the unit-sharding sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPoint {
    /// Try-commit/commit parallelism.
    pub shards: u32,
    /// Full-application speedup.
    pub speedup: f64,
}

/// §3.2's closing remark, quantified: parallelizing the try-commit and
/// commit units relieves their serialization at high worker counts.
pub fn unit_shard_sweep(profile: &WorkloadProfile, cores: u32, shards: &[u32]) -> Vec<ShardPoint> {
    unit_shard_sweep_with(profile, cores, shards, 1.0)
}

/// [`unit_shard_sweep`] with an explicit validation-plane compaction
/// factor (the runtime's shipped bytes over the per-record baseline, as
/// `repro valplane` measures them), so the model predictions reflect the
/// protocol actually running.
pub fn unit_shard_sweep_with(
    profile: &WorkloadProfile,
    cores: u32,
    shards: &[u32],
    val_compaction: f64,
) -> Vec<ShardPoint> {
    shards
        .iter()
        .map(|&s| {
            let cluster = ClusterConfig {
                unit_shards: s,
                val_compaction,
                ..ClusterConfig::paper()
            };
            ShardPoint {
                shards: s,
                speedup: SimEngine::new(cluster)
                    .simulate_spec_dswp(profile, cores, 0.0)
                    .app_speedup,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{StageProfile, StageShape, TlsPlan};

    fn comm_heavy() -> WorkloadProfile {
        WorkloadProfile {
            name: "ablation".into(),
            iter_work: 1.0e-3,
            iterations: 3000,
            coverage: 0.99,
            stages: vec![
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.02,
                    bytes_out: 16_384.0,
                },
                StageProfile {
                    shape: StageShape::Parallel,
                    work_fraction: 0.96,
                    bytes_out: 256.0,
                },
                StageProfile {
                    shape: StageShape::Sequential,
                    work_fraction: 0.02,
                    bytes_out: 0.0,
                },
            ],
            validation_words: 64.0,
            tls: TlsPlan {
                sync_fraction: 0.03,
                bytes_per_iter: 256.0,
                validation_words: 64.0,
            },
            chunked: false,
            invocation: None,
        }
    }

    #[test]
    fn batching_sweep_is_monotone_then_saturates() {
        let pts = batch_sweep(&comm_heavy(), 128, &[1.0, 8.0, 64.0, 512.0, 4096.0]);
        for w in pts.windows(2) {
            assert!(
                w[1].speedup >= w[0].speedup * 0.999,
                "{:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        assert!(pts[3].speedup > 1.5 * pts[0].speedup, "batching pays off");
        // Diminishing returns: the last doubling adds little.
        assert!(pts[4].speedup < pts[3].speedup * 1.2);
    }

    #[test]
    fn runahead_trades_clean_speed_for_rollback_cost() {
        let pts = runahead_sweep(&comm_heavy(), 64, 0.002, &[4, 32, 256, 2048]);
        // Clean speedup never drops as run-ahead deepens.
        for w in pts.windows(2) {
            assert!(w[1].clean_speedup >= w[0].clean_speedup * 0.999);
        }
        // But the recovery bill grows: deep run-ahead loses more of its
        // clean speedup than shallow run-ahead does.
        let loss = |p: &RunaheadPoint| p.clean_speedup / p.misspec_speedup;
        assert!(
            loss(&pts[3]) > loss(&pts[0]),
            "deep {:?} vs shallow {:?}",
            pts[3],
            pts[0]
        );
        assert!(pts[3].rfp_share > 0.5, "deep run-ahead is RFP-dominated");
    }

    #[test]
    fn latency_sweep_shows_dswp_tolerance() {
        let lats = [1.0e-6, 4.0e-6, 16.0e-6, 64.0e-6];
        let pts = latency_sweep(&comm_heavy(), 128, &lats);
        let dswp_drop = pts[0].dswp / pts[3].dswp;
        let tls_drop = pts[0].tls / pts[3].tls;
        assert!(
            tls_drop > 1.5 * dswp_drop,
            "TLS collapses under latency: dswp {dswp_drop:.2}x vs tls {tls_drop:.2}x"
        );
        assert!(dswp_drop < 1.6, "DSWP stays latency-tolerant: {dswp_drop}");
    }

    #[test]
    fn page_granular_coa_wins_at_realistic_density() {
        let c = ClusterConfig::paper();
        // Even touching 10% of each page, one round trip per page beats
        // one per word.
        let sparse = coa_granularity(&c, 64, 0.1);
        assert!(sparse.page_granular < sparse.word_granular);
        let dense = coa_granularity(&c, 64, 1.0);
        assert!(
            dense.word_granular > 50.0 * dense.page_granular,
            "word COA is prohibitive: {:?}",
            dense
        );
    }

    #[test]
    fn unit_sharding_relieves_validation_serialization() {
        // A validation-heavy profile with negligible sequential stages:
        // the try-commit/commit units are the only serialization left.
        let mut p = comm_heavy();
        p.validation_words = 2048.0;
        p.stages[0].bytes_out = 256.0;
        p.stages[0].work_fraction = 0.002;
        p.stages[1].work_fraction = 0.996;
        p.stages[2].work_fraction = 0.002;
        let pts = unit_shard_sweep(&p, 128, &[1, 2, 4, 8]);
        assert!(
            pts[3].speedup > 1.5 * pts[0].speedup,
            "sharding helps: {:?}",
            pts
        );
        for w in pts.windows(2) {
            assert!(w[1].speedup >= w[0].speedup * 0.999);
        }
    }

    #[test]
    fn word_coa_can_win_only_when_pathologically_sparse() {
        let c = ClusterConfig::paper();
        let p = coa_granularity(&c, 64, 1.0 / 512.0); // one word per page
        assert!(p.word_granular <= p.page_granular * 1.01);
    }
}
