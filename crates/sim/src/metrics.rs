//! Metrics export for simulated runs.
//!
//! A [`SimOutcome`] publishes itself into a [`Registry`] under the same
//! [`dsmtx_obs::schema`] names the real runtime uses
//! (`RunReport::to_registry` in the core crate), so a simulated sweep and
//! a real traced run produce JSONL dumps with one shared vocabulary —
//! diffable and plottable by the same tooling.

use dsmtx_obs::{schema, Registry};

use crate::engine::SimOutcome;

impl SimOutcome {
    /// Exports this outcome into `reg` under the shared schema names.
    ///
    /// Simulated times are in seconds; they are converted to the schema's
    /// microsecond units. Speedup is exported in milli-x
    /// ([`schema::RUN_SPEEDUP_MILLI`]) so it survives the integer gauge.
    pub fn to_registry(&self, reg: &mut Registry) {
        reg.set(schema::RUN_ELAPSED_US, &[], (self.loop_time * 1e6) as i64);
        reg.add(schema::RUN_RECOVERIES, &[], self.recovery.episodes);
        reg.add(schema::RUN_BYTES, &[], self.bytes as u64);
        reg.set(schema::RUN_BANDWIDTH_BPS, &[], self.bandwidth as i64);
        reg.set(
            schema::RUN_SPEEDUP_MILLI,
            &[],
            (self.app_speedup * 1000.0) as i64,
        );
    }

    /// One-call JSONL dump of this outcome.
    pub fn to_jsonl(&self) -> String {
        let mut reg = Registry::new();
        self.to_registry(&mut reg);
        reg.to_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{StageProfile, StageShape, TlsPlan, WorkloadProfile};
    use crate::SimEngine;

    fn any_outcome() -> SimOutcome {
        let engine = SimEngine::default();
        let profile = WorkloadProfile {
            name: "t".into(),
            iter_work: 1e-5,
            iterations: 1000,
            coverage: 0.95,
            stages: vec![StageProfile {
                shape: StageShape::Parallel,
                work_fraction: 1.0,
                bytes_out: 64.0,
            }],
            validation_words: 8.0,
            tls: TlsPlan {
                sync_fraction: 0.0,
                bytes_per_iter: 64.0,
                validation_words: 8.0,
            },
            chunked: false,
            invocation: None,
        };
        engine.simulate_spec_dswp(&profile, 32, 0.0)
    }

    #[test]
    fn sim_outcome_exports_shared_schema() {
        let out = any_outcome();
        let dump = out.to_jsonl();
        for name in [
            schema::RUN_ELAPSED_US,
            schema::RUN_RECOVERIES,
            schema::RUN_BYTES,
            schema::RUN_BANDWIDTH_BPS,
            schema::RUN_SPEEDUP_MILLI,
        ] {
            assert!(dump.contains(name), "missing {name} in:\n{dump}");
        }
        for line in dump.lines() {
            dsmtx_obs::json::validate(line).unwrap();
        }
    }

    #[test]
    fn speedup_survives_the_integer_gauge() {
        let out = any_outcome();
        let mut reg = Registry::new();
        out.to_registry(&mut reg);
        let milli = reg.gauge(schema::RUN_SPEEDUP_MILLI, &[]).unwrap();
        assert!((milli as f64 / 1000.0 - out.app_speedup).abs() < 0.001);
    }
}
