//! The `repro bench-check` section: regenerates every committed
//! `BENCH_*.json` baseline and compares the fresh run against it.
//!
//! Structure is checked strictly — same keys, same array lengths, same
//! strings — while measured numbers get a generous tolerance band, since
//! the committed baselines are single-machine timing measurements. The
//! band still catches the regressions that matter: a metric collapsing
//! to zero, an order-of-magnitude slowdown, or a field disappearing
//! from the artifact. Model output (the simulator's speedups) is a pure
//! function of exact counts, so it must match within 1%: a stale model
//! column fails the check.

use std::fmt::Write as _;
use std::path::Path;

use dsmtx_obs::json::{parse, Value};

/// Numbers within this multiplicative band pass (machine variance).
const BAND: f64 = 16.0;
/// Small absolute differences always pass (schedule-dependent counts).
const ABS_SLACK: f64 = 64.0;
/// Relative tolerance of model output, which no timing feeds.
const MODEL_TOLERANCE: f64 = 0.01;
/// Regeneration attempts before a baseline is declared drifted. Timing
/// means of a few µs can jitter past any reasonable band on one
/// unlucky schedule; real regressions (collapse, structural drift)
/// reproduce on every attempt.
const REGEN_ATTEMPTS: usize = 3;

/// Whether a fresh number is inside the tolerance band of the baseline.
fn number_ok(base: f64, fresh: f64) -> bool {
    if base == fresh {
        return true;
    }
    if (base - fresh).abs() <= ABS_SLACK {
        return true;
    }
    let (lo, hi) = if base.abs() < fresh.abs() {
        (base.abs(), fresh.abs())
    } else {
        (fresh.abs(), base.abs())
    };
    base.signum() == fresh.signum() && lo > 0.0 && hi / lo <= BAND
}

/// Whether the number at `path` is model output: the shard sweep's
/// simulated speedups and the validation-plane sweep's predicted one.
fn is_model_output(path: &str) -> bool {
    path == "$.sim_predicted_speedup"
        || (path.starts_with("$.simulated[") && path.ends_with("].speedup"))
}

/// Compares a fresh artifact against a committed baseline; appends one
/// message per violation, prefixed with the JSON path.
pub fn compare(base: &Value, fresh: &Value, path: &str, violations: &mut Vec<String>) {
    match (base, fresh) {
        (Value::Obj(b), Value::Obj(f)) => {
            for key in b.keys() {
                if !f.contains_key(key) {
                    violations.push(format!("{path}.{key}: missing from fresh run"));
                }
            }
            for key in f.keys() {
                if !b.contains_key(key) {
                    violations.push(format!("{path}.{key}: not in baseline"));
                }
            }
            for (key, bv) in b {
                if let Some(fv) = f.get(key) {
                    compare(bv, fv, &format!("{path}.{key}"), violations);
                }
            }
        }
        (Value::Arr(b), Value::Arr(f)) => {
            if b.len() != f.len() {
                violations.push(format!(
                    "{path}: baseline has {} element(s), fresh has {}",
                    b.len(),
                    f.len()
                ));
            }
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                compare(bv, fv, &format!("{path}[{i}]"), violations);
            }
        }
        (Value::Num(b), Value::Num(f)) if is_model_output(path) => {
            if (f - b).abs() > MODEL_TOLERANCE * b.abs() {
                violations.push(format!(
                    "{path}: model output {f} differs from baseline {b} \
                     by more than {}%",
                    MODEL_TOLERANCE * 100.0
                ));
            }
        }
        (Value::Num(b), Value::Num(f)) => {
            if !number_ok(*b, *f) {
                violations.push(format!(
                    "{path}: {f} outside tolerance of baseline {b} \
                     (band x{BAND}, slack {ABS_SLACK})"
                ));
            }
        }
        (b, f) => {
            if b != f {
                violations.push(format!("{path}: fresh {f:?} != baseline {b:?}"));
            }
        }
    }
}

fn get_num(v: &Value, key: &str) -> Option<f64> {
    match v {
        Value::Obj(m) => match m.get(key) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        },
        _ => None,
    }
}

/// Regenerates the artifact a baseline file describes, using the
/// baseline's own parameters so deterministic fields reproduce exactly.
fn regenerate(name: &str, base: &Value) -> Result<String, String> {
    match name {
        "BENCH_shard_sweep.json" => {
            let iters = get_num(base, "iters").unwrap_or(512.0) as u64;
            let writes = get_num(base, "writes_per_iter").unwrap_or(32.0) as u64;
            let max_shards = match base {
                Value::Obj(m) => match m.get("measured") {
                    Some(Value::Arr(rows)) => rows
                        .iter()
                        .filter_map(|r| get_num(r, "shards"))
                        .fold(1.0, f64::max) as usize,
                    _ => 4,
                },
                _ => 4,
            };
            let sweep = crate::shardsweep::run_shard_sweep(iters, writes, max_shards);
            Ok(crate::shardsweep::shard_sweep_json(&sweep))
        }
        "BENCH_valplane.json" => {
            let iters = get_num(base, "iters").unwrap_or(512.0) as u64;
            let writes = get_num(base, "writes_per_iter").unwrap_or(32.0) as u64;
            let sweep = crate::valplane::run_valplane_sweep(iters, writes);
            Ok(crate::valplane::valplane_json(&sweep))
        }
        "BENCH_mtx_lifecycle.json" => {
            let shards: Vec<usize> = match base {
                Value::Obj(m) => match m.get("rows") {
                    Some(Value::Arr(rows)) => rows
                        .iter()
                        .filter_map(|r| get_num(r, "shards"))
                        .map(|s| s as usize)
                        .collect(),
                    _ => vec![1, 2, 4],
                },
                _ => vec![1, 2, 4],
            };
            let rows = crate::why::run_mtx_lifecycle(&shards)?;
            Ok(crate::why::mtx_lifecycle_json(&rows))
        }
        other => Err(format!("no generator for baseline `{other}`")),
    }
}

/// Baselines `bench-check` knows how to regenerate.
pub const BASELINES: [&str; 3] = [
    "BENCH_shard_sweep.json",
    "BENCH_valplane.json",
    "BENCH_mtx_lifecycle.json",
];

/// The check's report plus whether it should fail the CI gate.
#[derive(Debug)]
pub struct BenchCheckOutcome {
    /// Human-readable per-baseline report.
    pub output: String,
    /// Whether any baseline is missing or outside tolerance.
    pub failed: bool,
}

/// Checks every known baseline in `dir` against a fresh run.
pub fn run_bench_check(dir: &Path) -> BenchCheckOutcome {
    let mut out = String::new();
    let mut failed = false;
    let _ = writeln!(out, "== bench-check: fresh runs vs committed baselines ==");
    for name in BASELINES {
        let path = dir.join(name);
        let committed = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                let _ = writeln!(out, "{name:<28} MISSING ({e})");
                failed = true;
                continue;
            }
        };
        let base = match parse(&committed) {
            Ok(v) => v,
            Err(e) => {
                let _ = writeln!(out, "{name:<28} UNPARSEABLE baseline: {e}");
                failed = true;
                continue;
            }
        };
        let mut violations = Vec::new();
        let mut regen_err = None;
        let mut attempts = 0;
        for attempt in 1..=REGEN_ATTEMPTS {
            attempts = attempt;
            match regenerate(name, &base) {
                Ok(doc) => {
                    let fresh = parse(&doc).expect("generators emit valid JSON");
                    violations.clear();
                    compare(&base, &fresh, "$", &mut violations);
                    if violations.is_empty() {
                        break;
                    }
                }
                Err(e) => {
                    regen_err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = regen_err {
            let _ = writeln!(out, "{name:<28} REGEN FAILED: {e}");
            failed = true;
            continue;
        }
        if violations.is_empty() {
            if attempts == 1 {
                let _ = writeln!(out, "{name:<28} ok");
            } else {
                let _ = writeln!(out, "{name:<28} ok (attempt {attempts}/{REGEN_ATTEMPTS})");
            }
        } else {
            failed = true;
            let _ = writeln!(
                out,
                "{name:<28} FAIL ({} violation(s), persisted over {REGEN_ATTEMPTS} regeneration(s))",
                violations.len()
            );
            for v in &violations {
                let _ = writeln!(out, "    {v}");
            }
        }
    }
    let _ = writeln!(out, "gate: {}", if failed { "FAIL" } else { "ok" });
    BenchCheckOutcome {
        output: out,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,-2.5,{"b":"c\nd"}],"e":true,"f":null}"#).unwrap();
        let Value::Obj(m) = &v else { panic!("object") };
        assert_eq!(m["e"], Value::Bool(true));
        assert_eq!(m["f"], Value::Null);
        let Value::Arr(a) = &m["a"] else {
            panic!("array")
        };
        assert_eq!(a[0], Value::Num(1.0));
        assert_eq!(a[1], Value::Num(-2.5));
        let Value::Obj(inner) = &a[2] else {
            panic!("inner")
        };
        assert_eq!(inner["b"], Value::Str("c\nd".into()));
    }

    #[test]
    fn tolerance_band_accepts_timing_noise_and_rejects_collapse() {
        assert!(number_ok(29014.0, 8000.0), "3.6x variance passes");
        assert!(number_ok(0.87, 1.5), "small diffs pass via slack");
        assert!(number_ok(0.0, 0.0));
        assert!(!number_ok(29014.0, 0.0), "metric collapsing to zero fails");
        assert!(!number_ok(100.0, 5000.0), "order-of-magnitude excess fails");
    }

    #[test]
    fn compare_flags_structural_drift() {
        let base = parse(r#"{"bench":"x","rows":[{"a":1},{"a":2}],"n":10}"#).unwrap();
        let fresh = parse(r#"{"bench":"y","rows":[{"a":1}],"m":10}"#).unwrap();
        let mut v = Vec::new();
        compare(&base, &fresh, "$", &mut v);
        let text = v.join("\n");
        assert!(text.contains("$.n: missing"), "{text}");
        assert!(text.contains("$.m: not in baseline"), "{text}");
        assert!(text.contains("$.rows: baseline has 2"), "{text}");
        assert!(text.contains("$.bench"), "{text}");
    }

    #[test]
    fn model_output_must_match_within_one_percent() {
        let base = parse(
            r#"{"simulated":[{"shards":1,"speedup":1.0},{"shards":2,"speedup":1.1725}],
                "sim_predicted_speedup":1.9915,"measured":[{"speedup":0.87}]}"#,
        )
        .unwrap();
        let fresh = parse(
            r#"{"simulated":[{"shards":1,"speedup":1.0},{"shards":2,"speedup":1.0210}],
                "sim_predicted_speedup":1.9999,"measured":[{"speedup":0.51}]}"#,
        )
        .unwrap();
        let mut v = Vec::new();
        compare(&base, &fresh, "$", &mut v);
        // The stale simulated speedup fails, though the 16x band would
        // pass it; the predicted one moved 0.4% and timings keep the band.
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].starts_with("$.simulated[1].speedup: model output"),
            "{v:?}"
        );
    }

    #[test]
    fn identical_artifacts_pass() {
        let base = parse(r#"{"a":1,"b":[true,"s"]}"#).unwrap();
        let mut v = Vec::new();
        compare(&base, &base.clone(), "$", &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn missing_baseline_dir_fails_cleanly() {
        let outcome = run_bench_check(Path::new("/nonexistent-bench-dir"));
        assert!(outcome.failed);
        assert!(outcome.output.contains("MISSING"));
    }
}
