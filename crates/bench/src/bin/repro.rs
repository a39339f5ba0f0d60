//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p dsmtx-bench --bin repro -- \
//!     [fig1|fig2|fig3|fig4|fig5a|fig5b|fig6|table1|table2|ablations|trace|shards|valplane|analyze|plan|why|lifecycle|bench-check|all] \
//!     [--iters N] [--trace-out FILE] [--metrics-out FILE] \
//!     [--fault-seed S] [--fault-rate R] \
//!     [--shards N] [--sweep-out FILE] \
//!     [--workload NAME] [--format text|jsonl] \
//!     [--mtx N] [--top K] [--planted] [--apply] [--bench-dir DIR]
//! ```
//!
//! The `analyze` section runs the dependence analyzer and partition
//! linter (`dsmtx-analyze`) over the shipped Table-2 plans: per-workload
//! dependence census, typed lint findings with predicted misspeculation
//! rates, and the predicted conflict-page superset that the
//! certification tests check runtime conflicts against. `--workload`
//! restricts it to one kernel (default all eleven); `--format jsonl`
//! emits machine-readable rows instead of text. The exit code is a CI
//! gate: any Error-severity finding on a shipped plan exits nonzero.
//!
//! The `plan` section runs the auto-partitioner (`dsmtx-analyze`'s SCC
//! condensation over the recorded dependence graph): per-workload
//! candidate plans ranked by predicted misspeculation and pipeline
//! balance, refused shapes with the forcing dependence named, and an
//! address-level diff against the hand-written Table 2 partition.
//! `--apply` additionally executes each top-ranked auto plan through the
//! real runtime and certifies that the conflicts it observes stay inside
//! its own predicted superset, printing auto-vs-hand conflict counts.
//! The exit code is a CI gate: a workload with no lint-clean candidate,
//! or an applied plan whose conflicts escape the prediction, exits
//! nonzero.
//!
//! The `shards` section runs the real-runtime speculation-unit shard
//! sweep (`unit_shards` up to `--shards`, default 4) on a
//! validation-bound workload and prints measured scaling next to the
//! simulator's prediction; `--sweep-out` additionally writes the
//! `BENCH_shard_sweep.json` artifact.
//!
//! The `valplane` section runs the same validation-bound workload once
//! and prints what the unit plane shipped (filtering + one packed frame
//! per subTX) next to the per-record baseline the workers count; `--sweep-out` there writes the `BENCH_valplane.json`
//! artifact.
//!
//! The `trace` section runs a real traced pipeline and prints a
//! stage-occupancy report; `--trace-out` additionally writes the run's
//! lifecycle spans as Chrome `trace_event` JSON (open in
//! `chrome://tracing` or Perfetto; the format `why --trace-out` writes,
//! plus a box per recovery round) and `--metrics-out` a JSONL metrics
//! dump in the shared schema. Both, and the report, derive from the same
//! spans (`dsmtx::build_spans`).
//!
//! `--fault-seed S` runs the traced pipeline under the deterministic
//! fault injector: rate `R` (default 0.1, `--fault-rate`) is split
//! evenly over drop and stall (the two ways a ship attempt can fail; a
//! link delivers in order and exactly once) on every link, and the
//! fault/retry/recovery counters flow through the same occupancy report
//! and JSONL schema. A run recovers only when some send exhausts its
//! retry budget: `--fault-seed 1 --fault-rate 0.99` does, at every MTX.
//! The same seed gives every link the same decision stream (its *k*-th
//! ship attempt always draws the same decision), but the fault counts
//! vary from run to run: packet boundaries, and so the number of ship
//! attempts, depend on timing.
//!
//! The `why` section runs a workload's shipped plan with lifecycle
//! tracing on and prints causal misspeculation chains: per-attempt
//! wall-clock decomposition, the squashing conflict, the typed abort
//! cause, and the retry linkage. `--mtx N` reports one MTX; `--top K`
//! (default 5) the K most interesting chains; `--planted` (parser only)
//! plants the unknown-token conflict; `--trace-out` writes the span
//! Chrome trace. The exit code flags `unpredicted` aborts.
//!
//! The `lifecycle` section regenerates the `BENCH_mtx_lifecycle.json`
//! artifact (per-stage time decomposition plus abort-cause histogram at
//! shards {1,2,4}); `--sweep-out` names the output file.
//!
//! The `bench-check` section regenerates every committed `BENCH_*.json`
//! baseline (found in `--bench-dir`, default the current directory) and
//! compares fresh runs against them: strict on structure, tolerance
//! band on timing-derived numbers. Nonzero exit on drift — the CI gate.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut iters: u64 = 200;
    let mut fault_seed: Option<u64> = None;
    let mut fault_rate: f64 = 0.1;
    let mut shards: usize = 4;
    let mut sweep_out: Option<String> = None;
    let mut workload: String = "all".into();
    let mut format = dsmtx_bench::AnalyzeFormat::Text;
    let mut mtx: Option<u64> = None;
    let mut top: usize = 5;
    let mut planted = false;
    let mut apply = false;
    let mut bench_dir: String = ".".into();

    let mut i = 0;
    while i < args.len() {
        let take_value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("missing value after `{}`", args[*i - 1]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--trace-out" => trace_out = Some(take_value(&mut i)),
            "--metrics-out" => metrics_out = Some(take_value(&mut i)),
            "--iters" => {
                let v = take_value(&mut i);
                iters = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad --iters value `{v}`");
                    std::process::exit(2);
                });
                if iters == 0 {
                    eprintln!("--iters must be at least 1");
                    std::process::exit(2);
                }
            }
            "--fault-seed" => {
                let v = take_value(&mut i);
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                fault_seed = Some(parsed.unwrap_or_else(|_| {
                    eprintln!("bad --fault-seed value `{v}`");
                    std::process::exit(2);
                }));
            }
            "--shards" => {
                let v = take_value(&mut i);
                shards = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad --shards value `{v}`");
                    std::process::exit(2);
                });
                if shards == 0 {
                    eprintln!("--shards must be at least 1");
                    std::process::exit(2);
                }
            }
            "--sweep-out" => sweep_out = Some(take_value(&mut i)),
            "--workload" => workload = take_value(&mut i),
            "--mtx" => {
                let v = take_value(&mut i);
                mtx = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("bad --mtx value `{v}`");
                    std::process::exit(2);
                }));
            }
            "--top" => {
                let v = take_value(&mut i);
                top = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad --top value `{v}`");
                    std::process::exit(2);
                });
                if top == 0 {
                    eprintln!("--top must be at least 1");
                    std::process::exit(2);
                }
            }
            "--planted" => planted = true,
            "--apply" => apply = true,
            "--bench-dir" => bench_dir = take_value(&mut i),
            "--format" => {
                let v = take_value(&mut i);
                format = dsmtx_bench::AnalyzeFormat::parse(&v).unwrap_or_else(|| {
                    eprintln!("bad --format value `{v}`; use text or jsonl");
                    std::process::exit(2);
                });
            }
            "--fault-rate" => {
                let v = take_value(&mut i);
                fault_rate = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad --fault-rate value `{v}`");
                    std::process::exit(2);
                });
                if !(0.0..=1.0).contains(&fault_rate) {
                    eprintln!("--fault-rate {fault_rate} outside [0, 1]");
                    std::process::exit(2);
                }
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                std::process::exit(2);
            }
            name => what = Some(name.to_string()),
        }
        i += 1;
    }
    // Asking for an output file or a faulted run implies the trace
    // section (the only one that runs a real pipeline).
    let what = what.unwrap_or_else(|| {
        if trace_out.is_some() || metrics_out.is_some() || fault_seed.is_some() {
            "trace".into()
        } else {
            "all".into()
        }
    });

    let mut printed = false;
    let mut section = |name: &str, body: &dyn Fn() -> String| {
        if what == name || what == "all" {
            println!("{}", body());
            println!("{}", "=".repeat(72));
            printed = true;
        }
    };
    section("fig1", &dsmtx_bench::fig1_text);
    section("fig2", &dsmtx_bench::taxonomy_text);
    section("fig3", &dsmtx_bench::fig3_text);
    section("fig4", &dsmtx_bench::fig4_text);
    section("fig5a", &dsmtx_bench::fig5a_text);
    section("fig5b", &|| dsmtx_bench::fig5b_text(true));
    section("fig6", &dsmtx_bench::fig6_text);
    section("table1", &dsmtx_bench::table1_text);
    section("table2", &dsmtx_bench::table2_text);
    section("ablations", &dsmtx_bench::ablations_text);

    if what == "shards" || what == "all" {
        // The validation-bound sweep wants enough iterations that each
        // MTX's writes scatter across a full page per column.
        let sweep_iters = iters.max(512);
        let sweep = dsmtx_bench::run_shard_sweep(sweep_iters, 32, shards);
        println!("{}", dsmtx_bench::shard_sweep_text(&sweep));
        if let Some(path) = &sweep_out {
            let json = dsmtx_bench::shard_sweep_json(&sweep);
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote shard sweep ({} bytes) to {path}", json.len());
        }
        println!("{}", "=".repeat(72));
        printed = true;
    }

    if what == "valplane" || what == "all" {
        // Same sizing rule as the shard sweep, so the two artifacts
        // describe the same workload.
        let sweep_iters = iters.max(512);
        let sweep = dsmtx_bench::run_valplane_sweep(sweep_iters, 32);
        println!("{}", dsmtx_bench::valplane_text(&sweep));
        // `--sweep-out` names the valplane artifact only when this is the
        // section being run; `all` keeps the flag bound to the shard
        // sweep for compatibility.
        if what == "valplane" {
            if let Some(path) = &sweep_out {
                let json = dsmtx_bench::valplane_json(&sweep);
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                println!("wrote valplane sweep ({} bytes) to {path}", json.len());
            }
        }
        println!("{}", "=".repeat(72));
        printed = true;
    }

    if what == "analyze" || what == "all" {
        match dsmtx_bench::run_analyze(&workload, format) {
            Ok(outcome) => {
                print!("{}", outcome.output);
                // Keep stdout machine-readable in jsonl mode: the section
                // separator would corrupt a line-oriented JSON stream.
                if matches!(format, dsmtx_bench::AnalyzeFormat::Text) {
                    println!("{}", "=".repeat(72));
                }
                printed = true;
                if outcome.gate_failed {
                    eprintln!("analyze: error-severity findings on a shipped plan");
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("analyze: {e}");
                std::process::exit(2);
            }
        }
    }

    if what == "plan" {
        match dsmtx_bench::run_plan(&workload, format, apply) {
            Ok(outcome) => {
                print!("{}", outcome.output);
                // Keep stdout machine-readable in jsonl mode (see the
                // analyze section).
                if matches!(format, dsmtx_bench::AnalyzeFormat::Text) {
                    println!("{}", "=".repeat(72));
                }
                printed = true;
                if outcome.gate_failed {
                    eprintln!(
                        "plan: no viable auto plan, or an applied plan's observed \
                         conflicts escaped its prediction"
                    );
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("plan: {e}");
                std::process::exit(2);
            }
        }
    }

    if what == "trace" || what == "all" {
        let fault = fault_seed.map(|seed| {
            println!(
                "fault injection: seed={seed:#x} rate={fault_rate} (uniform over \
                 drop/stall, all links)"
            );
            dsmtx::FaultConfig::new(seed, dsmtx_fabric::FaultRates::uniform(fault_rate))
        });
        let result = dsmtx_bench::run_traced_pipeline_faulted(iters, fault);
        println!("{}", dsmtx_bench::occupancy_text(&result));
        if let Some(path) = &trace_out {
            let json = dsmtx_bench::chrome_trace_json(&result);
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote span trace ({} bytes) to {path}", json.len());
        }
        if let Some(path) = &metrics_out {
            let jsonl = dsmtx_bench::metrics_jsonl(&result);
            if let Err(e) = std::fs::write(path, &jsonl) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote metrics ({} lines) to {path}", jsonl.lines().count());
        }
        println!("{}", "=".repeat(72));
        printed = true;
    }

    if what == "why" {
        let opts = dsmtx_bench::WhyOptions {
            workload: workload.clone(),
            planted,
            mtx,
            top,
            shards,
            format,
        };
        match dsmtx_bench::run_why(&opts) {
            Ok(outcome) => {
                print!("{}", outcome.output);
                if let Some(path) = &trace_out {
                    if let Err(e) = std::fs::write(path, &outcome.chrome_trace) {
                        eprintln!("cannot write {path}: {e}");
                        std::process::exit(1);
                    }
                    println!(
                        "wrote span trace ({} bytes) to {path}",
                        outcome.chrome_trace.len()
                    );
                }
                printed = true;
                if outcome.unpredicted > 0 {
                    eprintln!(
                        "why: {} abort(s) the analysis cannot explain",
                        outcome.unpredicted
                    );
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("why: {e}");
                std::process::exit(2);
            }
        }
    }

    if what == "lifecycle" {
        match dsmtx_bench::run_mtx_lifecycle(&[1, 2, 4]) {
            Ok(rows) => {
                println!("{}", dsmtx_bench::mtx_lifecycle_text(&rows));
                if let Some(path) = &sweep_out {
                    let json = dsmtx_bench::mtx_lifecycle_json(&rows);
                    if let Err(e) = std::fs::write(path, &json) {
                        eprintln!("cannot write {path}: {e}");
                        std::process::exit(1);
                    }
                    println!("wrote lifecycle bench ({} bytes) to {path}", json.len());
                }
                printed = true;
            }
            Err(e) => {
                eprintln!("lifecycle: {e}");
                std::process::exit(2);
            }
        }
    }

    if what == "bench-check" {
        let outcome = dsmtx_bench::run_bench_check(std::path::Path::new(&bench_dir));
        print!("{}", outcome.output);
        printed = true;
        if outcome.failed {
            eprintln!("bench-check: fresh runs drifted from committed baselines");
            std::process::exit(1);
        }
    }

    if !printed {
        eprintln!(
            "unknown target `{what}`; use fig1|fig2|fig3|fig4|fig5a|fig5b|fig6|table1|table2|ablations|trace|shards|valplane|analyze|plan|why|lifecycle|bench-check|all"
        );
        std::process::exit(2);
    }
}
