//! Cross-crate equivalence tests: every benchmark kernel must produce the
//! same output sequentially, on the DSMTX plan, and on the TLS baseline —
//! at several worker counts, and under injected misspeculation. Every
//! parallel run is under the harness watchdog, so a hang fails the test
//! naming the kernel and mode.

use dsmtx_integration_tests::under_watchdog;
use dsmtx_workloads::blackscholes::BlackScholes;
use dsmtx_workloads::bzip2::Bzip2;
use dsmtx_workloads::crc32::Crc32;
use dsmtx_workloads::gzip::Gzip;
use dsmtx_workloads::li::{Corpus, Li};
use dsmtx_workloads::parser::Parser;
use dsmtx_workloads::swaptions::Swaptions;
use dsmtx_workloads::{all_kernels, kernel_by_name, Mode, Scale};

/// `Kernel::run` of the registry kernel `name` under the watchdog.
fn run_watched(name: &'static str, mode: Mode, scale: Scale) -> Vec<u64> {
    under_watchdog(&format!("{name} {mode:?} {scale:?}"), move || {
        kernel_by_name(name).unwrap().run(mode, scale)
    })
    .unwrap()
}

#[test]
fn every_kernel_agrees_across_modes_and_worker_counts() {
    let scale = Scale::test();
    for kernel in all_kernels() {
        let name = kernel.info().name;
        let seq = kernel.run(Mode::Sequential, scale).unwrap();
        for workers in [1u16, 2, 4] {
            let par = run_watched(name, Mode::Dsmtx { workers }, scale);
            assert_eq!(seq, par, "{name} dsmtx x{workers}");
            let tls = run_watched(name, Mode::Tls { workers }, scale);
            assert_eq!(seq, tls, "{name} tls x{workers}");
        }
    }
}

#[test]
fn every_kernel_handles_tiny_inputs() {
    // One and two iterations exercise pipeline-fill edge cases.
    for iterations in [1u64, 2] {
        let scale = Scale {
            iterations,
            unit: 6,
            seed: 99,
        };
        for kernel in all_kernels() {
            let name = kernel.info().name;
            let seq = kernel.run(Mode::Sequential, scale).unwrap();
            let par = run_watched(name, Mode::Dsmtx { workers: 2 }, scale);
            assert_eq!(seq, par, "{name} n={iterations}");
        }
    }
}

#[test]
fn every_kernel_is_deterministic_across_runs() {
    let scale = Scale::test();
    for kernel in all_kernels() {
        let name = kernel.info().name;
        let a = run_watched(name, Mode::Dsmtx { workers: 3 }, scale);
        let b = run_watched(name, Mode::Dsmtx { workers: 3 }, scale);
        assert_eq!(a, b, "{name} must be run-to-run deterministic");
    }
}

#[test]
fn planted_faults_recover_everywhere() {
    let scale = Scale::test();

    let seq = Crc32
        .run_with_planted_error(Mode::Sequential, scale)
        .unwrap();
    for workers in [1u16, 3] {
        let par = under_watchdog(&format!("crc32 planted x{workers}"), move || {
            Crc32.run_with_planted_error(Mode::Dsmtx { workers }, scale)
        })
        .unwrap();
        assert_eq!(seq, par, "crc32 x{workers}");
    }

    let seq = BlackScholes
        .run_with_planted_error(Mode::Sequential, scale)
        .unwrap();
    let par = under_watchdog("blackscholes planted tls", move || {
        BlackScholes.run_with_planted_error(Mode::Tls { workers: 2 }, scale)
    })
    .unwrap();
    assert_eq!(seq, par, "blackscholes tls");

    let seq = Swaptions
        .run_with_planted_error(Mode::Sequential, scale)
        .unwrap();
    let par = under_watchdog("swaptions planted", move || {
        Swaptions.run_with_planted_error(Mode::Dsmtx { workers: 2 }, scale)
    })
    .unwrap();
    assert_eq!(seq, par, "swaptions");

    let seq = Gzip
        .run_with_planted_escape(Mode::Sequential, scale)
        .unwrap();
    let par = under_watchdog("gzip planted", move || {
        Gzip.run_with_planted_escape(Mode::Dsmtx { workers: 3 }, scale)
    })
    .unwrap();
    assert_eq!(seq, par, "gzip");

    let seq = Bzip2
        .run_with_planted_error(Mode::Sequential, scale)
        .unwrap();
    let par = under_watchdog("bzip2 planted", move || {
        Bzip2.run_with_planted_error(Mode::Dsmtx { workers: 2 }, scale)
    })
    .unwrap();
    assert_eq!(seq, par, "bzip2");

    let seq = Parser
        .run_with_planted_unknown(Mode::Sequential, scale)
        .unwrap();
    for workers in [2u16, 4] {
        let par = under_watchdog(&format!("parser planted x{workers}"), move || {
            Parser.run_with_planted_unknown(Mode::Dsmtx { workers }, scale)
        })
        .unwrap();
        assert_eq!(seq, par, "parser x{workers}");
        let tls = under_watchdog(&format!("parser planted tls x{workers}"), move || {
            Parser.run_with_planted_unknown(Mode::Tls { workers }, scale)
        })
        .unwrap();
        assert_eq!(seq, tls, "parser tls x{workers}");
    }
}

#[test]
fn li_env_mutation_and_exit_combined() {
    let scale = Scale::test();
    let corpus = Corpus {
        with_setenv: true,
        with_exit: true,
    };
    let seq = Li.run_corpus(Mode::Sequential, scale, corpus).unwrap();
    let par = under_watchdog("li setenv+exit", move || {
        Li.run_corpus(Mode::Dsmtx { workers: 3 }, scale, corpus)
    })
    .unwrap();
    let tls = under_watchdog("li setenv+exit tls", move || {
        Li.run_corpus(Mode::Tls { workers: 2 }, scale, corpus)
    })
    .unwrap();
    assert_eq!(seq, par);
    assert_eq!(seq, tls);
}

/// Bench-scale inputs (32 iterations x 256 words) through the real
/// runtime: larger blocks, multi-page COA, longer pipelines.
#[test]
fn kernels_agree_at_bench_scale() {
    let scale = Scale::bench();
    for name in ["164.gzip", "456.hmmer", "197.parser"] {
        let kernel = kernel_by_name(name).unwrap();
        let seq = kernel.run(Mode::Sequential, scale).unwrap();
        let par = run_watched(name, Mode::Dsmtx { workers: 4 }, scale);
        assert_eq!(seq, par, "{name} at bench scale");
    }
}
