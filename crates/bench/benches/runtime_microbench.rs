//! Real-runtime microbenchmarks: the cost of the MTX machinery itself.
//!
//! * `mtx_iteration` — begin/end cycle of an empty iteration through the
//!   full system (workers + try-commit + commit) per pipeline shape;
//! * `coa_page_fetch` — first-touch Copy-On-Access page copies;
//! * `spec_mem_ops` — speculative load/store against resident pages, in
//!   runs on one page and hopping to a different page on every access;
//! * `uva_alloc` — region allocator throughput;
//! * `recovery` — a full run whose every 8th iteration misspeculates;
//! * `hot_path_hasher` — std SipHash vs the vendored Fx hasher on the
//!   page-table access pattern the validation/commit paths run;
//! * `access_stream` — one subTX's validation traffic packed into an
//!   `AccessBlock`, then replayed record by record.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dsmtx::{IterOutcome, MtxId, MtxSystem, Program, StageKind, SystemConfig, WorkerCtx};
use dsmtx_mem::{MasterMem, Page, SpecMem};
use dsmtx_uva::{OwnerId, PageId, RegionAllocator};

fn run_noop(system: &MtxSystem, n: u64) -> u64 {
    let body = Arc::new(|_: &mut WorkerCtx, _: MtxId| Ok(IterOutcome::Continue));
    let stages = (0..system.shape().n_stages())
        .map(|_| body.clone() as dsmtx::StageFn)
        .collect();
    let result = system
        .run(Program {
            master: MasterMem::new(),
            stages,
            recovery: Box::new(|_, _| IterOutcome::Continue),
            on_commit: None,
            iteration_limit: Some(n),
        })
        .expect("run");
    result.report.committed
}

fn bench_mtx_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("mtx_iteration");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    const N: u64 = 256;
    group.throughput(Throughput::Elements(N));
    for (label, shapes) in [
        ("seq1", vec![StageKind::Sequential]),
        ("par2", vec![StageKind::Parallel { replicas: 2 }]),
        (
            "s_par2_s",
            vec![
                StageKind::Sequential,
                StageKind::Parallel { replicas: 2 },
                StageKind::Sequential,
            ],
        ),
    ] {
        let mut cfg = SystemConfig::new();
        for s in &shapes {
            cfg.stage(*s);
        }
        let system = MtxSystem::new(&cfg).expect("config");
        group.bench_with_input(BenchmarkId::from_parameter(label), &system, |b, sys| {
            b.iter(|| assert_eq!(run_noop(sys, N), N));
        });
    }
    group.finish();
}

fn bench_coa_page_fetch(c: &mut Criterion) {
    let mut group = c.benchmark_group("coa_page_fetch");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    const PAGES: u64 = 64;
    group.throughput(Throughput::Bytes(PAGES * 4096));
    let mut heap = RegionAllocator::new(OwnerId(0));
    let base = heap.alloc_pages(PAGES).expect("alloc");
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Sequential);
    let system = MtxSystem::new(&cfg).expect("config");
    group.bench_function("first_touch_64_pages", |b| {
        b.iter(|| {
            let mut master = MasterMem::new();
            for p in 0..PAGES {
                master.write(base.add_words(p * 512), p + 1);
            }
            let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
                // One word per page: each read is a fresh COA copy.
                let v = ctx.read(base.add_words(mtx.0 * 512))?;
                assert_eq!(v, mtx.0 + 1);
                Ok(IterOutcome::Continue)
            });
            let result = system
                .run(Program {
                    master,
                    stages: vec![body],
                    recovery: Box::new(|_, _| IterOutcome::Continue),
                    on_commit: None,
                    iteration_limit: Some(PAGES),
                })
                .expect("run");
            assert!(result.report.coa_pages_served >= PAGES);
        });
    });
    group.finish();
}

fn bench_spec_mem_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("spec_mem_ops");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    const OPS: u64 = 4096;
    group.throughput(Throughput::Elements(OPS));
    let mut heap = RegionAllocator::new(OwnerId(1));
    let base = heap.alloc_pages(8).expect("alloc");
    group.bench_function("write_read_resident", |b| {
        b.iter(|| {
            let mut mem = SpecMem::new();
            let fetch =
                |_: PageId| -> Result<Page, std::convert::Infallible> { Ok(Page::zeroed()) };
            for i in 0..OPS {
                let addr = base.add_words(i % (8 * 512));
                mem.write(addr, i, fetch).unwrap();
                assert_eq!(mem.read(addr, fetch).unwrap(), i);
            }
            mem.drain_log().len()
        });
    });
    // Each access lands on a different page than the one before, like
    // scatter_validate's column-major stores, so the page table's
    // remembered page misses on every access.
    group.bench_function("write_read_page_hopping", |b| {
        b.iter(|| {
            let mut mem = SpecMem::new();
            let fetch =
                |_: PageId| -> Result<Page, std::convert::Infallible> { Ok(Page::zeroed()) };
            for i in 0..OPS {
                let word = (i / 8) % 512;
                mem.write(base.add_words((i % 8) * 512 + word), i, fetch)
                    .unwrap();
                let _ = mem
                    .read(base.add_words(((i + 4) % 8) * 512 + word), fetch)
                    .unwrap();
            }
            mem.drain_log().len()
        });
    });
    group.finish();
}

fn bench_uva_alloc(c: &mut Criterion) {
    let mut group = c.benchmark_group("uva_alloc");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    const ALLOCS: u64 = 2048;
    group.throughput(Throughput::Elements(ALLOCS));
    group.bench_function("alloc_free_cycle", |b| {
        b.iter(|| {
            let mut heap = RegionAllocator::new(OwnerId(2));
            let mut addrs = Vec::with_capacity(ALLOCS as usize);
            for i in 0..ALLOCS {
                addrs.push(heap.alloc_words(1 + i % 31).unwrap());
            }
            for a in addrs {
                heap.free(a).unwrap();
            }
            heap.live_allocations()
        });
    });
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    const N: u64 = 32;
    let mut cfg = SystemConfig::new();
    cfg.stage(StageKind::Parallel { replicas: 2 });
    let system = MtxSystem::new(&cfg).expect("config");
    group.bench_function("misspec_every_8th", |b| {
        b.iter(|| {
            let body = Arc::new(|ctx: &mut WorkerCtx, mtx: MtxId| {
                if mtx.0 % 8 == 7 {
                    return ctx.misspec();
                }
                Ok(IterOutcome::Continue)
            });
            let result = system
                .run(Program {
                    master: MasterMem::new(),
                    stages: vec![body],
                    recovery: Box::new(|_, _| IterOutcome::Continue),
                    on_commit: None,
                    iteration_limit: Some(N),
                })
                .expect("run");
            assert_eq!(result.report.recoveries, N / 8);
            result.report.recoveries
        });
    });
    group.finish();
}

fn bench_hot_path_hasher(c: &mut Criterion) {
    // The speculation hot paths (SpecMem page tables, the try-commit
    // unit's per-MTX state) key hash maps by PageId / small tuples. This
    // group pins the delta from swapping std's SipHash-1-3 for the
    // vendored Fx hasher on exactly that shape: insert a working set of
    // page-sized keys, then do a read-mostly probe mix.
    use std::collections::HashMap;
    use std::hash::BuildHasher;

    let mut group = c.benchmark_group("hot_path_hasher");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    const PAGES: u64 = 512;
    const PROBES: u64 = 8192;
    group.throughput(Throughput::Elements(PAGES + PROBES));

    fn page_table_churn<S: BuildHasher + Default>(pages: u64, probes: u64) -> u64 {
        let mut table: HashMap<PageId, u64, S> = HashMap::default();
        for p in 0..pages {
            // Same page-number spreading the runtime sees: region-sized
            // strides, not dense small integers.
            table.insert(PageId(p.wrapping_mul(0x9E37_79B9) | 1), p);
        }
        let mut sum = 0u64;
        for i in 0..probes {
            let p = i % pages;
            sum = sum.wrapping_add(table[&PageId(p.wrapping_mul(0x9E37_79B9) | 1)]);
        }
        sum
    }

    group.bench_function("siphash_std", |b| {
        b.iter(|| page_table_churn::<std::collections::hash_map::RandomState>(PAGES, PROBES));
    });
    group.bench_function("fxhash_vendored", |b| {
        b.iter(|| page_table_churn::<fxhash::FxBuildHasher>(PAGES, PROBES));
    });
    group.finish();
}

fn bench_access_stream(c: &mut Criterion) {
    // One validation-bound subTX's worth of traffic: 1 load + 256 stores
    // scattered column-major (page-sized strides, the shard sweep's
    // pattern), packed into one AccessBlock and replayed record by record,
    // as the try-commit unit does.
    use dsmtx::wire::AccessBlock;
    use dsmtx_mem::AccessKind;

    let mut group = c.benchmark_group("access_stream");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    const RECORDS: u64 = 257;
    group.throughput(Throughput::Elements(RECORDS));

    let stream: Vec<(AccessKind, u64, u64)> = (0..RECORDS)
        .map(|i| {
            let kind = if i == 0 {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            (kind, 0x4_0000 + i * 4096 * 8, i.wrapping_mul(0x9E37_79B9))
        })
        .collect();

    group.bench_function("packed_access_block", |b| {
        b.iter(|| {
            let mut block = AccessBlock::new();
            for &(kind, addr, value) in &stream {
                block.push(kind, addr, value);
            }
            // Replay by cursor, no per-record allocation.
            let mut sum = 0u64;
            for r in block.iter() {
                sum = sum.wrapping_add(r.addr.raw() ^ r.value);
            }
            assert_eq!(block.len() as u64, RECORDS);
            sum
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mtx_iteration,
    bench_coa_page_fetch,
    bench_spec_mem_ops,
    bench_uva_alloc,
    bench_recovery,
    bench_hot_path_hasher,
    bench_access_stream
);
criterion_main!(benches);
