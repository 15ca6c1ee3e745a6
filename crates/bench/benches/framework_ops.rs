//! Ablation micro-benches for the framework's design choices (DESIGN.md):
//! the costs behind the end-to-end numbers — design-time validation, ADL
//! parsing, compilation, full generation per mode, and the substrate
//! operations the memory interceptors execute per crossing.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rtsj::memory::{MemoryManager, ScopedMemoryParams};
use rtsj::thread::ThreadKind;
use soleil::core::adl::{from_xml, MOTIVATION_EXAMPLE_XML};
use soleil::generator::compile;
use soleil::prelude::*;
use soleil::scenario::{motivation_architecture, motivation_validated, registry};

fn bench_design_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("design_time");
    group.bench_function("adl_parse", |b| {
        b.iter(|| from_xml(MOTIVATION_EXAMPLE_XML).expect("parses"));
    });
    let arch = motivation_architecture().expect("fixture parses");
    group.bench_function("validate", |b| {
        b.iter(|| validate(&arch));
    });
    group.bench_function("validate_into", |b| {
        b.iter(|| arch.clone().into_validated().expect("compliant"));
    });
    let validated = motivation_validated().expect("fixture validates");
    group.bench_function("compile", |b| {
        b.iter(|| compile(&validated).expect("compiles"));
    });
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate_and_bootstrap");
    let arch = motivation_validated().expect("fixture validates");
    for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
        group.bench_function(mode.to_string(), |b| {
            b.iter_batched(
                registry,
                |reg| deploy(&arch, mode, &reg).expect("builds"),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_substrate_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_ops");

    let mut mm = MemoryManager::new(0, 1 << 20);
    let scope = mm
        .create_scoped(ScopedMemoryParams::new("s", 64 * 1024))
        .expect("scope");
    let mut ctx = mm.context(ThreadKind::Realtime);
    group.bench_function("scope_enter_exit", |b| {
        b.iter(|| {
            mm.enter(&mut ctx, scope).expect("enter");
            mm.exit(&mut ctx).expect("exit");
        });
    });

    let ctx2 = mm.context(ThreadKind::Realtime);
    let handle = mm
        .alloc(&ctx2, rtsj::memory::AreaId::IMMORTAL, 7u64)
        .expect("alloc");
    group.bench_function("handle_deref", |b| {
        b.iter(|| *mm.get(&ctx2, handle).expect("valid handle"));
    });

    group.bench_function("assignment_check", |b| {
        b.iter(|| {
            mm.check_assignment(rtsj::memory::AreaId::IMMORTAL, rtsj::memory::AreaId::HEAP)
                .expect("legal")
        });
    });

    // Slab alloc/free cycle: slot reuse through the free list — the path
    // that used to box every stored object.
    group.bench_function("alloc_free_cycle", |b| {
        b.iter(|| {
            let h = mm
                .alloc(&ctx2, rtsj::memory::AreaId::HEAP, 42u64)
                .expect("alloc");
            mm.heap_free(h.raw()).expect("free");
        });
    });

    // Fixed-ring exchange buffer: one message through a provisioned ring.
    let buf: soleil::patterns::ExchangeBuffer<u64> = soleil::patterns::ExchangeBuffer::create(
        &mut mm,
        &ctx2,
        rtsj::memory::AreaId::IMMORTAL,
        16,
    )
    .expect("buffer");
    group.bench_function("ring_push_pop", |b| {
        b.iter(|| {
            buf.push(&mut mm, &ctx2, 7u64).expect("push");
            buf.pop(&mut mm, &ctx2).expect("pop")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_design_time,
    bench_generation,
    bench_substrate_ops
);
criterion_main!(benches);
