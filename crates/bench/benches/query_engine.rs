//! E9 (Table 4b): query-engine micro-benchmarks — parsing, planning,
//! execution, caching, and the mobile render path.
//!
//! Source latency is virtual (never slept), so these numbers are pure
//! CPU cost: what the client/mediator itself burns per interaction.

// Bench target over self-generated inputs: unwraps mark harness bugs.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use drugtree::prelude::*;
use drugtree_mobile::layout::TreeLayout;
use drugtree_mobile::lod::render_visible;
use drugtree_mobile::viewport::Viewport;
use drugtree_query::ActivityColumns;
use std::hint::black_box;

fn bench_parser(c: &mut Criterion) {
    let text = "activities in subtree('clade12') where p_activity >= 6.5 and mw < 500 and year between 2005 and 2013 top 20 by p_activity desc";
    c.bench_function("parser/full_query", |b| {
        b.iter(|| Query::parse(black_box(text)).unwrap());
    });
}

fn bench_planning_and_execution(c: &mut Criterion) {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(512).ligands(64).seed(42));
    let system = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .build()
        .unwrap();
    let query = Query::parse("activities in subtree('clade1') where p_activity >= 6").unwrap();

    c.bench_function("optimizer/plan_512_leaves", |b| {
        b.iter(|| {
            system
                .explain(black_box(
                    "activities in subtree('clade1') where p_activity >= 6",
                ))
                .unwrap()
        });
    });

    // Warm the cache once; the hot path is then pure client CPU.
    system.execute(&query).unwrap();
    c.bench_function("executor/cache_hit_512_leaves", |b| {
        b.iter(|| system.execute(black_box(&query)).unwrap());
    });

    // Cold path: invalidate before each execution (timed together —
    // the invalidate itself is trivial).
    c.bench_function("executor/cold_fetch_512_leaves", |b| {
        b.iter(|| {
            system.executor().invalidate();
            system.execute(black_box(&query)).unwrap()
        });
    });
}

fn bench_mirror_build(c: &mut Criterion) {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(1024).ligands(64).seed(43));
    let dataset = bundle.build_dataset();
    c.bench_function("columnar/build_1024_leaves", |b| {
        b.iter(|| ActivityColumns::build(black_box(&dataset)).unwrap());
    });
}

fn bench_mobile_render(c: &mut Criterion) {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(8192).ligands(16).seed(44));
    let layout = TreeLayout::compute(&bundle.tree, &bundle.index);
    let viewport = Viewport::fullscreen(&layout);
    c.bench_function("mobile/lod_render_8192_leaves", |b| {
        b.iter(|| {
            render_visible(
                black_box(&bundle.tree),
                black_box(&bundle.index),
                &viewport,
                &layout,
            )
        });
    });
    c.bench_function("mobile/layout_8192_leaves", |b| {
        b.iter(|| TreeLayout::compute(black_box(&bundle.tree), black_box(&bundle.index)));
    });
}

criterion_group!(
    benches,
    bench_parser,
    bench_planning_and_execution,
    bench_mirror_build,
    bench_mobile_render
);
criterion_main!(benches);
