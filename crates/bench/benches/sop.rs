// Benchmark harness, not library code: setup failures may panic, so the
// workspace unwrap/expect denial is relaxed here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! Criterion benchmarks for the SOP layer under the refactor, rewrite and
//! eliminate/kernel moves: ISOP and algebraic factoring of a large cone's
//! function, and elimination plus divisor extraction on one partition of
//! the heterogeneous engine, at the ladder's cheapest and most aggressive
//! thresholds.

use criterion::{criterion_group, criterion_main, Criterion};
use sbm_aig::sim::{lit_truth_table, window_truth_tables};
use sbm_aig::window::{partition, Partition};
use sbm_aig::{Aig, Lit};
use sbm_core::hetero::HeteroOptions;
use sbm_epfl::{generate, Scale};
use sbm_sop::eliminate::eliminate;
use sbm_sop::extract::extract;
use sbm_sop::factor::factor;
use sbm_sop::isop::isop_exact;
use sbm_sop::SopNetwork;
use sbm_tt::TruthTable;

/// The function of the first node (in topological order) of `aig` whose
/// structural support has exactly `support` inputs — the shape of cone
/// the high-effort refactor move collapses.
fn cone_function(aig: &Aig, support: usize) -> TruthTable {
    let id = aig
        .topo_order()
        .into_iter()
        .find(|&id| aig.structural_support(id).len() == support)
        .expect("a cone of the requested support");
    let leaves = aig.structural_support(id);
    let tables = window_truth_tables(aig, &[id], &leaves);
    lit_truth_table(&tables, Lit::new(id, false)).expect("the root's table")
}

/// The largest partition the heterogeneous engine cuts from `aig`, as an
/// SOP network of two-literal AND nodes.
fn largest_partition(aig: &Aig) -> SopNetwork {
    let part = partition(aig, &HeteroOptions::default().partition)
        .into_iter()
        .max_by_key(Partition::size)
        .expect("a nonempty network");
    SopNetwork::from_aig(&part.extract(aig).expect("a self-contained partition"))
}

fn bench_sop(c: &mut Criterion) {
    let adder = generate("adder", Scale::Reduced).unwrap();
    let tt = cone_function(&adder, 14);
    let cover = isop_exact(&tt);
    let max = generate("max", Scale::Reduced).unwrap();
    let net = largest_partition(&max);
    eprintln!(
        "adder 14-input cone: {} cubes, {} literals; max partition: {} nodes, {} literals",
        cover.num_cubes(),
        cover.num_lits(),
        net.num_nodes(),
        net.num_lits()
    );

    let mut group = c.benchmark_group("sop");
    group.sample_size(20);
    group.bench_function("isop_exact/adder_cone14", |b| b.iter(|| isop_exact(&tt)));
    group.bench_function("factor/adder_cone14", |b| b.iter(|| factor(&cover)));
    for threshold in [-1i64, 300] {
        group.bench_function(format!("eliminate_extract/max_t{threshold}"), |b| {
            b.iter(|| {
                let mut work = net.clone();
                eliminate(&mut work, threshold);
                extract(&mut work, HeteroOptions::default().extract_rounds);
                work
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sop);
criterion_main!(benches);
