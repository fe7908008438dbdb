// A CLI driver, not library code: aborting with a message is the intended
// error path, so the workspace unwrap/expect denial is relaxed here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! Per-stage wall-clock profile of the SBM script on one benchmark —
//! the development aid behind the "contained runtime cost" tuning.
//!
//! Usage: `profile [benchmark]` (default `div`).

use sbm_budget::Budget;
use sbm_core::engine::{Balance, Bdiff, Engine, EngineCtx, Hetero, Mspf, Refactor, Resub, Rewrite};
use sbm_core::gradient::{gradient_optimize_filtered, GradientOptions};
use sbm_core::script::resyn2rs;
use sbm_epfl::{generate, Scale};
use sbm_metrics::Timer;
use sbm_sat::redundancy::{remove_redundancies, RedundancyOptions};
use sbm_sat::sweep::{sweep, SweepOptions};

fn stage(
    name: &str,
    aig: &sbm_aig::Aig,
    f: impl FnOnce(&sbm_aig::Aig) -> sbm_aig::Aig,
) -> sbm_aig::Aig {
    let t = Timer::start();
    let out = f(aig);
    println!(
        "{name:<12} {:6} -> {:6} nodes  {:8.2}s",
        aig.num_ands(),
        out.num_ands(),
        t.stop().as_secs_f64()
    );
    out
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "div".into());
    let aig = generate(&name, Scale::Reduced).expect("known benchmark");
    println!("{name}: {} nodes unoptimized", aig.num_ands());
    let budget = Budget::unlimited();
    let ctx = EngineCtx::new(&budget);
    let before_gradient: Vec<Box<dyn Engine>> = vec![
        Box::new(Rewrite::default()),
        Box::new(Refactor::default()),
        Box::new(Resub::default()),
    ];
    let after_gradient: Vec<Box<dyn Engine>> = vec![
        Box::new(Hetero::default()),
        Box::new(Mspf::default()),
        Box::new(Bdiff::default()),
    ];
    let mut cur = aig;
    cur = stage("balance", &cur, |a| Balance.optimize(a, &ctx).aig);
    cur = stage("resyn2rs", &cur, resyn2rs);
    for engine in &before_gradient {
        cur = stage(engine.name(), &cur, |a| engine.optimize(a, &ctx).aig);
    }
    let mut gradient = None;
    cur = stage("gradient", &cur, |a| {
        let (out, stats) =
            gradient_optimize_filtered(a, &GradientOptions::default(), &budget, None);
        gradient = Some(stats);
        out
    });
    if let Some(stats) = gradient {
        for (mv, rec) in stats.records {
            println!(
                "{:<12} {mv:?}: {} applied, {} replayed, {} accepted",
                "",
                rec.tried - rec.replayed,
                rec.replayed,
                rec.succeeded
            );
        }
    }
    for engine in &after_gradient {
        cur = stage(engine.name(), &cur, |a| engine.optimize(a, &ctx).aig);
    }
    cur = stage("sweep", &cur, |a| {
        let mut w = a.cleanup();
        sweep(&mut w, &SweepOptions::default());
        w.cleanup()
    });
    let mut redundancy = None;
    cur = stage("redundancy", &cur, |a| {
        let result = remove_redundancies(a, &RedundancyOptions::default());
        redundancy = Some(result.stats);
        result.aig
    });
    if let Some(stats) = redundancy {
        println!(
            "{:<12} {} checks: {} removed, {} refuted, {} undecided",
            "", stats.checks, stats.removed, stats.refuted, stats.undecided
        );
    }
    println!("final: {} nodes", cur.num_ands());
}
