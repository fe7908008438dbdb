//! Property tests: every SBM engine must preserve network function and
//! never increase size, on random DAGs — and the parallel pipeline must
//! agree with its serial self.

use proptest::prelude::*;
use sbm_aig::window::PartitionOptions;
use sbm_aig::{Aig, Lit};
use sbm_budget::Budget;
use sbm_check::{FaultKind, FaultPlan};
use sbm_core::engine::{
    run_checked, Balance, Bdiff, Engine, EngineCtx, Gradient, Hetero, Mspf, Refactor, Resub,
    Rewrite,
};
use sbm_core::gradient::{all_moves, GradientOptions};
use sbm_core::pipeline::{Pipeline, PipelineOptions, PipelineReport};
use sbm_core::verify::equivalent;
use sbm_core::CheckLevel;
use sbm_sim::{SigService, SimConfig};

#[derive(Debug, Clone)]
struct Recipe {
    num_inputs: usize,
    steps: Vec<(u8, usize, usize, bool, bool)>,
    num_outputs: usize,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (3usize..=6, 5usize..=40, 1usize..=3).prop_flat_map(|(num_inputs, num_steps, num_outputs)| {
        let step = (
            0u8..3,
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            any::<bool>(),
        );
        proptest::collection::vec(step, num_steps).prop_map(move |raw| {
            let steps = raw
                .iter()
                .enumerate()
                .map(|(i, &(op, a, b, na, nb))| {
                    let pool = num_inputs + i;
                    (op, a as usize % pool, b as usize % pool, na, nb)
                })
                .collect();
            Recipe {
                num_inputs,
                steps,
                num_outputs,
            }
        })
    })
}

fn build(recipe: &Recipe) -> Aig {
    let mut aig = Aig::new();
    let mut signals: Vec<Lit> = (0..recipe.num_inputs).map(|_| aig.add_input()).collect();
    for &(op, a, b, na, nb) in &recipe.steps {
        let x = signals[a].complement_if(na);
        let y = signals[b].complement_if(nb);
        let s = match op {
            0 => aig.and(x, y),
            1 => aig.or(x, y),
            _ => aig.xor(x, y),
        };
        signals.push(s);
    }
    for k in 0..recipe.num_outputs {
        aig.add_output(signals[signals.len() - 1 - k.min(signals.len() - 1)]);
    }
    aig.cleanup()
}

macro_rules! engine_property {
    ($name:ident, $engine:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn $name(recipe in arb_recipe()) {
                let aig = build(&recipe);
                let engine = $engine;
                let budget = Budget::unlimited();
                let out = engine.optimize(&aig, &EngineCtx::new(&budget)).aig;
                prop_assert!(out.num_ands() <= aig.num_ands(),
                    "{} -> {}", aig.num_ands(), out.num_ands());
                prop_assert!(equivalent(&aig, &out), "function changed");
            }
        }
    };
}

engine_property!(balance_preserves, Balance);
engine_property!(rewrite_preserves, Rewrite::default());
engine_property!(refactor_preserves, Refactor::default());
engine_property!(resub_preserves, Resub::default());
engine_property!(mspf_preserves, Mspf::default());
engine_property!(bdiff_preserves, Bdiff::default());
engine_property!(hetero_preserves, Hetero::default());
engine_property!(
    gradient_preserves,
    Gradient {
        options: GradientOptions {
            budget: 20,
            budget_extension: 0,
            ..Default::default()
        },
    }
);

// Every engine, run under `Paranoid`-style bracketing on random DAGs:
// the pre/post structural checks and the 64-pattern spot-check must all
// stay silent — a violation here means an engine emitted a malformed or
// functionally wrong network that `run_checked` had to discard.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn every_engine_is_clean_under_paranoid_checks(recipe in arb_recipe()) {
        let aig = build(&recipe);
        let engines: Vec<Box<dyn Engine>> = vec![
            Box::new(Balance),
            Box::new(Rewrite::default()),
            Box::new(Refactor::default()),
            Box::new(Resub::default()),
            Box::new(Mspf::default()),
            Box::new(Bdiff::default()),
            Box::new(Hetero::default()),
            Box::new(Gradient {
                options: GradientOptions {
                    budget: 20,
                    budget_extension: 0,
                    ..Default::default()
                },
            }),
        ];
        let budget = Budget::unlimited();
        for engine in &engines {
            let (result, violations) =
                run_checked(engine.as_ref(), &aig, &EngineCtx::new(&budget), None);
            prop_assert!(
                violations.is_empty(),
                "{} violated invariants: {:?}",
                engine.name(),
                violations
            );
            prop_assert!(equivalent(&aig, &result.aig), "{} changed function", engine.name());
        }
    }
}

// The gradient engine's failed-move memo skips a move that already
// returned gain 0 on an unchanged network. That is exact only if a move is
// a pure function of its input: applied twice to the same network, every
// move must return a byte-identical network and the same bailout count —
// with a signature service holding committed counterexamples (its pending
// pool grows between the two runs but is not read), and without one, at
// one thread and on the two-worker window pipeline.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn moves_are_deterministic_on_the_same_network(
        recipe in arb_recipe(),
        cex_seeds in proptest::collection::vec(any::<u64>(), 1..=4),
    ) {
        let aig = build(&recipe);
        let sim = SigService::new(SimConfig::default());
        for seed in &cex_seeds {
            let witness: Vec<bool> =
                (0..aig.num_inputs()).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
            sim.record_cex(&witness);
        }
        prop_assert!(sim.commit_pending() > 0);
        let budget = Budget::unlimited();
        for mv in all_moves() {
            for (num_threads, sim) in [(1, Some(&sim)), (1, None), (2, None)] {
                let (first, first_bailouts) = mv.apply_filtered(&aig, num_threads, &budget, sim);
                let (second, second_bailouts) = mv.apply_filtered(&aig, num_threads, &budget, sim);
                prop_assert_eq!(
                    sbm_aig::aiger::write_binary(&first),
                    sbm_aig::aiger::write_binary(&second),
                    "{:?} at {} thread(s), sim {}: networks differ",
                    mv, num_threads, sim.is_some()
                );
                prop_assert_eq!(
                    first_bailouts, second_bailouts,
                    "{:?} at {} thread(s), sim {}: bailouts differ",
                    mv, num_threads, sim.is_some()
                );
            }
        }
    }
}

fn small_window_pipeline(num_threads: usize) -> Pipeline {
    small_window_pipeline_checked(num_threads, CheckLevel::Off)
}

fn small_window_pipeline_checked(num_threads: usize, check_level: CheckLevel) -> Pipeline {
    let options = PipelineOptions {
        num_threads,
        partition: PartitionOptions {
            max_nodes: 16,
            max_inputs: 8,
            max_levels: 8,
        },
        min_window: 2,
        check_level,
        ..PipelineOptions::default()
    };
    Pipeline::new(options)
        .with_engine(Rewrite::default())
        .with_engine(Resub::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn parallel_pipeline_equivalent_and_no_larger_than_serial(recipe in arb_recipe()) {
        let aig = build(&recipe);
        let serial = small_window_pipeline(1).run(&aig);
        prop_assert!(equivalent(&aig, &serial.aig), "serial broke function");
        prop_assert!(serial.stats.is_consistent(), "{:?}", serial.stats);
        for threads in [2usize, 4] {
            let parallel = small_window_pipeline(threads).run(&aig);
            prop_assert!(
                equivalent(&aig, &parallel.aig),
                "{threads}-thread pipeline broke function"
            );
            prop_assert!(
                parallel.aig.num_ands() <= serial.aig.num_ands(),
                "{threads}-thread result larger than serial: {} > {}",
                parallel.aig.num_ands(),
                serial.aig.num_ands()
            );
            prop_assert!(parallel.stats.is_consistent(), "{:?}", parallel.stats);
        }
    }

    // Zero-fault runs must report zero faults: the fault machinery is
    // pure observation when nothing goes wrong.
    #[test]
    fn fault_free_pipeline_reports_zero_faults(recipe in arb_recipe()) {
        let aig = build(&recipe);
        for threads in [1usize, 2] {
            let run = small_window_pipeline(threads).run(&aig);
            prop_assert!(run.stats.fault.is_zero(), "{:?}", run.stats.fault);
        }
    }

    // Seeded fault injection at 10–30% rates: every run must complete,
    // stay functionally equivalent to its input, keep consistent window
    // accounting, and tally a `FaultSummary` that replays exactly from
    // the injected-fault ledger — independent of thread count.
    #[test]
    fn fault_injected_pipeline_survives_and_ledgers_exactly(
        recipe in arb_recipe(),
        seed in any::<u64>(),
        rate_pct in 10u32..30,
    ) {
        let aig = build(&recipe);
        let plan = FaultPlan::uniform(seed, f64::from(rate_pct) / 100.0);
        let mut summaries = Vec::new();
        for threads in [1usize, 2] {
            let run = fault_pipeline(threads, plan).run(&aig);
            prop_assert!(equivalent(&aig, &run.aig), "injection broke function");
            prop_assert!(run.stats.is_consistent(), "{:?}", run.stats);
            if let Err(mismatch) = assert_ledger_exact(&run.stats) {
                prop_assert!(false, "{}", mismatch);
            }
            summaries.push(run.stats.fault);
        }
        // The roll is a pure function of (seed, window, engine, attempt),
        // so the whole summary — ledger included — is thread-invariant.
        prop_assert_eq!(&summaries[0], &summaries[1]);
    }

    #[test]
    fn paranoid_pipeline_reports_no_violations(recipe in arb_recipe()) {
        let aig = build(&recipe);
        let plain = small_window_pipeline(2).run(&aig);
        let checked = small_window_pipeline_checked(2, CheckLevel::Paranoid).run(&aig);
        prop_assert!(
            checked.stats.check_violations.is_empty(),
            "{:?}",
            checked.stats.check_violations
        );
        prop_assert_eq!(plain.aig.num_ands(), checked.aig.num_ands());
        prop_assert!(equivalent(&aig, &checked.aig), "checked pipeline broke function");
    }
}

fn fault_pipeline(num_threads: usize, plan: FaultPlan) -> Pipeline {
    let options = PipelineOptions {
        num_threads,
        partition: PartitionOptions {
            max_nodes: 16,
            max_inputs: 8,
            max_levels: 8,
        },
        min_window: 2,
        fault_plan: Some(plan),
        ..PipelineOptions::default()
    };
    Pipeline::new(options)
        .with_engine(Rewrite::default())
        .with_engine(Resub::default())
}

/// Replays the injected-fault ledger against the per-engine counters:
/// every count in the summary must be derivable from the ledger alone.
/// Valid whenever no *genuine* faults occur alongside the injected ones
/// (the engines under test neither panic nor hit node limits here).
fn assert_ledger_exact(report: &PipelineReport) -> Result<(), String> {
    let fault = &report.fault;
    let check = |what: &str, got: usize, want: usize| {
        if got == want {
            Ok(())
        } else {
            Err(format!("{what}: summary says {got}, ledger says {want}"))
        }
    };
    let count = |engine: &str, attempt: Option<u8>, kinds: &[FaultKind]| {
        fault
            .injected
            .iter()
            .filter(|f| {
                f.engine == engine
                    && attempt.is_none_or(|a| f.attempt == a)
                    && kinds.contains(&f.kind)
            })
            .count()
    };
    let failures = [FaultKind::Panic, FaultKind::Bailout];
    for (name, c) in &fault.per_engine {
        check(
            &format!("{name} panics"),
            c.panics,
            count(name, None, &[FaultKind::Panic]),
        )?;
        check(
            &format!("{name} delays"),
            c.delays,
            count(name, None, &[FaultKind::Delay]),
        )?;
        check(
            &format!("{name} injected bailouts"),
            c.injected_bailouts,
            count(name, None, &[FaultKind::Bailout]),
        )?;
        // A retry happens exactly when attempt 0 failed, and succeeds
        // unless attempt 1 was also shot down.
        check(
            &format!("{name} retries"),
            c.retries,
            count(name, Some(0), &failures),
        )?;
        check(
            &format!("{name} retry successes"),
            c.retry_successes,
            c.retries - count(name, Some(1), &failures),
        )?;
    }
    // A window degrades exactly when some engine's retry failed; the
    // chain stops there, so distinct windows with an attempt-1 failure
    // equal the degraded count.
    let mut degraded: Vec<usize> = fault
        .injected
        .iter()
        .filter(|f| f.attempt == 1 && failures.contains(&f.kind))
        .map(|f| f.window)
        .collect();
    degraded.sort_unstable();
    degraded.dedup();
    check("degraded windows", fault.degraded_windows, degraded.len())
}

/// An engine wrapper that cancels a shared [`Budget`] after a fixed
/// number of completed invocations — simulating a process being killed
/// mid-run at an arbitrary point. It reports the inner engine's name so
/// the configuration fingerprint (which hashes engine names) matches the
/// plain pipeline used for the resume.
struct KillSwitch<E> {
    inner: E,
    budget: sbm_budget::Budget,
    fuse: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl<E: Engine> Engine for KillSwitch<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn optimize(&self, aig: &Aig, ctx: &EngineCtx<'_>) -> sbm_core::engine::EngineResult {
        let result = self.inner.optimize(aig, ctx);
        use std::sync::atomic::Ordering;
        let prev = self
            .fuse
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .unwrap_or(0);
        if prev == 1 {
            self.budget.cancel();
        }
        result
    }
}

fn kill_resume_options(num_threads: usize, dir: std::path::PathBuf) -> PipelineOptions {
    PipelineOptions {
        num_threads,
        partition: PartitionOptions {
            max_nodes: 16,
            max_inputs: 8,
            max_levels: 8,
        },
        min_window: 2,
        checkpoint: Some(sbm_core::pipeline::CheckpointOptions::new(dir)),
        ..PipelineOptions::default()
    }
}

// Kill-mid-run crash safety: a checkpointed run whose budget is cancelled
// after `kill_after` engine invocations — at an arbitrary point in the
// window schedule — must leave a checkpoint from which a plain pipeline
// resumes to a result identical to an uninterrupted run, with every
// window accounted exactly once and consistent fault bookkeeping, at
// every thread count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn killed_checkpointed_run_resumes_identical(
        recipe in arb_recipe(),
        kill_after in 1usize..6,
    ) {
        let aig = build(&recipe);
        for threads in [1usize, 2, 4] {
            let dir = std::env::temp_dir().join(format!(
                "sbm-kill-resume-{}-t{threads}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);

            // Reference: the same configuration, uninterrupted and
            // uncheckpointed.
            let full = {
                let mut o = kill_resume_options(threads, dir.clone());
                o.checkpoint = None;
                Pipeline::new(o)
                    .with_engine(Rewrite::default())
                    .with_engine(Resub::default())
                    .run(&aig)
            };

            // The killed run: shared cancellable budget, fuse on the
            // first engine of the chain.
            let budget = sbm_budget::Budget::cancellable();
            let fuse = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(kill_after));
            let mut options = kill_resume_options(threads, dir.clone());
            options.budget = budget.clone();
            let killed = Pipeline::new(options)
                .with_engine(KillSwitch {
                    inner: Rewrite::default(),
                    budget: budget.clone(),
                    fuse,
                })
                .with_engine(Resub::default())
                .run(&aig);
            prop_assert!(killed.stats.is_consistent(), "{:?}", killed.stats);
            prop_assert!(
                killed.stats.checkpoint_error.is_none(),
                "{:?}",
                killed.stats.checkpoint_error
            );
            prop_assert!(equivalent(&aig, &killed.aig), "killed run broke function");

            // Resume with the plain engine chain (same names, fresh
            // unlimited budget).
            let resumed = Pipeline::new(kill_resume_options(threads, dir.clone()))
                .with_engine(Rewrite::default())
                .with_engine(Resub::default())
                .resume();
            let resumed = match resumed {
                Ok(r) => r,
                Err(e) => {
                    prop_assert!(false, "resume failed: {e}");
                    unreachable!()
                }
            };
            prop_assert!(equivalent(&aig, &resumed.aig), "resume broke function");
            prop_assert!(resumed.stats.is_consistent(), "{:?}", resumed.stats);
            prop_assert!(resumed.stats.fault.is_zero(), "{:?}", resumed.stats.fault);
            prop_assert_eq!(
                resumed.aig.num_ands(),
                full.aig.num_ands(),
                "resumed result differs from uninterrupted run"
            );
            let summary = resumed.stats.resume.unwrap_or_default();
            prop_assert_eq!(
                summary.windows_replayed + summary.windows_rerun,
                resumed.stats.windows_total - resumed.stats.windows_skipped,
                "every window must be replayed or re-run exactly once: {summary:?}"
            );

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A deterministic mass of redundant logic big enough that the small
/// partition settings produce many windows.
fn stress_aig(seed: u64) -> Aig {
    let mut aig = Aig::new();
    let inputs: Vec<Lit> = (0..8).map(|_| aig.add_input()).collect();
    let mut state = seed | 1;
    let mut lits = inputs;
    for _ in 0..180 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = lits[(state >> 33) as usize % lits.len()];
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let b = lits[(state >> 33) as usize % lits.len()];
        let f = match state % 3 {
            0 => aig.and(a, b),
            1 => aig.or(a, b),
            _ => aig.xor(a, b),
        };
        lits.push(f);
    }
    for l in lits.iter().rev().take(4) {
        aig.add_output(*l);
    }
    aig.cleanup()
}

// The acceptance stress test: seeded panic/delay/bailout injection at a
// 15% per-kind rate across *all eight* engines. Every run must complete
// without aborting, produce a network functionally equivalent to its
// input (simulation screen + SAT gate, via `equivalent`), and report a
// `FaultSummary` that matches the injected-fault ledger exactly. Across
// the seeds the retry ladder must demonstrably rescue some attempts.
#[test]
fn all_engine_fault_stress_completes_equivalent_with_exact_ledger() {
    let mut total_injected = 0usize;
    let mut total_retry_successes = 0usize;
    for seed in [1u64, 2, 3] {
        let aig = stress_aig(seed);
        let options = PipelineOptions {
            num_threads: 2,
            partition: PartitionOptions {
                max_nodes: 30,
                max_inputs: 10,
                max_levels: 12,
            },
            min_window: 2,
            fault_plan: Some(FaultPlan::uniform(seed, 0.15)),
            ..PipelineOptions::default()
        };
        let run = Pipeline::new(options)
            .with_engine(Balance)
            .with_engine(Rewrite::default())
            .with_engine(Refactor::default())
            .with_engine(Resub::default())
            .with_engine(Mspf::default())
            .with_engine(Bdiff::default())
            .with_engine(Hetero::default())
            .with_engine(Gradient {
                options: GradientOptions {
                    budget: 20,
                    budget_extension: 0,
                    ..Default::default()
                },
            })
            .run(&aig);
        assert!(
            equivalent(&aig, &run.aig),
            "seed {seed}: injection broke function"
        );
        assert!(run.stats.is_consistent(), "seed {seed}: {:?}", run.stats);
        if let Err(mismatch) = assert_ledger_exact(&run.stats) {
            panic!("seed {seed}: {mismatch}\n{:?}", run.stats.fault);
        }
        total_injected += run.stats.fault.injected.len();
        total_retry_successes += run
            .stats
            .fault
            .per_engine
            .iter()
            .map(|(_, c)| c.retry_successes)
            .sum::<usize>();
    }
    assert!(total_injected > 0, "stress plan never fired");
    assert!(
        total_retry_successes > 0,
        "retry ladder never rescued an attempt across the stress seeds"
    );
}
