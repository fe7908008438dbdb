//! Gradient-based AIG optimization (paper Section IV-A).
//!
//! Instead of a fixed script, the engine *learns* which moves pay off on
//! the current design: moves have costs, cheap moves are tried first, the
//! engine "records the gain of the best one" and prioritizes "moves with
//! high success likelihood on the current design … in the next
//! iterations". A cost budget bounds the total work; the budget is
//! auto-extended while the gain gradient over the last `k` iterations
//! exceeds a threshold, and the engine "terminates early if the gain
//! gradient is 0 over the last k iterations".

use sbm_aig::Aig;
use sbm_budget::Budget;
use sbm_sim::SigService;

use crate::balance::balance;
use crate::bdiff::{boolean_difference_resub_filtered, BdiffOptions};
use crate::hetero::{hetero_eliminate_kernel_impl, HeteroOptions};
use crate::mspf::{mspf_optimize_filtered, MspfOptions};
use crate::refactor::{refactor_impl, RefactorOptions};
use crate::resub::{resub_impl, ResubOptions};
use crate::rewrite::{rewrite_impl, RewriteOptions};

/// The move set of the gradient engine (paper: "rewriting, refactoring,
/// resub, mspf resub and eliminate, simplify & kerneling"; all but
/// rewriting come in low- and high-effort variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Move {
    /// Cut-based rewriting.
    Rewrite,
    /// Cone collapsing + refactoring (low/high effort).
    Refactor { high_effort: bool },
    /// Windowed resubstitution (low/high effort).
    Resub { high_effort: bool },
    /// MSPF-based resubstitution with BDDs (low/high effort).
    MspfResub { high_effort: bool },
    /// Eliminate, simplify & kerneling (low/high effort).
    EliminateKernel { high_effort: bool },
    /// Boolean-difference resubstitution.
    BooleanDifference,
    /// AND-tree balancing (zero-cost housekeeping move).
    Balance,
}

impl Move {
    /// The runtime-complexity cost of the move (unit-cost moves are tried
    /// first; higher-cost moves enter once cheap moves hit a local
    /// minimum).
    pub fn cost(self) -> u32 {
        match self {
            Move::Balance => 1,
            Move::Rewrite => 1,
            Move::Resub { high_effort: false } => 1,
            Move::Refactor { high_effort: false } => 2,
            Move::Resub { high_effort: true } => 2,
            Move::EliminateKernel { high_effort: false } => 3,
            Move::Refactor { high_effort: true } => 3,
            Move::MspfResub { high_effort: false } => 4,
            Move::EliminateKernel { high_effort: true } => 5,
            Move::MspfResub { high_effort: true } => 6,
            Move::BooleanDifference => 6,
        }
    }

    fn refactor_options(high_effort: bool) -> RefactorOptions {
        RefactorOptions {
            max_support: if high_effort { 14 } else { 10 },
            min_mffc: if high_effort { 2 } else { 4 },
            ..Default::default()
        }
    }

    fn resub_options(high_effort: bool) -> ResubOptions {
        ResubOptions {
            max_divisors: if high_effort { 48 } else { 16 },
            try_pairs: high_effort,
            ..Default::default()
        }
    }

    fn mspf_options(high_effort: bool) -> MspfOptions {
        let mut opts = MspfOptions::default();
        if !high_effort {
            opts.partition.max_nodes = 120;
            opts.partition.max_inputs = 10;
            opts.max_candidates = 16;
        }
        opts
    }

    fn hetero_options(high_effort: bool) -> HeteroOptions {
        let mut opts = HeteroOptions::default();
        if !high_effort {
            opts.thresholds = vec![-1, 5, 50];
            opts.extract_rounds = 8;
        }
        opts
    }

    /// Applies the move to `aig`, the one entry point of every move.
    ///
    /// With `num_threads > 1` and no signature service, window-based moves
    /// are fanned out through the parallel partition executor
    /// ([`crate::pipeline::parallel_pass_filtered`]), and the
    /// eliminate/kernel move enables its internal threshold-sweep threads.
    /// BDD-backed moves observe `budget`'s deadline/cancellation and stop
    /// early, returning the best network found so far. With `sim` set, the
    /// signature service prefilters the BDD-backed moves' (mspf, bdiff)
    /// candidates.
    ///
    /// Also returns the BDD node-limit bailouts the move incurred (always
    /// 0 for algebraic moves, which never build BDDs), so the gradient
    /// engine's ledger covers its inner mspf/bdiff invocations.
    ///
    /// A move is a pure function of `aig`, given the same committed `sim`
    /// patterns and a budget that has not run out: the gradient engine
    /// relies on this to skip a move that already failed on an unchanged
    /// network.
    pub fn apply_filtered(
        self,
        aig: &Aig,
        num_threads: usize,
        budget: &Budget,
        sim: Option<&SigService>,
    ) -> (Aig, u64) {
        // With the signature service active the move runs on the calling
        // thread, monolithically, at *every* thread count: the windowed
        // fan-out produces different (weaker, window-clipped) BDD moves
        // and different filter counters than the monolithic pass, so
        // routing by thread count would make both the result and the
        // sim-filter tallies depend on `num_threads`. Parallelism still
        // comes from the script's own windowed steps.
        if num_threads > 1 && sim.is_none() {
            return self.apply_parallel_budgeted(aig, num_threads, budget, sim);
        }
        match self {
            Move::Balance => (balance(aig), 0),
            Move::Rewrite => (rewrite_impl(aig, &RewriteOptions::default()).0, 0),
            Move::Refactor { high_effort } => (
                refactor_impl(aig, &Move::refactor_options(high_effort)).0,
                0,
            ),
            Move::Resub { high_effort } => {
                (resub_impl(aig, &Move::resub_options(high_effort)).0, 0)
            }
            Move::MspfResub { high_effort } => {
                let (aig, stats) =
                    mspf_optimize_filtered(aig, &Move::mspf_options(high_effort), budget, sim);
                (aig, stats.bailouts as u64)
            }
            Move::EliminateKernel { high_effort } => (
                hetero_eliminate_kernel_impl(aig, &Move::hetero_options(high_effort)).0,
                0,
            ),
            Move::BooleanDifference => {
                let (aig, stats) =
                    boolean_difference_resub_filtered(aig, &BdiffOptions::default(), budget, sim);
                (aig, stats.bailouts as u64)
            }
        }
    }

    fn apply_parallel_budgeted(
        self,
        aig: &Aig,
        num_threads: usize,
        budget: &Budget,
        sim: Option<&SigService>,
    ) -> (Aig, u64) {
        use crate::engine;
        use crate::pipeline::parallel_pass_filtered;
        fn split(run: crate::engine::Optimized<crate::pipeline::PipelineReport>) -> (Aig, u64) {
            let bailouts = run
                .stats
                .engines
                .iter()
                .map(|(_, s)| s.bailouts as u64)
                .sum();
            // The inner report is discarded here — note its BDD/SAT/sim
            // tallies back into this thread's accumulators so the work
            // still surfaces in the scheduler's enclosing scope.
            crate::bdd_bridge::note_bdd_tally(&run.stats.bdd);
            sbm_sat::note_sat_tally(&run.stats.sat);
            sbm_sim::note_sim_tally(&run.stats.sim);
            (run.aig, bailouts)
        }
        match self {
            Move::Balance => (balance(aig), 0),
            Move::Rewrite => split(parallel_pass_filtered(
                aig,
                num_threads,
                budget,
                sim,
                engine::Rewrite::default(),
            )),
            Move::Refactor { high_effort } => split(parallel_pass_filtered(
                aig,
                num_threads,
                budget,
                sim,
                engine::Refactor {
                    options: Move::refactor_options(high_effort),
                },
            )),
            Move::Resub { high_effort } => split(parallel_pass_filtered(
                aig,
                num_threads,
                budget,
                sim,
                engine::Resub {
                    options: Move::resub_options(high_effort),
                },
            )),
            Move::MspfResub { high_effort } => split(parallel_pass_filtered(
                aig,
                num_threads,
                budget,
                sim,
                engine::Mspf {
                    options: Move::mspf_options(high_effort),
                },
            )),
            Move::EliminateKernel { high_effort } => {
                let mut opts = Move::hetero_options(high_effort);
                // Hetero's parallelism is an internal threshold sweep, not
                // window fan-out; keep it tied to the actual thread count.
                opts.parallel = num_threads > 1;
                (hetero_eliminate_kernel_impl(aig, &opts).0, 0)
            }
            Move::BooleanDifference => split(parallel_pass_filtered(
                aig,
                num_threads,
                budget,
                sim,
                engine::Bdiff::default(),
            )),
        }
    }
}

/// All moves, cheapest first.
pub fn all_moves() -> Vec<Move> {
    let mut moves = vec![
        Move::Balance,
        Move::Rewrite,
        Move::Resub { high_effort: false },
        Move::Refactor { high_effort: false },
        Move::Resub { high_effort: true },
        Move::EliminateKernel { high_effort: false },
        Move::Refactor { high_effort: true },
        Move::MspfResub { high_effort: false },
        Move::EliminateKernel { high_effort: true },
        Move::MspfResub { high_effort: true },
        Move::BooleanDifference,
    ];
    moves.sort_by_key(|m| m.cost());
    moves
}

/// Best-result selection policy (paper Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Try moves in priority order, keep the first that gains — "the first
    /// successful move is picked, and all other moves are not tried". The
    /// paper's chosen runtime/QoR tradeoff.
    Waterfall,
    /// Try every affordable move and keep the best gain.
    Parallel,
}

/// Options for the gradient engine.
#[derive(Debug, Clone)]
pub struct GradientOptions {
    /// Total move-cost budget (paper's best value: 100).
    pub budget: u32,
    /// Gradient window: the last `k` iterations (paper: 20).
    pub k: u32,
    /// Minimum gain gradient (fraction of network size gained over the
    /// last `k` iterations) for the budget to auto-extend (paper: 3%).
    pub min_gain_gradient: f64,
    /// Extra budget granted when the gradient stays above the threshold.
    pub budget_extension: u32,
    /// Move selection policy.
    pub selection: Selection,
    /// Worker threads for move application (1 = strictly serial); see
    /// [`Move::apply_filtered`].
    pub num_threads: usize,
}

impl Default for GradientOptions {
    fn default() -> Self {
        GradientOptions {
            budget: 100,
            k: 20,
            min_gain_gradient: 0.03,
            budget_extension: 50,
            selection: Selection::Waterfall,
            num_threads: 1,
        }
    }
}

/// Per-move success statistics recorded during optimization.
#[derive(Debug, Clone, Default)]
pub struct MoveRecord {
    /// Times the move was tried and its cost charged, replays included
    /// (the success score divides by this).
    pub tried: u64,
    /// Tries answered from the failed-move memo instead of applying the
    /// move: it had already returned gain 0 on the same network.
    pub replayed: u64,
    /// Times it produced gain > 0.
    pub succeeded: u64,
    /// Total nodes gained.
    pub total_gain: u64,
    /// BDD node-limit bailouts incurred by the move's inner mspf/bdiff
    /// invocations (always 0 for algebraic moves).
    pub bailouts: u64,
}

/// Statistics of a gradient-engine run.
#[derive(Debug, Clone, Default)]
pub struct GradientStats {
    /// Iterations executed.
    pub iterations: u32,
    /// Budget actually spent.
    pub spent: u32,
    /// Budget extensions granted.
    pub extensions: u32,
    /// Per-move records, in `all_moves()` order.
    pub records: Vec<(Move, MoveRecord)>,
    /// Whether the run terminated early on a flat gradient.
    pub early_termination: bool,
}

#[cfg(test)]
pub(crate) fn gradient_optimize_impl(aig: &Aig, options: &GradientOptions) -> (Aig, GradientStats) {
    gradient_optimize_filtered(aig, options, &Budget::unlimited(), None)
}

/// Runs the gradient engine on `aig` under the move-cost budget of
/// `options` and the wall-clock `budget`, with `sim` prefiltering the
/// BDD-backed moves. Returns the optimized network and the per-move
/// schedule statistics.
pub fn gradient_optimize_filtered(
    aig: &Aig,
    options: &GradientOptions,
    budget: &Budget,
    sim: Option<&SigService>,
) -> (Aig, GradientStats) {
    let mut current = aig.cleanup();
    let mut stats = GradientStats {
        records: all_moves()
            .into_iter()
            .map(|m| (m, MoveRecord::default()))
            .collect(),
        ..Default::default()
    };
    let mut cost_budget = options.budget;
    let mut spent = 0u32;
    let mut recent_gains: Vec<usize> = Vec::new();
    // The cost tier currently unlocked: cheap moves first (paper: "the
    // optimization engine starts by trying unit cost moves").
    let mut unlocked_cost = 1u32;
    // Moves that returned gain 0 on `current` as it is now, with the
    // bailouts that run incurred. A move is a pure function of its input
    // network (the signature pool is committed only between script
    // steps), so re-applying one of these would fail identically; its try
    // is replayed from here instead — same cost, same record. Cleared
    // whenever a move is adopted.
    let mut failed: Vec<(Move, u64)> = Vec::new();

    while spent < cost_budget {
        // The wall-clock budget overrides the cost budget: a deadline or
        // cancellation ends the run with the best network found so far.
        if budget.check().is_err() {
            break;
        }
        stats.iterations += 1;
        let size_before = current.num_ands();
        if size_before == 0 {
            break;
        }
        // Order affordable moves by success score (desc), then cost (asc).
        let mut candidates: Vec<Move> = all_moves()
            .into_iter()
            .filter(|m| m.cost() <= unlocked_cost)
            .collect();
        let score = |m: &Move, records: &[(Move, MoveRecord)]| -> f64 {
            let Some((_, rec)) = records.iter().find(|(mm, _)| mm == m) else {
                unreachable!("stats tracks a record for every move");
            };
            if rec.tried == 0 {
                0.5 // unexplored moves get a neutral prior
            } else {
                rec.succeeded as f64 / rec.tried as f64
            }
        };
        candidates.sort_by(|a, b| {
            score(b, &stats.records)
                .total_cmp(&score(a, &stats.records))
                .then(a.cost().cmp(&b.cost()))
        });

        let mut best: Option<(Move, Aig, usize)> = None;
        for mv in candidates {
            if spent + mv.cost() > cost_budget {
                continue;
            }
            if budget.check().is_err() {
                break;
            }
            spent += mv.cost();
            let Some((_, rec)) = stats.records.iter_mut().find(|(mm, _)| *mm == mv) else {
                unreachable!("stats tracks a record for every move");
            };
            rec.tried += 1;
            if let Some(&(_, bailouts)) = failed.iter().find(|(m, _)| *m == mv) {
                rec.replayed += 1;
                rec.bailouts += bailouts;
                if spent >= cost_budget {
                    break;
                }
                continue;
            }
            let (result, bailouts) = mv.apply_filtered(&current, options.num_threads, budget, sim);
            let gain = size_before.saturating_sub(result.num_ands());
            rec.bailouts += bailouts;
            if gain > 0 {
                rec.succeeded += 1;
                rec.total_gain += gain as u64;
            } else {
                failed.push((mv, bailouts));
            }
            let improves = best.as_ref().map_or(gain > 0, |&(_, _, g)| gain > g);
            if improves {
                best = Some((mv, result, gain));
                if options.selection == Selection::Waterfall {
                    break; // first successful move wins
                }
            }
            if spent >= cost_budget {
                break;
            }
        }

        let gain = match best {
            Some((_, result, gain)) => {
                current = result;
                failed.clear();
                gain
            }
            None => 0,
        };
        recent_gains.push(gain);
        if gain == 0 {
            // Local minimum for the unlocked tier: introduce higher-cost
            // moves, or stop if everything is unlocked and flat.
            let max_cost = all_moves().iter().map(|m| m.cost()).max().unwrap_or(1);
            if unlocked_cost < max_cost {
                unlocked_cost += 1;
                continue;
            }
        }
        // Gain gradient over the last k iterations.
        if recent_gains.len() >= options.k as usize {
            let window: usize = recent_gains.iter().rev().take(options.k as usize).sum();
            let gradient = window as f64 / current.num_ands().max(1) as f64;
            if window == 0 {
                stats.early_termination = true;
                break;
            }
            if gradient >= options.min_gain_gradient && spent >= cost_budget {
                cost_budget += options.budget_extension;
                stats.extensions += 1;
            }
        }
    }
    stats.spent = spent;
    (current.cleanup(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbm_sat::{EquivalenceOracle, MiterOracle, Verdict};

    fn messy_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let d = aig.add_input();
        // Redundant, unbalanced, shareable logic.
        let t1 = aig.and(a, b);
        let t2 = aig.and(a, !b);
        let redundant = aig.or(t1, t2); // == a
        let chain1 = aig.and(redundant, c);
        let chain2 = aig.and(chain1, d);
        let dup1 = aig.and(a, c);
        let dup2 = aig.and(dup1, d); // == chain2
        let f = aig.or(chain2, dup2);
        aig.add_output(f);
        aig
    }

    #[test]
    fn optimizes_messy_network() {
        let aig = messy_aig();
        let (optimized, stats) = gradient_optimize_impl(&aig, &GradientOptions::default());
        assert!(
            optimized.num_ands() < aig.num_ands(),
            "{} -> {} ({stats:?})",
            aig.num_ands(),
            optimized.num_ands()
        );
        assert_eq!(
            MiterOracle::new().check(&aig, &optimized),
            Verdict::Equivalent
        );
        // The messy network reduces to a & c & d = 2 AND nodes.
        assert_eq!(optimized.num_ands(), 2);
    }

    #[test]
    fn gain_is_never_negative() {
        let aig = messy_aig();
        let (optimized, _) = gradient_optimize_impl(&aig, &GradientOptions::default());
        assert!(optimized.num_ands() <= aig.num_ands());
    }

    #[test]
    fn respects_budget() {
        let aig = messy_aig();
        let opts = GradientOptions {
            budget: 3,
            budget_extension: 0,
            ..Default::default()
        };
        let (_, stats) = gradient_optimize_impl(&aig, &opts);
        assert!(stats.spent <= 3);
    }

    #[test]
    fn parallel_selection_no_worse_than_waterfall() {
        let aig = messy_aig();
        let (wf, _) = gradient_optimize_impl(&aig, &GradientOptions::default());
        let (par, _) = gradient_optimize_impl(
            &aig,
            &GradientOptions {
                selection: Selection::Parallel,
                ..Default::default()
            },
        );
        assert!(par.num_ands() <= wf.num_ands());
    }

    /// Asserts a run's schedule: `(iterations, spent, extensions,
    /// early_termination)` and, per move in `all_moves()` order,
    /// `(tried, succeeded, total_gain, bailouts)`.
    fn assert_schedule(
        stats: &GradientStats,
        run: (u32, u32, u32, bool),
        moves: [(u64, u64, u64, u64); 11],
    ) {
        assert_eq!(
            (
                stats.iterations,
                stats.spent,
                stats.extensions,
                stats.early_termination
            ),
            run
        );
        let got: Vec<(Move, (u64, u64, u64, u64))> = stats
            .records
            .iter()
            .map(|(m, r)| (*m, (r.tried, r.succeeded, r.total_gain, r.bailouts)))
            .collect();
        let want: Vec<(Move, (u64, u64, u64, u64))> = all_moves().into_iter().zip(moves).collect();
        assert_eq!(got, want);
    }

    /// Runs the engine on a reduced EPFL design; returns the AND counts
    /// before and after, and the schedule.
    fn epfl_schedule(name: &str, options: &GradientOptions) -> ((usize, usize), GradientStats) {
        let aig = sbm_epfl::generate(name, sbm_epfl::Scale::Reduced).expect("known benchmark");
        let (optimized, stats) = gradient_optimize_impl(&aig, options);
        ((aig.num_ands(), optimized.num_ands()), stats)
    }

    /// The failed-move memo must not change which moves run or what they
    /// record: these are the schedules of an engine that re-applies every
    /// move, recorded without the memo.
    /// router's tiers go flat (with a doubled budget, bdiff's bailouts are
    /// replayed), int2float adopts moves that had failed on an earlier
    /// network, and cavlc extends its budget and terminates early.
    #[test]
    fn memo_keeps_the_schedule() {
        let (optimized, stats) = gradient_optimize_impl(&messy_aig(), &GradientOptions::default());
        assert_eq!(optimized.num_ands(), 2);
        assert_schedule(
            &stats,
            (8, 100, 0, false),
            [
                (8, 0, 0, 0),
                (8, 1, 6, 0),
                (6, 0, 0, 0),
                (5, 0, 0, 0),
                (5, 0, 0, 0),
                (4, 0, 0, 0),
                (4, 0, 0, 0),
                (3, 0, 0, 0),
                (2, 0, 0, 0),
                (1, 0, 0, 0),
                (1, 0, 0, 0),
            ],
        );

        let (sizes, stats) = epfl_schedule("router", &GradientOptions::default());
        assert_eq!(sizes, (131, 130));
        assert_schedule(
            &stats,
            (8, 100, 0, false),
            [
                (6, 0, 0, 0),
                (6, 0, 0, 0),
                (6, 0, 0, 0),
                (5, 0, 0, 0),
                (5, 0, 0, 0),
                (5, 0, 0, 0),
                (6, 1, 1, 0),
                (3, 0, 0, 0),
                (1, 0, 0, 0),
                (1, 0, 0, 0),
                (1, 0, 0, 8),
            ],
        );
        let replayed: u64 = stats.records.iter().map(|(_, r)| r.replayed).sum();
        assert!(replayed > 0, "router's flat tiers must hit the memo");
        let long = GradientOptions {
            budget: 200,
            k: 50,
            ..Default::default()
        };
        let (sizes, stats) = epfl_schedule("router", &long);
        assert_eq!(sizes, (131, 130));
        assert_schedule(
            &stats,
            (11, 200, 0, false),
            [
                (10, 0, 0, 0),
                (10, 0, 0, 0),
                (9, 0, 0, 0),
                (8, 0, 0, 0),
                (8, 0, 0, 0),
                (8, 0, 0, 0),
                (8, 1, 1, 0),
                (6, 0, 0, 0),
                (5, 0, 0, 0),
                (4, 0, 0, 0),
                (3, 0, 0, 24),
            ],
        );

        let (sizes, stats) = epfl_schedule("int2float", &GradientOptions::default());
        assert_eq!(sizes, (136, 113));
        assert_schedule(
            &stats,
            (11, 100, 0, false),
            [
                (6, 0, 0, 0),
                (6, 0, 0, 0),
                (7, 1, 9, 0),
                (5, 0, 0, 0),
                (8, 3, 5, 0),
                (3, 0, 0, 0),
                (3, 0, 0, 0),
                (2, 0, 0, 0),
                (1, 0, 0, 0),
                (1, 0, 0, 0),
                (3, 1, 9, 39),
            ],
        );

        let (sizes, stats) = epfl_schedule("cavlc", &GradientOptions::default());
        assert_eq!(sizes, (397, 51));
        assert_schedule(
            &stats,
            (35, 350, 5, true),
            [
                (30, 5, 13, 0),
                (27, 4, 78, 0),
                (21, 1, 3, 0),
                (20, 3, 251, 0),
                (15, 1, 1, 0),
                (13, 0, 0, 0),
                (13, 0, 0, 0),
                (7, 0, 0, 0),
                (6, 0, 0, 0),
                (6, 0, 0, 0),
                (5, 0, 0, 0),
            ],
        );
    }

    #[test]
    fn early_termination_on_flat_gradient() {
        // An already-optimal network: the engine must terminate without
        // burning the whole budget on a flat gradient.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        aig.add_output(f);
        let opts = GradientOptions {
            budget: 10_000,
            k: 5,
            ..Default::default()
        };
        let (optimized, stats) = gradient_optimize_impl(&aig, &opts);
        assert_eq!(optimized.num_ands(), 1);
        assert!(stats.spent < 10_000, "engine must not burn the budget");
    }

    /// FNV-1a of the AIGER text of `aig`.
    fn aiger_hash(aig: &Aig) -> u64 {
        let mut h = sbm_journal::Fnv64::new();
        h.write_str(&sbm_aig::aiger::write(aig));
        h.finish()
    }

    /// The moves built on the SOP layer must keep their exact outputs.
    /// These are the AIGER hashes of eliminate/kernel (default and
    /// low-effort options), high-effort refactor and rewrite on reduced
    /// EPFL designs, recorded before division, factoring, kernels,
    /// elimination, extraction and ISOP lost their quadratic rescans.
    #[test]
    fn sop_moves_keep_their_outputs() {
        let want: [(&str, [u64; 4]); 4] = [
            (
                "adder",
                [
                    0xde19_f8d9_7c07_b40d,
                    0xfd84_141c_c516_b4cd,
                    0x6c40_cf71_dffc_6bed,
                    0x8ceb_0a8b_b8ff_23a7,
                ],
            ),
            (
                "max",
                [
                    0xe231_bd2a_7fd6_057c,
                    0xe231_bd2a_7fd6_057c,
                    0xe231_bd2a_7fd6_057c,
                    0x2c0b_3f39_d5e7_6129,
                ],
            ),
            (
                "log2",
                [
                    0xfb47_f671_1e18_881b,
                    0xdcbd_8a6d_ea79_e33e,
                    0x6be2_ad64_6a12_a93c,
                    0xdcbd_8a6d_ea79_e33e,
                ],
            ),
            (
                "i2c",
                [
                    0x1939_adc4_72d5_6043,
                    0x1939_adc4_72d5_6043,
                    0x1939_adc4_72d5_6043,
                    0x1939_adc4_72d5_6043,
                ],
            ),
        ];
        for (name, hashes) in want {
            let aig = sbm_epfl::generate(name, sbm_epfl::Scale::Reduced).expect("known benchmark");
            let outputs = [
                hetero_eliminate_kernel_impl(&aig, &HeteroOptions::default()).0,
                hetero_eliminate_kernel_impl(&aig, &Move::hetero_options(false)).0,
                refactor_impl(&aig, &Move::refactor_options(true)).0,
                rewrite_impl(&aig, &RewriteOptions::default()).0,
            ];
            assert_eq!(outputs.map(|a| aiger_hash(&a)), hashes, "{name}");
        }
    }
}
