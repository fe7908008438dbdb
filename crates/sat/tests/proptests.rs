// Test code: a panic IS the failure report (clippy.toml only relaxes
// unwrap/expect inside #[test] fns, not test-file helpers).
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! Property tests: the SAT solver must agree with brute force on small
//! formulas, and the AIG bindings must preserve network function.

use proptest::prelude::*;
use sbm_sat::{
    equiv::{EquivalenceOracle, MiterOracle, Verdict},
    redundancy::{fault_cone_check, remove_redundancies, RedundancyOptions},
    sweep::{sweep, SweepOptions},
    SatLit, SolveResult, Solver, Var,
};

/// Random CNF over `n` vars: up to `m` clauses of 1..=3 literals.
fn arb_cnf() -> impl Strategy<Value = (usize, Vec<Vec<(usize, bool)>>)> {
    (2usize..=6).prop_flat_map(|n| {
        let clause = proptest::collection::vec((0..n, any::<bool>()), 1..=3);
        proptest::collection::vec(clause, 1..=12).prop_map(move |cs| (n, cs))
    })
}

fn brute_force_sat(n: usize, clauses: &[Vec<(usize, bool)>]) -> bool {
    (0..1usize << n).any(|m| {
        clauses
            .iter()
            .all(|c| c.iter().any(|&(v, neg)| ((m >> v) & 1 == 1) != neg))
    })
}

/// Random AIG recipe, mirroring the one in the aig crate's tests.
#[derive(Debug, Clone)]
struct Recipe {
    num_inputs: usize,
    steps: Vec<(u8, usize, usize, bool, bool)>,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (2usize..=5, 1usize..=20).prop_flat_map(|(num_inputs, num_steps)| {
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
            Recipe { num_inputs, steps }
        })
    })
}

fn build(recipe: &Recipe) -> sbm_aig::Aig {
    build_with_taps(recipe, &[])
}

/// Like [`build`], plus one extra output per tap (taps index the recipe's
/// signals modulo their count).
fn build_with_taps(recipe: &Recipe, taps: &[(usize, bool)]) -> sbm_aig::Aig {
    let mut aig = sbm_aig::Aig::new();
    let mut signals: Vec<sbm_aig::Lit> = (0..recipe.num_inputs).map(|_| aig.add_input()).collect();
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
    let out = *signals.last().expect("at least one signal");
    aig.add_output(out);
    for &(tap, complemented) in taps {
        aig.add_output(signals[tap % signals.len()].complement_if(complemented));
    }
    aig
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solver_agrees_with_brute_force((n, clauses) in arb_cnf()) {
        let mut solver = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| solver.new_var()).collect();
        let mut consistent = true;
        for c in &clauses {
            let lits: Vec<SatLit> = c
                .iter()
                .map(|&(v, neg)| SatLit::new(vars[v], neg))
                .collect();
            consistent &= solver.add_clause(&lits);
        }
        let expected = brute_force_sat(n, &clauses);
        if !consistent {
            prop_assert!(!expected, "solver found root conflict on a SAT formula");
        } else {
            let result = solver.solve(&[]);
            prop_assert_eq!(
                result,
                if expected { SolveResult::Sat } else { SolveResult::Unsat }
            );
            if result == SolveResult::Sat {
                // Verify the model.
                for c in &clauses {
                    prop_assert!(c.iter().any(|&(v, neg)| solver.model_value(vars[v]) != neg));
                }
            }
        }
    }

    #[test]
    fn self_equivalence(recipe in arb_recipe()) {
        let aig = build(&recipe);
        let clean = aig.cleanup();
        prop_assert_eq!(MiterOracle::new().check(&aig, &clean), Verdict::Equivalent);
    }

    #[test]
    fn sweep_preserves_function(recipe in arb_recipe()) {
        let mut aig = build(&recipe);
        let before = aig.cleanup();
        sweep(&mut aig, &SweepOptions::default());
        let after = aig.cleanup();
        prop_assert!(after.num_ands() <= before.num_ands());
        prop_assert_eq!(MiterOracle::new().check(&before, &after), Verdict::Equivalent);
    }

    #[test]
    fn redundancy_removal_preserves_function(recipe in arb_recipe()) {
        let aig = build(&recipe);
        let opts = RedundancyOptions { max_checks: 200, ..Default::default() };
        let result = remove_redundancies(&aig, &opts);
        let stats = result.stats;
        prop_assert!(stats.removed + stats.refuted + stats.undecided <= stats.checks, "{:?}", stats);
        let cleaned = result.aig;
        prop_assert!(cleaned.num_ands() <= aig.num_ands());
        prop_assert_eq!(MiterOracle::new().check(&aig, &cleaned), Verdict::Equivalent);
    }

    /// The fault-cone check decides every (AND gate, fanin) replacement
    /// exactly as an unbounded miter of the two full networks does, and
    /// each refutation witness really changes an output.
    #[test]
    fn fault_cone_check_agrees_with_full_miter(
        recipe in arb_recipe(),
        taps in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..=2),
    ) {
        let taps: Vec<(usize, bool)> = taps.iter().map(|&(t, c)| (t as usize, c)).collect();
        let current = build_with_taps(&recipe, &taps).cleanup();
        for id in current.topo_order() {
            let (a, b) = current.fanins(id);
            for fanin in [a, b] {
                let mut replaced = current.clone();
                replaced.replace(id, fanin).expect("a fanin never forms a cycle");
                let replaced = replaced.cleanup();
                let full = MiterOracle::new().check(&current, &replaced);
                match fault_cone_check(&current, id, fanin, None) {
                    Verdict::Equivalent => prop_assert_eq!(full, Verdict::Equivalent),
                    Verdict::Refuted(witness) => {
                        prop_assert!(matches!(full, Verdict::Refuted(_)), "full miter: {:?}", full);
                        prop_assert!(current.eval(&witness) != replaced.eval(&witness), "witness {:?}", witness);
                    }
                    Verdict::Unknown => panic!("an unbounded check came back Unknown"),
                }
            }
        }
    }
}
