//! SAT-based redundancy removal.
//!
//! A fanin connection of an AND gate is *redundant* if replacing it by
//! constant 1 (i.e. replacing the gate by its other fanin) does not change
//! any primary output — the stuck-at-1 fault on that connection is
//! untestable. Following Debnath et al. \[9\] (cited by the paper and run
//! as part of its resynthesis script), we test candidate connections with
//! SAT and remove the proven-redundant ones.
//!
//! Each candidate is decided by [`fault_cone_check`]: a miter of the
//! network against a copy of only the target's transitive fan-out, so the
//! solver never has to re-prove the untouched logic equal to itself.

use sbm_aig::sim::Signatures;
use sbm_aig::{Aig, Lit, NodeId};

use crate::cnf::{and_gate, encode, xor_gate};
use crate::equiv::Verdict;
use crate::solver::{SatLit, SolveResult, Solver};

/// Options for redundancy removal.
#[derive(Debug, Clone, Copy)]
pub struct RedundancyOptions {
    /// Conflict budget per SAT check.
    pub budget: Option<u64>,
    /// Maximum number of SAT checks per pass (runtime guard).
    pub max_checks: usize,
}

impl Default for RedundancyOptions {
    fn default() -> Self {
        RedundancyOptions {
            budget: Some(2_000),
            max_checks: 10_000,
        }
    }
}

/// Statistics of a redundancy-removal pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedundancyStats {
    /// Connections proven redundant and removed.
    pub removed: usize,
    /// Candidates that passed the simulation screen (each one counts
    /// against [`RedundancyOptions::max_checks`]).
    pub checks: usize,
    /// SAT checks that proved the connection irredundant.
    pub refuted: usize,
    /// SAT checks that ran out of budget.
    pub undecided: usize,
}

/// Builds a copy of `aig` in which node `target` is replaced by `with`.
fn rebuild_with_replacement(aig: &Aig, target: NodeId, with_other_fanin: Lit) -> Option<Aig> {
    let mut copy = aig.clone();
    copy.replace(target, with_other_fanin).ok()?;
    Some(copy.cleanup())
}

/// Decides whether replacing AND node `target` of `aig` by `with` leaves
/// every primary output unchanged, with a conflict budget per call
/// (`None` = unbounded).
///
/// The network is encoded once; on top of it goes a copy of only the
/// target's transitive fan-out, in which the target reads `with`. Every
/// node outside that cone shares its variable with the original, so only
/// the outputs the cone reaches are mitred — the others are identical by
/// construction. The verdict is therefore exact: [`Verdict::Equivalent`]
/// means the replacement is safe, and [`Verdict::Refuted`] carries a
/// primary-input assignment (in input order) on which some output changes.
///
/// `target` must be a live AND node and `with` must not depend on it —
/// any fanin of `target` qualifies.
pub fn fault_cone_check(aig: &Aig, target: NodeId, with: Lit, budget: Option<u64>) -> Verdict {
    let mut solver = Solver::new();
    solver.set_conflict_budget(budget);
    let map = encode(aig, &mut solver);
    // The faulty copy's literal of each node in the target's fan-out cone.
    let mut faulty: Vec<Option<SatLit>> = vec![None; aig.num_nodes()];
    faulty[target.index()] = Some(map.lit(with));
    let faulty_lit = |faulty: &[Option<SatLit>], l: Lit| match faulty[l.node().index()] {
        Some(f) if l.is_complemented() => !f,
        Some(f) => f,
        None => map.lit(l),
    };
    for id in aig.topo_order() {
        let (a, b) = aig.fanins(id);
        if id == target
            || (faulty[a.node().index()].is_none() && faulty[b.node().index()].is_none())
        {
            continue;
        }
        let v = and_gate(&mut solver, faulty_lit(&faulty, a), faulty_lit(&faulty, b));
        faulty[id.index()] = Some(v);
    }
    // XOR each output the cone reaches with its faulty copy; assert at
    // least one difference.
    let mut diffs = Vec::new();
    for out in aig.outputs() {
        if faulty[out.node().index()].is_some() {
            diffs.push(xor_gate(
                &mut solver,
                map.lit(out),
                faulty_lit(&faulty, out),
            ));
        }
    }
    solver.add_clause(&diffs);
    match solver.solve(&[]) {
        SolveResult::Unsat => Verdict::Equivalent,
        SolveResult::Unknown | SolveResult::Interrupted => Verdict::Unknown,
        SolveResult::Sat => Verdict::Refuted(
            aig.inputs()
                .iter()
                .map(|&input| solver.model_value(map.var(input)))
                .collect(),
        ),
    }
}

/// Result of a redundancy-removal pass.
#[derive(Debug, Clone)]
pub struct RedundancyResult {
    /// The cleaned network.
    pub aig: Aig,
    /// Pass statistics.
    pub stats: RedundancyStats,
}

/// Runs one redundancy-removal pass: for every AND gate, tests whether the
/// gate can be replaced by either of its fanins (stuck-at-1 on the other
/// connection). Proven-redundant gates are replaced. Returns the cleaned
/// network with the pass statistics.
pub fn remove_redundancies(aig: &Aig, options: &RedundancyOptions) -> RedundancyResult {
    let mut stats = RedundancyStats::default();
    let mut current = aig.cleanup();
    // Iterate to a fixpoint (each removal can expose more redundancy), but
    // bounded by the check budget.
    'outer: loop {
        // Simulation prefilter: a gate can only be replaced by one of its
        // fanins if they agree on all random patterns — this screens out
        // almost every candidate before any SAT work.
        let sig = Signatures::random(&current, 8, 0x5EED_0DD5);
        // Node ids are only valid for the network they came from; restart
        // the scan whenever `current` is rebuilt.
        for id in current.topo_order() {
            if !current.is_and(id) || current.is_replaced(id) {
                continue;
            }
            let (a, b) = current.fanins(id);
            for candidate in [a, b] {
                if !sig.maybe_equal(Lit::new(id, false), candidate) {
                    continue;
                }
                if stats.checks >= options.max_checks {
                    return RedundancyResult {
                        aig: current.cleanup(),
                        stats,
                    };
                }
                stats.checks += 1;
                let Some(replaced) = rebuild_with_replacement(&current, id, candidate) else {
                    continue;
                };
                if replaced.num_ands() >= current.num_ands() {
                    continue;
                }
                match fault_cone_check(&current, id, candidate, options.budget) {
                    Verdict::Equivalent => {
                        stats.removed += 1;
                        current = replaced;
                        continue 'outer;
                    }
                    Verdict::Refuted(_) => stats.refuted += 1,
                    Verdict::Unknown => stats.undecided += 1,
                }
            }
        }
        // A full scan without a removal: fixpoint reached.
        break;
    }
    RedundancyResult {
        aig: current.cleanup(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::{EquivalenceOracle, MiterOracle};

    #[test]
    fn removes_redundant_and() {
        // f = a & (a | b): the (a | b) connection is redundant; f = a.
        // Note strashing won't simplify this (different structure).
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let o = aig.or(a, b);
        let f = aig.and(a, o);
        aig.add_output(f);
        assert_eq!(aig.num_ands(), 2);
        let RedundancyResult {
            aig: cleaned,
            stats,
        } = remove_redundancies(&aig, &RedundancyOptions::default());
        assert!(stats.removed >= 1, "{stats:?}");
        assert_eq!(cleaned.num_ands(), 0, "f should collapse to a");
        assert_eq!(
            MiterOracle::new().check(&aig, &cleaned),
            Verdict::Equivalent
        );
    }

    #[test]
    fn keeps_irredundant_logic() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let f = aig.maj3(a, b, c);
        aig.add_output(f);
        let before = aig.num_ands();
        let cleaned = remove_redundancies(&aig, &RedundancyOptions::default()).aig;
        assert_eq!(cleaned.num_ands(), before);
        assert_eq!(
            MiterOracle::new().check(&aig, &cleaned),
            Verdict::Equivalent
        );
    }

    /// Asserts that `fault_cone_check` agrees with a full miter of the
    /// rebuilt network, and that a refutation witness really changes an
    /// output. Returns the verdict.
    fn checked_verdict(aig: &Aig, target: Lit, with: Lit) -> Verdict {
        let verdict = fault_cone_check(aig, target.node(), with, None);
        let replaced =
            rebuild_with_replacement(aig, target.node(), with).expect("fanins never form a cycle");
        match (&verdict, MiterOracle::new().check(aig, &replaced)) {
            (Verdict::Equivalent, Verdict::Equivalent) => {}
            (Verdict::Refuted(w), Verdict::Refuted(_)) => {
                assert_ne!(aig.eval(w), replaced.eval(w), "witness {w:?}");
            }
            (cone, full) => panic!("fault cone says {cone:?}, full miter {full:?}"),
        }
        verdict
    }

    #[test]
    fn proves_redundancy_hidden_by_observability_dont_cares() {
        // t = a & b differs from a whenever a & !b, but t's only reader
        // also needs b, so no output can observe the difference.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let d = aig.add_input();
        let t = aig.and(a, b);
        let z = aig.and(b, d);
        let f = aig.and(t, z);
        aig.add_output(f);
        let values = aig.eval_nodes(&[true, false, false]);
        assert_ne!(values[t.node().index()], values[a.node().index()]);
        assert_eq!(checked_verdict(&aig, t, a), Verdict::Equivalent);
        // Dropping d from z is observable: f would ignore d.
        assert!(matches!(checked_verdict(&aig, z, b), Verdict::Refuted(_)));
    }

    #[test]
    fn mitres_only_the_output_the_cone_reaches() {
        // t = a & (a | b) ≡ a feeds output 1 only; output 0 is unrelated.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let side = aig.xor(b, c);
        aig.add_output(side);
        let o = aig.or(a, b);
        let t = aig.and(a, o);
        let g = aig.and(t, c);
        aig.add_output(g);
        assert_eq!(checked_verdict(&aig, t, a), Verdict::Equivalent);
        let Verdict::Refuted(w) = checked_verdict(&aig, t, o) else {
            panic!("t cannot be replaced by a | b");
        };
        let replaced = rebuild_with_replacement(&aig, t.node(), o).expect("no cycle");
        let (before, after) = (aig.eval(&w), replaced.eval(&w));
        assert_eq!(before[0], after[0], "the untouched output never differs");
        assert_ne!(before[1], after[1]);
    }

    #[test]
    fn checks_a_target_that_drives_an_output() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let o = aig.or(a, b);
        let t = aig.and(a, o);
        aig.add_output(!t);
        let u = aig.and(a, b);
        aig.add_output(u);
        assert_eq!(checked_verdict(&aig, t, a), Verdict::Equivalent);
        assert!(matches!(checked_verdict(&aig, t, o), Verdict::Refuted(_)));
        assert!(matches!(checked_verdict(&aig, u, a), Verdict::Refuted(_)));
        assert!(matches!(checked_verdict(&aig, u, b), Verdict::Refuted(_)));
    }

    #[test]
    fn every_check_that_gains_a_node_is_counted_once() {
        // A 16-input AND chain: its deep nodes look equal to their chain
        // fanin under random simulation (the all-ones minterm is rare), so
        // SAT must refute them. Beside it sits one removable gate.
        let mut aig = Aig::new();
        let inputs: Vec<_> = (0..16).map(|_| aig.add_input()).collect();
        let mut chain = inputs[0];
        for &i in &inputs[1..] {
            chain = aig.and(chain, i);
        }
        aig.add_output(chain);
        let o = aig.or(inputs[0], inputs[1]);
        let t = aig.and(inputs[0], o);
        aig.add_output(t);
        let stats = remove_redundancies(&aig, &RedundancyOptions::default()).stats;
        assert_eq!(stats.removed, 1, "{stats:?}");
        assert!(stats.refuted >= 1, "{stats:?}");
        // Replacing a gate by its fanin always frees the gate, so every
        // check here reaches SAT and gets exactly one outcome.
        assert_eq!(
            stats.removed + stats.refuted + stats.undecided,
            stats.checks,
            "{stats:?}"
        );
    }

    #[test]
    fn respects_check_limit() {
        let mut aig = Aig::new();
        let inputs: Vec<_> = (0..6).map(|_| aig.add_input()).collect();
        let f = aig.and_many(&inputs);
        aig.add_output(f);
        let opts = RedundancyOptions {
            budget: Some(100),
            max_checks: 1,
        };
        let stats = remove_redundancies(&aig, &opts).stats;
        assert!(stats.checks <= 1);
    }
}
