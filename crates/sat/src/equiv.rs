//! Miter-based combinational equivalence checking.
//!
//! Every SBM optimization engine in this repository is verified by checking
//! that the optimized network is combinationally equivalent to the original
//! — the paper's industrial flow does the same ("all benchmarks are
//! verified with an industrial formal equivalence checking flow", Section
//! V-C).
//!
//! The entry point is the [`EquivalenceOracle`] trait: an oracle maps a
//! pair of interface-compatible networks to a [`Verdict`], and a
//! [`Verdict::Refuted`] verdict carries the distinguishing input
//! assignment — the counterexample witness that simulation services
//! (`sbm-sim`) ingest to sharpen their filters. [`MiterOracle`] is the
//! SAT-backed implementation.

use sbm_aig::Aig;
use sbm_budget::Budget;

use crate::cnf::{encode, xor_gate};
use crate::solver::{SatLit, SolveResult, Solver};

/// Outcome of an [`EquivalenceOracle`] query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The two networks compute identical functions.
    Equivalent,
    /// Provably inequivalent; the payload is the witness assignment (one
    /// value per primary input, in input order) on which they differ —
    /// exactly the counterexample pattern a simulation service replays.
    Refuted(Vec<bool>),
    /// The oracle's resource budget ran out before a decision.
    Unknown,
}

/// A decision procedure for combinational equivalence of two AIGs with
/// matching interfaces.
///
/// Implementations must be *sound* in both directions: `Equivalent` only
/// for truly equivalent networks, `Refuted` only with a genuine witness.
/// `Unknown` is always permitted.
pub trait EquivalenceOracle {
    /// Decides equivalence of `a` and `b`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the two networks have different
    /// input or output counts.
    fn check(&self, a: &Aig, b: &Aig) -> Verdict;
}

/// The SAT-backed oracle: shared inputs, XOR per output pair, SAT on the
/// OR of the differences. Strong and complete within its budgets.
#[derive(Debug, Clone, Default)]
pub struct MiterOracle {
    conflict_budget: Option<u64>,
    budget: Option<Budget>,
}

impl MiterOracle {
    /// An oracle with unbounded conflicts and no wall-clock budget.
    pub fn new() -> Self {
        MiterOracle::default()
    }

    /// Bounds solver conflicts (`None` = unbounded); an exhausted budget
    /// yields [`Verdict::Unknown`].
    #[must_use]
    pub fn with_conflict_budget(mut self, conflicts: Option<u64>) -> Self {
        self.conflict_budget = conflicts;
        self
    }

    /// Probes a wall-clock / cancellation [`Budget`] from inside the
    /// solver's propagation loop; a tripped budget yields
    /// [`Verdict::Unknown`].
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }
}

impl EquivalenceOracle for MiterOracle {
    fn check(&self, a: &Aig, b: &Aig) -> Verdict {
        assert_eq!(a.num_inputs(), b.num_inputs(), "input count mismatch");
        assert_eq!(a.num_outputs(), b.num_outputs(), "output count mismatch");
        let mut solver = Solver::new();
        solver.set_conflict_budget(self.conflict_budget);
        if let Some(budget) = &self.budget {
            solver.set_budget(budget.clone());
        }
        let map_a = encode(a, &mut solver);
        let map_b = encode(b, &mut solver);
        // Tie the inputs together.
        for (&ia, &ib) in a.inputs().iter().zip(b.inputs()) {
            let la = SatLit::pos(map_a.var(ia));
            let lb = SatLit::pos(map_b.var(ib));
            solver.add_clause(&[!la, lb]);
            solver.add_clause(&[la, !lb]);
        }
        // XOR each output pair into a fresh variable; assert at least one
        // difference.
        let mut diffs = Vec::with_capacity(a.num_outputs());
        for (oa, ob) in a.outputs().into_iter().zip(b.outputs()) {
            diffs.push(xor_gate(&mut solver, map_a.lit(oa), map_b.lit(ob)));
        }
        solver.add_clause(&diffs);
        match solver.solve(&[]) {
            SolveResult::Unsat => Verdict::Equivalent,
            SolveResult::Unknown | SolveResult::Interrupted => Verdict::Unknown,
            SolveResult::Sat => {
                let cex = a
                    .inputs()
                    .iter()
                    .map(|&i| solver.model_value(map_a.var(i)))
                    .collect();
                Verdict::Refuted(cex)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_pair() -> (Aig, Aig) {
        let mut x = Aig::new();
        let a = x.add_input();
        let b = x.add_input();
        let f = x.xor(a, b);
        x.add_output(f);
        // Equivalent alternative: (a|b) & !(a&b)
        let mut y = Aig::new();
        let a = y.add_input();
        let b = y.add_input();
        let o = y.or(a, b);
        let n = y.and(a, b);
        let f = y.and(o, !n);
        y.add_output(f);
        (x, y)
    }

    #[test]
    fn equivalent_structures() {
        let (x, y) = xor_pair();
        assert_eq!(MiterOracle::new().check(&x, &y), Verdict::Equivalent);
    }

    #[test]
    fn inequivalent_yields_witness() {
        let mut x = Aig::new();
        let a = x.add_input();
        let b = x.add_input();
        let f = x.and(a, b);
        x.add_output(f);
        let mut y = Aig::new();
        let a2 = y.add_input();
        let b2 = y.add_input();
        let g = y.or(a2, b2);
        y.add_output(g);
        match MiterOracle::new().check(&x, &y) {
            Verdict::Refuted(cex) => {
                assert!(x.eval(&cex)[0] != y.eval(&cex)[0]);
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn multi_output_equivalence() {
        let mut x = Aig::new();
        let a = x.add_input();
        let b = x.add_input();
        let c = x.add_input();
        let m = x.maj3(a, b, c);
        x.add_output(m);
        let q = x.xor(a, c);
        x.add_output(q);
        let mut y = Aig::new();
        let a2 = y.add_input();
        let b2 = y.add_input();
        let c2 = y.add_input();
        let m2 = y.maj3(c2, a2, b2);
        y.add_output(m2);
        let q2 = y.xor(c2, a2);
        y.add_output(q2);
        assert_eq!(MiterOracle::new().check(&x, &y), Verdict::Equivalent);
    }

    #[test]
    fn complemented_outputs_differ() {
        let (x, mut y) = xor_pair();
        let out = y.outputs()[0];
        y.set_output(0, !out);
        assert!(matches!(
            MiterOracle::new().check(&x, &y),
            Verdict::Refuted(_)
        ));
    }
}
