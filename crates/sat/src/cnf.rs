//! Tseitin encoding of AIGs into CNF.

use std::collections::HashMap;

use sbm_aig::{Aig, Lit, NodeId};

use crate::solver::{SatLit, Solver, Var};

/// The variable mapping produced when an AIG is loaded into a solver.
#[derive(Debug, Clone)]
pub struct CnfMap {
    vars: HashMap<NodeId, Var>,
}

impl CnfMap {
    /// The solver variable of an AIG node.
    ///
    /// # Panics
    ///
    /// Panics if the node was not encoded (dead logic is skipped).
    pub fn var(&self, node: NodeId) -> Var {
        self.vars[&node]
    }

    /// The solver literal corresponding to an AIG literal.
    ///
    /// # Panics
    ///
    /// Panics if the node was not encoded.
    pub fn lit(&self, lit: Lit) -> SatLit {
        SatLit::new(self.var(lit.node()), lit.is_complemented())
    }

    /// Whether the node was encoded.
    pub fn contains(&self, node: NodeId) -> bool {
        self.vars.contains_key(&node)
    }
}

/// Encodes the live logic of `aig` into `solver` (Tseitin): one variable
/// per node, three clauses per AND gate. Returns the node→variable map.
///
/// The constant node is encoded as a variable forced to false, so constant
/// outputs and odd corner cases need no special-casing by callers.
pub fn encode(aig: &Aig, solver: &mut Solver) -> CnfMap {
    let mut vars: HashMap<NodeId, Var> = HashMap::new();
    let const_var = solver.new_var();
    solver.add_clause(&[SatLit::neg(const_var)]);
    vars.insert(NodeId::CONST, const_var);
    for &input in aig.inputs() {
        vars.insert(input, solver.new_var());
    }
    for id in aig.topo_order() {
        let (a, b) = aig.fanins(id);
        let la = SatLit::new(vars[&a.node()], a.is_complemented());
        let lb = SatLit::new(vars[&b.node()], b.is_complemented());
        vars.insert(id, and_gate(solver, la, lb).var());
    }
    CnfMap { vars }
}

/// Adds a fresh variable `v` with `v ↔ a ∧ b` and returns its positive
/// literal.
pub(crate) fn and_gate(solver: &mut Solver, a: SatLit, b: SatLit) -> SatLit {
    let v = SatLit::pos(solver.new_var());
    solver.add_clause(&[!v, a]);
    solver.add_clause(&[!v, b]);
    solver.add_clause(&[v, !a, !b]);
    v
}

/// Adds a fresh variable `d` with `d ↔ a ⊕ b` and returns its positive
/// literal — one miter difference.
pub(crate) fn xor_gate(solver: &mut Solver, a: SatLit, b: SatLit) -> SatLit {
    let d = SatLit::pos(solver.new_var());
    solver.add_clause(&[!d, a, b]);
    solver.add_clause(&[!d, !a, !b]);
    solver.add_clause(&[d, !a, b]);
    solver.add_clause(&[d, a, !b]);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    #[test]
    fn and_gate_semantics() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        aig.add_output(f);
        let mut solver = Solver::new();
        let map = encode(&aig, &mut solver);
        // f ∧ ¬a is unsatisfiable.
        assert_eq!(solver.solve(&[map.lit(f), map.lit(!a)]), SolveResult::Unsat);
        // f is satisfiable (with a = b = 1).
        assert_eq!(solver.solve(&[map.lit(f)]), SolveResult::Sat);
        assert!(solver.model_value(map.var(a.node())));
        assert!(solver.model_value(map.var(b.node())));
    }

    #[test]
    fn xor_gate_semantics() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.xor(a, b);
        aig.add_output(f);
        let mut solver = Solver::new();
        let map = encode(&aig, &mut solver);
        assert_eq!(
            solver.solve(&[map.lit(f), map.lit(a), map.lit(b)]),
            SolveResult::Unsat
        );
        assert_eq!(
            solver.solve(&[map.lit(f), map.lit(a), map.lit(!b)]),
            SolveResult::Sat
        );
    }

    #[test]
    fn constant_is_false() {
        let mut aig = Aig::new();
        let _ = aig.add_input();
        aig.add_output(Lit::TRUE);
        let mut solver = Solver::new();
        let map = encode(&aig, &mut solver);
        assert_eq!(solver.solve(&[map.lit(Lit::TRUE)]), SolveResult::Sat);
        assert_eq!(solver.solve(&[map.lit(Lit::FALSE)]), SolveResult::Unsat);
    }
}
