//! Multi-level networks of SOP nodes with AIG round-trips.

use std::collections::HashMap;

use sbm_aig::{Aig, Lit as AigLit, NodeId};

use crate::cover::{Cover, Cube, SignalLit};
use crate::factor::{factor, Factored};

/// A network signal: primary inputs come first (`0..num_inputs`), each node
/// drives one subsequent signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signal(pub u32);

/// A multi-level logic network whose nodes are SOP covers over other
/// signals.
///
/// This is the representation on which the paper's *elimination — kernel
/// extraction* pipeline operates (Section IV-B). It is intentionally
/// SIS-like: nodes are covers, cost is the literal count, and structural
/// transformations are collapse (eliminate) and divisor extraction.
///
/// # Example
///
/// ```
/// use sbm_sop::{Cover, Cube, SignalLit, SopNetwork};
///
/// let mut net = SopNetwork::new(2);
/// let a = SignalLit::positive(0);
/// let b = SignalLit::positive(1);
/// let f = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[a, b])]));
/// net.add_output(SignalLit::positive(f));
/// assert_eq!(net.eval(&[true, true]), vec![true]);
/// assert_eq!(net.eval(&[true, false]), vec![false]);
/// ```
#[derive(Debug, Clone)]
pub struct SopNetwork {
    num_inputs: usize,
    /// Node `i` drives signal `num_inputs + i`.
    nodes: Vec<Cover>,
    outputs: Vec<SignalLit>,
}

impl SopNetwork {
    /// Creates an empty network with `num_inputs` primary inputs.
    pub fn new(num_inputs: usize) -> Self {
        SopNetwork {
            num_inputs,
            nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of nodes (including dead ones until [`SopNetwork::cleanup`]).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of signals (inputs + nodes).
    pub fn num_signals(&self) -> usize {
        self.num_inputs + self.nodes.len()
    }

    /// Adds a node with the given cover; returns the signal it drives.
    pub fn add_node(&mut self, cover: Cover) -> u32 {
        self.nodes.push(cover);
        (self.num_inputs + self.nodes.len() - 1) as u32
    }

    /// Whether `signal` is a primary input.
    pub fn is_input(&self, signal: u32) -> bool {
        (signal as usize) < self.num_inputs
    }

    /// The cover of the node driving `signal`.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is an input or out of range.
    pub fn cover(&self, signal: u32) -> &Cover {
        assert!(!self.is_input(signal), "signal {signal} is an input");
        &self.nodes[signal as usize - self.num_inputs]
    }

    /// Replaces the cover of the node driving `signal`.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is an input or out of range.
    pub fn set_cover(&mut self, signal: u32, cover: Cover) {
        assert!(!self.is_input(signal), "signal {signal} is an input");
        self.nodes[signal as usize - self.num_inputs] = cover;
    }

    /// Registers `lit` as a primary output.
    pub fn add_output(&mut self, lit: SignalLit) {
        self.outputs.push(lit);
    }

    /// The primary outputs.
    pub fn outputs(&self) -> &[SignalLit] {
        &self.outputs
    }

    /// Signals of the nodes reachable from the outputs (live nodes only).
    pub fn live_nodes(&self) -> Vec<u32> {
        let mut live = Vec::new();
        let mut seen = vec![false; self.num_signals()];
        let mut stack: Vec<u32> = self.outputs.iter().map(|l| l.signal()).collect();
        while let Some(s) = stack.pop() {
            if self.is_input(s) || std::mem::replace(&mut seen[s as usize], true) {
                continue;
            }
            live.push(s);
            for dep in self.cover(s).signals() {
                stack.push(dep);
            }
        }
        live.sort_unstable();
        live
    }

    /// Total literal count over live nodes — the paper's optimization
    /// metric for eliminate/kerneling.
    pub fn num_lits(&self) -> usize {
        self.live_nodes()
            .iter()
            .map(|&s| self.cover(s).num_lits())
            .sum()
    }

    /// Live node signals in topological order (dependencies first).
    ///
    /// # Panics
    ///
    /// Panics if the network contains a combinational cycle.
    pub fn topo_order(&self) -> Vec<u32> {
        let mut order = Vec::new();
        let mut state: HashMap<u32, u8> = HashMap::new(); // 1 = visiting, 2 = done
        let mut stack: Vec<(u32, bool)> =
            self.outputs.iter().map(|l| (l.signal(), false)).collect();
        while let Some((s, expanded)) = stack.pop() {
            if self.is_input(s) {
                continue;
            }
            if expanded {
                state.insert(s, 2);
                order.push(s);
                continue;
            }
            match state.get(&s) {
                Some(2) => continue,
                // sbm-lint: allow(A003) a cyclic network violates the SopNetwork construction invariant; no caller can recover mid-traversal
                Some(1) => panic!("combinational cycle through signal {s}"),
                _ => {}
            }
            state.insert(s, 1);
            stack.push((s, true));
            for dep in self.cover(s).signals() {
                if state.get(&dep) != Some(&2) {
                    stack.push((dep, false));
                }
            }
        }
        order
    }

    /// For every signal, the set of live node signals whose covers mention
    /// it.
    pub fn fanouts(&self) -> HashMap<u32, Vec<u32>> {
        let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
        for s in self.live_nodes() {
            for dep in self.cover(s).signals() {
                map.entry(dep).or_default().push(s);
            }
        }
        map
    }

    /// Evaluates the network under an input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_inputs` or the network is cyclic.
    pub fn eval(&self, assignment: &[bool]) -> Vec<bool> {
        assert_eq!(assignment.len(), self.num_inputs);
        let mut values: HashMap<u32, bool> = assignment
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u32, v))
            .collect();
        for s in self.topo_order() {
            let v = self.cover(s).eval(|dep| values[&dep]);
            values.insert(s, v);
        }
        self.outputs
            .iter()
            .map(|l| values[&l.signal()] != l.is_negated())
            .collect()
    }

    /// Drops dead nodes and renumbers signals compactly. Input and output
    /// order is preserved.
    pub fn cleanup(&self) -> SopNetwork {
        let live = self.topo_order();
        let mut remap: HashMap<u32, u32> = (0..self.num_inputs as u32).map(|s| (s, s)).collect();
        let mut out = SopNetwork::new(self.num_inputs);
        for &s in &live {
            let cover = self.cover(s);
            let remapped = remap_cover(cover, &remap);
            let new_signal = out.add_node(remapped);
            remap.insert(s, new_signal);
        }
        for l in &self.outputs {
            out.add_output(SignalLit::new(remap[&l.signal()], l.is_negated()));
        }
        out
    }

    /// Imports an AIG: every AND gate becomes a one-cube, two-literal node.
    /// Constant outputs become constant nodes.
    pub fn from_aig(aig: &Aig) -> SopNetwork {
        let mut net = SopNetwork::new(aig.num_inputs());
        let mut map: HashMap<NodeId, SignalLit> = HashMap::new();
        for (i, &input) in aig.inputs().iter().enumerate() {
            map.insert(input, SignalLit::positive(i as u32));
        }
        let to_slit = |l: AigLit, map: &HashMap<NodeId, SignalLit>| {
            let base = map[&l.node()];
            if l.is_complemented() {
                base.negate()
            } else {
                base
            }
        };
        for id in aig.topo_order() {
            let (a, b) = aig.fanins(id);
            let la = to_slit(a, &map);
            let lb = to_slit(b, &map);
            let cover = Cover::from_cubes(vec![Cube::from_lits(&[la, lb])]);
            let s = net.add_node(cover);
            map.insert(id, SignalLit::positive(s));
        }
        for l in aig.outputs() {
            if l.node() == NodeId::CONST {
                let s = net.add_node(if l.is_complemented() {
                    Cover::one()
                } else {
                    Cover::zero()
                });
                net.add_output(SignalLit::positive(s));
            } else {
                net.add_output(to_slit(l, &map));
            }
        }
        net
    }

    /// Exports the network to an AIG, factoring every node algebraically.
    pub fn to_aig(&self) -> Aig {
        let mut aig = Aig::new();
        let mut map: HashMap<u32, AigLit> = HashMap::new();
        for i in 0..self.num_inputs {
            let l = aig.add_input();
            map.insert(i as u32, l);
        }
        for s in self.topo_order() {
            let fac = factor(self.cover(s));
            let lit = emit_factored(&mut aig, &fac, &map);
            map.insert(s, lit);
        }
        for l in &self.outputs {
            let base = map[&l.signal()];
            aig.add_output(base.complement_if(l.is_negated()));
        }
        aig
    }
}

fn remap_cover(cover: &Cover, remap: &HashMap<u32, u32>) -> Cover {
    Cover::from_cubes(
        cover
            .cubes()
            .iter()
            .map(|c| {
                Cube::from_lits(
                    &c.lits()
                        .iter()
                        .map(|l| SignalLit::new(remap[&l.signal()], l.is_negated()))
                        .collect::<Vec<_>>(),
                )
            })
            .collect(),
    )
}

fn emit_factored(aig: &mut Aig, fac: &Factored, map: &HashMap<u32, AigLit>) -> AigLit {
    match fac {
        Factored::Zero => AigLit::FALSE,
        Factored::One => AigLit::TRUE,
        Factored::Lit(l) => map[&l.signal()].complement_if(l.is_negated()),
        Factored::And(a, b) => {
            let la = emit_factored(aig, a, map);
            let lb = emit_factored(aig, b, map);
            aig.and(la, lb)
        }
        Factored::Or(a, b) => {
            let la = emit_factored(aig, a, map);
            let lb = emit_factored(aig, b, map);
            aig.or(la, lb)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_eval() {
        let mut net = SopNetwork::new(3);
        let (a, b, c) = (
            SignalLit::positive(0),
            SignalLit::positive(1),
            SignalLit::positive(2),
        );
        // x = a·b + c'
        let x = net.add_node(Cover::from_cubes(vec![
            Cube::from_lits(&[a, b]),
            Cube::from_lits(&[c.negate()]),
        ]));
        net.add_output(SignalLit::positive(x));
        assert_eq!(net.eval(&[true, true, true]), vec![true]);
        assert_eq!(net.eval(&[false, true, true]), vec![false]);
        assert_eq!(net.eval(&[false, false, false]), vec![true]);
    }

    #[test]
    fn aig_round_trip() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let m = aig.maj3(a, b, c);
        let x = aig.xor(a, b);
        aig.add_output(m);
        aig.add_output(!x);
        let net = SopNetwork::from_aig(&aig);
        let back = net.to_aig();
        for i in 0..8 {
            let assignment = [(i & 1) == 1, (i >> 1) & 1 == 1, (i >> 2) & 1 == 1];
            assert_eq!(aig.eval(&assignment), net.eval(&assignment));
            assert_eq!(aig.eval(&assignment), back.eval(&assignment));
        }
    }

    #[test]
    fn constant_outputs_survive_round_trip() {
        let mut aig = Aig::new();
        let _a = aig.add_input();
        aig.add_output(AigLit::TRUE);
        aig.add_output(AigLit::FALSE);
        let net = SopNetwork::from_aig(&aig);
        assert_eq!(net.eval(&[false]), vec![true, false]);
        let back = net.to_aig();
        assert_eq!(back.eval(&[true]), vec![true, false]);
    }

    #[test]
    fn cleanup_drops_dead_nodes() {
        let mut net = SopNetwork::new(2);
        let a = SignalLit::positive(0);
        let b = SignalLit::positive(1);
        let _dead = net.add_node(Cover::literal(a));
        let live = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[a, b])]));
        net.add_output(SignalLit::positive(live));
        let clean = net.cleanup();
        assert_eq!(clean.num_nodes(), 1);
        assert_eq!(clean.eval(&[true, true]), vec![true]);
        assert_eq!(clean.eval(&[true, false]), vec![false]);
    }

    #[test]
    fn fanouts_and_live_nodes() {
        let mut net = SopNetwork::new(2);
        let a = SignalLit::positive(0);
        let b = SignalLit::positive(1);
        let x = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[a, b])]));
        let y = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[
            SignalLit::positive(x),
            a,
        ])]));
        net.add_output(SignalLit::positive(y));
        let fanouts = net.fanouts();
        assert_eq!(fanouts[&x], vec![y]);
        assert_eq!(net.live_nodes(), vec![x, y]);
    }

    #[test]
    fn num_lits_counts_live_only() {
        let mut net = SopNetwork::new(2);
        let a = SignalLit::positive(0);
        let b = SignalLit::positive(1);
        let _dead = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[a, b])]));
        let live = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[a, b])]));
        net.add_output(SignalLit::positive(live));
        assert_eq!(net.num_lits(), 2);
    }
}
