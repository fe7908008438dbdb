//! Node elimination (forward collapsing) under a literal-variation
//! threshold.
//!
//! "Node elimination, also known as forward node collapsing, aims at
//! collapsing a node into its fanouts' SOPs. As a result, the node is
//! eliminated" (paper, Section IV-B footnote). "We go over all nodes … and
//! for each node, we estimate the variation in the number of literals …
//! that would result from the collapsing of the node into its fanouts. If
//! this variation is less than the specified threshold, the collapsing is
//! performed. The operation is repeated until no node gets collapsed."
//!
//! The threshold is the knob the heterogeneous engine sweeps over
//! `(-1, 2, 5, 20, 50, 100, 200, 300)`.

use std::collections::HashMap;

use crate::cover::{Cover, SignalLit};
use crate::network::SopNetwork;

/// Cube budget for computing a collapsed node's complement (needed when a
/// fanout uses the node in the negative phase).
const COMPLEMENT_CUBE_LIMIT: usize = 64;

/// Statistics of an eliminate pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EliminateStats {
    /// Nodes collapsed into their fanouts.
    pub collapsed: usize,
    /// Passes over the network until a fixpoint.
    pub passes: usize,
}

/// For every signal, the live nodes whose covers mention it, ascending —
/// [`SopNetwork::fanouts`], built once and kept exact across collapses by
/// [`Collapse::apply`] instead of being recomputed from the whole network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutIndex {
    by_signal: HashMap<u32, Vec<u32>>,
}

impl FanoutIndex {
    /// Indexes the fanouts of `net`.
    pub fn new(net: &SopNetwork) -> Self {
        FanoutIndex {
            by_signal: net.fanouts(),
        }
    }

    /// The live nodes whose covers mention `signal`, ascending; `None` if
    /// there are none.
    pub fn users(&self, signal: u32) -> Option<&[u32]> {
        self.by_signal.get(&signal).map(Vec::as_slice)
    }

    /// The index as the map [`SopNetwork::fanouts`] returns.
    pub fn as_map(&self) -> &HashMap<u32, Vec<u32>> {
        &self.by_signal
    }

    fn add(&mut self, signal: u32, user: u32) {
        let users = self.by_signal.entry(signal).or_default();
        if let Err(at) = users.binary_search(&user) {
            users.insert(at, user);
        }
    }

    /// Removes `user` from the users of `signal`; returns whether that
    /// left `signal` with none.
    fn remove(&mut self, signal: u32, user: u32) -> bool {
        let Some(users) = self.by_signal.get_mut(&signal) else {
            return false;
        };
        if let Ok(at) = users.binary_search(&user) {
            users.remove(at);
        }
        if users.is_empty() {
            self.by_signal.remove(&signal);
            return true;
        }
        false
    }
}

/// Collapsing one node into its fanouts, computed but not yet applied:
/// the literal variation it causes and the fanouts' substituted covers.
#[derive(Debug, Clone)]
pub struct Collapse {
    signal: u32,
    variation: i64,
    rewritten: Vec<(u32, Cover)>,
}

impl Collapse {
    /// The literal variation: `Σ lits(fanout after) − Σ lits(fanout
    /// before) − lits(node)` (the node's own cover disappears when the
    /// node dies).
    pub fn variation(&self) -> i64 {
        self.variation
    }

    /// Rewrites the fanouts of the collapsed node in `net` and updates
    /// `fanouts` to match: users gained and lost by each rewritten cover,
    /// then every node left without users (the collapsed node first) dies
    /// and releases its own dependencies in turn.
    pub fn apply(self, net: &mut SopNetwork, fanouts: &mut FanoutIndex) {
        let mut orphaned = Vec::new();
        for (u, cover) in self.rewritten {
            let old = net.cover(u).signals();
            let new = cover.signals();
            for &s in &old {
                if new.binary_search(&s).is_err() && fanouts.remove(s, u) {
                    orphaned.push(s);
                }
            }
            for &s in &new {
                if old.binary_search(&s).is_err() {
                    fanouts.add(s, u);
                }
            }
            net.set_cover(u, cover);
        }
        debug_assert!(orphaned.contains(&self.signal));
        while let Some(s) = orphaned.pop() {
            if net.is_input(s)
                || fanouts.users(s).is_some()
                || net.outputs().iter().any(|l| l.signal() == s)
            {
                continue;
            }
            for dep in net.cover(s).signals() {
                if fanouts.remove(dep, s) {
                    orphaned.push(dep);
                }
            }
        }
    }
}

/// Computes collapsing `signal` into its fanouts, given the network's
/// current `fanouts`.
///
/// Returns `None` if the collapse is infeasible (a fanout uses the node in
/// the negative phase and the complement blows past the cube budget, or the
/// node drives a primary output so it cannot die).
pub fn plan_collapse(net: &SopNetwork, fanouts: &FanoutIndex, signal: u32) -> Option<Collapse> {
    if net.is_input(signal) {
        return None;
    }
    if net.outputs().iter().any(|l| l.signal() == signal) {
        return None;
    }
    let users = fanouts.users(signal)?;
    let pos = net.cover(signal);
    let needs_neg = users.iter().any(|&u| {
        net.cover(u)
            .cubes()
            .iter()
            .any(|c| c.contains(SignalLit::negative(signal)))
    });
    let neg = if needs_neg {
        pos.complement(COMPLEMENT_CUBE_LIMIT)?
    } else {
        Cover::zero()
    };
    let mut variation: i64 = -(pos.num_lits() as i64);
    let mut rewritten = Vec::with_capacity(users.len());
    for &u in users {
        let after = net.cover(u).substitute(signal, pos, &neg);
        variation += after.num_lits() as i64 - net.cover(u).num_lits() as i64;
        rewritten.push((u, after));
    }
    Some(Collapse {
        signal,
        variation,
        rewritten,
    })
}

/// Runs eliminate to a fixpoint with the given literal-variation
/// `threshold`: a node is collapsed when its variation is **less than** the
/// threshold (paper wording). Threshold `-1` therefore only collapses nodes
/// that strictly reduce literals by at least 2; threshold `300` collapses
/// almost everything feasible.
pub fn eliminate(net: &mut SopNetwork, threshold: i64) -> EliminateStats {
    let mut stats = EliminateStats::default();
    let mut fanouts = FanoutIndex::new(net);
    loop {
        stats.passes += 1;
        let mut any = false;
        // Snapshot the node list: collapsing changes fanouts as we go.
        for signal in net.live_nodes() {
            if let Some(c) = plan_collapse(net, &fanouts, signal) {
                if c.variation() < threshold {
                    c.apply(net, &mut fanouts);
                    stats.collapsed += 1;
                    any = true;
                }
            }
        }
        if !any {
            return stats;
        }
        // Safety valve against pathological ping-pong (collapse cannot
        // re-create nodes, so this is just an upper bound on passes).
        if stats.passes > 64 {
            return stats;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::{Cover, Cube, SignalLit};
    use crate::network::SopNetwork;

    fn lit(s: u32) -> SignalLit {
        SignalLit::positive(s)
    }

    fn collapse_variation(net: &SopNetwork, signal: u32) -> Option<i64> {
        plan_collapse(net, &FanoutIndex::new(net), signal).map(|c| c.variation())
    }

    fn collapse(net: &mut SopNetwork, signal: u32) -> bool {
        let mut fanouts = FanoutIndex::new(net);
        let Some(c) = plan_collapse(net, &fanouts, signal) else {
            return false;
        };
        c.apply(net, &mut fanouts);
        true
    }

    /// x = a·b; f = x·c — collapsing x gives f = a·b·c.
    fn simple_chain() -> (SopNetwork, u32, u32) {
        let mut net = SopNetwork::new(3);
        let x = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[lit(0), lit(1)])]));
        let f = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[lit(x), lit(2)])]));
        net.add_output(lit(f));
        (net, x, f)
    }

    #[test]
    fn variation_estimates_collapse() {
        let (net, x, _) = simple_chain();
        // Before: x has 2 lits, f has 2 lits (4 total). After: f has 3 lits.
        // delta = 3 - 2 - 2 = -1.
        assert_eq!(collapse_variation(&net, x), Some(-1));
    }

    #[test]
    fn collapse_preserves_function() {
        let (mut net, x, _) = simple_chain();
        let before: Vec<_> = (0..8)
            .map(|m| net.eval(&[(m & 1) == 1, (m >> 1) & 1 == 1, (m >> 2) & 1 == 1]))
            .collect();
        assert!(collapse(&mut net, x));
        let after: Vec<_> = (0..8)
            .map(|m| net.eval(&[(m & 1) == 1, (m >> 1) & 1 == 1, (m >> 2) & 1 == 1]))
            .collect();
        assert_eq!(before, after);
        // x is now dead.
        assert!(!net.live_nodes().contains(&x));
    }

    #[test]
    fn negative_phase_collapse_uses_complement() {
        let mut net = SopNetwork::new(2);
        // x = a·b; f = x' (pure complement use).
        let x = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[lit(0), lit(1)])]));
        let f = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[
            SignalLit::negative(x),
        ])]));
        net.add_output(lit(f));
        assert!(collapse(&mut net, x));
        assert_eq!(net.eval(&[true, true]), vec![false]);
        assert_eq!(net.eval(&[true, false]), vec![true]);
    }

    #[test]
    fn collapse_releases_nodes_left_without_users() {
        // y = a·b, x = y·c, f = x·c' + a. Collapsing x contradicts f's
        // first cube away, so f = a: x dies, then y, whose only user was
        // x, and b, whose only user was y, loses its entry.
        let mut net = SopNetwork::new(3);
        let (a, b, c) = (lit(0), lit(1), lit(2));
        let y = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[a, b])]));
        let x = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[lit(y), c])]));
        let f = net.add_node(Cover::from_cubes(vec![
            Cube::from_lits(&[lit(x), c.negate()]),
            Cube::from_lits(&[a]),
        ]));
        net.add_output(lit(f));
        let mut fanouts = FanoutIndex::new(&net);
        let Some(plan) = plan_collapse(&net, &fanouts, x) else {
            panic!("x is collapsible");
        };
        plan.apply(&mut net, &mut fanouts);
        assert_eq!(net.live_nodes(), vec![f]);
        assert_eq!(fanouts.as_map(), &net.fanouts());
        assert_eq!(fanouts.users(1), None);
    }

    #[test]
    fn output_nodes_not_collapsed() {
        let mut net = SopNetwork::new(2);
        let x = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[lit(0), lit(1)])]));
        net.add_output(lit(x));
        assert_eq!(collapse_variation(&net, x), None);
        assert!(!collapse(&mut net, x));
    }

    #[test]
    fn threshold_controls_aggressiveness() {
        // y = a + b (2 lits); f = y·c + y·d (4 lits). Collapsing y:
        // f = a·c + b·c + a·d + b·d (8 lits): delta = 8 - 4 - 2 = +2.
        let mut net = SopNetwork::new(4);
        let y = net.add_node(Cover::from_cubes(vec![
            Cube::from_lits(&[lit(0)]),
            Cube::from_lits(&[lit(1)]),
        ]));
        let f = net.add_node(Cover::from_cubes(vec![
            Cube::from_lits(&[lit(y), lit(2)]),
            Cube::from_lits(&[lit(y), lit(3)]),
        ]));
        net.add_output(lit(f));
        assert_eq!(collapse_variation(&net, y), Some(2));
        // threshold -1: not collapsed.
        let mut strict = net.clone();
        let stats = eliminate(&mut strict, -1);
        assert_eq!(stats.collapsed, 0);
        assert!(strict.live_nodes().contains(&y));
        // threshold 5 (> 2): collapsed.
        let mut loose = net.clone();
        let stats = eliminate(&mut loose, 5);
        assert_eq!(stats.collapsed, 1);
        assert!(!loose.live_nodes().contains(&y));
    }

    #[test]
    fn eliminate_reaches_fixpoint() {
        // A chain of single-literal buffers all collapse away.
        let mut net = SopNetwork::new(1);
        let mut cur = 0u32;
        for _ in 0..5 {
            cur = net.add_node(Cover::literal(lit(cur)));
        }
        let f = net.add_node(Cover::from_cubes(vec![Cube::from_lits(&[lit(cur)])]));
        net.add_output(lit(f));
        let stats = eliminate(&mut net, 2);
        assert_eq!(stats.collapsed, 5);
        assert_eq!(net.live_nodes().len(), 1);
        assert_eq!(net.eval(&[true]), vec![true]);
    }
}
