//! Greedy divisor extraction — the *kerneling* step.
//!
//! After elimination has grown the SOPs, extraction finds common divisors
//! and pulls them out as new shared nodes. This implementation uses the
//! fast-extract family of divisors: **double-cube divisors** (the kernel
//! intersections of two-cube kernels) and **single-cube divisors** (pairs
//! of literals), applied greedily by exact literal saving. "Kernel
//! extraction … allows us to share large portions of logic circuits, which
//! are hard to find with other techniques" (paper, Section IV-B).

use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::cover::{Cover, Cube, SignalLit};
use crate::divide::divide;
use crate::network::SopNetwork;

/// A candidate divisor: either a two-cube cover or a single cube.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Divisor {
    /// Two cube-free cubes (a double-cube divisor / 2-cube kernel).
    Double(Cube, Cube),
    /// A single cube of ≥ 2 literals.
    Single(Cube),
}

impl Divisor {
    fn to_cover(&self) -> Cover {
        match self {
            Divisor::Double(a, b) => Cover::from_cubes(vec![a.clone(), b.clone()]),
            Divisor::Single(c) => Cover::from_cubes(vec![c.clone()]),
        }
    }

    fn num_lits(&self) -> usize {
        match self {
            Divisor::Double(a, b) => a.num_lits() + b.num_lits(),
            Divisor::Single(c) => c.num_lits(),
        }
    }
}

/// Statistics of an extraction run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// New divisor nodes created.
    pub divisors_extracted: usize,
    /// Total literals saved (positive = improvement).
    pub literals_saved: i64,
}

/// Every candidate divisor of the live nodes with its total
/// per-occurrence literal saving (before subtracting the cost of the new
/// divisor node), maintained as node covers come and go.
///
/// For a double-cube divisor `d` found in cubes `C·a + C·b` (co-kernel
/// cube `C`), rewriting the two cubes into `C·x` saves
/// `lits(d) + 2·|C| − (1 + |C|) = lits(d) + |C| − 1` literals. For a
/// single-cube divisor of `l` literals used once, the saving is `l − 1`.
#[derive(Default)]
struct Candidates {
    /// Total saving per divisor with at least one occurrence.
    savings: BTreeMap<Divisor, i64>,
}

impl Candidates {
    /// Adds (`sign = 1`) or removes (`sign = -1`) the occurrences in
    /// `cover`.
    fn count(&mut self, cover: &Cover, sign: i64) {
        self.count_changed(cover, &Cover::zero(), sign);
    }

    /// Moves a node's occurrences from its `old` cover to its `new` one.
    /// Cube pairs the two covers share contribute the same to both and
    /// cancel, so only the pairs touching a changed cube are counted.
    fn recount(&mut self, old: &Cover, new: &Cover) {
        self.count_changed(old, new, -1);
        self.count_changed(new, old, 1);
    }

    /// Adds (`sign = 1`) or removes (`sign = -1`) the occurrences in
    /// `cover` that involve a cube `other` does not have.
    fn count_changed(&mut self, cover: &Cover, other: &Cover, sign: i64) {
        let cubes = cover.cubes();
        let changed: Vec<bool> = cubes
            .iter()
            .map(|c| other.cubes().binary_search(c).is_err())
            .collect();
        // Double-cube divisors from every cube pair.
        for i in 0..cubes.len() {
            for j in i + 1..cubes.len() {
                if !(changed[i] || changed[j]) {
                    continue;
                }
                if let Some((d, saving)) = double_divisor(&cubes[i], &cubes[j]) {
                    self.adjust(d, sign * saving);
                }
            }
        }
        // Single-cube divisors: all literal pairs within a cube.
        for (c, _) in cubes.iter().zip(&changed).filter(|(_, &changed)| changed) {
            let lits = c.lits();
            for i in 0..lits.len() {
                for j in i + 1..lits.len() {
                    let cube = Cube::from_lits(&[lits[i], lits[j]]);
                    self.adjust(Divisor::Single(cube), sign);
                }
            }
        }
    }

    fn adjust(&mut self, d: Divisor, delta: i64) {
        match self.savings.entry(d) {
            Entry::Occupied(mut e) => {
                *e.get_mut() += delta;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            Entry::Vacant(e) => {
                e.insert(delta);
            }
        }
    }

    /// The `n` best divisors of positive estimated value, best first:
    /// value descending, ties broken by the divisor itself (a total order,
    /// so the choice does not depend on the order divisors were counted).
    fn best(&self, n: usize) -> Vec<Divisor> {
        let mut best: Vec<(Reverse<i64>, &Divisor)> = Vec::with_capacity(n + 1);
        for (d, total) in &self.savings {
            let value = estimated_value(d, *total);
            if value <= 0 {
                continue;
            }
            let key = (Reverse(value), d);
            if best.len() == n && best.last().is_some_and(|last| key >= *last) {
                continue;
            }
            let at = best.partition_point(|other| *other < key);
            best.insert(at, key);
            best.truncate(n);
        }
        best.into_iter().map(|(_, d)| d.clone()).collect()
    }
}

/// The double-cube divisor in cubes `x` and `y`: their quotients `a` and
/// `b` by their common cube `C`, in order, with the saving of rewriting
/// `C·a + C·b` into `C·x`; `None` if either quotient is the constant one.
fn double_divisor(x: &Cube, y: &Cube) -> Option<(Divisor, i64)> {
    let (x, y) = (x.lits(), y.lits());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                a.push(x[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                b.push(y[j]);
                j += 1;
            }
        }
    }
    a.extend_from_slice(&x[i..]);
    b.extend_from_slice(&y[j..]);
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let saving = (a.len() + b.len() + common) as i64 - 1;
    let (a, b) = (Cube::from_sorted(a), Cube::from_sorted(b));
    let d = if a <= b {
        Divisor::Double(a, b)
    } else {
        Divisor::Double(b, a)
    };
    Some((d, saving))
}

/// Estimated net literal saving of extracting `d`: the accumulated
/// per-occurrence savings minus the cost of the new divisor node.
fn estimated_value(d: &Divisor, total_saving: i64) -> i64 {
    total_saving - d.num_lits() as i64
}

/// Substitutes divisor cover `d` (new signal `x`) into `cover`; returns the
/// rewritten cover if it strictly saves literals.
fn substitute_divisor(cover: &Cover, d: &Cover, x: u32) -> Option<Cover> {
    let (q, r) = divide(cover, d);
    if q.is_zero() {
        return None;
    }
    let xlit = Cube::from_lits(&[SignalLit::positive(x)]);
    let rewritten = q.and_cube(&xlit).or(&r);
    if rewritten.num_lits() < cover.num_lits() {
        Some(rewritten)
    } else {
        None
    }
}

/// Runs greedy extraction until no divisor with positive value remains (or
/// `max_rounds` is hit). Returns the statistics.
///
/// # Example
///
/// ```
/// use sbm_sop::{Cover, Cube, SignalLit, SopNetwork};
/// use sbm_sop::extract::extract;
///
/// // f = a·c + b·c, g = a·d + b·d: divisor (a + b) shared by both.
/// let l = SignalLit::positive;
/// let mut net = SopNetwork::new(4);
/// let f = net.add_node(Cover::from_cubes(vec![
///     Cube::from_lits(&[l(0), l(2)]),
///     Cube::from_lits(&[l(1), l(2)]),
/// ]));
/// let g = net.add_node(Cover::from_cubes(vec![
///     Cube::from_lits(&[l(0), l(3)]),
///     Cube::from_lits(&[l(1), l(3)]),
/// ]));
/// net.add_output(l(f));
/// net.add_output(l(g));
/// let before = net.num_lits();
/// let stats = extract(&mut net, 10);
/// assert!(net.num_lits() < before);
/// assert!(stats.divisors_extracted >= 1);
/// ```
pub fn extract(net: &mut SopNetwork, max_rounds: usize) -> ExtractStats {
    let mut stats = ExtractStats::default();
    // A round only rewrites some covers and brings the new divisor node to
    // life, so the live nodes, their literal total and the candidate
    // divisors carry over between rounds and are updated from the changes.
    let mut live = net.live_nodes();
    let mut lits: usize = live.iter().map(|&s| net.cover(s).num_lits()).sum();
    let mut cands = Candidates::default();
    for &s in &live {
        cands.count(net.cover(s), 1);
    }
    for _ in 0..max_rounds {
        // Try the best few by estimated value with exact accounting.
        let mut applied = false;
        for divisor in cands.best(8) {
            let d = divisor.to_cover();
            // Tentatively create the divisor node and rewrite users. A
            // divisor that rewrites nothing leaves a dead node behind,
            // which cleanup drops.
            let x = net.add_node(d.clone());
            let mut old_covers: Vec<(u32, Cover)> = Vec::new();
            for &s in &live {
                if let Some(newc) = substitute_divisor(net.cover(s), &d, x) {
                    old_covers.push((s, net.cover(s).clone()));
                    net.set_cover(s, newc);
                }
            }
            if old_covers.is_empty() {
                continue;
            }
            // substitute_divisor only fires when it strictly reduces that
            // cover; the round ends whether or not the total improved.
            let new_live = net.live_nodes();
            let after: usize = new_live.iter().map(|&s| net.cover(s).num_lits()).sum();
            if after < lits {
                stats.divisors_extracted += 1;
                stats.literals_saved += (lits - after) as i64;
            }
            for (s, old) in &old_covers {
                if new_live.binary_search(s).is_ok() {
                    cands.recount(old, net.cover(*s));
                } else {
                    cands.count(old, -1);
                }
            }
            let rewritten = |s: &u32| old_covers.iter().any(|(r, _)| r == s);
            for s in &live {
                if !rewritten(s) && new_live.binary_search(s).is_err() {
                    cands.count(net.cover(*s), -1);
                }
            }
            for s in &new_live {
                if live.binary_search(s).is_err() {
                    cands.count(net.cover(*s), 1);
                }
            }
            live = new_live;
            lits = after;
            applied = true;
            break;
        }
        if !applied {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: u32) -> SignalLit {
        SignalLit::positive(s)
    }

    fn cover(cubes: &[&[SignalLit]]) -> Cover {
        Cover::from_cubes(cubes.iter().map(|c| Cube::from_lits(c)).collect())
    }

    #[test]
    fn extracts_shared_kernel() {
        // f = a·c + b·c + a·d + b·d → x = a + b; f = x·c + x·d.
        let mut net = SopNetwork::new(4);
        let f = net.add_node(cover(&[
            &[lit(0), lit(2)],
            &[lit(1), lit(2)],
            &[lit(0), lit(3)],
            &[lit(1), lit(3)],
        ]));
        net.add_output(lit(f));
        let before = net.num_lits();
        let stats = extract(&mut net, 10);
        assert!(stats.divisors_extracted >= 1);
        assert!(net.num_lits() < before, "{} -> {}", before, net.num_lits());
        // Function preserved.
        for m in 0..16u32 {
            let assignment: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            let expected = ((m & 1 != 0) || (m & 2 != 0)) && ((m & 4 != 0) || (m & 8 != 0));
            assert_eq!(net.eval(&assignment), vec![expected], "minterm {m}");
        }
    }

    #[test]
    fn extracts_single_cube_divisor() {
        // f = a·b·c, g = a·b·d → x = a·b shared.
        let mut net = SopNetwork::new(4);
        let f = net.add_node(cover(&[&[lit(0), lit(1), lit(2)]]));
        let g = net.add_node(cover(&[&[lit(0), lit(1), lit(3)]]));
        net.add_output(lit(f));
        net.add_output(lit(g));
        let stats = extract(&mut net, 10);
        // 6 lits -> x(2) + f(2) + g(2) = 6: no strict gain for k=2, l=2.
        // With three users it pays off:
        let mut net3 = SopNetwork::new(5);
        let f = net3.add_node(cover(&[&[lit(0), lit(1), lit(2)]]));
        let g = net3.add_node(cover(&[&[lit(0), lit(1), lit(3)]]));
        let h = net3.add_node(cover(&[&[lit(0), lit(1), lit(4)]]));
        net3.add_output(lit(f));
        net3.add_output(lit(g));
        net3.add_output(lit(h));
        let before = net3.num_lits();
        let stats3 = extract(&mut net3, 10);
        assert!(stats3.divisors_extracted >= 1);
        assert!(net3.num_lits() < before);
        let _ = stats;
    }

    #[test]
    fn no_extraction_when_nothing_shared() {
        let mut net = SopNetwork::new(4);
        let f = net.add_node(cover(&[&[lit(0), lit(1)]]));
        let g = net.add_node(cover(&[&[lit(2), lit(3)]]));
        net.add_output(lit(f));
        net.add_output(lit(g));
        let before = net.num_lits();
        let stats = extract(&mut net, 10);
        assert_eq!(stats.divisors_extracted, 0);
        assert_eq!(net.num_lits(), before);
    }

    #[test]
    fn extraction_preserves_function_on_mixed_phases() {
        // f = a'·c + b·c + a'·d + b·d with negative literals.
        let a = SignalLit::negative(0);
        let (b, c, d) = (lit(1), lit(2), lit(3));
        let mut net = SopNetwork::new(4);
        let f = net.add_node(cover(&[&[a, c], &[b, c], &[a, d], &[b, d]]));
        net.add_output(lit(f));
        let snapshots: Vec<_> = (0..16)
            .map(|m| {
                let assignment: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
                net.eval(&assignment)
            })
            .collect();
        extract(&mut net, 10);
        for (m, snap) in snapshots.iter().enumerate() {
            let assignment: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(&net.eval(&assignment), snap, "minterm {m}");
        }
    }
}
