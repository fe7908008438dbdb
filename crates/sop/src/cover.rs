//! Sparse cubes and two-level covers.

use std::collections::BTreeSet;
use std::fmt;

/// A literal over a network *signal*: the signal id plus a phase.
///
/// The encoding is `signal << 1 | negated`, mirroring AIG literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalLit(u32);

impl SignalLit {
    /// The positive-phase literal of `signal`.
    pub fn positive(signal: u32) -> Self {
        SignalLit(signal << 1)
    }

    /// The negative-phase literal of `signal`.
    pub fn negative(signal: u32) -> Self {
        SignalLit(signal << 1 | 1)
    }

    /// Builds a literal from a signal id and a negation flag.
    pub fn new(signal: u32, negated: bool) -> Self {
        SignalLit(signal << 1 | negated as u32)
    }

    /// The signal this literal refers to.
    pub fn signal(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the literal is in the negative phase.
    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite-phase literal of the same signal.
    pub fn negate(self) -> Self {
        SignalLit(self.0 ^ 1)
    }
}

impl fmt::Display for SignalLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negated() {
            write!(f, "s{}'", self.signal())
        } else {
            write!(f, "s{}", self.signal())
        }
    }
}

/// A product term: a set of literals over distinct signals.
///
/// The constant-one cube is the empty cube. Cubes keep their literals sorted
/// so set operations are linear merges.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Cube {
    lits: Vec<SignalLit>,
}

impl Cube {
    /// The constant-one (empty) cube.
    pub fn one() -> Self {
        Cube::default()
    }

    /// Builds a cube from literals, sorting and deduplicating.
    ///
    /// # Panics
    ///
    /// Panics if the cube contains a signal in both phases (a contradiction
    /// — represent `0` as an empty [`Cover`], not a contradictory cube).
    pub fn from_lits(lits: &[SignalLit]) -> Self {
        let set: BTreeSet<SignalLit> = lits.iter().copied().collect();
        let lits: Vec<SignalLit> = set.into_iter().collect();
        for w in lits.windows(2) {
            assert!(
                w[0].signal() != w[1].signal(),
                "contradictory cube: {} and {}",
                w[0],
                w[1]
            );
        }
        Cube { lits }
    }

    /// Test-support: wraps the literal list verbatim — no sorting, no
    /// deduplication, no contradiction check. Used by `sbm-check` tests
    /// to seed non-canonical cubes.
    #[doc(hidden)]
    pub fn from_lits_unchecked(lits: Vec<SignalLit>) -> Self {
        Cube { lits }
    }

    /// Wraps literals that are already sorted ascending, over distinct
    /// signals (the caller's invariant; checked in debug builds).
    pub(crate) fn from_sorted(lits: Vec<SignalLit>) -> Self {
        debug_assert!(lits.windows(2).all(|w| w[0].signal() < w[1].signal()));
        Cube { lits }
    }

    /// The literals, sorted ascending.
    pub fn lits(&self) -> &[SignalLit] {
        &self.lits
    }

    /// Number of literals.
    pub fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// Whether this is the constant-one cube.
    pub fn is_one(&self) -> bool {
        self.lits.is_empty()
    }

    /// Whether the cube contains `lit`.
    pub fn contains(&self, lit: SignalLit) -> bool {
        self.lits.binary_search(&lit).is_ok()
    }

    /// Whether the cube mentions `signal` in either phase.
    pub fn mentions(&self, signal: u32) -> bool {
        self.contains(SignalLit::positive(signal)) || self.contains(SignalLit::negative(signal))
    }

    /// Whether every literal of `self` appears in `other` (so `other ⇒
    /// self` as products, i.e. `other`'s ON-set is contained in `self`'s).
    pub fn covers(&self, other: &Cube) -> bool {
        self.lits.iter().all(|l| other.contains(*l))
    }

    /// The cube with `lit` added; its signal must not be mentioned yet.
    fn with_lit(&self, lit: SignalLit) -> Cube {
        let at = self.lits.partition_point(|l| *l < lit);
        let mut lits = Vec::with_capacity(self.lits.len() + 1);
        lits.extend_from_slice(&self.lits[..at]);
        lits.push(lit);
        lits.extend_from_slice(&self.lits[at..]);
        Cube::from_sorted(lits)
    }

    /// Whether the cube shares no literal with `other` (either may still
    /// mention a signal of the other in the opposite phase).
    pub(crate) fn is_disjoint(&self, other: &Cube) -> bool {
        self.lits.iter().all(|l| !other.contains(*l))
    }

    /// A 64-bit summary of the cube's literals: `a.covers(b)` implies
    /// `a.signature() & !b.signature() == 0`, so a nonzero result rules
    /// containment out without a merge.
    fn signature(&self) -> u64 {
        self.lits.iter().fold(0, |acc, l| acc | 1 << (l.0 % 64))
    }

    /// The product of two cubes; `None` if they contradict.
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        let mut lits = Vec::with_capacity(self.lits.len() + other.lits.len());
        let (mut i, mut j) = (0, 0);
        while i < self.lits.len() && j < other.lits.len() {
            let (a, b) = (self.lits[i], other.lits[j]);
            if a.signal() == b.signal() {
                if a != b {
                    return None;
                }
                lits.push(a);
                i += 1;
                j += 1;
            } else if a < b {
                lits.push(a);
                i += 1;
            } else {
                lits.push(b);
                j += 1;
            }
        }
        lits.extend_from_slice(&self.lits[i..]);
        lits.extend_from_slice(&other.lits[j..]);
        Some(Cube { lits })
    }

    /// The cube quotient `self / divisor`: the literals of `self` not in
    /// `divisor`; `None` if `divisor` is not a subset of `self`.
    pub fn quotient(&self, divisor: &Cube) -> Option<Cube> {
        if !divisor.lits.iter().all(|l| self.contains(*l)) {
            return None;
        }
        Some(Cube {
            lits: self
                .lits
                .iter()
                .copied()
                .filter(|l| !divisor.contains(*l))
                .collect(),
        })
    }

    /// The largest common cube of two cubes (their shared literals).
    pub fn common(&self, other: &Cube) -> Cube {
        Cube {
            lits: self
                .lits
                .iter()
                .copied()
                .filter(|l| other.contains(*l))
                .collect(),
        }
    }

    /// Evaluates the cube under an assignment function.
    pub fn eval(&self, value: impl Fn(u32) -> bool) -> bool {
        self.lits
            .iter()
            .all(|l| value(l.signal()) != l.is_negated())
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "1");
        }
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

/// A sum of products: a set of cubes.
///
/// The constant-zero cover has no cubes; the constant-one cover is the
/// single empty cube. Cubes are kept sorted, and single-cube containment is
/// maintained on construction (no cube covers another). DESIGN.md ("SOP
/// layer") lists the operations that rely on both.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Cover {
    cubes: Vec<Cube>,
}

impl Cover {
    /// The constant-zero cover.
    pub fn zero() -> Self {
        Cover::default()
    }

    /// The constant-one cover.
    pub fn one() -> Self {
        Cover {
            cubes: vec![Cube::one()],
        }
    }

    /// A cover consisting of a single literal.
    pub fn literal(lit: SignalLit) -> Self {
        Cover {
            cubes: vec![Cube::from_lits(&[lit])],
        }
    }

    /// Builds a cover from cubes, removing single-cube-contained cubes and
    /// duplicates.
    pub fn from_cubes(cubes: Vec<Cube>) -> Self {
        let mut cover = Cover { cubes };
        cover.make_scc_minimal();
        cover
    }

    /// Test-support: wraps the cube list verbatim — no single-cube
    /// containment minimization, no deduplication. Used by `sbm-check`
    /// tests to seed covers with absorbed cubes.
    #[doc(hidden)]
    pub fn from_cubes_unchecked(cubes: Vec<Cube>) -> Self {
        Cover { cubes }
    }

    /// Wraps cubes that are already sorted and free of single-cube
    /// containment (the caller's invariant; sortedness is checked in debug
    /// builds).
    pub(crate) fn from_minimal_sorted(cubes: Vec<Cube>) -> Self {
        debug_assert!(cubes.windows(2).all(|w| w[0] < w[1]));
        Cover { cubes }
    }

    /// Sorts the cubes, then removes duplicates and cubes covered by other
    /// cubes (single-cube containment).
    ///
    /// A cube can only be covered by a strictly shorter one (an equally
    /// long coverer is the same cube, and duplicates are gone), so each
    /// cube is compared against the shorter cubes only, after a
    /// literal-signature screen.
    fn make_scc_minimal(&mut self) {
        self.cubes.sort();
        self.cubes.dedup();
        let cubes = &self.cubes;
        let mut by_len: Vec<usize> = (0..cubes.len()).collect();
        by_len.sort_by_key(|&i| cubes[i].num_lits());
        let sigs: Vec<u64> = cubes.iter().map(Cube::signature).collect();
        let covered = |i: usize| {
            let (len, sig) = (cubes[i].num_lits(), sigs[i]);
            by_len
                .iter()
                .take_while(|&&j| cubes[j].num_lits() < len)
                .any(|&j| sigs[j] & !sig == 0 && cubes[j].covers(&cubes[i]))
        };
        let keep: Vec<bool> = (0..cubes.len()).map(|i| !covered(i)).collect();
        let cubes = std::mem::take(&mut self.cubes);
        self.cubes = cubes
            .into_iter()
            .zip(keep)
            .filter_map(|(c, keep)| keep.then_some(c))
            .collect();
    }

    /// The cubes of this cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes (terms).
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Total number of literals — the paper's cost metric for elimination
    /// and kerneling.
    pub fn num_lits(&self) -> usize {
        self.cubes.iter().map(Cube::num_lits).sum()
    }

    /// Whether this is the constant-zero cover.
    pub fn is_zero(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Whether this is the constant-one cover.
    pub fn is_one(&self) -> bool {
        self.cubes.iter().any(Cube::is_one)
    }

    /// The distinct signals mentioned by the cover, ascending.
    pub fn signals(&self) -> Vec<u32> {
        let mut signals: Vec<u32> = self
            .cubes
            .iter()
            .flat_map(|c| c.lits().iter().map(|l| l.signal()))
            .collect();
        signals.sort_unstable();
        signals.dedup();
        signals
    }

    /// How many cubes contain `lit`.
    pub fn lit_count(&self, lit: SignalLit) -> usize {
        self.cubes.iter().filter(|c| c.contains(lit)).count()
    }

    /// Disjunction of two covers.
    pub fn or(&self, other: &Cover) -> Cover {
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().cloned());
        Cover::from_cubes(cubes)
    }

    /// Conjunction of two covers (cube-by-cube distribution).
    pub fn and(&self, other: &Cover) -> Cover {
        let mut cubes = Vec::new();
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(c) = a.intersect(b) {
                    cubes.push(c);
                }
            }
        }
        Cover::from_cubes(cubes)
    }

    /// Multiplies the cover by a single cube.
    pub fn and_cube(&self, cube: &Cube) -> Cover {
        Cover::from_cubes(
            self.cubes
                .iter()
                .filter_map(|c| c.intersect(cube))
                .collect(),
        )
    }

    /// The largest cube dividing every cube of the cover. A cover is
    /// *cube-free* if this is the constant-one cube (and it has ≥ 2 cubes).
    pub fn common_cube(&self) -> Cube {
        let mut iter = self.cubes.iter();
        let first = match iter.next() {
            Some(c) => c.clone(),
            None => return Cube::one(),
        };
        iter.fold(first, |acc, c| acc.common(c))
    }

    /// Whether the cover is cube-free (no literal appears in all cubes) and
    /// has at least two cubes — the precondition for being a kernel.
    pub fn is_cube_free(&self) -> bool {
        self.cubes.len() >= 2 && self.common_cube().is_one()
    }

    /// Evaluates the cover under an assignment function.
    pub fn eval(&self, value: impl Fn(u32) -> bool + Copy) -> bool {
        self.cubes.iter().any(|c| c.eval(value))
    }

    /// Substitutes every occurrence of `signal` (either phase) using the
    /// covers `pos` (for positive literals) and `neg` (for negative
    /// literals): the collapse primitive of node elimination.
    pub fn substitute(&self, signal: u32, pos: &Cover, neg: &Cover) -> Cover {
        let mut cubes = Vec::new();
        for c in &self.cubes {
            let plit = SignalLit::positive(signal);
            let nlit = SignalLit::negative(signal);
            if c.contains(plit) {
                let Some(rest) = c.quotient(&Cube::from_lits(&[plit])) else {
                    unreachable!("quotient by a contained literal always divides");
                };
                for p in pos.cubes() {
                    if let Some(merged) = rest.intersect(p) {
                        cubes.push(merged);
                    }
                }
            } else if c.contains(nlit) {
                let Some(rest) = c.quotient(&Cube::from_lits(&[nlit])) else {
                    unreachable!("quotient by a contained literal always divides");
                };
                for n in neg.cubes() {
                    if let Some(merged) = rest.intersect(n) {
                        cubes.push(merged);
                    }
                }
            } else {
                cubes.push(c.clone());
            }
        }
        Cover::from_cubes(cubes)
    }

    /// The complement of the cover, computed by unate-style Shannon
    /// recursion. Returns `None` if the intermediate covers exceed
    /// `cube_limit` cubes (complementation can blow up exponentially).
    pub fn complement(&self, cube_limit: usize) -> Option<Cover> {
        if self.is_zero() {
            return Some(Cover::one());
        }
        if self.is_one() {
            return Some(Cover::zero());
        }
        // Pick the most frequent signal to branch on, breaking frequency
        // ties by smallest signal: the counts live in a `HashMap`, so a
        // bare `max_by_key` would resolve ties by hash-iteration order and
        // make the recursion (and every caller up to the hetero engine's
        // parallel-vs-serial agreement) nondeterministic.
        let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for c in &self.cubes {
            for l in c.lits() {
                *counts.entry(l.signal()).or_insert(0) += 1;
            }
        }
        // sbm-lint: allow(D001) max_by_key key (count, Reverse(signal)) is total over distinct signals — winner is order-independent
        let (&signal, _) = counts
            .iter()
            .max_by_key(|(&s, &n)| (n, std::cmp::Reverse(s)))?;
        let c0 = self.cofactor(SignalLit::negative(signal));
        let c1 = self.cofactor(SignalLit::positive(signal));
        let n0 = c0.complement(cube_limit)?;
        let n1 = c1.complement(cube_limit)?;
        // x̄·n0 + x·n1. The cofactors' complements do not mention the
        // branch signal and are minimal, so adding its literal keeps each
        // half minimal (and sorted), and no cube of one half covers a cube
        // of the other: the sum only needs sorting.
        let mut cubes: Vec<Cube> = n0
            .cubes
            .iter()
            .map(|c| c.with_lit(SignalLit::negative(signal)))
            .chain(
                n1.cubes
                    .iter()
                    .map(|c| c.with_lit(SignalLit::positive(signal))),
            )
            .collect();
        cubes.sort();
        let result = Cover::from_minimal_sorted(cubes);
        if result.num_cubes() > cube_limit {
            None
        } else {
            Some(result)
        }
    }

    /// The cofactor with respect to `lit` being true: cubes containing the
    /// opposite literal drop out; occurrences of `lit` are erased.
    pub fn cofactor(&self, lit: SignalLit) -> Cover {
        let mut cubes = Vec::new();
        for c in &self.cubes {
            if c.contains(lit.negate()) {
                continue;
            }
            cubes.push(match c.quotient(&Cube::from_lits(&[lit])) {
                Some(q) => q,
                None => c.clone(),
            });
        }
        Cover::from_cubes(cubes)
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl FromIterator<Cube> for Cover {
    fn from_iter<T: IntoIterator<Item = Cube>>(iter: T) -> Self {
        Cover::from_cubes(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: u32) -> SignalLit {
        SignalLit::positive(s)
    }

    fn nlit(s: u32) -> SignalLit {
        SignalLit::negative(s)
    }

    #[test]
    fn cube_basics() {
        let c = Cube::from_lits(&[lit(2), lit(0), nlit(1)]);
        assert_eq!(c.num_lits(), 3);
        assert!(c.contains(nlit(1)));
        assert!(!c.contains(lit(1)));
        assert!(c.mentions(1));
        assert!(Cube::one().is_one());
    }

    #[test]
    #[should_panic(expected = "contradictory")]
    fn contradictory_cube_panics() {
        Cube::from_lits(&[lit(0), nlit(0)]);
    }

    #[test]
    fn cube_intersect() {
        let a = Cube::from_lits(&[lit(0), lit(1)]);
        let b = Cube::from_lits(&[lit(1), nlit(2)]);
        let ab = a.intersect(&b).unwrap();
        assert_eq!(ab, Cube::from_lits(&[lit(0), lit(1), nlit(2)]));
        let c = Cube::from_lits(&[nlit(0)]);
        assert!(a.intersect(&c).is_none());
    }

    #[test]
    fn cube_quotient() {
        let a = Cube::from_lits(&[lit(0), lit(1), lit(2)]);
        let d = Cube::from_lits(&[lit(1)]);
        assert_eq!(a.quotient(&d).unwrap(), Cube::from_lits(&[lit(0), lit(2)]));
        let e = Cube::from_lits(&[lit(3)]);
        assert!(a.quotient(&e).is_none());
    }

    #[test]
    fn scc_minimization() {
        // a + a·b = a
        let cover = Cover::from_cubes(vec![
            Cube::from_lits(&[lit(0)]),
            Cube::from_lits(&[lit(0), lit(1)]),
        ]);
        assert_eq!(cover.num_cubes(), 1);
        assert_eq!(cover.cubes()[0], Cube::from_lits(&[lit(0)]));
    }

    #[test]
    fn or_and_eval() {
        // f = a·b + c'
        let f = Cover::from_cubes(vec![
            Cube::from_lits(&[lit(0), lit(1)]),
            Cube::from_lits(&[nlit(2)]),
        ]);
        let val = |a: bool, b: bool, c: bool| f.eval(|s| [a, b, c][s as usize]);
        assert!(val(true, true, true));
        assert!(val(false, false, false));
        assert!(!val(false, true, true));
    }

    #[test]
    fn common_cube_and_cube_free() {
        // a·b + a·c — common cube a, not cube-free.
        let f = Cover::from_cubes(vec![
            Cube::from_lits(&[lit(0), lit(1)]),
            Cube::from_lits(&[lit(0), lit(2)]),
        ]);
        assert_eq!(f.common_cube(), Cube::from_lits(&[lit(0)]));
        assert!(!f.is_cube_free());
        // b + c is cube-free.
        let k = Cover::from_cubes(vec![Cube::from_lits(&[lit(1)]), Cube::from_lits(&[lit(2)])]);
        assert!(k.is_cube_free());
    }

    #[test]
    fn substitute_positive_and_negative() {
        // f = x·a + x'·b, with x = c·d (so x' = c' + d').
        let f = Cover::from_cubes(vec![
            Cube::from_lits(&[lit(9), lit(0)]),
            Cube::from_lits(&[nlit(9), lit(1)]),
        ]);
        let pos = Cover::from_cubes(vec![Cube::from_lits(&[lit(2), lit(3)])]);
        let neg = Cover::from_cubes(vec![
            Cube::from_lits(&[nlit(2)]),
            Cube::from_lits(&[nlit(3)]),
        ]);
        let g = f.substitute(9, &pos, &neg);
        // g = a·c·d + b·c' + b·d'
        assert_eq!(g.num_cubes(), 3);
        for m in 0..16u32 {
            let v = |s: u32| (m >> s) & 1 == 1;
            let x = v(2) && v(3);
            let expected = (x && v(0)) || (!x && v(1));
            assert_eq!(g.eval(v), expected, "minterm {m}");
        }
    }

    #[test]
    fn complement_correct() {
        // f = a·b + c
        let f = Cover::from_cubes(vec![
            Cube::from_lits(&[lit(0), lit(1)]),
            Cube::from_lits(&[lit(2)]),
        ]);
        let nf = f.complement(100).unwrap();
        for m in 0..8u32 {
            let v = |s: u32| (m >> s) & 1 == 1;
            assert_eq!(nf.eval(v), !f.eval(v), "minterm {m}");
        }
    }

    #[test]
    fn complement_respects_limit() {
        // A wide XOR-like cover complements into many cubes; a tiny limit
        // must bail out rather than blow up.
        let mut cubes = Vec::new();
        for s in 0..8u32 {
            cubes.push(Cube::from_lits(&[lit(2 * s), lit(2 * s + 1)]));
        }
        let f = Cover::from_cubes(cubes);
        assert!(f.complement(4).is_none());
    }

    #[test]
    fn cofactor() {
        // f = a·b + a'·c; f|a = b, f|a' = c
        let f = Cover::from_cubes(vec![
            Cube::from_lits(&[lit(0), lit(1)]),
            Cube::from_lits(&[nlit(0), lit(2)]),
        ]);
        assert_eq!(f.cofactor(lit(0)), Cover::literal(lit(1)));
        assert_eq!(f.cofactor(nlit(0)), Cover::literal(lit(2)));
    }
}
