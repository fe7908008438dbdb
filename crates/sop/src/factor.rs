//! Algebraic factoring of covers.
//!
//! Factoring turns a flat SOP into a nested AND/OR form with fewer literals;
//! it is how SOP nodes are implemented compactly when the network is
//! translated back to an AIG after elimination/kerneling (paper Section
//! V-A: "after each transformation, the logic network is translated into an
//! AIG").

use std::collections::HashMap;
use std::fmt;

use crate::cover::{Cover, Cube, SignalLit};
use crate::divide::{divide_by_cube, Dividend};

/// A factored Boolean expression over network signals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Factored {
    /// Constant false.
    Zero,
    /// Constant true.
    One,
    /// A single literal.
    Lit(SignalLit),
    /// Conjunction.
    And(Box<Factored>, Box<Factored>),
    /// Disjunction.
    Or(Box<Factored>, Box<Factored>),
}

impl Factored {
    /// Number of literal leaves — the factored literal count.
    pub fn num_lits(&self) -> usize {
        match self {
            Factored::Zero | Factored::One => 0,
            Factored::Lit(_) => 1,
            Factored::And(a, b) | Factored::Or(a, b) => a.num_lits() + b.num_lits(),
        }
    }

    /// Evaluates under an assignment function.
    pub fn eval(&self, value: impl Fn(u32) -> bool + Copy) -> bool {
        match self {
            Factored::Zero => false,
            Factored::One => true,
            Factored::Lit(l) => value(l.signal()) != l.is_negated(),
            Factored::And(a, b) => a.eval(value) && b.eval(value),
            Factored::Or(a, b) => a.eval(value) || b.eval(value),
        }
    }
}

impl fmt::Display for Factored {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Factored::Zero => write!(f, "0"),
            Factored::One => write!(f, "1"),
            Factored::Lit(l) => write!(f, "{l}"),
            Factored::And(a, b) => write!(f, "({a}·{b})"),
            Factored::Or(a, b) => write!(f, "({a} + {b})"),
        }
    }
}

fn and(a: Factored, b: Factored) -> Factored {
    match (a, b) {
        (Factored::Zero, _) | (_, Factored::Zero) => Factored::Zero,
        (Factored::One, x) | (x, Factored::One) => x,
        (a, b) => Factored::And(Box::new(a), Box::new(b)),
    }
}

fn or(a: Factored, b: Factored) -> Factored {
    match (a, b) {
        (Factored::One, _) | (_, Factored::One) => Factored::One,
        (Factored::Zero, x) | (x, Factored::Zero) => x,
        (a, b) => Factored::Or(Box::new(a), Box::new(b)),
    }
}

fn cube_to_factored(c: &Cube) -> Factored {
    c.lits()
        .iter()
        .fold(Factored::One, |acc, &l| and(acc, Factored::Lit(l)))
}

/// Literal factoring: repeatedly divide out the most frequent literal.
///
/// Produces `f = l·(f/l) + r` recursively; exact (the result evaluates to
/// the same function as the cover — algebraic factoring never uses Boolean
/// identities).
///
/// # Example
///
/// ```
/// use sbm_sop::{Cover, Cube, SignalLit};
/// use sbm_sop::factor::factor;
///
/// let a = SignalLit::positive(0);
/// let b = SignalLit::positive(1);
/// let c = SignalLit::positive(2);
/// // a·b + a·c factors to a·(b + c): 3 literals instead of 4.
/// let f = Cover::from_cubes(vec![
///     Cube::from_lits(&[a, b]),
///     Cube::from_lits(&[a, c]),
/// ]);
/// assert_eq!(factor(&f).num_lits(), 3);
/// ```
pub fn factor(f: &Cover) -> Factored {
    if f.is_zero() {
        return Factored::Zero;
    }
    if f.is_one() {
        return Factored::One;
    }
    if f.num_cubes() == 1 {
        return cube_to_factored(&f.cubes()[0]);
    }
    // Pull out the global common cube first.
    let cc = f.common_cube();
    if !cc.is_one() {
        let (q, _) = divide_by_cube(f, &cc);
        return and(cube_to_factored(&cc), factor(&q));
    }
    // Kernel-based step: divide by the best proper kernel, which captures
    // multi-cube sharing like (a + b)(c + d) that literal factoring misses.
    // Kernel enumeration is super-linear in the cube count; wide covers
    // (e.g. parity ISOPs) fall back to literal factoring.
    let proper_kernels: Vec<Cover> = if f.num_cubes() > 24 {
        Vec::new()
    } else {
        crate::kernel::kernels(f)
            .into_iter()
            .map(|(k, _)| k)
            .filter(|k| k != f && k.num_cubes() >= 2)
            .collect()
    };
    let dividend = Dividend::new(f);
    let best_kernel = proper_kernels.into_iter().max_by_key(|k| {
        // Prefer kernels that remove the most literals from f.
        (dividend.quotient_len(k).saturating_sub(1)) * k.num_lits()
    });
    if let Some(k) = best_kernel {
        let (q, r) = dividend.divide(&k);
        if !q.is_zero() && q.num_cubes() >= 1 && (q.num_cubes() > 1 || k.num_lits() > 1) {
            return or(and(factor(&q), factor(&k)), factor(&r));
        }
    }
    // Fall back to literal factoring on the most frequent literal (the
    // first to reach the highest count, scanning cubes in order).
    let mut counts: HashMap<SignalLit, usize> = HashMap::new();
    for c in f.cubes() {
        for &l in c.lits() {
            *counts.entry(l).or_insert(0) += 1;
        }
    }
    let mut best: Option<(SignalLit, usize)> = None;
    for c in f.cubes() {
        for &l in c.lits() {
            let count = counts[&l];
            if best.is_none_or(|(_, b)| count > b) {
                best = Some((l, count));
            }
        }
    }
    match best {
        Some((l, count)) if count >= 2 => {
            let (q, r) = divide_by_cube(f, &Cube::from_lits(&[l]));
            or(and(Factored::Lit(l), factor(&q)), factor(&r))
        }
        _ => {
            // No sharing: plain OR of cubes.
            f.cubes()
                .iter()
                .fold(Factored::Zero, |acc, c| or(acc, cube_to_factored(c)))
        }
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

    fn cover(cubes: &[&[SignalLit]]) -> Cover {
        Cover::from_cubes(cubes.iter().map(|c| Cube::from_lits(c)).collect())
    }

    fn check_equiv(f: &Cover, fac: &Factored, num_signals: u32) {
        for m in 0..(1u32 << num_signals) {
            let v = |s: u32| (m >> s) & 1 == 1;
            assert_eq!(f.eval(v), fac.eval(v), "minterm {m}: {f} vs {fac}");
        }
    }

    #[test]
    fn factor_shares_literals() {
        let (a, b, c, d) = (lit(0), lit(1), lit(2), lit(3));
        // a·b + a·c + a·d → a·(b + c + d): 4 lits.
        let f = cover(&[&[a, b], &[a, c], &[a, d]]);
        let fac = factor(&f);
        assert_eq!(fac.num_lits(), 4);
        check_equiv(&f, &fac, 4);
    }

    #[test]
    fn factor_textbook() {
        // f = a·c + a·d + b·c + b·d + e → (a+b)(c+d) + e: 5 lits vs 9.
        let (a, b, c, d, e) = (lit(0), lit(1), lit(2), lit(3), lit(4));
        let f = cover(&[&[a, c], &[a, d], &[b, c], &[b, d], &[e]]);
        let fac = factor(&f);
        assert!(fac.num_lits() <= 6, "got {} lits: {fac}", fac.num_lits());
        check_equiv(&f, &fac, 5);
    }

    #[test]
    fn factor_handles_phases() {
        let (a, b) = (lit(0), nlit(1));
        let f = cover(&[&[a, b], &[a.negate()]]);
        check_equiv(&f, &factor(&f), 2);
    }

    #[test]
    fn factor_constants() {
        assert_eq!(factor(&Cover::zero()), Factored::Zero);
        assert_eq!(factor(&Cover::one()), Factored::One);
    }

    #[test]
    fn factor_single_cube() {
        let (a, b, c) = (lit(0), lit(1), lit(2));
        let f = cover(&[&[a, b, c]]);
        let fac = factor(&f);
        assert_eq!(fac.num_lits(), 3);
        check_equiv(&f, &fac, 3);
    }
}
