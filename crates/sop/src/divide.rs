//! Algebraic (weak) division of covers.
//!
//! Weak division finds, for a cover `f` and divisor `d`, the unique largest
//! quotient `q` and remainder `r` such that `f = q·d + r` algebraically
//! (no use of Boolean identities; the cubes of `q·d` are literally cubes of
//! `f`). It is the workhorse of kernel-based extraction (De Micheli \[10\]).

use std::cell::OnceCell;
use std::collections::HashSet;

use crate::cover::{Cover, Cube};

/// Divides `f` by the single cube `d`: the quotient collects every cube of
/// `f` containing `d`, with `d`'s literals erased; the remainder is the
/// rest.
pub fn divide_by_cube(f: &Cover, d: &Cube) -> (Cover, Cover) {
    let mut q = Vec::new();
    let mut r = Vec::new();
    for c in f.cubes() {
        match c.quotient(d) {
            Some(qc) => q.push(qc),
            None => r.push(c.clone()),
        }
    }
    // `f` is sorted and SCC-minimal. Erasing `d` from the cubes that
    // contain it keeps them distinct and minimal (two quotients in
    // containment would put their cubes of `f` in containment), so only
    // their order changes; the remainder is an ordered subset of `f`.
    q.sort();
    (Cover::from_minimal_sorted(q), Cover::from_minimal_sorted(r))
}

/// Weak division `f / d` for a multi-cube divisor: the quotient is the
/// intersection of the per-cube quotients, the remainder is `f − q·d`.
///
/// Returns `(q, r)` with `f = q·d + r` (checked by the crate's property
/// tests). When `d` does not divide `f`, `q` is the zero cover and `r = f`.
pub fn divide(f: &Cover, d: &Cover) -> (Cover, Cover) {
    Dividend::new(f).divide(d)
}

/// A cover indexed for weak division by several divisors in turn.
///
/// A cube `q` lies in the quotient of `f` by the divisor cube `e` exactly
/// when `q` shares no literal with `e` and `q·e` is a cube of `f`, so the
/// per-cube quotients are never materialized: the candidates are the
/// quotient by the divisor's first cube, each tested against the other
/// divisor cubes by membership in `f`.
#[derive(Debug)]
pub struct Dividend<'a> {
    f: &'a Cover,
    /// The cubes of `f`, indexed on the first multi-cube division that
    /// has candidates to test.
    cubes: OnceCell<HashSet<&'a Cube>>,
}

impl<'a> Dividend<'a> {
    /// Prepares `f` for division.
    pub fn new(f: &'a Cover) -> Self {
        Dividend {
            f,
            cubes: OnceCell::new(),
        }
    }

    /// Whether `q·e` is a cube of `f` with `q` its quotient by `e`.
    fn has_product(&self, q: &Cube, e: &Cube) -> bool {
        let cubes = self.cubes.get_or_init(|| self.f.cubes().iter().collect());
        q.is_disjoint(e) && q.intersect(e).is_some_and(|c| cubes.contains(&c))
    }

    /// The quotient cubes of `f / d`, in the order of `f`.
    fn quotient_cubes(&self, d: &Cover) -> Vec<Cube> {
        let Some((first, rest)) = d.cubes().split_first() else {
            return Vec::new();
        };
        let mut q: Vec<Cube> = self
            .f
            .cubes()
            .iter()
            .filter_map(|c| c.quotient(first))
            .collect();
        if !rest.is_empty() {
            q.retain(|qc| rest.iter().all(|e| self.has_product(qc, e)));
        }
        q
    }

    /// The number of cubes of the quotient `f / d`, without building it.
    pub fn quotient_len(&self, d: &Cover) -> usize {
        self.quotient_cubes(d).len()
    }

    /// Weak division `f / d`; see [`divide`].
    pub fn divide(&self, d: &Cover) -> (Cover, Cover) {
        let mut q = self.quotient_cubes(d);
        if q.is_empty() {
            return (Cover::zero(), self.f.clone());
        }
        // The quotient is a set of cube quotients of the minimal `f` (see
        // `divide_by_cube`), so sorting makes it a cover.
        q.sort();
        // r = f − q·d, cube-wise (q·d's cubes are cubes of f by construction).
        let products: HashSet<Cube> = q
            .iter()
            .flat_map(|qc| d.cubes().iter().filter_map(|e| qc.intersect(e)))
            .collect();
        let r: Vec<Cube> = self
            .f
            .cubes()
            .iter()
            .filter(|c| !products.contains(*c))
            .cloned()
            .collect();
        (Cover::from_minimal_sorted(q), Cover::from_minimal_sorted(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::SignalLit;

    fn lit(s: u32) -> SignalLit {
        SignalLit::positive(s)
    }

    fn cover(cubes: &[&[SignalLit]]) -> Cover {
        Cover::from_cubes(cubes.iter().map(|c| Cube::from_lits(c)).collect())
    }

    #[test]
    fn textbook_division() {
        // f = a·c + a·d + b·c + b·d + e;  d = a + b
        // q = c + d, r = e.
        let (a, b, c, d, e) = (lit(0), lit(1), lit(2), lit(3), lit(4));
        let f = cover(&[&[a, c], &[a, d], &[b, c], &[b, d], &[e]]);
        let div = cover(&[&[a], &[b]]);
        let (q, r) = divide(&f, &div);
        assert_eq!(q, cover(&[&[c], &[d]]));
        assert_eq!(r, cover(&[&[e]]));
    }

    #[test]
    fn division_identity() {
        // f = q·d + r must hold.
        let (a, b, c, d, e) = (lit(0), lit(1), lit(2), lit(3), lit(4));
        let f = cover(&[&[a, c], &[a, d], &[b, c], &[b, d], &[e]]);
        let div = cover(&[&[a], &[b]]);
        let (q, r) = divide(&f, &div);
        assert_eq!(q.and(&div).or(&r), f);
    }

    #[test]
    fn non_divisor_gives_zero_quotient() {
        let (a, b, z) = (lit(0), lit(1), lit(9));
        let f = cover(&[&[a], &[b]]);
        let div = cover(&[&[z]]);
        let (q, r) = divide(&f, &div);
        assert!(q.is_zero());
        assert_eq!(r, f);
    }

    #[test]
    fn cube_division() {
        // f = a·b·c + a·b·d + e; divide by cube a·b.
        let (a, b, c, d, e) = (lit(0), lit(1), lit(2), lit(3), lit(4));
        let f = cover(&[&[a, b, c], &[a, b, d], &[e]]);
        let (q, r) = divide_by_cube(&f, &Cube::from_lits(&[a, b]));
        assert_eq!(q, cover(&[&[c], &[d]]));
        assert_eq!(r, cover(&[&[e]]));
    }

    #[test]
    fn quotient_cubes_share_no_literal_with_the_divisor() {
        // f = a·b·x + a·b·y, d = x + b·y: f/x = a·b but f/(b·y) = a, so
        // a·b is no quotient cube although a·b·(b·y) is a cube of f.
        let (a, b, x, y) = (lit(0), lit(1), lit(2), lit(3));
        let f = cover(&[&[a, b, x], &[a, b, y]]);
        let (q, r) = divide(&f, &cover(&[&[x], &[b, y]]));
        assert!(q.is_zero());
        assert_eq!(r, f);
    }

    #[test]
    fn divide_by_one_returns_f() {
        let (a, b) = (lit(0), lit(1));
        let f = cover(&[&[a], &[b]]);
        let (q, r) = divide(&f, &Cover::one());
        assert_eq!(q, f);
        assert!(r.is_zero());
    }
}
