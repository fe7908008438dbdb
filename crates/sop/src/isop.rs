//! Irredundant sum-of-products from (incompletely specified) truth tables.
//!
//! Implements the Minato–Morreale ISOP algorithm on truth tables: given an
//! ON-set lower bound `on` and an upper bound `on ∨ dc`, it produces an
//! irredundant cover between the two. This is the bridge from functional
//! representations (truth tables, BDDs) back to SOP form, used by the
//! refactoring and rewriting moves to resynthesize collapsed cones —
//! optionally exploiting don't-cares (permissible functions).

use sbm_tt::TruthTable;

use crate::cover::{Cover, Cube, SignalLit};

/// Computes an irredundant cover `c` with `on ⊆ c ⊆ upper` (variable `i` of
/// the tables maps to signal `i`).
///
/// # Panics
///
/// Panics if the tables have different variable counts or `on ⊄ upper`.
pub fn isop(on: &TruthTable, upper: &TruthTable) -> Cover {
    assert_eq!(on.num_vars(), upper.num_vars());
    assert!(on.implies(upper), "lower bound must imply upper bound");
    let mut cubes = Vec::new();
    isop_words(on.words(), upper.words(), on.num_vars(), &mut cubes);
    // Sorting and containment-filtering once gives the same cover as doing
    // it at every recursion level: appending the branch literal preserves
    // containment between cubes, and the three branches never share a cube.
    Cover::from_cubes(cubes.into_iter().map(Cube::from_sorted).collect())
}

/// Computes an irredundant cover of `f` exactly (no don't-cares).
pub fn isop_exact(f: &TruthTable) -> Cover {
    isop(f, f)
}

/// Recursive Minato–Morreale over the top variable `vars − 1`: appends the
/// cover's cubes (literal lists, sorted) to `cubes` and returns the table
/// of its function.
///
/// Tables shrink with the recursion: a table over `vars` variables is its
/// `2^vars` bits, so the cofactors by the top variable are its two halves.
/// Levels of at most six variables run on single words
/// ([`isop_word`]).
fn isop_words(
    lower: &[u64],
    upper: &[u64],
    vars: usize,
    cubes: &mut Vec<Vec<SignalLit>>,
) -> Vec<u64> {
    if vars <= 6 {
        return vec![isop_word(lower[0], upper[0], vars, cubes)];
    }
    if lower.iter().all(|&w| w == 0) {
        return vec![0; lower.len()];
    }
    if upper.iter().all(|&w| w == u64::MAX) {
        cubes.push(Vec::new());
        return vec![u64::MAX; upper.len()];
    }
    let v = vars - 1;
    let half = lower.len() / 2;
    let (l0, l1) = lower.split_at(half);
    let (u0, u1) = upper.split_at(half);
    let and_not =
        |a: &[u64], b: &[u64]| -> Vec<u64> { a.iter().zip(b).map(|(a, b)| a & !b).collect() };

    // Cubes that must contain x̄: ON where x = 0 but not coverable with x = 1.
    let start = cubes.len();
    let t0 = isop_words(&and_not(l0, u1), u0, v, cubes);
    append_lit(cubes, start, SignalLit::negative(v as u32));
    // Cubes that must contain x.
    let start = cubes.len();
    let t1 = isop_words(&and_not(l1, u0), u1, v, cubes);
    append_lit(cubes, start, SignalLit::positive(v as u32));
    // Remaining minterms, coverable independently of v.
    let lnew: Vec<u64> = and_not(l0, &t0)
        .into_iter()
        .zip(and_not(l1, &t1))
        .map(|(a, b)| a | b)
        .collect();
    let ustar: Vec<u64> = u0.iter().zip(u1).map(|(a, b)| a & b).collect();
    let tstar = isop_words(&lnew, &ustar, v, cubes);

    let low = t0.iter().zip(&tstar).map(|(a, b)| a | b);
    let high = t1.iter().zip(&tstar).map(|(a, b)| a | b);
    low.chain(high).collect()
}

/// [`isop_words`] for a table of at most six variables, held in the low
/// `2^vars` bits of one word.
fn isop_word(lower: u64, upper: u64, vars: usize, cubes: &mut Vec<Vec<SignalLit>>) -> u64 {
    let mask = if vars == 6 {
        u64::MAX
    } else {
        (1u64 << (1 << vars)) - 1
    };
    if lower == 0 {
        return 0;
    }
    if upper == mask {
        cubes.push(Vec::new());
        return mask;
    }
    debug_assert!(vars > 0, "non-constant bounds but no variables left");
    let v = vars - 1;
    let half = 1 << v;
    let half_mask = (1u64 << half) - 1;
    let (l0, l1) = (lower & half_mask, (lower >> half) & half_mask);
    let (u0, u1) = (upper & half_mask, (upper >> half) & half_mask);

    let start = cubes.len();
    let t0 = isop_word(l0 & !u1, u0, v, cubes);
    append_lit(cubes, start, SignalLit::negative(v as u32));
    let start = cubes.len();
    let t1 = isop_word(l1 & !u0, u1, v, cubes);
    append_lit(cubes, start, SignalLit::positive(v as u32));
    let tstar = isop_word((l0 & !t0) | (l1 & !t1), u0 & u1, v, cubes);

    (t0 | tstar) | ((t1 | tstar) << half)
}

/// Adds `lit` to every cube from index `start` on. The cubes come from a
/// cofactor of `lit`'s variable, so they only mention lower signals and
/// `lit` goes last in sorted order.
fn append_lit(cubes: &mut [Vec<SignalLit>], start: usize, lit: SignalLit) {
    for cube in &mut cubes[start..] {
        cube.push(lit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_exact(f: &TruthTable) {
        let cover = isop_exact(f);
        for m in 0..f.num_bits() {
            let v = |s: u32| (m >> s) & 1 == 1;
            assert_eq!(cover.eval(v), f.bit(m), "minterm {m} of {f}");
        }
    }

    #[test]
    fn simple_functions() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        check_exact(&(&a & &b));
        check_exact(&(&a | &(&b & &c)));
        check_exact(&(&a ^ &b));
        check_exact(&(&(&a ^ &b) ^ &c));
        check_exact(&TruthTable::zero(3));
        check_exact(&TruthTable::one(3));
    }

    #[test]
    fn xor_cover_has_expected_size() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let cover = isop_exact(&(&a ^ &b));
        assert_eq!(cover.num_cubes(), 2);
        assert_eq!(cover.num_lits(), 4);
    }

    #[test]
    fn majority_cover() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let maj = &(&(&a & &b) | &(&a & &c)) | &(&b & &c);
        let cover = isop_exact(&maj);
        assert_eq!(cover.num_cubes(), 3, "{cover}");
        check_exact(&maj);
    }

    #[test]
    fn dont_cares_shrink_cover() {
        // f = a·b with b don't-care whenever a = 0: cover can be just "b"
        // or even smaller forms.
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let on = &a & &b;
        let upper = &on | &!&a; // DC where a = 0
        let cover = isop(&on, &upper);
        let exact = isop_exact(&on);
        assert!(cover.num_lits() <= exact.num_lits());
        // Result must lie between the bounds.
        for m in 0..4usize {
            let v = |s: u32| (m >> s) & 1 == 1;
            if on.bit(m) {
                assert!(cover.eval(v), "must cover ON minterm {m}");
            }
            if !upper.bit(m) {
                assert!(!cover.eval(v), "must avoid OFF minterm {m}");
            }
        }
    }

    #[test]
    fn random_functions_are_covered() {
        for seed in 0..20u64 {
            let bits = seed.wrapping_mul(0x9E3779B97F4A7C15) | seed;
            let f = TruthTable::from_bits(5, bits);
            check_exact(&f);
        }
    }
}
