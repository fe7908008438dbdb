//! Kernels and co-kernels of a cover.
//!
//! A *kernel* of a cover `f` is a cube-free quotient of `f` by a cube (its
//! *co-kernel*). Kernels are where multi-cube common divisors hide: two
//! covers have a nontrivial common multi-cube divisor iff their kernel sets
//! intersect in a cover with ≥ 2 cubes (Brayton & McMullen). The paper's
//! heterogeneous eliminate engine tunes elimination so that kerneling finds
//! more sharing (Section IV-B).

use std::collections::HashSet;

use crate::cover::{Cover, Cube, SignalLit};
use crate::divide::divide_by_cube;

/// Computes all kernels of `f` with their co-kernels, including `f` itself
/// (with co-kernel 1) when `f` is cube-free.
///
/// # Example
///
/// ```
/// use sbm_sop::{Cover, Cube, SignalLit};
/// use sbm_sop::kernel::kernels;
///
/// let a = SignalLit::positive(0);
/// let b = SignalLit::positive(1);
/// let c = SignalLit::positive(2);
/// // f = a·b + a·c: kernel (b + c) with co-kernel a.
/// let f = Cover::from_cubes(vec![
///     Cube::from_lits(&[a, b]),
///     Cube::from_lits(&[a, c]),
/// ]);
/// let ks = kernels(&f);
/// assert_eq!(ks.len(), 1);
/// assert_eq!(ks[0].1, Cube::from_lits(&[a]));
/// ```
pub fn kernels(f: &Cover) -> Vec<(Cover, Cube)> {
    let mut result = Kernels::default();
    // Normalize: pull out the largest common cube first.
    let cc = f.common_cube();
    let (g, _) = divide_by_cube(f, &cc);
    let universe = literals(&g);
    kernels_rec(&g, &cc, 0, &universe, &mut result);
    if g.is_cube_free() {
        result.push((g, cc));
    }
    result.list
}

/// The distinct literals of a cover, sorted.
fn literals(f: &Cover) -> Vec<SignalLit> {
    let mut set = std::collections::BTreeSet::new();
    for c in f.cubes() {
        set.extend(c.lits().iter().copied());
    }
    set.into_iter().collect()
}

/// Distinct (kernel, co-kernel) pairs in first-found order; the same
/// kernel can have several co-kernels and callers may want all of them.
#[derive(Default)]
struct Kernels {
    list: Vec<(Cover, Cube)>,
    seen: HashSet<(Cover, Cube)>,
}

impl Kernels {
    fn push(&mut self, entry: (Cover, Cube)) {
        if self.seen.insert(entry.clone()) {
            self.list.push(entry);
        }
    }
}

/// The classic recursive kernel enumeration (De Micheli, Alg. 8.3.3):
/// branch on each literal appearing in ≥ 2 cubes, divide by the common cube
/// of those cubes, and recurse with an index guard to avoid duplicates.
fn kernels_rec(
    g: &Cover,
    cokernel: &Cube,
    start: usize,
    universe: &[SignalLit],
    result: &mut Kernels,
) {
    for (i, &l) in universe.iter().enumerate().skip(start) {
        // Common cube of all cubes containing l, if there are at least two.
        let mut containing = g.cubes().iter().filter(|c| c.contains(l));
        let Some(first) = containing.next() else {
            continue;
        };
        let mut count = 1;
        let mut common = first.clone();
        for c in containing {
            count += 1;
            common = common.common(c);
        }
        if count < 2 {
            continue;
        }
        // Duplicate-avoidance: skip if the common cube contains an earlier
        // literal from the universe (that branch already produced it).
        if universe[..i].iter().any(|&e| common.contains(e)) {
            continue;
        }
        let (sub, _) = divide_by_cube(g, &common);
        let Some(new_cokernel) = cokernel.intersect(&common) else {
            unreachable!("co-kernel cubes cannot contradict");
        };
        kernels_rec(&sub, &new_cokernel, i + 1, universe, result);
        if sub.is_cube_free() {
            result.push((sub, new_cokernel));
        }
    }
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
    fn textbook_kernels() {
        // f = a·c·e + b·c·e + d·e (De Micheli-style example)
        // kernels: {a + b} (cokernel c·e), {a·c + b·c + d} (cokernel e),
        // and f itself is not cube-free (common cube e).
        let (a, b, c, d, e) = (lit(0), lit(1), lit(2), lit(3), lit(4));
        let f = cover(&[&[a, c, e], &[b, c, e], &[d, e]]);
        let ks = kernels(&f);
        let kernel_covers: Vec<&Cover> = ks.iter().map(|(k, _)| k).collect();
        assert!(kernel_covers.contains(&&cover(&[&[a], &[b]])), "{ks:?}");
        assert!(
            kernel_covers.contains(&&cover(&[&[a, c], &[b, c], &[d]])),
            "{ks:?}"
        );
        // Every kernel must be cube-free.
        for (k, _) in &ks {
            assert!(k.is_cube_free(), "kernel {k} is not cube-free");
        }
    }

    #[test]
    fn cokernel_times_kernel_divides_f() {
        let (a, b, c, d, e) = (lit(0), lit(1), lit(2), lit(3), lit(4));
        let f = cover(&[&[a, c, e], &[b, c, e], &[d, e]]);
        for (k, ck) in kernels(&f) {
            // Every cube of ck·k must be a cube of f.
            let prod = k.and_cube(&ck);
            for cube in prod.cubes() {
                assert!(f.cubes().contains(cube), "{ck}·({k}) produced {cube} ∉ f");
            }
        }
    }

    #[test]
    fn single_cube_has_no_kernels() {
        let (a, b) = (lit(0), lit(1));
        let f = cover(&[&[a, b]]);
        assert!(kernels(&f).is_empty());
    }

    #[test]
    fn kernel_of_two_disjoint_cubes_is_self() {
        let (a, b) = (lit(0), lit(1));
        let f = cover(&[&[a], &[b]]);
        let ks = kernels(&f);
        assert_eq!(ks.len(), 1);
        assert_eq!(ks[0].0, f);
        assert!(ks[0].1.is_one());
    }
}
