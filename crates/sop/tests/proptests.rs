//! Property tests: SOP transformations must preserve network function, and
//! algebraic division must satisfy its defining identity. Differential
//! properties pin the layer's fast paths to the straightforward
//! implementations they replaced: the same covers in the same cube order,
//! the same kernel lists, `Factored` trees and networks.

use proptest::prelude::*;
use sbm_sop::{divide, eliminate, extract, factor, isop, Cover, Cube, SignalLit, SopNetwork};
use sbm_tt::TruthTable;

/// A random cover over `num_signals` input signals.
fn arb_cover(num_signals: u32) -> impl Strategy<Value = Cover> {
    let cube =
        proptest::collection::btree_map(0..num_signals, any::<bool>(), 1..=4).prop_map(|m| {
            Cube::from_lits(
                &m.into_iter()
                    .map(|(s, neg)| SignalLit::new(s, neg))
                    .collect::<Vec<_>>(),
            )
        });
    proptest::collection::vec(cube, 1..=6).prop_map(Cover::from_cubes)
}

/// A random 2-level network: `n` nodes over 5 inputs, later nodes may use
/// earlier node outputs.
fn arb_network() -> impl Strategy<Value = SopNetwork> {
    let node_cube = |pool: u32| {
        proptest::collection::btree_map(0..pool, any::<bool>(), 1..=3).prop_map(|m| {
            Cube::from_lits(
                &m.into_iter()
                    .map(|(s, neg)| SignalLit::new(s, neg))
                    .collect::<Vec<_>>(),
            )
        })
    };
    (2usize..=5).prop_flat_map(move |num_nodes| {
        let mut node_strats = Vec::new();
        for i in 0..num_nodes {
            let pool = 5 + i as u32;
            node_strats.push(
                proptest::collection::vec(node_cube(pool), 1..=4).prop_map(Cover::from_cubes),
            );
        }
        node_strats.prop_map(|covers| {
            let mut net = SopNetwork::new(5);
            let mut last = 0;
            for c in covers {
                last = net.add_node(c);
            }
            net.add_output(SignalLit::positive(last));
            net
        })
    })
}

fn truth_vector(net: &SopNetwork) -> Vec<Vec<bool>> {
    (0..32usize)
        .map(|m| {
            let assignment: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            net.eval(&assignment)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn division_identity(f in arb_cover(6), d in arb_cover(6)) {
        let (q, r) = divide::divide(&f, &d);
        // f ≡ q·d + r must hold as Boolean functions.
        let recombined = q.and(&d).or(&r);
        for m in 0..64u32 {
            let v = |s: u32| (m >> s) & 1 == 1;
            prop_assert_eq!(recombined.eval(v), f.eval(v), "minterm {}", m);
        }
    }

    #[test]
    fn factoring_is_exact(f in arb_cover(6)) {
        let fac = factor::factor(&f);
        for m in 0..64u32 {
            let v = |s: u32| (m >> s) & 1 == 1;
            prop_assert_eq!(fac.eval(v), f.eval(v), "minterm {}", m);
        }
        // Algebraic factoring never increases literal count.
        prop_assert!(fac.num_lits() <= f.num_lits());
    }

    #[test]
    fn complement_is_exact(f in arb_cover(5)) {
        if let Some(nf) = f.complement(256) {
            for m in 0..32u32 {
                let v = |s: u32| (m >> s) & 1 == 1;
                prop_assert_eq!(nf.eval(v), !f.eval(v), "minterm {}", m);
            }
        }
    }

    #[test]
    fn eliminate_preserves_function(mut net in arb_network(), threshold in -1i64..=300) {
        let before = truth_vector(&net);
        eliminate::eliminate(&mut net, threshold);
        prop_assert_eq!(truth_vector(&net), before);
    }

    #[test]
    fn extract_preserves_function(mut net in arb_network()) {
        let before = truth_vector(&net);
        let lits_before = net.num_lits();
        let stats = extract::extract(&mut net, 8);
        prop_assert_eq!(truth_vector(&net), before);
        if stats.divisors_extracted > 0 {
            prop_assert!(net.num_lits() <= lits_before);
        }
    }

    #[test]
    fn kernels_are_cube_free(f in arb_cover(6)) {
        for (k, _) in sbm_sop::kernel::kernels(&f) {
            prop_assert!(k.is_cube_free(), "kernel {} not cube-free", k);
        }
    }

    #[test]
    fn aig_round_trip_preserves_function(net in arb_network()) {
        let aig = net.to_aig();
        for m in 0..32usize {
            let assignment: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            prop_assert_eq!(aig.eval(&assignment), net.eval(&assignment));
        }
    }
}

/// A random cube of `lits` literals over the signals `signals`.
fn arb_cube(
    signals: std::ops::Range<u32>,
    lits: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = Cube> {
    proptest::collection::btree_map(signals, any::<bool>(), lits).prop_map(|m| {
        Cube::from_lits(
            &m.into_iter()
                .map(|(s, neg)| SignalLit::new(s, neg))
                .collect::<Vec<_>>(),
        )
    })
}

/// A wide random cover: up to 40 cubes of 2–5 literals over 8–10 signals,
/// so that factoring takes both its literal path (more than 24 cubes) and
/// its kernel path (the smaller covers, and the sub-covers it recurses on).
fn arb_wide_cover() -> impl Strategy<Value = Cover> {
    (8u32..=10)
        .prop_flat_map(|n| proptest::collection::vec(arb_cube(0..n, 2..=5), 20..=40))
        .prop_map(Cover::from_cubes)
}

/// A cover built to be divisible, `q·d + r`, returned with its divisor
/// `d`. `q` and `d` share signals 3–6, so some products merge or
/// contradict and some quotient candidates share a literal with a divisor
/// cube.
fn arb_divisible() -> impl Strategy<Value = (Cover, Cover)> {
    let cover = |signals, lits, cubes| {
        proptest::collection::vec(arb_cube(signals, lits), cubes).prop_map(Cover::from_cubes)
    };
    (
        cover(0..7, 1..=3, 1..=6),
        cover(3..10, 1..=2, 1..=4),
        cover(0..10, 3..=4, 0..=12),
    )
        .prop_map(|(q, d, r)| (q.and(&d).or(&r), d))
}

/// A random multi-output network: 2–10 nodes of up to 6 cubes over 3–8
/// inputs and the earlier nodes; the last node and up to two others drive
/// outputs, in either phase. With few inputs, collapsing often
/// contradicts or absorbs cubes, so nodes die in cascades.
fn arb_wide_network() -> impl Strategy<Value = SopNetwork> {
    (3u32..=8, 2usize..=10).prop_flat_map(|(inputs, num_nodes)| {
        let covers: Vec<_> = (0..num_nodes)
            .map(|i| {
                proptest::collection::vec(arb_cube(0..inputs + i as u32, 1..=3), 1..=6)
                    .prop_map(Cover::from_cubes)
            })
            .collect();
        let extra = proptest::collection::vec((0..num_nodes, any::<bool>()), 0..=2);
        (covers, extra, any::<bool>()).prop_map(move |(covers, extra, neg)| {
            let mut net = SopNetwork::new(inputs as usize);
            let mut last = 0;
            for c in covers {
                last = net.add_node(c);
            }
            net.add_output(SignalLit::new(last, neg));
            for (node, neg) in extra {
                net.add_output(SignalLit::new(inputs + node as u32, neg));
            }
            net
        })
    })
}

/// Asserts two networks are structurally equal: same inputs, the same
/// cover on every node (dead ones included) and the same outputs.
fn assert_same_network(got: &SopNetwork, want: &SopNetwork) {
    prop_assert_eq!(got.num_inputs(), want.num_inputs());
    prop_assert_eq!(got.num_nodes(), want.num_nodes());
    for s in got.num_inputs()..got.num_signals() {
        prop_assert_eq!(got.cover(s as u32), want.cover(s as u32), "node {}", s);
    }
    prop_assert_eq!(got.outputs(), want.outputs());
}

/// A random truth table over `n` variables from 16 random words.
fn table(n: usize, words: &[u64]) -> TruthTable {
    let count = if n <= 6 { 1 } else { 1 << (n - 6) };
    TruthTable::from_words(n, words[..count].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scc_matches_reference(
        cubes in (8u32..=10).prop_flat_map(|n| proptest::collection::vec(arb_cube(0..n, 1..=5), 0..=40)),
    ) {
        prop_assert_eq!(Cover::from_cubes(cubes.clone()), reference::scc_minimal(cubes));
    }

    #[test]
    fn complement_matches_reference(
        f in (8u32..=10).prop_flat_map(|n| proptest::collection::vec(arb_cube(0..n, 1..=4), 1..=12))
            .prop_map(Cover::from_cubes),
        limit in 1usize..=128,
    ) {
        prop_assert_eq!(f.complement(limit), reference::complement(&f, limit));
    }

    #[test]
    fn division_matches_reference(f in arb_wide_cover(), d in arb_wide_cover(), fd in arb_divisible()) {
        prop_assert_eq!(divide::divide(&f, &d), reference::divide(&f, &d));
        let (g, e) = fd;
        prop_assert_eq!(divide::divide(&g, &e), reference::divide(&g, &e));
        for cube in e.cubes().iter().chain(g.cubes()) {
            prop_assert_eq!(divide::divide_by_cube(&g, cube), reference::divide_by_cube(&g, cube));
        }
        let dividend = divide::Dividend::new(&g);
        for (k, _) in reference::kernels(&g) {
            let want = reference::divide(&g, &k);
            prop_assert_eq!(dividend.quotient_len(&k), want.0.num_cubes());
            prop_assert_eq!(dividend.divide(&k), want);
        }
    }

    #[test]
    fn kernels_match_reference(f in arb_wide_cover(), fd in arb_divisible()) {
        prop_assert_eq!(sbm_sop::kernel::kernels(&f), reference::kernels(&f));
        prop_assert_eq!(sbm_sop::kernel::kernels(&fd.0), reference::kernels(&fd.0));
    }

    #[test]
    fn factoring_matches_reference(f in arb_wide_cover(), fd in arb_divisible()) {
        prop_assert_eq!(factor::factor(&f), reference::factor(&f));
        prop_assert_eq!(factor::factor(&fd.0), reference::factor(&fd.0));
    }

    #[test]
    fn isop_matches_reference(
        n in 0usize..=10,
        on in proptest::collection::vec(any::<u64>(), 16),
        sparse in proptest::collection::vec(any::<u64>(), 16),
        dc in proptest::collection::vec(any::<u64>(), 16),
    ) {
        let on = table(n, &on);
        let sparse = &on & &table(n, &sparse);
        for lower in [&on, &sparse] {
            let upper = lower | &(&table(n, &dc) & &sparse);
            prop_assert_eq!(isop::isop(lower, &upper), reference::isop(lower, &upper));
            prop_assert_eq!(isop::isop_exact(lower), reference::isop(lower, lower));
        }
    }

    #[test]
    fn eliminate_matches_reference(net in arb_wide_network(), threshold in -1i64..=300) {
        let mut got = net.clone();
        let mut want = net;
        let stats = eliminate::eliminate(&mut got, threshold);
        prop_assert_eq!(stats, reference::eliminate(&mut want, threshold));
        assert_same_network(&got, &want);
    }

    #[test]
    fn fanout_index_stays_exact(mut net in arb_wide_network(), threshold in -1i64..=300) {
        // The eliminate loop, checking the maintained index against a
        // fresh whole-network `fanouts()` after every collapse.
        let mut fanouts = eliminate::FanoutIndex::new(&net);
        for _ in 0..64 {
            let mut any = false;
            for signal in net.live_nodes() {
                let Some(c) = eliminate::plan_collapse(&net, &fanouts, signal) else {
                    continue;
                };
                if c.variation() < threshold {
                    c.apply(&mut net, &mut fanouts);
                    prop_assert_eq!(fanouts.as_map(), &net.fanouts(), "after collapsing {}", signal);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    #[test]
    fn extract_matches_reference(
        net in arb_wide_network(),
        threshold in -1i64..=300,
        rounds in 1usize..=20,
    ) {
        // Extraction runs on eliminated networks in the hetero engine.
        let mut got = net;
        eliminate::eliminate(&mut got, threshold);
        let mut want = got.clone();
        let stats = extract::extract(&mut got, rounds);
        prop_assert_eq!(stats, reference::extract(&mut want, rounds));
        assert_same_network(&got, &want);
    }
}

/// The SOP layer as it was before division, factoring, kernels,
/// elimination, extraction and ISOP stopped rescanning whole covers and
/// whole networks, kept verbatim as the oracle of the differential
/// properties above (methods that changed are free functions here).
mod reference {
    use std::collections::HashMap;

    use sbm_sop::eliminate::EliminateStats;
    use sbm_sop::extract::ExtractStats;
    use sbm_sop::factor::Factored;
    use sbm_sop::{Cover, Cube, SignalLit, SopNetwork};
    use sbm_tt::TruthTable;

    /// `Cover::from_cubes`'s single-cube containment pass.
    pub fn scc_minimal(cubes: Vec<Cube>) -> Cover {
        let mut cubes = cubes;
        cubes.sort();
        cubes.dedup();
        let mut kept: Vec<Cube> = Vec::with_capacity(cubes.len());
        for c in &cubes {
            if !cubes
                .iter()
                .any(|other| other != c && other.covers(c) && !(c.covers(other) && other > c))
            {
                kept.push(c.clone());
            }
        }
        Cover::from_cubes_unchecked(kept)
    }

    pub fn divide_by_cube(f: &Cover, d: &Cube) -> (Cover, Cover) {
        let mut q = Vec::new();
        let mut r = Vec::new();
        for c in f.cubes() {
            match c.quotient(d) {
                Some(qc) => q.push(qc),
                None => r.push(c.clone()),
            }
        }
        (Cover::from_cubes(q), Cover::from_cubes(r))
    }

    pub fn divide(f: &Cover, d: &Cover) -> (Cover, Cover) {
        if d.is_zero() {
            return (Cover::zero(), f.clone());
        }
        let mut quotient: Option<Vec<Cube>> = None;
        for dc in d.cubes() {
            let (qi, _) = divide_by_cube(f, dc);
            let set: Vec<Cube> = qi.cubes().to_vec();
            quotient = Some(match quotient {
                None => set,
                Some(prev) => prev.into_iter().filter(|c| set.contains(c)).collect(),
            });
            if quotient.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
        }
        let q = Cover::from_cubes(quotient.unwrap_or_default());
        if q.is_zero() {
            return (Cover::zero(), f.clone());
        }
        // r = f − q·d, cube-wise (q·d's cubes are cubes of f by construction).
        let qd = q.and(d);
        let r = Cover::from_cubes(
            f.cubes()
                .iter()
                .filter(|c| !qd.cubes().contains(c))
                .cloned()
                .collect(),
        );
        (q, r)
    }

    pub fn kernels(f: &Cover) -> Vec<(Cover, Cube)> {
        let mut result = Vec::new();
        // Normalize: pull out the largest common cube first.
        let cc = f.common_cube();
        let (g, _) = divide_by_cube(f, &cc);
        let universe = literals(&g);
        kernels_rec(&g, &cc, 0, &universe, &mut result);
        if g.is_cube_free() {
            push_unique(&mut result, (g, cc));
        }
        result
    }

    fn literals(f: &Cover) -> Vec<SignalLit> {
        let mut set = std::collections::BTreeSet::new();
        for c in f.cubes() {
            set.extend(c.lits().iter().copied());
        }
        set.into_iter().collect()
    }

    fn push_unique(result: &mut Vec<(Cover, Cube)>, entry: (Cover, Cube)) {
        if !result.contains(&entry) {
            result.push(entry);
        }
    }

    fn kernels_rec(
        g: &Cover,
        cokernel: &Cube,
        start: usize,
        universe: &[SignalLit],
        result: &mut Vec<(Cover, Cube)>,
    ) {
        for (i, &l) in universe.iter().enumerate().skip(start) {
            if g.lit_count(l) < 2 {
                continue;
            }
            // Common cube of all cubes containing l.
            let mut common: Option<Cube> = None;
            for c in g.cubes() {
                if c.contains(l) {
                    common = Some(match common {
                        None => c.clone(),
                        Some(acc) => acc.common(c),
                    });
                }
            }
            let Some(common) = common else {
                unreachable!("lit_count >= 2 guarantees at least one cube contains l");
            };
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
                push_unique(result, (sub, new_cokernel));
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
        let proper_kernels: Vec<Cover> = if f.num_cubes() > 24 {
            Vec::new()
        } else {
            kernels(f)
                .into_iter()
                .map(|(k, _)| k)
                .filter(|k| k != f && k.num_cubes() >= 2)
                .collect()
        };
        let best_kernel = proper_kernels.into_iter().max_by_key(|k| {
            let (q, _) = divide(f, k);
            // Prefer kernels that remove the most literals from f.
            (q.num_cubes().saturating_sub(1)) * k.num_lits()
        });
        if let Some(k) = best_kernel {
            let (q, r) = divide(f, &k);
            if !q.is_zero() && q.num_cubes() >= 1 && (q.num_cubes() > 1 || k.num_lits() > 1) {
                return or(and(factor(&q), factor(&k)), factor(&r));
            }
        }
        // Fall back to literal factoring on the most frequent literal.
        let mut best: Option<(SignalLit, usize)> = None;
        for c in f.cubes() {
            for &l in c.lits() {
                let count = f.lit_count(l);
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

    pub fn isop(on: &TruthTable, upper: &TruthTable) -> Cover {
        assert_eq!(on.num_vars(), upper.num_vars());
        assert!(on.implies(upper), "lower bound must imply upper bound");
        let (cover, _) = isop_rec(on, upper, on.num_vars());
        cover
    }

    fn isop_rec(lower: &TruthTable, upper: &TruthTable, vars_left: usize) -> (Cover, TruthTable) {
        let n = lower.num_vars();
        if lower.is_zero() {
            return (Cover::zero(), TruthTable::zero(n));
        }
        if upper.is_one() {
            return (Cover::one(), TruthTable::one(n));
        }
        debug_assert!(vars_left > 0, "non-constant bounds but no variables left");
        let v = vars_left - 1;
        let x = SignalLit::positive(v as u32);
        let nx = SignalLit::negative(v as u32);

        let l0 = lower.cofactor0(v);
        let l1 = lower.cofactor1(v);
        let u0 = upper.cofactor0(v);
        let u1 = upper.cofactor1(v);

        // Cubes that must contain x̄: ON where x = 0 but not coverable with x = 1.
        let (c0, t0) = isop_rec(&(&l0 & &!&u1), &u0, v);
        // Cubes that must contain x.
        let (c1, t1) = isop_rec(&(&l1 & &!&u0), &u1, v);
        // Remaining minterms, coverable independently of v.
        let lnew = &(&l0 & &!&t0) | &(&l1 & &!&t1);
        let (cstar, tstar) = isop_rec(&lnew, &(&u0 & &u1), v);

        let xvar = TruthTable::var(n, v);
        let table = &(&(&!&xvar & &t0) | &(&xvar & &t1)) | &tstar;

        let mut cubes = Vec::new();
        for c in c0.cubes() {
            let Some(cube) = c.intersect(&Cube::from_lits(&[nx])) else {
                unreachable!("v cannot appear in a cofactor cover");
            };
            cubes.push(cube);
        }
        for c in c1.cubes() {
            let Some(cube) = c.intersect(&Cube::from_lits(&[x])) else {
                unreachable!("v cannot appear in a cofactor cover");
            };
            cubes.push(cube);
        }
        cubes.extend(cstar.cubes().iter().cloned());
        (Cover::from_cubes(cubes), table)
    }

    pub fn complement(f: &Cover, cube_limit: usize) -> Option<Cover> {
        if f.is_zero() {
            return Some(Cover::one());
        }
        if f.is_one() {
            return Some(Cover::zero());
        }
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for c in f.cubes() {
            for l in c.lits() {
                *counts.entry(l.signal()).or_insert(0) += 1;
            }
        }
        let (&signal, _) = counts
            .iter()
            .max_by_key(|(&s, &n)| (n, std::cmp::Reverse(s)))?;
        let c0 = f.cofactor(SignalLit::negative(signal));
        let c1 = f.cofactor(SignalLit::positive(signal));
        let n0 = complement(&c0, cube_limit)?;
        let n1 = complement(&c1, cube_limit)?;
        let x0 = n0.and_cube(&Cube::from_lits(&[SignalLit::negative(signal)]));
        let x1 = n1.and_cube(&Cube::from_lits(&[SignalLit::positive(signal)]));
        let result = x0.or(&x1);
        if result.num_cubes() > cube_limit {
            None
        } else {
            Some(result)
        }
    }

    const COMPLEMENT_CUBE_LIMIT: usize = 64;

    pub fn collapse_variation(net: &SopNetwork, signal: u32) -> Option<i64> {
        if net.is_input(signal) {
            return None;
        }
        if net.outputs().iter().any(|l| l.signal() == signal) {
            return None;
        }
        let fanouts = net.fanouts();
        let users = fanouts.get(&signal)?;
        let pos = net.cover(signal).clone();
        let needs_neg = users.iter().any(|&u| {
            net.cover(u)
                .cubes()
                .iter()
                .any(|c| c.contains(SignalLit::negative(signal)))
        });
        let neg = if needs_neg {
            complement(&pos, COMPLEMENT_CUBE_LIMIT)?
        } else {
            Cover::zero()
        };
        let mut delta: i64 = -(pos.num_lits() as i64);
        for &u in users {
            let before = net.cover(u).num_lits() as i64;
            let after = net.cover(u).substitute(signal, &pos, &neg).num_lits() as i64;
            delta += after - before;
        }
        Some(delta)
    }

    pub fn collapse(net: &mut SopNetwork, signal: u32) -> bool {
        if net.is_input(signal) || net.outputs().iter().any(|l| l.signal() == signal) {
            return false;
        }
        let fanouts = net.fanouts();
        let users = match fanouts.get(&signal) {
            Some(u) => u.clone(),
            None => return false,
        };
        let pos = net.cover(signal).clone();
        let needs_neg = users.iter().any(|&u| {
            net.cover(u)
                .cubes()
                .iter()
                .any(|c| c.contains(SignalLit::negative(signal)))
        });
        let neg = if needs_neg {
            match complement(&pos, COMPLEMENT_CUBE_LIMIT) {
                Some(n) => n,
                None => return false,
            }
        } else {
            Cover::zero()
        };
        for u in users {
            let new_cover = net.cover(u).substitute(signal, &pos, &neg);
            net.set_cover(u, new_cover);
        }
        true
    }

    pub fn eliminate(net: &mut SopNetwork, threshold: i64) -> EliminateStats {
        let mut stats = EliminateStats::default();
        loop {
            stats.passes += 1;
            let mut any = false;
            // Snapshot the node list: collapsing changes fanouts as we go.
            for signal in net.live_nodes() {
                if let Some(delta) = collapse_variation(net, signal) {
                    if delta < threshold && collapse(net, signal) {
                        stats.collapsed += 1;
                        any = true;
                    }
                }
            }
            if !any {
                return stats;
            }
            if stats.passes > 64 {
                return stats;
            }
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
    enum Divisor {
        Double(Cube, Cube),
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

    fn candidates(net: &SopNetwork) -> HashMap<Divisor, i64> {
        let mut savings: HashMap<Divisor, i64> = HashMap::new();
        for s in net.live_nodes() {
            let cover = net.cover(s);
            let cubes = cover.cubes();
            // Double-cube divisors from every cube pair.
            for i in 0..cubes.len() {
                for j in i + 1..cubes.len() {
                    let common = cubes[i].common(&cubes[j]);
                    let (Some(a), Some(b)) =
                        (cubes[i].quotient(&common), cubes[j].quotient(&common))
                    else {
                        unreachable!("the common cube divides both of its cubes");
                    };
                    if a.is_one() || b.is_one() {
                        continue;
                    }
                    let saving = (a.num_lits() + b.num_lits() + common.num_lits()) as i64 - 1;
                    let (a, b) = if a <= b { (a, b) } else { (b, a) };
                    *savings.entry(Divisor::Double(a, b)).or_insert(0) += saving;
                }
            }
            // Single-cube divisors: all literal pairs within a cube.
            for c in cubes {
                let lits = c.lits();
                for i in 0..lits.len() {
                    for j in i + 1..lits.len() {
                        let cube = Cube::from_lits(&[lits[i], lits[j]]);
                        *savings.entry(Divisor::Single(cube)).or_insert(0) += 1;
                    }
                }
            }
        }
        savings
    }

    fn estimated_value(d: &Divisor, total_saving: i64) -> i64 {
        total_saving - d.num_lits() as i64
    }

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

    pub fn extract(net: &mut SopNetwork, max_rounds: usize) -> ExtractStats {
        let mut stats = ExtractStats::default();
        for _ in 0..max_rounds {
            let cands = candidates(net);
            // Rank by estimated value; try the best few with exact accounting.
            let mut ranked: Vec<(Divisor, i64)> = cands
                .into_iter()
                .filter(|(d, saving)| estimated_value(d, *saving) > 0)
                .collect();
            ranked.sort_by(|(da, sa), (db, sb)| {
                estimated_value(db, *sb)
                    .cmp(&estimated_value(da, *sa))
                    .then_with(|| da.cmp(db))
            });
            let mut applied = false;
            for (divisor, _) in ranked.into_iter().take(8) {
                let d = divisor.to_cover();
                let before = net.num_lits() as i64;
                // Tentatively create the divisor node and rewrite users.
                let x = net.add_node(d.clone());
                let mut rewrote = false;
                for s in net.live_nodes() {
                    if s == x {
                        continue;
                    }
                    if let Some(newc) = substitute_divisor(net.cover(s), &d, x) {
                        net.set_cover(s, newc);
                        rewrote = true;
                    }
                }
                let after = net.num_lits() as i64;
                if rewrote && after < before {
                    stats.divisors_extracted += 1;
                    stats.literals_saved += before - after;
                    applied = true;
                    break;
                }
                if rewrote && after >= before {
                    applied = true;
                    break;
                }
            }
            if !applied {
                break;
            }
        }
        stats
    }
}
