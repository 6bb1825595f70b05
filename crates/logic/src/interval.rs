//! Scalable minimization of incompletely specified functions given as
//! raw minterm lists.
//!
//! [`minimize`](crate::minimize) manipulates explicit cube lists, which
//! is the right tool for paper-sized functions but quadratic-or-worse in
//! the minterm count: deriving next-state logic from a 10⁶-state graph
//! would spend hours in `weed`/`complement`. This module goes through a
//! BDD instead: the on/off code lists become diagrams in near-linear
//! time ([`Bdd::from_codes`]), the cover is extracted by the
//! Minato–Morreale interval ISOP ([`Bdd::isop`]) whose cost tracks the
//! *diagram* sizes, and the result is polished to prime + irredundant
//! with BDD oracles. The result satisfies the same contract as
//! [`minimize`](crate::minimize): `on ⊆ f` and `f ∩ off = ∅`.

use crate::bdd::{Bdd, NodeRef, FALSE};
use crate::cover::Cover;
use crate::cube::Cube;

/// Minimizes the incompletely specified function with on-set `on_codes`
/// and off-set `off_codes` (everything else don't-care) over `num_vars`
/// variables. The two code lists must be disjoint.
///
/// Returns a prime, irredundant cover `f` with `on ⊆ f ⊆ ¬off`.
pub fn minimize_codes(num_vars: usize, on_codes: &[u64], off_codes: &[u64]) -> Cover {
    let reach: Vec<u64> = on_codes.iter().chain(off_codes).copied().collect();
    let dc_cubes = unreached_cubes(num_vars, &reach);
    minimize_codes_with_dc(num_vars, on_codes, off_codes, &dc_cubes)
}

/// The exact cube cover of every code *not* in `reach_codes` over
/// `num_vars` variables (`¬reach` by ISOP with lower = upper). All
/// conflict-free next-state functions of one state graph share this
/// don't-care set, so a caller minimizing several of them computes it
/// once and hands it to [`minimize_codes_with_dc`].
pub fn unreached_cubes(num_vars: usize, reach_codes: &[u64]) -> Vec<Cube> {
    let mut bdd = Bdd::new();
    let reach = bdd.from_codes(reach_codes, num_vars);
    let dc = bdd.not(reach);
    bdd.isop(dc, dc).1
}

/// When the exact on/dc covers extracted from the diagrams stay under
/// this many cubes, they are handed to the espresso loop for full
/// minimization quality; above it the interval ISOP result is polished
/// locally instead (prime + irredundant, but no REDUCE restarts).
const ESPRESSO_HANDOFF_CUBES: usize = 4096;

/// [`minimize_codes`] with its don't-care cubes supplied: `dc_cubes`
/// must be [`unreached_cubes`] of `on_codes ∪ off_codes`. Because an
/// ISOP depends only on the function, the cover is identical to the one
/// [`minimize_codes`] returns.
pub fn minimize_codes_with_dc(
    num_vars: usize,
    on_codes: &[u64],
    off_codes: &[u64],
    dc_cubes: &[Cube],
) -> Cover {
    let mut bdd = Bdd::new();
    let on = bdd.from_codes(on_codes, num_vars);
    // Exact cube covers of the on- and don't-care sets, extracted from
    // the diagrams (lower = upper makes the ISOP exact). These compress
    // a million minterms into the handful of cubes the structure really
    // has, which the cube-list espresso loop then minimizes exactly as
    // it would have minimized the raw minterm lists — only feasibly so.
    let (_, on_cubes) = bdd.isop(on, on);
    let cover = if on_cubes.len() + dc_cubes.len() <= ESPRESSO_HANDOFF_CUBES {
        let on_cover = Cover::from_cubes(num_vars, on_cubes);
        let dc_cover = Cover::from_cubes(num_vars, dc_cubes.iter().copied());
        crate::espresso::minimize(&on_cover, &dc_cover)
    } else {
        // Safety valve: even the exact covers are huge. Take the
        // interval ISOP (irredundant by construction) and polish it to
        // primes against the off-set diagram.
        let off = bdd.from_codes(off_codes, num_vars);
        let upper = bdd.not(off);
        let (_f, cubes) = bdd.isop(on, upper);
        let mut cover = Cover::from_cubes(num_vars, expand_cubes(&bdd, off, cubes));
        cover.weed();
        irredundant(&mut bdd, on, &mut cover);
        cover
    };
    debug_assert!({
        let off = bdd.from_codes(off_codes, num_vars);
        let f = bdd.from_cover(&cover);
        let nf = bdd.not(f);
        bdd.and(on, off) == FALSE && bdd.and(on, nf) == FALSE && bdd.and(f, off) == FALSE
    });
    cover
}

/// EXPAND against the off-set diagram: greedily raise literals while the
/// cube stays disjoint from `off`. Mirrors the cube-list `expand` of the
/// espresso loop, with the off-set intersection answered by a BDD walk.
fn expand_cubes(bdd: &Bdd, off: NodeRef, cubes: Vec<Cube>) -> Vec<Cube> {
    cubes
        .into_iter()
        .map(|c| {
            let mut cur = c;
            for v in c.vars() {
                let raised = cur.with(v, None);
                if !bdd.cube_intersects(off, raised) {
                    cur = raised;
                }
            }
            cur
        })
        .collect()
}

/// IRREDUNDANT with a BDD oracle: drop a cube when the on-points it
/// covers are already covered by the rest of the cover.
fn irredundant(bdd: &mut Bdd, on: NodeRef, cover: &mut Cover) {
    let num_vars = cover.num_vars();
    let mut cubes: Vec<Cube> = cover.cubes().to_vec();
    // Try to remove narrow cubes first, keeping the broad ones.
    cubes.sort_by_key(|c| std::cmp::Reverse(c.num_literals()));
    let mut i = 0;
    while i < cubes.len() {
        let c = cubes[i];
        let rest = Cover::from_cubes(
            num_vars,
            cubes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &x)| x),
        );
        let rest_bdd = bdd.from_cover(&rest);
        let c_bdd = bdd.from_cover(&Cover::from_cubes(num_vars, [c]));
        let not_rest = bdd.not(rest_bdd);
        let uniquely_on = bdd.and(c_bdd, on);
        if bdd.and(uniquely_on, not_rest) == FALSE {
            cubes.remove(i);
        } else {
            i += 1;
        }
    }
    cubes.sort_unstable();
    *cover = Cover::from_cubes(num_vars, cubes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::espresso::{cost, minimize};
    use crate::tautology::cover_equal;

    /// Exhaustively checks the contract on ⊆ f ⊆ ¬off.
    fn check_contract(f: &Cover, num_vars: usize, on: &[u64], off: &[u64]) {
        for &m in on {
            assert!(f.covers_point(m), "on-minterm {m:b} uncovered by {f}");
        }
        for &m in off {
            assert!(!f.covers_point(m), "off-minterm {m:b} covered by {f}");
        }
        let _ = num_vars;
    }

    #[test]
    fn matches_espresso_on_small_functions() {
        // Deterministic pseudo-random incompletely specified functions:
        // the interval path must produce a valid cover no costlier than
        // 2x espresso's (both are heuristics; neither dominates).
        let mut seed = 0x9E3779B97F4A7C15u64;
        for trial in 0..40 {
            let nv = 3 + trial % 4;
            let mut on = Vec::new();
            let mut off = Vec::new();
            for m in 0..(1u64 << nv) {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match (seed >> 33) % 3 {
                    0 => on.push(m),
                    1 => off.push(m),
                    _ => {}
                }
            }
            let f = minimize_codes(nv, &on, &off);
            check_contract(&f, nv, &on, &off);
            let on_cover = Cover::from_minterms(nv, &on);
            let dc_codes: Vec<u64> = (0..(1u64 << nv))
                .filter(|m| !on.contains(m) && !off.contains(m))
                .collect();
            let dc = Cover::from_minterms(nv, &dc_codes);
            let esp = minimize(&on_cover, &dc);
            assert!(
                cost(&f).cubes <= 2 * esp.len().max(1),
                "trial {trial}: interval {f} vs espresso {esp}"
            );
        }
    }

    #[test]
    fn completely_specified_equals_function() {
        // With an empty dc set the cover must equal the on-set exactly.
        let on = [0b001u64, 0b011, 0b101, 0b111];
        let off = [0b000u64, 0b010, 0b100, 0b110];
        let f = minimize_codes(3, &on, &off);
        assert_eq!(f.len(), 1, "{f}");
        assert_eq!(f.num_literals(), 1);
        let on_cover = Cover::from_minterms(3, &on);
        assert!(cover_equal(&f, &on_cover));
    }

    #[test]
    fn empty_and_universal() {
        assert!(minimize_codes(4, &[], &[0, 1]).is_empty());
        let f = minimize_codes(4, &[3], &[]);
        assert_eq!(f.len(), 1);
        assert!(f.cubes()[0].is_top(), "everything else is dc: {f}");
    }

    #[test]
    fn unreached_cubes_cover_exactly_the_unreached_codes() {
        // Unsorted, duplicated input; the cover is exact either way.
        let reach = [0b1011u64, 0b0001, 0b1011, 0b0110, 0b1111, 0b0000];
        let dc = Cover::from_cubes(4, unreached_cubes(4, &reach));
        for m in 0..16u64 {
            assert_eq!(dc.covers_point(m), !reach.contains(&m), "code {m:04b}");
        }
        let on = [0b1011u64, 0b0110];
        let off = [0b0001u64, 0b1111, 0b0000];
        let shared = minimize_codes_with_dc(4, &on, &off, dc.cubes());
        assert_eq!(shared, minimize_codes(4, &on, &off));
    }

    #[test]
    fn large_structured_function_is_fast() {
        // A 20-variable function with 2^16 on-minterms: far beyond what
        // the cube-list path could weed, near-instant through the BDD.
        let nv = 20;
        let on: Vec<u64> = (0..1u64 << 16).map(|m| m << 4 | 0b1010).collect();
        let off: Vec<u64> = (0..1u64 << 10).map(|m| m << 4 | 0b0101).collect();
        let f = minimize_codes(nv, &on, &off);
        check_contract(&f, nv, &on[..200], &off[..200]);
        assert!(f.len() <= 2, "{f}");
    }
}
