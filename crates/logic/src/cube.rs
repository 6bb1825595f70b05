//! Cubes (product terms) over up to 64 Boolean variables.
//!
//! A cube stores two bitmasks: `pos` (variables appearing as positive
//! literals) and `neg` (negative literals). A variable in neither mask
//! is absent (don't care); a variable in both makes the cube empty.

use std::fmt;

/// Maximum number of variables supported by [`Cube`].
pub const MAX_VARS: usize = 64;

/// A product term over `num_vars` variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    /// Bit i set: variable i appears as a positive literal.
    pub pos: u64,
    /// Bit i set: variable i appears as a negative literal.
    pub neg: u64,
}

impl Cube {
    /// The universal cube (no literals; covers everything).
    pub const fn top() -> Cube {
        Cube { pos: 0, neg: 0 }
    }

    /// A cube from a full minterm: `code` gives the value of each of the
    /// `num_vars` variables.
    pub fn minterm(code: u64, num_vars: usize) -> Cube {
        assert!(num_vars <= MAX_VARS);
        let mask = mask(num_vars);
        Cube {
            pos: code & mask,
            neg: !code & mask,
        }
    }

    /// A cube with a single literal.
    pub fn literal(var: usize, positive: bool) -> Cube {
        assert!(var < MAX_VARS);
        if positive {
            Cube {
                pos: 1 << var,
                neg: 0,
            }
        } else {
            Cube {
                pos: 0,
                neg: 1 << var,
            }
        }
    }

    /// True if the cube contains contradictory literals (covers nothing).
    pub fn is_empty(self) -> bool {
        self.pos & self.neg != 0
    }

    /// True if the cube has no literals (covers everything).
    pub fn is_top(self) -> bool {
        self.pos == 0 && self.neg == 0
    }

    /// Number of literals.
    pub fn num_literals(self) -> u32 {
        (self.pos | self.neg).count_ones()
    }

    /// The value constraint on `var`: `Some(true)` positive literal,
    /// `Some(false)` negative, `None` absent.
    pub fn get(self, var: usize) -> Option<bool> {
        let bit = 1u64 << var;
        if self.pos & bit != 0 {
            Some(true)
        } else if self.neg & bit != 0 {
            Some(false)
        } else {
            None
        }
    }

    /// Returns the cube with the constraint on `var` replaced.
    pub fn with(self, var: usize, value: Option<bool>) -> Cube {
        let bit = 1u64 << var;
        let mut c = Cube {
            pos: self.pos & !bit,
            neg: self.neg & !bit,
        };
        match value {
            Some(true) => c.pos |= bit,
            Some(false) => c.neg |= bit,
            None => {}
        }
        c
    }

    /// True if the cube covers the minterm `code`.
    pub fn covers_point(self, code: u64) -> bool {
        (self.pos & !code) == 0 && (self.neg & code) == 0
    }

    /// True if `self` covers every point of `other` (`other ⊆ self`);
    /// equivalently, `self`'s literal set is a subset of `other`'s.
    pub fn covers(self, other: Cube) -> bool {
        !other.is_empty() && (self.pos & !other.pos) == 0 && (self.neg & !other.neg) == 0
    }

    /// The intersection of two cubes (may be empty).
    pub fn intersect(self, other: Cube) -> Cube {
        Cube {
            pos: self.pos | other.pos,
            neg: self.neg | other.neg,
        }
    }

    /// True if the cubes share at least one point.
    pub fn intersects(self, other: Cube) -> bool {
        !self.intersect(other).is_empty()
    }

    /// The smallest cube covering both (bitwise literal intersection).
    pub fn supercube(self, other: Cube) -> Cube {
        Cube {
            pos: self.pos & other.pos,
            neg: self.neg & other.neg,
        }
    }

    /// Number of variables on which the cubes have opposite literals.
    pub fn distance(self, other: Cube) -> u32 {
        ((self.pos & other.neg) | (self.neg & other.pos)).count_ones()
    }

    /// The positive or negative cofactor with respect to `var`: `None`
    /// if the cube requires the opposite value, otherwise the cube with
    /// the `var` literal dropped.
    pub fn cofactor(self, var: usize, value: bool) -> Option<Cube> {
        match self.get(var) {
            Some(v) if v != value => None,
            _ => Some(self.with(var, None)),
        }
    }

    /// Iterates over the variables with literals in this cube.
    pub fn vars(self) -> impl Iterator<Item = usize> {
        let used = self.pos | self.neg;
        (0..MAX_VARS).filter(move |&i| used & (1 << i) != 0)
    }

    /// Renders the cube as a positional string over `num_vars` variables
    /// (`1` positive, `0` negative, `-` absent), LSB variable first.
    pub fn render(self, num_vars: usize) -> String {
        (0..num_vars)
            .map(|i| match self.get(i) {
                Some(true) => '1',
                Some(false) => '0',
                None => '-',
            })
            .collect()
    }

    /// Renders the cube as a product of named literals, e.g. `a b' c`.
    pub fn render_named(self, names: &[String]) -> String {
        if self.is_top() {
            return "1".to_string();
        }
        let mut parts = Vec::new();
        for (i, name) in names.iter().take(MAX_VARS).enumerate() {
            match self.get(i) {
                Some(true) => parts.push(name.clone()),
                Some(false) => parts.push(format!("{name}'")),
                None => {}
            }
        }
        parts.join(" ")
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(MAX_VARS).trim_end_matches('-'))
    }
}

/// The all-ones mask over `num_vars` variables.
pub fn mask(num_vars: usize) -> u64 {
    if num_vars >= 64 {
        u64::MAX
    } else {
        (1u64 << num_vars) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minterm_and_points() {
        let c = Cube::minterm(0b101, 3);
        assert!(c.covers_point(0b101));
        assert!(!c.covers_point(0b100));
        assert_eq!(c.num_literals(), 3);
        assert_eq!(c.render(3), "101");
    }

    #[test]
    fn literal_and_with() {
        let c = Cube::literal(2, true);
        assert_eq!(c.get(2), Some(true));
        assert_eq!(c.get(0), None);
        let c2 = c.with(2, Some(false));
        assert_eq!(c2.get(2), Some(false));
        let c3 = c.with(2, None);
        assert!(c3.is_top());
    }

    #[test]
    fn covers_is_subset_of_literals() {
        let big = Cube::literal(0, true);
        let small = Cube::literal(0, true).intersect(Cube::literal(1, false));
        assert!(big.covers(small));
        assert!(!small.covers(big));
        assert!(Cube::top().covers(big));
        // Empty cubes are covered by nothing (convention).
        let empty = Cube::literal(0, true).intersect(Cube::literal(0, false));
        assert!(empty.is_empty());
        assert!(!big.covers(empty));
    }

    #[test]
    fn intersect_detects_conflict() {
        let a = Cube::literal(1, true);
        let b = Cube::literal(1, false);
        assert!(a.intersect(b).is_empty());
        assert!(!a.intersects(b));
        assert_eq!(a.distance(b), 1);
    }

    #[test]
    fn cofactor_drops_literal() {
        let c = Cube::literal(0, true).intersect(Cube::literal(1, false));
        let cf = c.cofactor(0, true).unwrap();
        assert_eq!(cf.get(0), None);
        assert_eq!(cf.get(1), Some(false));
        assert_eq!(c.cofactor(0, false), None);
        // Cofactor on an absent variable just returns the cube.
        assert_eq!(c.cofactor(5, true), Some(c));
    }

    #[test]
    fn supercube_merges() {
        let a = Cube::minterm(0b00, 2);
        let b = Cube::minterm(0b01, 2);
        let s = a.supercube(b);
        assert_eq!(s.get(0), None);
        assert_eq!(s.get(1), Some(false));
        assert!(s.covers(a) && s.covers(b));
    }

    #[test]
    fn named_rendering() {
        let names: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let c = Cube::literal(0, true).intersect(Cube::literal(2, false));
        assert_eq!(c.render_named(&names), "a c'");
        assert_eq!(Cube::top().render_named(&names), "1");
    }

    #[test]
    fn vars_iterator() {
        let c = Cube::literal(3, true).intersect(Cube::literal(10, false));
        let vs: Vec<usize> = c.vars().collect();
        assert_eq!(vs, vec![3, 10]);
    }
}
