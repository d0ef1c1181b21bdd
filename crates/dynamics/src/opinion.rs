//! Opinions and opinion configurations.
//!
//! The paper's model is two-party: every vertex is either **red** (the
//! initial majority in Theorem 1) or **blue** (the initial minority).  The
//! analysis in Section 3 identifies blue with the value 1 and red with 0;
//! [`Opinion::as_value`] follows that convention so code mirrors the paper.

/// A vertex opinion (colour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opinion {
    /// Red — the initial majority in the paper's setting.
    Red = 0,
    /// Blue — the initial minority; mapped to the value 1 in Section 3.
    Blue = 1,
}

impl Opinion {
    /// The paper's numeric encoding: blue ↦ 1, red ↦ 0.
    #[inline]
    pub fn as_value(self) -> u8 {
        self as u8
    }

    /// The opposite opinion.
    #[inline]
    pub fn flipped(self) -> Opinion {
        match self {
            Opinion::Red => Opinion::Blue,
            Opinion::Blue => Opinion::Red,
        }
    }

    /// `true` for blue.
    #[inline]
    pub fn is_blue(self) -> bool {
        matches!(self, Opinion::Blue)
    }

    /// `true` for red.
    #[inline]
    pub fn is_red(self) -> bool {
        matches!(self, Opinion::Red)
    }

    /// Majority of three opinions (always well defined — no ties with an odd
    /// sample).  This is the Best-of-3 update rule applied to one sample.
    #[inline]
    pub fn majority3(a: Opinion, b: Opinion, c: Opinion) -> Opinion {
        let blues = a.as_value() + b.as_value() + c.as_value();
        if blues >= 2 {
            Opinion::Blue
        } else {
            Opinion::Red
        }
    }
}

impl std::fmt::Display for Opinion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Opinion::Red => write!(f, "R"),
            Opinion::Blue => write!(f, "B"),
        }
    }
}

/// A full opinion configuration `ξ_t` together with maintained colour counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration {
    opinions: Vec<Opinion>,
    blue_count: usize,
}

impl Configuration {
    /// Builds a configuration from a vector of opinions.
    pub fn new(opinions: Vec<Opinion>) -> Self {
        let blue_count = opinions.iter().filter(|o| o.is_blue()).count();
        Configuration {
            opinions,
            blue_count,
        }
    }

    /// A configuration of `n` vertices, all red.
    pub fn all_red(n: usize) -> Self {
        Configuration {
            opinions: vec![Opinion::Red; n],
            blue_count: 0,
        }
    }

    /// A configuration of `n` vertices, all blue.
    pub fn all_blue(n: usize) -> Self {
        Configuration {
            opinions: vec![Opinion::Blue; n],
            blue_count: n,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.opinions.len()
    }

    /// `true` when there are no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.opinions.is_empty()
    }

    /// The opinion of vertex `v`.
    #[inline]
    pub fn get(&self, v: usize) -> Opinion {
        self.opinions[v]
    }

    /// Sets the opinion of vertex `v`, keeping the counts consistent.
    #[inline]
    pub fn set(&mut self, v: usize, opinion: Opinion) {
        let old = self.opinions[v];
        if old != opinion {
            match opinion {
                Opinion::Blue => self.blue_count += 1,
                Opinion::Red => self.blue_count -= 1,
            }
            self.opinions[v] = opinion;
        }
    }

    /// Number of blue vertices.
    #[inline]
    pub fn blue_count(&self) -> usize {
        self.blue_count
    }

    /// Number of red vertices.
    #[inline]
    pub fn red_count(&self) -> usize {
        self.opinions.len() - self.blue_count
    }

    /// Fraction of blue vertices (`0.0` on the empty configuration).
    pub fn blue_fraction(&self) -> f64 {
        blue_fraction(self.blue_count, self.len())
    }

    /// The red bias `δ_t = 1/2 − (blue fraction)`, the quantity tracked by
    /// the paper's Lemma 4.
    pub fn red_bias(&self) -> f64 {
        0.5 - self.blue_fraction()
    }

    /// `Some(winner)` when every vertex holds the same opinion.
    pub fn consensus(&self) -> Option<Opinion> {
        consensus(self.blue_count, self.len())
    }

    /// The opinion currently held by a (weak) majority of the vertices; ties
    /// return `None`.
    pub fn current_majority(&self) -> Option<Opinion> {
        let red = self.red_count();
        match red.cmp(&self.blue_count) {
            std::cmp::Ordering::Greater => Some(Opinion::Red),
            std::cmp::Ordering::Less => Some(Opinion::Blue),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// Read-only access to the underlying opinions.
    #[inline]
    pub fn as_slice(&self) -> &[Opinion] {
        &self.opinions
    }

    /// Consumes the configuration and returns the raw opinion vector.
    pub fn into_vec(self) -> Vec<Opinion> {
        self.opinions
    }

    /// Replaces the whole configuration in place (the write-back of a
    /// synchronous step's `next`) and recomputes the counts.
    pub fn overwrite_from(&mut self, other: &[Opinion]) {
        self.opinions.clear();
        self.opinions.extend_from_slice(other);
        self.blue_count = self.opinions.iter().filter(|o| o.is_blue()).count();
    }

    /// The set of vertices currently blue (ascending order).
    pub fn blue_vertices(&self) -> Vec<usize> {
        self.opinions
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_blue())
            .map(|(v, _)| v)
            .collect()
    }
}

/// The fraction `blue / n` (`0.0` when `n = 0`): every blue fraction of a
/// configuration, a packed state, a trace record or a stop check.
pub(crate) fn blue_fraction(blue: usize, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        blue as f64 / n as f64
    }
}

/// The consensus of `n` vertices of which `blue` are blue, if they agree
/// (`None` when `n = 0`).
pub(crate) fn consensus(blue: usize, n: usize) -> Option<Opinion> {
    match blue {
        _ if n == 0 => None,
        0 => Some(Opinion::Red),
        _ if blue == n => Some(Opinion::Blue),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opinion_value_encoding_matches_paper() {
        assert_eq!(Opinion::Red.as_value(), 0);
        assert_eq!(Opinion::Blue.as_value(), 1);
        assert_eq!(Opinion::Red.flipped(), Opinion::Blue);
        assert_eq!(Opinion::Blue.flipped(), Opinion::Red);
        assert!(Opinion::Blue.is_blue());
        assert!(Opinion::Red.is_red());
        assert_eq!(format!("{}/{}", Opinion::Red, Opinion::Blue), "R/B");
    }

    #[test]
    fn majority_of_three() {
        use Opinion::{Blue as B, Red as R};
        assert_eq!(Opinion::majority3(R, R, R), R);
        assert_eq!(Opinion::majority3(R, R, B), R);
        assert_eq!(Opinion::majority3(R, B, B), B);
        assert_eq!(Opinion::majority3(B, B, B), B);
        assert_eq!(Opinion::majority3(B, R, B), B);
    }

    #[test]
    fn configuration_counts_and_fractions() {
        use Opinion::{Blue as B, Red as R};
        let c = Configuration::new(vec![R, B, B, R, R]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.blue_count(), 2);
        assert_eq!(c.red_count(), 3);
        assert!((c.blue_fraction() - 0.4).abs() < 1e-12);
        assert!((c.red_bias() - 0.1).abs() < 1e-12);
        assert_eq!(c.current_majority(), Some(R));
        assert_eq!(c.consensus(), None);
        assert_eq!(c.blue_vertices(), vec![1, 2]);
    }

    #[test]
    fn set_keeps_counts_consistent() {
        let mut c = Configuration::all_red(4);
        assert_eq!(c.blue_count(), 0);
        c.set(2, Opinion::Blue);
        assert_eq!(c.blue_count(), 1);
        c.set(2, Opinion::Blue); // no-op
        assert_eq!(c.blue_count(), 1);
        c.set(2, Opinion::Red);
        assert_eq!(c.blue_count(), 0);
        assert_eq!(c.consensus(), Some(Opinion::Red));
    }

    #[test]
    fn consensus_detection() {
        assert_eq!(Configuration::all_red(3).consensus(), Some(Opinion::Red));
        assert_eq!(Configuration::all_blue(3).consensus(), Some(Opinion::Blue));
        assert_eq!(Configuration::new(vec![]).consensus(), None);
        let mut c = Configuration::all_red(3);
        c.set(0, Opinion::Blue);
        assert_eq!(c.consensus(), None);
    }

    #[test]
    fn tie_has_no_majority() {
        use Opinion::{Blue as B, Red as R};
        let c = Configuration::new(vec![R, B, R, B]);
        assert_eq!(c.current_majority(), None);
    }

    #[test]
    fn overwrite_recomputes_counts() {
        use Opinion::{Blue as B, Red as R};
        let mut c = Configuration::all_red(3);
        c.overwrite_from(&[B, B, R]);
        assert_eq!(c.blue_count(), 2);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn empty_configuration_behaviour() {
        let c = Configuration::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.blue_fraction(), 0.0);
        assert_eq!(c.current_majority(), None);
    }

    #[test]
    fn into_vec_round_trip() {
        use Opinion::{Blue as B, Red as R};
        let v = vec![R, B, R];
        let c = Configuration::new(v.clone());
        assert_eq!(c.into_vec(), v);
    }
}
