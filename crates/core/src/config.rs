//! Configuration and errors for the TAP / 2-ECSS algorithms.

use std::fmt;

/// Which reverse-delete variant to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Variant {
    /// Section 3.5: both petals per anchor; dual-positive tree edges are
    /// covered at most **4** times, giving `(8+ε)`-approximate TAP on `G`
    /// and `(9+ε)`-approximate 2-ECSS.
    Basic,
    /// Section 4.6: higher petals only, plus the cleaning phase;
    /// dual-positive tree edges are covered at most **2** times, giving
    /// `(4+ε)`-approximate TAP on `G` and `(5+ε)`-approximate 2-ECSS.
    #[default]
    Improved,
}

/// Configuration of the TAP approximation.
#[derive(Clone, Copy, Debug)]
pub struct TapConfig {
    /// The ε of the approximation guarantee (`> 0`). The forward phase
    /// multiplies duals by `(1 + ε/c)` per iteration, where `c` is the
    /// variant's cover bound.
    pub epsilon: f64,
    /// Reverse-delete variant.
    pub variant: Variant,
}

impl Default for TapConfig {
    fn default() -> Self {
        TapConfig { epsilon: 0.25, variant: Variant::Improved }
    }
}

impl TapConfig {
    /// Cover bound `c` of the configured variant (4 basic, 2 improved).
    pub fn cover_bound(&self) -> u32 {
        match self.variant {
            Variant::Basic => 4,
            Variant::Improved => 2,
        }
    }

    /// The per-iteration dual growth factor `1 + ε' = 1 + ε/c`
    /// (Lemma 3.1 chooses `ε' = ε/c`).
    pub fn epsilon_prime(&self) -> f64 {
        self.epsilon / self.cover_bound() as f64
    }

    /// The TAP approximation guarantee on the input graph `G`:
    /// `2c + ε` (the factor 2 is the virtual-graph loss, Lemma 4.1).
    pub fn tap_guarantee(&self) -> f64 {
        2.0 * self.cover_bound() as f64 + self.epsilon
    }

    /// The 2-ECSS guarantee: `2c + 1 + ε` (Claim 2.1).
    pub fn two_ecss_guarantee(&self) -> f64 {
        self.tap_guarantee() + 1.0
    }
}

/// Configuration of the 2-ECSS approximation (TAP config plus nothing
/// else yet; kept separate for API stability).
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoEcssConfig {
    /// Configuration of the inner TAP solve.
    pub tap: TapConfig,
}

/// Errors from the TAP / 2-ECSS entry points.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TapError {
    /// The input graph is not 2-edge-connected, so no augmentation /
    /// 2-ECSS exists.
    NotTwoEdgeConnected,
    /// `epsilon` was not a positive finite number.
    BadEpsilon,
    /// The run broke an invariant its approximation guarantee rests on
    /// (the message names it). This is a bug, not an input error: the
    /// result is withheld rather than reported with a guarantee it did
    /// not earn.
    InvariantBroken(&'static str),
}

impl fmt::Display for TapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapError::NotTwoEdgeConnected => {
                write!(f, "input graph is not 2-edge-connected")
            }
            TapError::BadEpsilon => write!(f, "epsilon must be a positive finite number"),
            TapError::InvariantBroken(what) => {
                write!(f, "approximation invariant broken: {what}")
            }
        }
    }
}

impl std::error::Error for TapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarantees_follow_the_paper() {
        let improved = TapConfig { epsilon: 0.5, variant: Variant::Improved };
        assert_eq!(improved.cover_bound(), 2);
        assert!((improved.tap_guarantee() - 4.5).abs() < 1e-12);
        assert!((improved.two_ecss_guarantee() - 5.5).abs() < 1e-12);
        assert!((improved.epsilon_prime() - 0.25).abs() < 1e-12);

        let basic = TapConfig { epsilon: 1.0, variant: Variant::Basic };
        assert_eq!(basic.cover_bound(), 4);
        assert!((basic.tap_guarantee() - 9.0).abs() < 1e-12);
        assert!((basic.two_ecss_guarantee() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_improved_quarter() {
        let c = TapConfig::default();
        assert_eq!(c.variant, Variant::Improved);
        assert!((c.epsilon - 0.25).abs() < 1e-12);
    }

    #[test]
    fn errors_display() {
        assert!(!format!("{}", TapError::NotTwoEdgeConnected).is_empty());
        assert!(!format!("{}", TapError::BadEpsilon).is_empty());
        assert!(!format!("{}", TapError::InvariantBroken("x")).is_empty());
    }
}
