//! The four query algorithms of the paper's evaluation:
//!
//! | Name | Paper | Pruning | Index needed |
//! |------|-------|---------|--------------|
//! | [`Algorithm::Base`] | "Base" | none (naive forward) | — |
//! | [`Algorithm::LonaForward`] | Algorithm 1 | Eq. 1/2 differential bounds | diff + size |
//! | [`Algorithm::BackwardNaive`] | Algorithm 2 | skips zero-score distributors | size (AVG only) |
//! | [`Algorithm::LonaBackward`] | §IV | Eq. 3 partial distribution + TA verification | size (AVG or γ > 0) |

pub(crate) mod backward_naive;
pub(crate) mod base_forward;
pub(crate) mod context;
pub(crate) mod lona_backward;
pub(crate) mod lona_forward;

use lona_relevance::ScoreVec;

/// Node processing order for forward algorithms. Algorithm 1 leaves
/// the queue order unspecified; the ordering ablation (A1) measures
/// the difference.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ProcessingOrder {
    /// Ascending node id (what a plain queue of all nodes gives).
    #[default]
    NodeId,
    /// Highest-degree nodes first: big neighborhoods are evaluated
    /// early, raising `topklbound` quickly.
    DegreeDescending,
    /// Highest relevance score first.
    ScoreDescending,
}

impl ProcessingOrder {
    /// Short name for bench ids.
    pub fn name(self) -> &'static str {
        match self {
            ProcessingOrder::NodeId => "id",
            ProcessingOrder::DegreeDescending => "degree",
            ProcessingOrder::ScoreDescending => "score",
        }
    }
}

/// Options for [`Algorithm::LonaForward`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ForwardOptions {
    /// Processing order of the node queue.
    pub order: ProcessingOrder,
}

/// How the backward threshold γ is chosen. The paper only says
/// "a subset of nodes whose score is higher than a given threshold γ".
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub enum GammaSpec {
    /// Workload-adaptive default: distribute every non-zero node
    /// (γ = 0, exact bounds, zero verification) when no more than a
    /// quarter of the graph scores non-zero — the sparse regime of
    /// every application the paper motivates — otherwise pick the
    /// quantile that caps distribution at a quarter of the graph.
    /// Distribution cost is linear in the distributed mass while
    /// verification concentrates on the *most expensive* hub
    /// neighborhoods, so erring toward more distribution pays;
    /// ablation A2 measures the trade-off this rule navigates.
    #[default]
    Auto,
    /// Use this γ verbatim.
    Fixed(f64),
    /// γ = the given quantile of the *non-zero* scores, so the top
    /// `1 − q` fraction of scoring nodes distribute. When heavy mass
    /// at the maximum score pushes the quantile up to the max (which
    /// would leave nothing to distribute under the strict `f > γ`
    /// rule), γ drops to the largest score strictly below the max —
    /// exactly the max-scorers distribute. Pure binary scores have no
    /// such value and fall through to γ = 0 (distribute every
    /// non-zero node — the exact fast path).
    NonzeroQuantile(f64),
}

impl GammaSpec {
    /// Resolve to a concrete γ for a score distribution.
    pub fn resolve(self, scores: &ScoreVec) -> f64 {
        self.resolve_slice(scores.as_slice())
    }

    /// Resolve against a raw score slice.
    pub fn resolve_slice(self, scores: &[f64]) -> f64 {
        match self {
            GammaSpec::Auto => {
                let n = scores.len();
                let nonzero = scores.iter().filter(|&&s| s > 0.0).count();
                let cap = n / 4;
                if nonzero <= cap.max(1) {
                    0.0
                } else {
                    let q = 1.0 - cap as f64 / nonzero as f64;
                    GammaSpec::NonzeroQuantile(q).resolve_slice(scores)
                }
            }
            GammaSpec::Fixed(g) => {
                assert!(g >= 0.0, "gamma must be non-negative");
                g
            }
            GammaSpec::NonzeroQuantile(q) => {
                let mut nz: Vec<f64> = scores.iter().copied().filter(|&s| s > 0.0).collect();
                if nz.is_empty() {
                    return 0.0;
                }
                // total_cmp: a stray NaN must not panic γ resolution.
                nz.sort_unstable_by(|a, b| a.total_cmp(b));
                let idx = ((nz.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
                let gamma = nz[idx];
                let max = *nz.last().unwrap();
                if gamma < max {
                    gamma
                } else {
                    // Quantile sits in the max-score mass; distribute
                    // the max-scorers only (or everything for binary).
                    nz.iter().rev().find(|&&s| s < max).copied().unwrap_or(0.0)
                }
            }
        }
    }
}

/// Options for [`Algorithm::LonaBackward`].
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct BackwardOptions {
    /// Distribution threshold.
    pub gamma: GammaSpec,
}

/// Algorithm selector, carrying per-algorithm options. The worker
/// count is not part of the selector: every algorithm runs one worker
/// loop on however many workers its caller passes (see
/// [`crate::LonaEngine::run_threads`]), and one worker is the serial
/// algorithm of the paper.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Algorithm {
    /// Naive forward processing: evaluate every node exactly.
    Base,
    /// Forward processing with differential-index pruning
    /// (Algorithm 1).
    LonaForward(ForwardOptions),
    /// Naive backward distribution (Algorithm 2): every non-zero node
    /// scatters its score; exact results.
    BackwardNaive,
    /// Partial backward distribution above γ with threshold-algorithm
    /// verification (§IV).
    LonaBackward(BackwardOptions),
}

impl Algorithm {
    /// The LONA-Forward default configuration.
    pub fn forward() -> Self {
        Algorithm::LonaForward(ForwardOptions::default())
    }

    /// The LONA-Backward default configuration.
    pub fn backward() -> Self {
        Algorithm::LonaBackward(BackwardOptions::default())
    }

    /// Short name used in reports ("Base", "Forward", "Backward",
    /// matching the paper's figure legends, plus "BackwardNaive").
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Base => "Base",
            Algorithm::LonaForward(_) => "Forward",
            Algorithm::BackwardNaive => "BackwardNaive",
            Algorithm::LonaBackward(_) => "Backward",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_fixed_passthrough() {
        let s = ScoreVec::new(vec![0.1, 0.9]);
        assert_eq!(GammaSpec::Fixed(0.3).resolve(&s), 0.3);
    }

    #[test]
    fn gamma_quantile_of_nonzero() {
        let s = ScoreVec::new(vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0]);
        let g = GammaSpec::NonzeroQuantile(0.5).resolve(&s);
        assert_eq!(g, 0.6);
    }

    #[test]
    fn gamma_binary_falls_back_to_zero() {
        // All non-zero scores identical: quantile == max -> γ = 0.
        let s = ScoreVec::new(vec![0.0, 1.0, 1.0, 0.0]);
        assert_eq!(GammaSpec::NonzeroQuantile(0.9).resolve(&s), 0.0);
    }

    #[test]
    fn gamma_empty_scores() {
        let s = ScoreVec::zeros(4);
        assert_eq!(GammaSpec::default().resolve(&s), 0.0);
    }

    #[test]
    fn names() {
        assert_eq!(Algorithm::Base.name(), "Base");
        assert_eq!(Algorithm::forward().name(), "Forward");
        assert_eq!(Algorithm::backward().name(), "Backward");
        assert_eq!(Algorithm::BackwardNaive.name(), "BackwardNaive");
    }
}
