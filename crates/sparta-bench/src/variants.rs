//! Variant parameterizations (§5.3).
//!
//! The paper instantiates "A-exact", "A-high" (empirical recall ≥ 96%)
//! and "A-low" per algorithm with Δ = 10 ms, f ∈ {5, 10},
//! p ∈ {0.02, 0.005}. Those constants are tuned to ClueWeb at 50M
//! docs on their hardware; on a scaled-down synthetic corpus the same
//! recall operating points correspond to different constants (e.g.
//! smaller f — Θ saturates much faster on a small index). The paper's
//! constants are recorded here — high: Δ = 10 ms, f = 5, p = 0.02;
//! low: Δ = 2 ms, f = 10, p = 0.005 — and the code provides the
//! *calibrated* equivalents that hit the high/low recall bands at this
//! reproduction's scale. EXPERIMENTS.md discusses the mapping.

use sparta_core::config::SearchConfig;
use std::time::Duration;

/// A named parameter set for one experiment cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantParams {
    /// Label suffix ("exact", "high", "low").
    pub label: &'static str,
    /// Δ for the TA family (None = exact).
    pub delta: Option<Duration>,
    /// pBMW pruning factor f.
    pub bmw_f: f64,
    /// pJASS posting fraction p.
    pub jass_p: f64,
    /// Record heap traces.
    pub trace: bool,
}

impl VariantParams {
    /// Exact/safe parameters.
    pub fn exact() -> Self {
        Self {
            label: "exact",
            delta: None,
            bmw_f: 1.0,
            jass_p: 1.0,
            trace: false,
        }
    }

    /// High-recall operating point calibrated for this reproduction's
    /// corpus scale (recall ≥ ~96% on the default 20k-doc corpus).
    pub fn high() -> Self {
        Self {
            label: "high",
            delta: Some(Duration::from_millis(10)),
            bmw_f: 1.1,
            jass_p: 0.9,
            trace: false,
        }
    }

    /// Low-recall operating point calibrated for this scale
    /// (recall ≈ 80%, the paper's pBMW-low band).
    pub fn low() -> Self {
        Self {
            label: "low",
            delta: Some(Duration::from_millis(1)),
            bmw_f: 1.5,
            jass_p: 0.5,
            trace: false,
        }
    }

    /// Enables heap tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Materializes a [`SearchConfig`] for result-set size `k`.
    pub fn config(&self, k: usize) -> SearchConfig {
        SearchConfig::exact(k)
            .with_delta(self.delta)
            .with_bmw_f(self.bmw_f)
            .with_jass_p(self.jass_p)
            .with_trace(self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_is_safe() {
        let c = VariantParams::exact().config(100);
        assert!(c.is_exact());
        assert_eq!(c.bmw_f, 1.0);
        assert_eq!(c.jass_p, 1.0);
    }

    #[test]
    fn calibrated_low_prunes_harder_than_high() {
        let (h, l) = (VariantParams::high(), VariantParams::low());
        assert!(l.bmw_f > h.bmw_f);
        assert!(l.jass_p < h.jass_p);
    }
}
