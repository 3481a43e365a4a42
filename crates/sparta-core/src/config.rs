//! Search configuration.

use std::time::Duration;

/// Parameters of one top-k search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Result-set size k. The paper uses k = 1000 (§5.1).
    pub k: usize,
    /// Δ-stopping for the TA family: stop once the heap has not
    /// changed for this long (§4: "stopping after the heap does not
    /// change for some Δ time"). `None` = exact (Δ = ∞).
    pub delta: Option<Duration>,
    /// Posting-list segment size for Sparta/pRA/pNRA/pJASS job
    /// granularity (§4.2). "In case m threads are available, a large
    /// segment size can be used."
    pub seg_size: usize,
    /// Sparta's Φ: `docMap` size below which workers clone term-local
    /// maps ("in our implementation, Φ = 10K entries", §4.3).
    pub phi: usize,
    /// pBMW's pruning relaxation factor f ≥ 1 (f = 1 ⇒ exact; the
    /// paper uses f = 5 for high recall, f = 10 for low, §5.3).
    pub bmw_f: f64,
    /// pJASS's traversed-postings fraction p ∈ (0, 1] (p = 1 ⇒ exact;
    /// the paper uses p = 0.02 high / p = 0.005 low, §5.3).
    pub jass_p: f64,
    /// Record a heap trace for recall-dynamics analysis (Fig. 3f/3g),
    /// stamped with the executor's clock
    /// ([`Executor::clock_mode`](sparta_exec::Executor::clock_mode)).
    pub trace: bool,
    /// Probabilistic-pruning factor γ ∈ (0, 1] for Sparta's cleaner —
    /// the extension the paper leaves as future work (§6, after
    /// Theobald et al.'s probabilistic TA): unknown term contributions
    /// are *estimated* as `γ·UB[i]` instead of bounded by `UB[i]`
    /// when deciding whether a candidate can still reach the top-k.
    /// `γ = 1` is the paper's safe rule; smaller γ prunes candidates
    /// that are unlikely (rather than unable) to qualify, trading
    /// recall for convergence speed. `None` ⇒ safe.
    pub prune_gamma: Option<f64>,
    /// Per-query tag stamped onto the job queue a search creates
    /// (0 = untagged). The query server derives one config per request
    /// from a shared template and tags it with the request id, so a
    /// queue multiplexed through the shared pool stays attributable.
    pub query_tag: u64,
}

impl SearchConfig {
    /// Exact configuration with the paper's defaults.
    pub fn exact(k: usize) -> Self {
        Self {
            k,
            delta: None,
            seg_size: 1024,
            phi: 10_000,
            bmw_f: 1.0,
            jass_p: 1.0,
            trace: false,
            prune_gamma: None,
            query_tag: 0,
        }
    }

    /// Builder: sets Δ.
    pub fn with_delta(mut self, delta: Option<Duration>) -> Self {
        self.delta = delta;
        self
    }

    /// Builder: sets the segment size.
    pub fn with_seg_size(mut self, seg_size: usize) -> Self {
        assert!(seg_size >= 1);
        self.seg_size = seg_size;
        self
    }

    /// Builder: sets Φ.
    pub fn with_phi(mut self, phi: usize) -> Self {
        self.phi = phi;
        self
    }

    /// Builder: sets pBMW's f.
    pub fn with_bmw_f(mut self, f: f64) -> Self {
        assert!(f >= 1.0);
        self.bmw_f = f;
        self
    }

    /// Builder: sets pJASS's p.
    pub fn with_jass_p(mut self, p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0);
        self.jass_p = p;
        self
    }

    /// Builder: enables heap tracing.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Builder: sets k. A long-lived service holds one template config
    /// and derives each request's config from it (`template.with_k(…)`),
    /// so per-request reuse never mutates shared state.
    pub fn with_k(mut self, k: usize) -> Self {
        assert!(k >= 1);
        self.k = k;
        self
    }

    /// Builder: sets the per-query tag stamped onto the search's job
    /// queue (see [`SearchConfig::query_tag`]).
    pub fn with_query_tag(mut self, tag: u64) -> Self {
        self.query_tag = tag;
        self
    }

    /// Builder: sets Sparta's probabilistic-pruning factor γ.
    ///
    /// # Panics
    /// Panics unless `0 < γ <= 1`.
    pub fn with_prune_gamma(mut self, gamma: f64) -> Self {
        assert!(gamma > 0.0 && gamma <= 1.0, "γ must be in (0, 1]");
        self.prune_gamma = Some(gamma);
        self
    }

    /// Whether this is an exact (safe) configuration for the TA family.
    pub fn is_exact(&self) -> bool {
        self.delta.is_none()
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self::exact(1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_defaults_match_paper() {
        let c = SearchConfig::exact(1000);
        assert_eq!(c.k, 1000);
        assert!(c.is_exact());
        assert_eq!(c.phi, 10_000);
        assert_eq!(c.bmw_f, 1.0);
        assert_eq!(c.jass_p, 1.0);
    }

    #[test]
    fn template_reuse_derives_per_query_configs() {
        let template = SearchConfig::exact(1000).with_seg_size(512).with_phi(4096);
        let a = template.with_k(10).with_query_tag(7);
        let b = template.with_k(100).with_query_tag(8);
        assert_eq!(a.k, 10);
        assert_eq!(a.query_tag, 7);
        assert_eq!(b.k, 100);
        assert_eq!(b.query_tag, 8);
        // The template itself is untouched (Copy semantics).
        assert_eq!(template.k, 1000);
        assert_eq!(template.query_tag, 0);
        assert_eq!(a.seg_size, template.seg_size);
        assert_eq!(a.phi, template.phi);
    }

    #[test]
    #[should_panic]
    fn invalid_k_rejected() {
        let _ = SearchConfig::exact(10).with_k(0);
    }

    #[test]
    #[should_panic]
    fn invalid_jass_p_rejected() {
        let _ = SearchConfig::exact(10).with_jass_p(0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_bmw_f_rejected() {
        let _ = SearchConfig::exact(10).with_bmw_f(0.5);
    }
}
