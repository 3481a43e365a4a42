//! Small discrete samplers used by the corpus generator.
//!
//! `rand` (without `rand_distr`) ships only uniform primitives; the
//! generator needs geometric, Poisson and binomial draws. These are
//! textbook implementations chosen for the regimes the corpus model
//! actually hits: term rates are tiny for all but the head of the
//! Zipf vocabulary, so the binomial sampler dispatches to a Poisson
//! approximation for rare terms and a normal approximation for the
//! heavy head, falling back to exact Bernoulli summation only for
//! small corpora where it is cheap.

use rand::Rng;

/// Number of extra occurrences beyond the first: samples `G` with
/// `P(G = j) = (1 - p) · pʲ` where `p` is the *continuation*
/// probability. This is the paper's per-document term-occurrence model
/// conditioned on the term being present (§5.1: occurrences are "drawn
/// from a geometric distribution with a stopping probability of
/// 1 − F(tᵢ)").
pub fn geometric_extra<R: Rng + ?Sized>(rng: &mut R, p: f64) -> u32 {
    debug_assert!((0.0..1.0).contains(&p));
    if p <= 0.0 {
        return 0;
    }
    // Inversion: G = floor(ln U / ln p).
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let g = (u.ln() / p.ln()).floor();
    // Cap defensively; tf beyond 255 carries no ranking signal and a
    // pathological p ≈ 1 must not produce unbounded tf.
    g.min(255.0) as u32
}

/// Poisson sample via Knuth's product-of-uniforms method (mean < 30)
/// or a rounded normal approximation (mean ≥ 30).
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    debug_assert!(mean >= 0.0);
    if mean <= 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let limit = (-mean).exp();
        let mut k = 0u64;
        let mut prod: f64 = rng.gen();
        while prod > limit {
            k += 1;
            prod *= rng.gen::<f64>();
        }
        k
    } else {
        let z = normal_unit(rng);
        let v = mean + z * mean.sqrt();
        v.round().max(0.0) as u64
    }
}

/// Binomial(n, p) sample.
///
/// Dispatch: exact Bernoulli summation for small `n`, Poisson
/// approximation when `p` is tiny, otherwise normal approximation —
/// each in the regime where its error is negligible for corpus
/// synthesis purposes.
pub fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p));
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    if n <= 64 {
        let mut k = 0;
        for _ in 0..n {
            if rng.gen::<f64>() < p {
                k += 1;
            }
        }
        k
    } else if p < 0.01 && mean < 1e6 {
        poisson(rng, mean).min(n)
    } else {
        let var = mean * (1.0 - p);
        let z = normal_unit(rng);
        let v = mean + z * var.sqrt();
        (v.round().max(0.0) as u64).min(n)
    }
}

/// Standard normal via Box–Muller.
pub fn normal_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples `k` distinct values from `0..n` (Floyd's algorithm for
/// sparse draws, Bernoulli scan for dense ones). The result is sorted.
pub fn distinct_sorted<R: Rng + ?Sized>(rng: &mut R, n: u64, k: u64) -> Vec<u64> {
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    if k * 8 <= n {
        // Floyd's algorithm: k draws, great when k << n. The set is an
        // n-bit bitset, so reading its bits back in word order yields
        // the sample already sorted.
        let mut bits = vec![0u64; n.div_ceil(64) as usize];
        let mut insert = |x: u64| {
            let (w, b) = ((x / 64) as usize, 1u64 << (x % 64));
            let fresh = bits[w] & b == 0;
            bits[w] |= b;
            fresh
        };
        for j in (n - k)..n {
            let t = rng.gen_range(0..=j);
            if !insert(t) {
                insert(j);
            }
        }
        let mut v = Vec::with_capacity(k as usize);
        for (w, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                v.push(w as u64 * 64 + u64::from(word.trailing_zeros()));
                word &= word - 1;
            }
        }
        v
    } else {
        // Dense: sequential selection sampling (Knuth algorithm S),
        // exact and already sorted.
        let mut v = Vec::with_capacity(k as usize);
        let mut remaining = k;
        for i in 0..n {
            let left = n - i;
            if rng.gen_range(0..left) < remaining {
                v.push(i);
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The hash-set Floyd sampler the bitset replaced: the reference
    /// [`distinct_sorted`] must reproduce draw for draw.
    fn distinct_sorted_hashset<R: Rng + ?Sized>(rng: &mut R, n: u64, k: u64) -> Vec<u64> {
        let k = k.min(n);
        if k == 0 || k * 8 > n {
            return distinct_sorted(rng, n, k);
        }
        let mut set = std::collections::HashSet::with_capacity(k as usize);
        for j in (n - k)..n {
            let t = rng.gen_range(0..=j);
            if !set.insert(t) {
                set.insert(j);
            }
        }
        let mut v: Vec<u64> = set.into_iter().collect();
        v.sort_unstable();
        v
    }

    // Same sample and same RNG stream afterwards, on the sparse branch
    // and across its boundary with the dense one.
    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn bitset_floyd_matches_the_hashset_reference(
            seed in 0u64..u64::MAX,
            n in 1u64..5_000,
            share in 0u64..200,
        ) {
            let k = n * share / 1_000;
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            prop_assert_eq!(distinct_sorted(&mut a, n, k), distinct_sorted_hashset(&mut b, n, k));
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn geometric_mean_matches() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = 0.4;
        let n = 200_000;
        let total: u64 = (0..n)
            .map(|_| u64::from(geometric_extra(&mut rng, p)))
            .sum();
        let mean = total as f64 / n as f64;
        let want = p / (1.0 - p);
        assert!((mean - want).abs() < 0.02, "mean {mean} want {want}");
    }

    #[test]
    fn geometric_zero_rate() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(geometric_extra(&mut rng, 0.0), 0);
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut rng = StdRng::seed_from_u64(3);
        for mean in [0.5, 5.0, 100.0] {
            let n = 100_000;
            let total: u64 = (0..n).map(|_| poisson(&mut rng, mean)).sum();
            let got = total as f64 / n as f64;
            assert!(
                (got - mean).abs() < mean.max(1.0) * 0.05,
                "mean {got} want {mean}"
            );
        }
    }

    #[test]
    fn binomial_bounds_and_mean() {
        let mut rng = StdRng::seed_from_u64(4);
        for (n, p) in [(50u64, 0.5), (10_000, 0.001), (10_000, 0.3)] {
            let trials = 20_000;
            let mut total = 0u64;
            for _ in 0..trials {
                let b = binomial(&mut rng, n, p);
                assert!(b <= n);
                total += b;
            }
            let got = total as f64 / trials as f64;
            let want = n as f64 * p;
            assert!(
                (got - want).abs() < want.max(1.0) * 0.05,
                "n={n} p={p}: mean {got} want {want}"
            );
        }
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(binomial(&mut rng, 100, 1.0), 100);
    }

    #[test]
    fn distinct_sorted_is_distinct_and_sorted() {
        let mut rng = StdRng::seed_from_u64(6);
        for (n, k) in [(100u64, 5u64), (100, 90), (1000, 1000), (10, 0)] {
            let v = distinct_sorted(&mut rng, n, k);
            assert_eq!(v.len() as u64, k.min(n));
            assert!(v.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
            assert!(v.iter().all(|&x| x < n));
        }
    }

    #[test]
    fn distinct_sorted_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut hits = vec![0u32; 100];
        for _ in 0..2000 {
            for x in distinct_sorted(&mut rng, 100, 10) {
                hits[x as usize] += 1;
            }
        }
        // Each position expects 200 hits; allow generous slack.
        assert!(hits.iter().all(|&h| (100..320).contains(&h)), "{hits:?}");
    }
}
