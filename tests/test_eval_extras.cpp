// Significance testing and stream transforms.
#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/stream.h"
#include "data/stream_transforms.h"
#include "eval/significance.h"

namespace odlp {
namespace {

// --------------------------- significance ---------------------------------

TEST(PairedBootstrap, ClearWinnerHasHighWinRate) {
  std::vector<double> a, b;
  util::Rng rng(1);
  for (int i = 0; i < 40; ++i) {
    const double base = rng.uniform();
    b.push_back(base);
    a.push_back(base + 0.2 + rng.normal(0.0, 0.02));
  }
  util::Rng boot(2);
  const auto r = eval::paired_bootstrap(a, b, boot, 1000);
  EXPECT_GT(r.win_rate, 0.99);
  EXPECT_GT(r.delta_ci_low, 0.1);
  EXPECT_NEAR(r.mean_delta, 0.2, 0.05);
}

TEST(PairedBootstrap, IdenticalVectorsAreATie) {
  std::vector<double> a = {0.1, 0.5, 0.9, 0.3};
  util::Rng boot(3);
  const auto r = eval::paired_bootstrap(a, a, boot, 500);
  EXPECT_DOUBLE_EQ(r.mean_delta, 0.0);
  EXPECT_DOUBLE_EQ(r.win_rate, 0.0);  // delta never strictly positive
  EXPECT_DOUBLE_EQ(r.delta_ci_low, 0.0);
  EXPECT_DOUBLE_EQ(r.delta_ci_high, 0.0);
}

TEST(PairedBootstrap, NoisyEqualMethodsHaveMiddlingWinRate) {
  std::vector<double> a, b;
  util::Rng rng(4);
  for (int i = 0; i < 60; ++i) {
    a.push_back(rng.uniform());
    b.push_back(rng.uniform());
  }
  util::Rng boot(5);
  const auto r = eval::paired_bootstrap(a, b, boot, 1500);
  EXPECT_GT(r.win_rate, 0.05);
  EXPECT_LT(r.win_rate, 0.95);
  EXPECT_LT(r.delta_ci_low, 0.0);
  EXPECT_GT(r.delta_ci_high, 0.0);
}

TEST(PairedBootstrap, DeterministicUnderSeed) {
  std::vector<double> a = {0.2, 0.4, 0.6}, b = {0.1, 0.5, 0.4};
  util::Rng r1(6), r2(6);
  const auto x = eval::paired_bootstrap(a, b, r1, 300);
  const auto y = eval::paired_bootstrap(a, b, r2, 300);
  EXPECT_DOUBLE_EQ(x.win_rate, y.win_rate);
  EXPECT_DOUBLE_EQ(x.delta_ci_low, y.delta_ci_low);
}

TEST(SignTest, AllWinsIsSignificant) {
  std::vector<double> a = {1, 1, 1, 1, 1, 1, 1, 1};
  std::vector<double> b = {0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_LT(eval::sign_test_p_value(a, b), 0.01);
}

TEST(SignTest, BalancedWinsNotSignificant) {
  std::vector<double> a = {1, 0, 1, 0, 1, 0};
  std::vector<double> b = {0, 1, 0, 1, 0, 1};
  EXPECT_GT(eval::sign_test_p_value(a, b), 0.5);
}

TEST(SignTest, AllTiesReturnsOne) {
  std::vector<double> a = {0.5, 0.5};
  EXPECT_DOUBLE_EQ(eval::sign_test_p_value(a, a), 1.0);
}

TEST(SignTest, MatchesKnownBinomial) {
  // 6 wins, 0 losses: two-sided p = 2 * (1/2)^6 = 0.03125.
  std::vector<double> a = {1, 1, 1, 1, 1, 1};
  std::vector<double> b = {0, 0, 0, 0, 0, 0};
  EXPECT_NEAR(eval::sign_test_p_value(a, b), 2.0 / 64.0, 1e-9);
}

// ------------------------- stream transforms ------------------------------


data::DialogueStream sample_stream(std::size_t n, std::uint64_t seed) {
  data::UserOracle oracle(seed, lexicon::builtin_dictionary());
  data::Generator gen(data::meddialog_profile(), oracle, util::Rng(seed));
  return gen.generate(n, 0).stream;
}

TEST(StreamTransforms, InterleaveRoundRobinsAndRenumbers) {
  const auto a = sample_stream(4, 1);
  const auto b = sample_stream(2, 2);
  const auto merged = data::interleave({&a, &b});
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_EQ(merged[0].question, a[0].question);
  EXPECT_EQ(merged[1].question, b[0].question);
  EXPECT_EQ(merged[2].question, a[1].question);
  EXPECT_EQ(merged[3].question, b[1].question);
  EXPECT_EQ(merged[4].question, a[2].question);  // b exhausted
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].stream_position, i);
  }
}

TEST(StreamTransforms, InjectNoiseIncreasesNoiseRate) {
  auto stream = sample_stream(100, 3);
  data::UserOracle oracle(3, lexicon::builtin_dictionary());
  util::Rng rng(4);
  const auto noisy = data::inject_noise(stream, 0.5, oracle, rng);
  EXPECT_GT(noisy.size(), stream.size());
  const auto before = data::compute_stream_stats(stream);
  const auto after = data::compute_stream_stats(noisy);
  EXPECT_GT(after.noise, before.noise);
}

TEST(StreamTransforms, ShuffleDestroysTemporalCorrelation) {
  auto stream = sample_stream(400, 5);
  util::Rng rng(6);
  const auto iid = data::shuffled(stream, rng);
  const auto before = data::compute_stream_stats(stream);
  const auto after = data::compute_stream_stats(iid);
  EXPECT_EQ(after.total, before.total);
  EXPECT_EQ(after.noise, before.noise);
  EXPECT_LT(after.subtopic_repeat_rate, before.subtopic_repeat_rate * 0.5);
}

TEST(StreamTransforms, EveryKthSubsamples) {
  const auto stream = sample_stream(10, 7);
  const auto half = data::every_kth(stream, 2);
  ASSERT_EQ(half.size(), 5u);
  EXPECT_EQ(half[1].question, stream[2].question);
  const auto all = data::every_kth(stream, 1);
  EXPECT_EQ(all.size(), stream.size());
}

TEST(StreamTransforms, ReversedFlipsOrder) {
  const auto stream = sample_stream(5, 8);
  const auto rev = data::reversed(stream);
  ASSERT_EQ(rev.size(), 5u);
  EXPECT_EQ(rev.front().question, stream.back().question);
  EXPECT_EQ(rev.front().stream_position, 0u);
}

}  // namespace
}  // namespace odlp
