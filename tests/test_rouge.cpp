#include <gtest/gtest.h>

#include "eval/rouge.h"

namespace odlp::eval {
namespace {

TEST(Rouge1, IdenticalTextsScoreOne) {
  EXPECT_DOUBLE_EQ(rouge1_f1("the cat sat", "the cat sat"), 1.0);
}

TEST(Rouge1, DisjointTextsScoreZero) {
  EXPECT_DOUBLE_EQ(rouge1_f1("alpha beta", "gamma delta"), 0.0);
}

TEST(Rouge1, KnownPartialOverlap) {
  // candidate: {a b c}, reference: {a b d}: overlap 2, P=R=2/3, F1=2/3.
  EXPECT_NEAR(rouge1_f1("a b c", "a b d"), 2.0 / 3.0, 1e-9);
}

TEST(Rouge1, NormalizationAppliedBeforeScoring) {
  EXPECT_DOUBLE_EQ(rouge1_f1("The CAT, sat!", "the cat sat"), 1.0);
}

TEST(Rouge1, EmptyCandidateOrReference) {
  EXPECT_DOUBLE_EQ(rouge1_f1("", "text here"), 0.0);
  EXPECT_DOUBLE_EQ(rouge1_f1("text here", ""), 0.0);
  EXPECT_DOUBLE_EQ(rouge1_f1("", ""), 0.0);
}

TEST(RougeN, PrecisionRecallAsymmetry) {
  // candidate "a" vs reference "a a a": P=1, R=1/3.
  const RougeScore s = rouge_n("a", "a a a", 1);
  EXPECT_DOUBLE_EQ(s.precision, 1.0);
  EXPECT_NEAR(s.recall, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.f1, 0.5, 1e-9);
}

TEST(RougeN, SymmetricF1) {
  const double ab = rouge1_f1("a b c", "b c d");
  const double ba = rouge1_f1("b c d", "a b c");
  EXPECT_DOUBLE_EQ(ab, ba);
}

TEST(Rouge2, RequiresSharedBigrams) {
  EXPECT_DOUBLE_EQ(rouge_n("a b c", "c b a", 2).f1, 0.0);
  EXPECT_GT(rouge_n("a b c", "a b d", 2).f1, 0.0);
}

TEST(Rouge2, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(rouge_n("x y z w", "x y z w", 2).f1, 1.0);
}

TEST(RougeL, LcsBasedScore) {
  // candidate "a b c d", reference "a c d": LCS = a c d (3).
  const RougeScore s = rouge_l("a b c d", "a c d");
  EXPECT_NEAR(s.precision, 3.0 / 4.0, 1e-9);
  EXPECT_NEAR(s.recall, 1.0, 1e-9);
}

TEST(RougeL, OrderMattersUnlikeRouge1) {
  const double r1 = rouge1_f1("a b c", "c b a");
  const RougeScore rl = rouge_l("a b c", "c b a");
  EXPECT_DOUBLE_EQ(r1, 1.0);
  EXPECT_LT(rl.f1, 1.0);
}

TEST(CorpusRouge, AveragesPairs) {
  const double score = corpus_rouge1({"a b", "x"}, {"a b", "y"});
  EXPECT_NEAR(score, 0.5, 1e-9);  // (1.0 + 0.0) / 2
}

TEST(CorpusRouge, MismatchedSizesReturnZero) {
  EXPECT_DOUBLE_EQ(corpus_rouge1({"a"}, {"a", "b"}), 0.0);
  EXPECT_DOUBLE_EQ(corpus_rouge1({}, {}), 0.0);
}

TEST(RougeTokens, MultisetClipping) {
  // candidate has "the" x3, reference x1: clipped overlap = 1.
  const RougeScore s = rouge_n_tokens({"the", "the", "the"}, {"the"}, 1);
  EXPECT_NEAR(s.precision, 1.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.recall, 1.0);
}

// Property sweep: F1 is always within [0, 1] and equals the harmonic mean.
struct RougeCase {
  const char* label;
  const char* candidate;
  const char* reference;
};

// Print the case by its label. Without this gtest prints the raw bytes of the
// two pointers, and ctest names parameterized tests after that printout, so the
// registered test names would change with every build and every ASLR base.
void PrintTo(const RougeCase& c, std::ostream* os) { *os << c.label; }

class RougeProperties : public ::testing::TestWithParam<RougeCase> {};

TEST_P(RougeProperties, F1WithinBoundsAndHarmonicMean) {
  const auto& c = GetParam();
  for (std::size_t n = 1; n <= 3; ++n) {
    const RougeScore s = rouge_n(c.candidate, c.reference, n);
    EXPECT_GE(s.f1, 0.0);
    EXPECT_LE(s.f1, 1.0);
    EXPECT_GE(s.precision, 0.0);
    EXPECT_LE(s.precision, 1.0);
    EXPECT_GE(s.recall, 0.0);
    EXPECT_LE(s.recall, 1.0);
    if (s.precision + s.recall > 0) {
      EXPECT_NEAR(s.f1, 2 * s.precision * s.recall / (s.precision + s.recall), 1e-12);
    } else {
      EXPECT_DOUBLE_EQ(s.f1, 0.0);
    }
  }
  const RougeScore l = rouge_l(c.candidate, c.reference);
  EXPECT_GE(l.f1, 0.0);
  EXPECT_LE(l.f1, 1.0);
}

TEST_P(RougeProperties, SelfSimilarityIsMaximal) {
  const auto& c = GetParam();
  const double self = rouge1_f1(c.candidate, c.candidate);
  const double cross = rouge1_f1(c.candidate, c.reference);
  if (std::string(c.candidate).empty()) {
    EXPECT_DOUBLE_EQ(self, 0.0);
  } else {
    EXPECT_DOUBLE_EQ(self, 1.0);
    EXPECT_LE(cross, self);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RougeProperties,
    ::testing::Values(
        RougeCase{"partial_overlap", "the quick brown fox", "the lazy dog"},
        RougeCase{"skewed_counts", "a a a b", "a b b b"},
        RougeCase{"empty_candidate", "", "nonempty"},
        RougeCase{"identical_single", "x", "x"},
        RougeCase{"reordered_subset", "one two three four five", "five four three"},
        RougeCase{"clipped_repeats", "repeat repeat repeat", "repeat"},
        RougeCase{"punctuation_case", "Punctuation, RICH! text?", "punctuation rich text"}));

}  // namespace
}  // namespace odlp::eval
