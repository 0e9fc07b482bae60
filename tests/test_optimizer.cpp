#include <gtest/gtest.h>

#include <cmath>

#include "nn/optimizer.h"

namespace odlp::nn {
namespace {

// Minimize f(w) = 0.5 * (w - target)^2 using repeated optimizer steps.
double optimize_quadratic(AdamW& opt, float start, float target, int steps) {
  Parameter p("w", 1, 1);
  p.value.at(0, 0) = start;
  ParameterList params = {&p};
  for (int i = 0; i < steps; ++i) {
    p.grad.at(0, 0) = p.value.at(0, 0) - target;
    opt.step(params);
    p.zero_grad();
  }
  return p.value.at(0, 0);
}

TEST(AdamW, ConvergesOnQuadratic) {
  AdamW::Config cfg;
  cfg.lr = 0.1f;
  cfg.weight_decay = 0.0f;
  AdamW opt(cfg);
  EXPECT_NEAR(optimize_quadratic(opt, 0.0f, 5.0f, 500), 5.0, 0.05);
}

TEST(AdamW, FirstStepMagnitudeIsLr) {
  // With bias correction, the very first Adam step has magnitude ~lr.
  Parameter p("w", 1, 1);
  p.value.at(0, 0) = 0.0f;
  p.grad.at(0, 0) = 123.0f;  // any gradient: Adam normalizes
  AdamW::Config cfg;
  cfg.lr = 0.01f;
  cfg.weight_decay = 0.0f;
  AdamW opt(cfg);
  ParameterList params = {&p};
  opt.step(params);
  EXPECT_NEAR(std::fabs(p.value.at(0, 0)), 0.01, 1e-4);
}

TEST(AdamW, WeightDecayShrinksWeightsWithoutGradient) {
  Parameter p("w", 1, 1);
  p.value.at(0, 0) = 1.0f;
  p.grad.at(0, 0) = 0.0f;
  AdamW::Config cfg;
  cfg.lr = 0.1f;
  cfg.weight_decay = 0.5f;
  AdamW opt(cfg);
  ParameterList params = {&p};
  opt.step(params);
  // Decoupled decay: w -= lr * wd * w = 1 - 0.05.
  EXPECT_NEAR(p.value.at(0, 0), 0.95f, 1e-5);
}

TEST(AdamW, SkipsFrozenParameters) {
  Parameter p("w", 1, 1);
  p.value.at(0, 0) = 2.0f;
  p.set_trainable(false);  // frees grad: a step that read it would fault
  AdamW opt(AdamW::Config{});
  ParameterList params = {&p};
  opt.step(params);
  EXPECT_FLOAT_EQ(p.value.at(0, 0), 2.0f);
}

TEST(AdamW, StepCountAdvances) {
  AdamW opt(AdamW::Config{});
  Parameter p("w", 1, 1);
  ParameterList params = {&p};
  EXPECT_EQ(opt.step_count(), 0);
  opt.step(params);
  opt.step(params);
  EXPECT_EQ(opt.step_count(), 2);
}

TEST(AdamW, LearningRateMutable) {
  AdamW opt(AdamW::Config{});
  opt.set_learning_rate(0.5f);
  EXPECT_FLOAT_EQ(opt.learning_rate(), 0.5f);
}

TEST(AdamW, StatePersistsAcrossSteps) {
  // Two parameters with identical gradients must update identically — and a
  // parameter with oscillating gradients should move more slowly than one
  // with consistent gradients (second-moment damping).
  Parameter consistent("a", 1, 1), oscillating("b", 1, 1);
  AdamW::Config cfg;
  cfg.lr = 0.1f;
  cfg.weight_decay = 0.0f;
  AdamW opt(cfg);
  ParameterList params = {&consistent, &oscillating};
  for (int i = 0; i < 20; ++i) {
    consistent.grad.at(0, 0) = 1.0f;
    oscillating.grad.at(0, 0) = (i % 2 == 0) ? 1.0f : -1.0f;
    opt.step(params);
    zero_grads(params);
  }
  EXPECT_GT(std::fabs(consistent.value.at(0, 0)),
            std::fabs(oscillating.value.at(0, 0)));
}

}  // namespace
}  // namespace odlp::nn
