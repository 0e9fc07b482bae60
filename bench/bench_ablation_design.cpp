// Design-choice ablations (DESIGN.md §6) — beyond the paper's own Table 4.
//
// On MedDialog (bursty) and ALPACA (diverse), compares:
//   A. Replacement rule:  Pareto dominance (paper) vs. weighted-sum scoring
//   B. Embedding source:  LLM last hidden layer (paper) vs. bag-of-words
//   C. Sanity check:      reject-below threshold (paper intent) vs.
//                         reject-above (paper's literal wording) vs.
//                         no synthesis at all
//   D. Annotation budget: unlimited (paper) vs. half vs. quarter of the
//                         expected selections
#include "bench_common.h"

using namespace odlp;

namespace {

struct Variant {
  const char* name;
  void (*apply)(exp::ExperimentConfig&);
};

const Variant kVariants[] = {
    {"paper (Pareto,LLM-emb,reject-below)", [](exp::ExperimentConfig&) {}},
    {"A: weighted-sum replacement",
     [](exp::ExperimentConfig& c) { c.method = "WeightedSum"; }},
    {"B: bag-of-words embeddings",
     [](exp::ExperimentConfig& c) { c.embedding_source = "bow"; }},
    {"C1: sanity reject-above 0.9",
     [](exp::ExperimentConfig& c) {
       c.sanity_mode = core::SanityCheckMode::kRejectAbove;
       c.sanity_threshold = 0.9;
     }},
    {"C2: no synthesis",
     [](exp::ExperimentConfig& c) { c.synth_per_set = 0; }},
    {"D1: annotation budget 48",
     [](exp::ExperimentConfig& c) { c.annotation_budget = 48; }},
    {"D2: annotation budget 16",
     [](exp::ExperimentConfig& c) { c.annotation_budget = 16; }},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header("Design ablations",
                      "replacement rule / embedding source / sanity mode / "
                      "annotation budget",
                      opt);

  for (const char* dataset : {"MedDialog", "ALPACA"}) {
    util::Table table({"variant", "ROUGE-1", "annotations", "synth_used"});
    for (const auto& variant : kVariants) {
      exp::ExperimentConfig config = bench::standard_config(opt);
      config.dataset = dataset;
      config.method = "Ours";
      config.record_curve = false;
      config.eval_repeats = 1;  // 14-cell sweep: single-pass evaluation
      variant.apply(config);
      const exp::ExperimentResult r = exp::run_experiment(config);
      table.row()
          .cell(variant.name)
          .cell(r.final_rouge, 4)
          .cell(static_cast<long long>(r.engine_stats.annotations_made))
          .cell(static_cast<long long>(r.engine_stats.synthesized_used));
      std::fprintf(stderr, "  [ablation] %s / %s: %.4f (%.0fs)\n", dataset,
                   variant.name, r.final_rouge, r.wall_seconds);
    }
    std::printf("--- %s ---\n%s\n", dataset, table.to_string().c_str());
  }
  return 0;
}
