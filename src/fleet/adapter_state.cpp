#include "fleet/adapter_state.h"

#include <cassert>
#include <cstring>

#include "util/atomic_file.h"

namespace odlp::fleet {

namespace {

constexpr std::uint32_t kMagic = 0x44414C46u;  // "FLAD"
constexpr std::uint32_t kVersion = 1;

// The trainable parameters of a LoRA-attached model, in site order
// (a then b per site) — the shared ordering contract between extract and
// install, and the order optimizer moments are serialized in.
nn::ParameterList lora_parameters(llm::MiniLlm& model) {
  nn::ParameterList params;
  for (nn::Linear* site : model.lora_linears()) {
    assert(site->has_lora());
    params.push_back(&site->mutable_lora_a());
    params.push_back(&site->mutable_lora_b());
  }
  return params;
}

void write_tensor(util::AtomicFileWriter& writer, const tensor::Tensor& t) {
  writer.write_pod(static_cast<std::uint64_t>(t.rows()));
  writer.write_pod(static_cast<std::uint64_t>(t.cols()));
  if (t.size() > 0) writer.write(t.data(), t.size() * sizeof(float));
}

tensor::Tensor read_tensor(util::ByteReader& reader) {
  const auto rows = static_cast<std::size_t>(reader.pod<std::uint64_t>());
  const auto cols = static_cast<std::size_t>(reader.pod<std::uint64_t>());
  if (rows == 0 || cols == 0) return tensor::Tensor();
  if (rows * cols > (std::size_t(1) << 28)) {
    throw util::CorruptionError("adapter state: implausible tensor shape");
  }
  tensor::Tensor t(rows, cols);
  reader.read(t.data(), t.size() * sizeof(float));
  return t;
}

}  // namespace

std::size_t AdapterState::bytes() const {
  std::size_t n = sizeof(opt_step_count);
  for (const Site& s : sites) {
    n += (s.a.size() + s.b.size() + s.m_a.size() + s.v_a.size() +
          s.m_b.size() + s.v_b.size()) *
         sizeof(float);
  }
  return n;
}

AdapterState extract_adapter_state(llm::MiniLlm& model, llm::Trainer& trainer) {
  AdapterState state;
  const nn::ParameterList params = lora_parameters(model);
  const std::vector<nn::AdamW::State> moments =
      trainer.optimizer().export_state(params);
  state.opt_step_count = trainer.optimizer().step_count();
  state.sites.resize(params.size() / 2);
  for (std::size_t i = 0; i < state.sites.size(); ++i) {
    AdapterState::Site& s = state.sites[i];
    s.a = params[2 * i]->value;
    s.b = params[2 * i + 1]->value;
    s.m_a = moments[2 * i].m;
    s.v_a = moments[2 * i].v;
    s.m_b = moments[2 * i + 1].m;
    s.v_b = moments[2 * i + 1].v;
  }
  return state;
}

void install_adapter_state(const AdapterState& state, llm::MiniLlm& model,
                           llm::Trainer& trainer) {
  const nn::ParameterList params = lora_parameters(model);
  assert(params.size() == state.sites.size() * 2);
  std::vector<nn::AdamW::State> moments(params.size());
  for (std::size_t i = 0; i < state.sites.size(); ++i) {
    const AdapterState::Site& s = state.sites[i];
    params[2 * i]->value = s.a;
    params[2 * i + 1]->value = s.b;
    moments[2 * i] = {s.m_a, s.v_a};
    moments[2 * i + 1] = {s.m_b, s.v_b};
  }
  trainer.optimizer().import_state(params, std::move(moments),
                                   state.opt_step_count);
}

void save_adapter_state(const AdapterState& state, const std::string& path) {
  util::AtomicFileWriter writer(path);
  writer.write_pod(kMagic);
  writer.write_pod(kVersion);
  writer.write_pod(static_cast<std::uint64_t>(state.sites.size()));
  writer.write_pod(static_cast<std::int64_t>(state.opt_step_count));
  for (const AdapterState::Site& s : state.sites) {
    write_tensor(writer, s.a);
    write_tensor(writer, s.b);
    write_tensor(writer, s.m_a);
    write_tensor(writer, s.v_a);
    write_tensor(writer, s.m_b);
    write_tensor(writer, s.v_b);
  }
  writer.write_footer();
  writer.commit();
}

AdapterState load_adapter_state(const std::string& path) {
  const std::vector<unsigned char> bytes = util::read_file(path);
  const std::size_t payload = util::check_footer(bytes, "adapter spill " + path);
  util::ByteReader reader(bytes.data(), payload, "adapter spill " + path);
  if (reader.pod<std::uint32_t>() != kMagic) {
    throw util::CorruptionError("adapter spill: bad magic in " + path);
  }
  if (reader.pod<std::uint32_t>() != kVersion) {
    throw util::CorruptionError("adapter spill: unsupported version in " + path);
  }
  const auto num_sites = static_cast<std::size_t>(reader.pod<std::uint64_t>());
  if (num_sites > 4096) {
    throw util::CorruptionError("adapter spill: implausible site count");
  }
  AdapterState state;
  state.opt_step_count = static_cast<long long>(reader.pod<std::int64_t>());
  state.sites.resize(num_sites);
  for (AdapterState::Site& s : state.sites) {
    s.a = read_tensor(reader);
    s.b = read_tensor(reader);
    s.m_a = read_tensor(reader);
    s.v_a = read_tensor(reader);
    s.m_b = read_tensor(reader);
    s.v_b = read_tensor(reader);
  }
  return state;
}

}  // namespace odlp::fleet
