// Shared pieces of the end-to-end benchmark program: the training
// fixture, seed derivation, the clock, and the JSON record each
// repetition prints for perfbench/run.py to aggregate.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "data/synth_images.hpp"

namespace perfbench {

/// The training fixture: the values of bench/common.hpp's default
/// Scale/Experiment, copied here so that edits to the figure benches
/// cannot change the benchmark. `tiny` shrinks it for the self-test.
struct Fixture {
  int64_t image_hw = 16;
  int64_t classes = 10;
  int64_t n_train = 512;
  int64_t n_test = 256;
  int64_t batch = 64;
  int epochs = 30;
  int64_t resnet_n = 1;
  int64_t resnet_width = 8;

  static Fixture make(bool tiny) {
    Fixture f;
    if (tiny) {
      f.n_train = 128;
      f.n_test = 64;
      f.epochs = 2;
    }
    return f;
  }
  int64_t iters_per_epoch() const { return (n_train + batch - 1) / batch; }
};

/// Traced runs time each set-up stage (data synthesis, compile, save,
/// load) this many times.
constexpr int kStageRepeats = 10;

/// Per-purpose seeds derived from the workload seed (SplitMix64 of the
/// seed and a purpose tag), so data, model initialisation, sample order
/// and grid rounding all follow the one seed the benchmark is given.
enum class SeedUse : uint64_t {
  kData = 1,
  kModel = 2,
  kLoader = 3,
  kGrid = 4,
  kRequestOrder = 5,
};

inline uint64_t derive_seed(uint64_t seed, SeedUse use) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(use) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline apt::data::SynthImageConfig data_config(const Fixture& f,
                                               uint64_t seed) {
  apt::data::SynthImageConfig dc;
  dc.classes = f.classes;
  dc.height = f.image_hw;
  dc.width = f.image_hw;
  dc.seed = derive_seed(seed, SeedUse::kData);
  return dc;
}

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Peak resident set of this process in MB (Linux reports KiB).
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Minimal JSON object writer. Scalars print with 17 significant digits
/// so doubles round-trip exactly (the traced-run History check compares
/// them for equality); non-finite values print as null.
class Json {
 public:
  Json& num(const char* key, double v) {
    sep(key);
    out_ += fmt(v);
    return *this;
  }
  Json& boolean(const char* key, bool v) {
    sep(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& str(const char* key, const std::string& v) {
    sep(key);
    out_ += '"' + v + '"';
    return *this;
  }
  /// Arrays hold timings and small integers: 9 digits suffice.
  template <typename T>
  Json& arr(const char* key, const std::vector<T>& v) {
    sep(key);
    out_ += '[';
    for (size_t i = 0; i < v.size(); ++i) {
      if (i) out_ += ',';
      out_ += fmt(static_cast<double>(v[i]), 9);
    }
    out_ += ']';
    return *this;
  }
  Json& raw(const char* key, const std::string& json) {
    sep(key);
    out_ += json;
    return *this;
  }
  std::string done() const { return out_ + '}'; }

 private:
  static std::string fmt(double v, int digits = 17) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.*g", digits, v);
    return buf;
  }
  void sep(const char* key) {
    out_ += out_.size() > 1 ? ",\"" : "\"";
    out_ += key;
    out_ += "\":";
  }
  std::string out_ = "{";
};

int run_train(const std::string& workload, uint64_t seed, bool traced,
              bool tiny);
int run_serve(uint64_t seed, bool traced, bool tiny, double serve_seconds,
              const std::string& scratch_dir);

}  // namespace perfbench
