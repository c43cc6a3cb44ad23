// apt_perfbench: one repetition of one benchmark workload.
//
//   apt_perfbench <workload> --seed N [--trace] [--tiny]
//                 [--serve-seconds S] [--scratch DIR]
//
// Prints one JSON record of raw measurements on stdout; perfbench/run.py
// runs repetitions, checks the records and aggregates the metrics. Each
// repetition is its own process: the stochastic-rounding step counter
// and the peak resident set are process-wide.
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <train_apt|train_apt_int8|train_fp32|"
                 "serve_closed> --seed N [--trace] [--tiny] "
                 "[--serve-seconds S] [--scratch DIR]\n",
                 argv[0]);
    return 2;
  }
  const std::string workload = argv[1];
  uint64_t seed = 1;
  bool traced = false, tiny = false;
  double serve_seconds = 1.0;
  std::string scratch = ".";
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--serve-seconds" && has_value) {
      serve_seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--scratch" && has_value) {
      scratch = argv[++i];
    } else if (a == "--trace") {
      traced = true;
    } else if (a == "--tiny") {
      tiny = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (!(serve_seconds > 0)) {
    std::fprintf(stderr, "--serve-seconds must be positive\n");
    return 2;
  }
  try {
    if (workload == "serve_closed")
      return perfbench::run_serve(seed, traced, tiny, serve_seconds, scratch);
    if (workload == "train_apt" || workload == "train_apt_int8" ||
        workload == "train_fp32")
      return perfbench::run_train(workload, seed, traced, tiny);
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
}
