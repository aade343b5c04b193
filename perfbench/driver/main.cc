// perfbench_driver — runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload <emulab_grid|fluid_population|fuzz_campaign>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--tiny] [--spans-out <path>]
//
// With --trace 0 it times whole passes and prints the end-to-end metrics;
// with --trace 1 it makes the traced run and prints the per-layer metrics.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument " + key);
    }
    key = key.substr(2);
    std::string value = "1";
    if (key != "tiny") {
      if (i + 1 >= argc) {
        throw std::invalid_argument("--" + key + " needs a value");
      }
      value = argv[++i];
    }
    args[key] = value;
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = parse_args(argc, argv);
    const auto get = [&](const std::string& key) {
      const auto it = args.find(key);
      if (it == args.end()) throw std::invalid_argument("missing --" + key);
      return it->second;
    };
    perfbench::Config config;
    config.seed = std::stoull(get("seed"));
    config.seconds = std::stod(get("seconds"));
    config.trace = std::stoi(get("trace")) != 0;
    config.tiny = args.count("tiny") > 0;
    if (const auto it = args.find("spans-out"); it != args.end()) {
      config.spans_path = it->second;
    }
    if (!(config.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be positive");
    }

    const std::string workload = get("workload");
    perfbench::Outcome outcome;
    if (workload == "emulab_grid") {
      outcome = perfbench::run_emulab_grid(config);
    } else if (workload == "fluid_population") {
      outcome = perfbench::run_fluid_population(config);
    } else if (workload == "fuzz_campaign") {
      outcome = perfbench::run_fuzz_campaign(config);
    } else {
      throw std::invalid_argument("unknown workload " + workload);
    }
    // A NaN or infinite metric is a failed output, reported as 0.
    for (perfbench::Metric& m : outcome.metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
        m.value = 0.0;
        ++outcome.failed;
        ++outcome.attempted;
      }
    }
    perfbench::print_outcome(outcome);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
