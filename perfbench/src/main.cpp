// perfbench: the Proust design-space benchmark.
//
//   perfbench --workload <map-update|map-read-skew|jobs|durable-ledger>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt]
//             [--workdir <dir>]
//
// Prints one record line (host, seed, counts, check outcome), a few "#"
// report lines, and as its last line the result object: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or per-layer metrics
// (--trace 1). --smoke shrinks every slice so each workload, configuration
// and check is visited in about a second; --corrupt falsifies one tally or
// recovered record per cell, so every check must report a failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--corrupt] "
               "[--workdir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--corrupt") {
      o.corrupt = true;
    } else if (a == "--workload" || a == "--seed" || a == "--seconds" ||
               a == "--trace" || a == "--workdir") {
      const char* v = value();
      if (v == nullptr) return usage(("missing value for " + a).c_str());
      char* end = nullptr;
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--workdir") {
        o.workdir = v;
      } else if (a == "--seed") {
        o.seed = std::strtoull(v, &end, 10);
      } else if (a == "--seconds") {
        o.seconds = std::strtod(v, &end);
        if (!(o.seconds > 0)) return usage("--seconds must be positive");
      } else {
        if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
          return usage("--trace takes 0 or 1");
        }
        o.trace = v[0] == '1';
      }
      if (end != nullptr && *end != '\0') {
        return usage(("bad value for " + a).c_str());
      }
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }

  std::unique_ptr<perfbench::Workload> w;
  if (o.workload == "map-update" || o.workload == "map-read-skew") {
    w = perfbench::make_map_workload(o.workload);
  } else if (o.workload == "jobs") {
    w = perfbench::make_jobs_workload();
  } else if (o.workload == "durable-ledger") {
    w = perfbench::make_ledger_workload();
  } else {
    return usage(("unknown workload '" + o.workload + "'").c_str());
  }
  return perfbench::run_workload(*w, o);
}
