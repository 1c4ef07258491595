// perfbench: the repository's end-to-end benchmark driver.
//
//   perfbench --workload point_rw|box_scan|ingest --seed N --seconds S
//             --trace 0|1 [--dir DIR]
//
// Starts an SfcDb behind an in-process SfcServer, drives one workload
// through the wire protocol from a single driver thread, checks every
// result, and prints each metric as a readable line followed by one
// JSON result line. Without --trace the JSON carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of a traced
// run. Exits 1 on a correctness failure, 2 on bad arguments. Metric
// definitions: perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload point_rw|box_scan|ingest "
               "--seed N --seconds S --trace 0|1 [--dir DIR]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage();
    }
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage();
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        Usage();
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") Usage();
      args.trace = value == "1";
    } else if (key == "--dir") {
      args.dir = value;
    } else {
      Usage();
    }
  }

  perfbench::Report report;
  report.Note("workload", args.workload);
  report.Note("seed", std::to_string(args.seed));
  report.Note("seconds", perfbench::FormatDouble(args.seconds));
  report.Note("trace", args.trace ? "1" : "0");
  if (args.workload == "point_rw") {
    perfbench::RunPointRw(args, &report);
  } else if (args.workload == "box_scan") {
    perfbench::RunBoxScan(args, &report);
  } else if (args.workload == "ingest") {
    perfbench::RunIngest(args, &report);
  } else {
    Usage();
  }
  report.Print(args.trace);
  return report.correct() ? 0 : 1;
}
