// qbench: runs one workload and prints its metrics as the last line of
// standard output.
//
//   qbench --workload paper_queries|population|ingest_mixed --seed N
//          --seconds S --trace 0|1 [--mini] [--corrupt-reference]
//          [--trace-dir DIR]
//
// --mini shrinks every workload to a few seconds (the self-test), and
// --corrupt-reference flips one byte of one reference answer so the
// oracle must report the run incorrect.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: qbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--mini] [--corrupt-reference] "
               "[--trace-dir DIR]\n");
  std::exit(2);
}

/// The per-layer self-time waterfall of a traced run, beside the
/// end-to-end read latency measured without spans in the same run.
void PrintWaterfall(const qbench::Report& r) {
  static const char* kLayers[] = {"server.self_ms", "service.self_ms",
                                  "qbism.self_ms", "sql.info_ms",
                                  "sql.data_ms"};
  double sum = 0;
  std::printf("waterfall (self time per read, mean over Q1-Q6 shapes):\n");
  for (const char* name : kLayers) {
    double v = r.Get(name);
    sum += v;
    std::printf("  %-18s %9.3f ms\n", name, v);
  }
  std::printf("  %-18s %9.3f ms\n", "sum", sum);
  std::printf("  %-18s %9.3f ms (traced/untraced p50 %.3f)\n",
              "untraced read p50", r.Get("untraced_read_p50_ms"),
              r.Get("trace.overhead_ratio"));
}

}  // namespace

int main(int argc, char** argv) {
  qbench::Options opt;
  std::string trace_dir = ".bench_build/qbench-traces";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--mini") {
      opt.mini = true;
    } else if (a == "--corrupt-reference") {
      opt.corrupt_reference = true;
    } else if (a == "--trace-dir") {
      trace_dir = value();
    } else {
      Usage();
    }
  }
  if (opt.workload.empty() || !have_seed || opt.seconds <= 0) Usage();

  std::printf("%s\n", qbench::HostFingerprint().c_str());
  std::printf("workload=%s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.mini ? " (mini)" : "");
  std::fflush(stdout);

  qbench::Report report;
  qbench::SpanLog spans;
  if (opt.workload == "paper_queries") {
    qbench::RunPaperQueries(opt, &report, &spans);
  } else if (opt.workload == "population") {
    qbench::RunPopulation(opt, &report, &spans);
  } else if (opt.workload == "ingest_mixed") {
    qbench::RunIngestMixed(opt, &report, &spans);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  if (opt.trace) {
    PrintWaterfall(report);
    std::string path = trace_dir + "/" + opt.workload + "-seed" +
                       std::to_string(opt.seed) + ".jsonl";
    if (spans.Write(path)) {
      std::printf("wrote %zu spans to %s\n", spans.size(), path.c_str());
    } else {
      std::printf("could not write spans to %s\n", path.c_str());
    }
  }
  // Only the metrics of this run's kind go into the result line.
  qbench::Report out = report;
  out.Erase("untraced_read_p50_ms");
  std::printf("metrics:\n");
  for (const auto& [name, vu] : out.values()) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::printf("%s\n", out.JsonLine().c_str());
  return 0;
}
