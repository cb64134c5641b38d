// Workload paper_queries: Table 3's Q1-Q6 from NetClient to QbismServer
// over loopback against the paper's corpus (5 PET studies on the 128^3
// atlas). Two connections each run a closed loop over whole seeded
// blocks, every block a permutation of Q1..Q6, so the class mix is
// identical between runs. Result cache off, host-only costs.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/macros.h"
#include "med/phantom.h"
#include "obs/trace.h"
#include "server/client.h"

namespace qbench {
namespace {

constexpr int kFirstStudy = 53;  // the paper's example study
constexpr int kConnections = 2;
constexpr qbism::region::GridSpec kGrid{3, 7};

std::vector<qbism::med::StudyRecord> PaperRecords(int n) {
  std::vector<qbism::med::StudyRecord> out;
  for (int i = 0; i < n; ++i) {
    qbism::med::StudyRecord r;
    r.study_id = kFirstStudy + i;
    r.patient_id = 1 + i;
    r.date = "1993-07-0" + std::to_string(1 + r.study_id % 9);
    r.modality = "PET";
    r.raw = qbism::med::GeneratePetStudy(42 + static_cast<uint64_t>(i));
    r.warp_seed = 42 + static_cast<uint64_t>(i);
    r.band_width = 32;
    out.push_back(std::move(r));
  }
  return out;
}

std::unique_ptr<World> EmptyPaperWorld(bool atlas) {
  return NewWorld(kGrid, qbism::region::RegionEncoding::kNaiveRuns, 1 << 12,
                  1 << 14, 1 << 13, atlas);
}

std::unique_ptr<World> BuildPaperWorld(
    const std::vector<qbism::med::StudyRecord>& records, OpLog* writes) {
  auto w = EmptyPaperWorld(true);
  AddPatients(w.get(), 1, static_cast<int>(records.size()));
  DurableLoad(w.get(), records, writes);
  for (const auto& r : records) w->studies.push_back(r.study_id);
  return w;
}

/// One connection's seeded sequence: blocks of (query class, study).
struct Op {
  int query = 0;
  int study = 0;
};
std::vector<Op> Block(Rng* rng, const std::vector<int>& studies) {
  std::vector<Op> block(6);
  for (int i = 0; i < 6; ++i) block[i].query = i;
  for (int i = 5; i > 0; --i) {
    std::swap(block[i], block[rng->NextBounded(static_cast<uint64_t>(i + 1))]);
  }
  for (Op& op : block) {
    op.study = studies[rng->NextBounded(studies.size())];
  }
  return block;
}

using Answers = std::map<std::pair<int, int>, qbism::volume::DataRegion>;

/// Closed loop over whole blocks on `kConnections` connections until
/// `seconds` have passed; every answer is checked against `refs`.
OpLog RunLoad(World* w, qbism::server::QbismServer* server,
              const Answers& refs, uint64_t seed, double seconds,
              SpanLog* spans, std::atomic<uint64_t>* request_ids) {
  std::vector<OpLog> logs(kConnections);
  std::vector<std::thread> threads;
  double deadline = Now() + seconds;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      auto client = qbism::server::NetClient::Connect("127.0.0.1",
                                                      server->port());
      QBISM_CHECK(client.ok());
      QBISM_CHECK_OK(client->Login("bench", "bench-secret"));
      Rng rng(seed * 7919 + static_cast<uint64_t>(c));
      OpLog& log = logs[c];
      while (Now() < deadline) {
        for (const Op& op : Block(&rng, w->studies)) {
          auto spec = PaperQueries(*w, op.study)[op.query];
          uint64_t span = 0;
          if (spans != nullptr) {
            span = spans->Begin(std::string("paper.") +
                                    PaperQueryName(op.query),
                                0, ++*request_ids);
          }
          double t0 = Now();
          auto outcome = client->RunQuery(spec);
          double dt = Now() - t0;
          if (spans != nullptr) spans->End(span);
          ++log.attempted;
          if (outcome.ok() &&
              SameAnswer(outcome->data, refs.at({op.query, op.study}))) {
            log.Ok(dt);
          } else {
            ++log.failed;
          }
        }
      }
      client->Bye();
    });
  }
  for (auto& t : threads) t.join();
  OpLog all;
  for (const OpLog& l : logs) all.Merge(l);
  return all;
}

}  // namespace

void RunPaperQueries(const Options& opt, Report* report, SpanLog* spans) {
  const int studies = 5;
  const int setups = opt.trace || opt.mini ? 1 : 5;
  auto records = PaperRecords(studies);  // inputs, generated before timing

  std::vector<double> setup_t;
  OpLog writes;
  std::unique_ptr<World> w;
  for (int i = 0; i < setups; ++i) {
    w.reset();
    OpLog load;
    double t0 = Now();
    w = BuildPaperWorld(records, &load);
    setup_t.push_back(Now() - t0);
    writes.Merge(load);
  }
  char line[200];
  std::snprintf(line, sizeof(line), "setup: %d builds, median %.3f s", setups,
                Median(setup_t));
  report->Note(line);

  // The paper-shape guard, before any load touches the buffer pool.
  CheckPaperShape(PaperCycle(w.get(), kFirstStudy), report);

  // References: the in-process MedicalServer answer to every (Qi, study).
  Answers refs;
  {
    qbism::MedicalServer medical(w->ext.get(), qbism::net::NetworkCostModel{},
                                 qbism::ServerCostModel{0.0});
    for (int study : w->studies) {
      auto specs = PaperQueries(*w, study);
      for (int q = 0; q < 6; ++q) {
        auto result = medical.RunStudyQuery(specs[q], /*render=*/false);
        QBISM_CHECK(result.ok());
        refs[{q, study}] = result->data;
      }
    }
  }
  if (opt.corrupt_reference) {
    auto& ref = refs[{1, w->studies.front()}];
    auto values = ref.values();
    values[values.size() / 2] ^= 0x5a;
    ref = qbism::volume::DataRegion(ref.region(), values);
  }

  std::atomic<uint64_t> request_ids{0};
  if (!opt.trace) {
    // Writes are durable replaces of the corpus's own studies, in rounds
    // between read sub-phases; a replaced study is offline for readers
    // only while no reader runs.
    auto server = StartServer(w.get(), kConnections);
    OpLog reads = ReadsWithReplaceRounds(
        [&](int round, double seconds) {
          return RunLoad(w.get(), server.get(), refs, opt.seed * 64 + round,
                         seconds, nullptr, &request_ids);
        },
        w.get(), records, [] { return EmptyPaperWorld(false); },
        opt.mini ? 1 : 6, opt.seconds, report);
    server->Shutdown();
    report->attempted += writes.attempted;
    report->failed += writes.failed;
    if (reads.failed > 0) report->Fail("wrong or failed wire answers");
    report->Set("setup_s", Median(setup_t), "s");

    std::unique_ptr<World> recovered;
    qbism::sql::RecoveryStats stats;
    Recover(w.get(), [] { return EmptyPaperWorld(false); }, 1, &recovered,
            &stats);
    ++report->attempted;
    if (Fingerprint(recovered.get()) != Fingerprint(w.get())) {
      ++report->failed;
      report->Fail("recovered database differs from the live one");
    }
    report->Set("stored_bytes_per_user_byte", StoredBytesPerUserByte(w.get()),
                "ratio");
    return;
  }

  // Traced run: the same load untraced and traced, then the replay.
  double half = opt.seconds / 3;
  OpLog plain, traced;
  {
    auto server = StartServer(w.get(), kConnections);
    plain = RunLoad(w.get(), server.get(), refs, opt.seed, half, nullptr,
                    &request_ids);
    server->Shutdown();
  }
  qbism::obs::Tracer tracer;
  auto server = StartServer(w.get(), kConnections, &tracer);
  traced = RunLoad(w.get(), server.get(), refs, opt.seed, half, spans,
                   &request_ids);
  report->Note("obs::Tracer stage table (traced load):");
  report->Note(tracer.DumpStatsTable());
  for (const OpLog* l : {&plain, &traced}) {
    report->attempted += l->attempted;
    report->failed += l->failed;
  }
  if (plain.failed + traced.failed > 0) {
    report->Fail("wrong or failed wire answers");
  }
  report->Set("untraced_read_p50_ms", 1e3 * Median(plain.seconds), "ms");
  report->Set("trace.overhead_ratio",
              Median(traced.seconds) / Median(plain.seconds), "ratio");

  LayerInputs in;
  in.serving = w.get();
  in.server = server.get();
  in.tracer = &tracer;
  in.wire_specs = PaperQueries(*w, kFirstStudy);
  in.base = {records.front()};
  auto replacement = records.front();
  replacement.raw = qbism::med::GeneratePetStudy(opt.seed + 1000);
  in.writes = {replacement, records.front()};
  in.samples = opt.mini ? 2 : 5;
  ReplayLayers(opt, &in, report, spans);
  server->Shutdown();
}

}  // namespace qbench
