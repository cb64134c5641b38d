// Workload ingest_mixed: writes beside reads on a WAL-enabled database
// with commit-time sync and the cross-study index maintained through the
// log. Two closed-loop writers each run a fixed count of
// QueryService::RunIngest replaces over their own study set, vacuuming
// at fixed intervals so the database stays level. Two open-loop reader
// connections send box, structure and band queries at a fixed rate to
// studies no writer touches, until the writers finish; each read is
// timed from its due send time. Afterwards: a final vacuum, then
// Database::Recover on clones of the devices.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/macros.h"
#include "obs/trace.h"
#include "server/client.h"

namespace qbench {
namespace {

constexpr qbism::region::GridSpec kGrid{3, 5};
constexpr int kReaders = 2;
constexpr int kWriters = 2;
constexpr int kReaderStudies = 8;
constexpr int kStudiesPerWriter = 4;
constexpr int kVacuumEvery = 8;          // writes per writer between vacuums
constexpr double kReadsPerSecond = 100;  // per reader connection
constexpr int kMinReadsPerReader = 500;  // >= 1000 reads: p99 has 10 beyond
// Replaces per writer per second of --seconds: a fixed function of
// --seconds keeps the log length identical between runs. On a 4-core
// x86 host 20 s give a write phase of about 6 s; a longer stream
// measures a different regime, because each replace leaves dead heap
// space behind and every heap scan grows with it.
constexpr double kWritesPerWriterPerSecond = 50;
constexpr int kNx = 32, kNy = 32, kNz = 16;

int WriterStudy(int writer, int i) { return 100 * (writer + 1) + i; }

std::unique_ptr<World> EmptyIngestWorld(bool atlas) {
  return NewWorld(kGrid, qbism::region::RegionEncoding::kNaiveRuns, 1 << 12,
                  1 << 13, 1 << 13, atlas);
}

struct Ingest {
  std::unique_ptr<World> w;
  std::vector<qbism::med::StudyRecord> initial;
};

Ingest Build(uint64_t seed, OpLog* writes) {
  Ingest in;
  in.w = EmptyIngestWorld(true);
  World* w = in.w.get();
  AddPatients(w, 1, 400);
  for (int i = 1; i <= kReaderStudies; ++i) {
    in.initial.push_back(SyntheticStudy(seed, i, kNx, kNy, kNz, true));
    w->studies.push_back(i);
  }
  for (int wr = 0; wr < kWriters; ++wr) {
    for (int i = 0; i < kStudiesPerWriter; ++i) {
      in.initial.push_back(
          SyntheticStudy(seed, WriterStudy(wr, i), kNx, kNy, kNz, true));
    }
  }
  // The index is attached before the load, so every study's summary is
  // in the log and recovery can rebuild the index from it alone.
  w->index = std::make_unique<qbism::index::SpatialIndexManager>(w->ext.get());
  QBISM_CHECK_OK(w->index->BuildFromCatalog());
  w->ingest->set_index_manager(w->index.get());
  w->db->set_candidate_index_hook(w->index->MakeHook());
  DurableLoad(w, in.initial, writes);
  QBISM_CHECK_OK(w->index->RebuildPacked());  // fold the load into the tree
  return in;
}

/// The three read shapes on a reader study.
qbism::QuerySpec ReadSpec(const World& w, int shape, int study) {
  auto q = PaperQueries(w, study);
  return shape == 0 ? q[1] : shape == 1 ? q[3] : q[4];  // box, ntal1, band
}

struct Phase {
  OpLog reads, writes;
  std::vector<double> late;  // seconds the generator sent after due time
  std::vector<double> vacuum_s;
  uint64_t vacuum_pages = 0;
  double start = 0;
  double seconds = 0;        // until the last read
  double write_seconds = 0;  // until the last write
  uint64_t user_bytes_written = 0;
};

/// One measured phase: `writes[wr]` replaced in order by writer wr,
/// readers open-loop until the writers are done.
Phase RunPhase(World* w, qbism::server::QbismServer* server,
               const std::vector<std::vector<qbism::med::StudyRecord>>& writes,
               const std::map<std::pair<int, int>, qbism::volume::DataRegion>&
                   refs,
               uint64_t seed, SpanLog* spans, std::atomic<uint64_t>* ids) {
  Phase out;
  std::atomic<int> writers_left{kWriters};
  std::atomic<double> writers_done{0.0};
  std::vector<OpLog> write_logs(kWriters), read_logs(kReaders);
  std::vector<std::vector<double>> late(kReaders);
  // Vacuum runs while both writers wait at a barrier, so it never
  // overlaps an ingest; readers keep running through it.
  auto vacuum = [&]() noexcept {
    double v0 = Now();
    out.vacuum_pages += w->ingest->Vacuum().pages_freed;
    w->index->Vacuum();
    out.vacuum_s.push_back(Now() - v0);
  };
  std::barrier sync(kWriters, vacuum);
  std::vector<std::thread> threads;
  double start = Now();
  for (int wr = 0; wr < kWriters; ++wr) {
    threads.emplace_back([&, wr] {
      int n = 0;
      for (const auto& record : writes[wr]) {
        uint64_t span = spans ? spans->Begin("ingest.RunIngest", 0, ++*ids) : 0;
        double t0 = Now();
        qbism::Status s = server->service()->RunIngest(record, true);
        double dt = Now() - t0;
        if (spans) spans->End(span);
        ++write_logs[wr].attempted;
        if (s.ok()) {
          write_logs[wr].Ok(dt);
        } else {
          ++write_logs[wr].failed;
        }
        if (++n % kVacuumEvery == 0) sync.arrive_and_wait();
      }
      if (--writers_left == 0) writers_done = Now();
    });
  }
  for (int rd = 0; rd < kReaders; ++rd) {
    threads.emplace_back([&, rd] {
      auto client = qbism::server::NetClient::Connect("127.0.0.1",
                                                      server->port());
      QBISM_CHECK(client.ok());
      QBISM_CHECK_OK(client->Login("bench", "bench-secret"));
      Rng rng(seed * 15485863 + static_cast<uint64_t>(rd));
      OpLog& log = read_logs[rd];
      // Readers start staggered by half an interval.
      double due = start + (0.5 * rd) / kReadsPerSecond;
      for (int i = 0; writers_left.load() > 0 || i < kMinReadsPerReader;
           ++i, due += 1.0 / kReadsPerSecond) {
        int shape = static_cast<int>(rng.NextBounded(3));
        int study = w->studies[rng.NextBounded(w->studies.size())];
        double now = Now();
        if (due > now) {
          std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
        }
        double sent = Now();
        late[rd].push_back(std::max(0.0, sent - due));
        uint64_t span = spans ? spans->Begin("ingest_mixed.read", 0, ++*ids)
                              : 0;
        auto outcome = client->RunQuery(ReadSpec(*w, shape, study));
        double done = Now();
        if (spans) spans->End(span);
        ++log.attempted;
        if (outcome.ok() &&
            SameAnswer(outcome->data, refs.at({shape, study}))) {
          log.Ok(done - due);
        } else {
          ++log.failed;
        }
      }
      client->Bye();
    });
  }
  for (auto& t : threads) t.join();
  out.start = start;
  out.seconds = Now() - start;
  out.write_seconds = writers_done.load() - start;
  for (int i = 0; i < kWriters; ++i) {
    out.writes.Merge(write_logs[i]);
    for (const auto& r : writes[i]) out.user_bytes_written += r.raw.data().size();
  }
  for (int i = 0; i < kReaders; ++i) {
    out.reads.Merge(read_logs[i]);
    out.late.insert(out.late.end(), late[i].begin(), late[i].end());
  }
  return out;
}

/// Writer wr's fixed replace sequence, cycling over its studies.
std::vector<std::vector<qbism::med::StudyRecord>> Writes(uint64_t seed,
                                                         int per_writer,
                                                         int round) {
  std::vector<std::vector<qbism::med::StudyRecord>> out(kWriters);
  for (int wr = 0; wr < kWriters; ++wr) {
    for (int i = 0; i < per_writer; ++i) {
      out[wr].push_back(SyntheticStudy(
          seed + 1 + static_cast<uint64_t>(round * 100000 + i),
          WriterStudy(wr, i % kStudiesPerWriter), kNx, kNy, kNz, true));
    }
  }
  return out;
}

/// The live index, a cold rebuild from the catalog, and (when given) a
/// recovered index must answer every probe alike.
bool SameIndex(World* w, qbism::index::SpatialIndexManager* other,
               uint64_t seed) {
  Rng rng(seed ^ 0x1d3ull);
  int side = static_cast<int>(kGrid.SideLength());
  for (int i = 0; i < 24; ++i) {
    int x = static_cast<int>(rng.NextBounded(side - 6));
    int y = static_cast<int>(rng.NextBounded(side - 6));
    int z = static_cast<int>(rng.NextBounded(side - 6));
    auto probe = qbism::region::Region::FromBox(
        kGrid, w->ext->config().curve, {{x, y, z}, {x + 5, y + 5, z + 5}});
    uint8_t lo = static_cast<uint8_t>(32 * rng.NextBounded(8));
    auto a = w->index->ProbeIntersect(probe, lo, 255);
    auto b = other->ProbeIntersect(probe, lo, 255);
    if (!a.ok() || !b.ok() || *a != *b) return false;
  }
  return true;
}

}  // namespace

void RunIngestMixed(const Options& opt, Report* report, SpanLog* spans) {
  const int setups = opt.trace || opt.mini ? 1 : 5;
  // A whole number of vacuum intervals, so both writers meet at every
  // barrier.
  const int per_writer =
      kVacuumEvery *
      std::max(1, static_cast<int>(std::lround(
                      opt.seconds * kWritesPerWriterPerSecond / kVacuumEvery)));

  std::vector<double> setup_t;
  Ingest in;
  for (int i = 0; i < setups; ++i) {
    in = Ingest{};
    OpLog load;
    double t0 = Now();
    in = Build(opt.seed, &load);
    setup_t.push_back(Now() - t0);
    report->attempted += load.attempted;
    report->failed += load.failed;
  }
  World* w = in.w.get();

  // References for every (shape, reader study), computed in process.
  std::map<std::pair<int, int>, qbism::volume::DataRegion> refs;
  {
    qbism::MedicalServer medical(w->ext.get(), qbism::net::NetworkCostModel{},
                                 qbism::ServerCostModel{0.0});
    for (int study : w->studies) {
      for (int shape = 0; shape < 3; ++shape) {
        auto r = medical.RunStudyQuery(ReadSpec(*w, shape, study), false);
        QBISM_CHECK(r.ok());
        refs[{shape, study}] = r->data;
      }
    }
  }
  if (opt.corrupt_reference) {
    auto& ref = refs[{0, w->studies.front()}];
    auto values = ref.values();
    values.front() ^= 0x33;
    ref = qbism::volume::DataRegion(ref.region(), values);
  }

  qbism::obs::Tracer tracer;
  tracer.set_enabled(false);
  auto server = StartServer(w, kReaders, opt.trace ? &tracer : nullptr);
  std::atomic<uint64_t> ids{0};
  std::map<int, const qbism::med::StudyRecord*> last_write;
  auto remember = [&](const std::vector<std::vector<qbism::med::StudyRecord>>&
                          writes) {
    for (const auto& list : writes) {
      for (const auto& r : list) last_write[r.study_id] = &r;
    }
  };
  auto count = [&](const Phase& ph) {
    report->attempted += ph.reads.attempted + ph.writes.attempted;
    report->failed += ph.reads.failed + ph.writes.failed;
    if (ph.reads.failed + ph.writes.failed > 0) {
      report->Fail("failed or wrong operations in the mixed phase");
    }
  };

  auto writes = Writes(opt.seed, opt.trace ? per_writer / 2 : per_writer, 0);
  remember(writes);
  std::vector<std::vector<qbism::med::StudyRecord>> writes2;
  if (!opt.trace) {
    Phase ph = RunPhase(w, server.get(), writes, refs, opt.seed, nullptr, &ids);
    count(ph);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "phase: %.3f s (writes %.3f s), %d writers x %d replaces, "
                  "%zu vacuums, generator late p99 %.3f ms",
                  ph.seconds, ph.write_seconds, kWriters, per_writer, ph.vacuum_s.size(),
                  1e3 * Quantile(ph.late, 0.99));
    report->Note(line);
    report->Set("setup_s", Median(setup_t), "s");
    SetReadMetrics(ph.reads, ph.start, ph.start + ph.seconds, report);
    std::vector<double> durations;
    auto windows = Slices(ph.writes, ph.start, ph.start + ph.write_seconds, 5,
                          &durations);
    SetLatencyMetrics("write", windows, durations, report);
  } else {
    Phase plain = RunPhase(w, server.get(), writes, refs, opt.seed, nullptr,
                           &ids);
    writes2 = Writes(opt.seed, per_writer / 2, 1);
    remember(writes2);
    tracer.set_enabled(true);
    auto wal0 = w->db->wal()->stats();
    Phase traced = RunPhase(w, server.get(), writes2, refs, opt.seed, spans,
                            &ids);
    auto wal1 = w->db->wal()->stats();
    tracer.set_enabled(false);
    count(plain);
    count(traced);
    report->Note("obs::Tracer stage table (traced phase):");
    report->Note(tracer.DumpStatsTable());
    report->Set("untraced_read_p50_ms", 1e3 * Median(plain.reads.seconds),
                "ms");
    report->Set("trace.overhead_ratio",
                Median(traced.reads.seconds) / Median(plain.reads.seconds),
                "ratio");
    std::vector<double> late = plain.late;
    late.insert(late.end(), traced.late.begin(), traced.late.end());
    report->Set("load.generator_late_ms_p99", 1e3 * Quantile(late, 0.99),
                "ms");

    tracer.set_enabled(true);  // the replay's wire requests are traced
    LayerInputs li;
    li.serving = w;
    li.server = server.get();
    li.tracer = &tracer;
    li.wire_specs = PaperQueries(*w, w->studies.front());
    li.base = {in.initial.front(), in.initial[1]};
    li.writes = {SyntheticStudy(opt.seed + 3, 1, kNx, kNy, kNz, true),
                 SyntheticStudy(opt.seed + 3, 2, kNx, kNy, kNz, true)};
    li.samples = opt.mini ? 2 : 5;
    ReplayLayers(opt, &li, report, spans);
    // The WAL and vacuum figures of this workload are its own phase's.
    double nw = static_cast<double>(traced.writes.attempted);
    report->Set("storage.wal_bytes_per_user_byte",
                static_cast<double>(wal1.appended_bytes - wal0.appended_bytes) /
                    static_cast<double>(traced.user_bytes_written),
                "ratio");
    report->Set("storage.wal_syncs_per_write",
                static_cast<double>(wal1.syncs - wal0.syncs) / nw, "count");
    report->Set("storage.wal_pages_synced_per_write",
                static_cast<double>(wal1.pages_synced - wal0.pages_synced) / nw,
                "pages");
    report->Set("storage.vacuum_ms", 1e3 * Median(traced.vacuum_s), "ms");
    report->Set("storage.vacuum_pages_freed",
                static_cast<double>(traced.vacuum_pages) /
                    static_cast<double>(std::max<size_t>(
                        1, traced.vacuum_s.size())),
                "pages");
  }
  server->Shutdown();
  w->ingest->Vacuum();
  w->index->Vacuum();  // no reader is left to see a retired summary

  // Oracles: each replaced study reads back as its last write; the
  // WAL-maintained index equals a cold rebuild; recovery equals live.
  for (const auto& [id, record] : last_write) {
    ++report->attempted;
    auto raw = qbism::med::LoadRawVolume(w->ext.get(), id);
    if (!raw.ok() || raw->data() != record->raw.data()) {
      ++report->failed;
      report->Fail("study " + std::to_string(id) +
                   " does not read back as its last write");
    }
  }
  qbism::index::SpatialIndexManager cold(w->ext.get());
  QBISM_CHECK_OK(cold.BuildFromCatalog());
  ++report->attempted;
  if (!SameIndex(w, &cold, opt.seed)) {
    ++report->failed;
    report->Fail("the WAL-maintained index differs from a cold rebuild");
  }
  if (opt.trace) return;

  report->Set("stored_bytes_per_user_byte", StoredBytesPerUserByte(w),
              "ratio");
  std::unique_ptr<World> recovered;
  qbism::sql::RecoveryStats stats;
  auto times = Recover(w, [] { return EmptyIngestWorld(false); },
                       opt.mini ? 1 : 9, &recovered, &stats);
  report->Set("recover_s", Median(times), "s");
  char line[200];
  std::snprintf(line, sizeof(line),
                "recovery: %llu records, %llu txns, %.1f MB of log, median "
                "%.3f s of %zu",
                static_cast<unsigned long long>(stats.records_replayed),
                static_cast<unsigned long long>(stats.committed_txns),
                w->db->wal()->stats().appended_bytes / 1e6, Median(times),
                times.size());
  report->Note(line);
  ++report->attempted;
  if (Fingerprint(recovered.get()) != Fingerprint(w)) {
    ++report->failed;
    report->Fail("recovered database differs from the live one");
  }
  qbism::index::SpatialIndexManager replayed(recovered->ext.get());
  QBISM_CHECK_OK(replayed.ApplyRecovered(
      recovered->db->TakeRecoveredIndexRecords()));
  ++report->attempted;
  if (!SameIndex(w, &replayed, opt.seed)) {
    ++report->failed;
    report->Fail("the recovered index differs from the live one");
  }
}

}  // namespace qbench
