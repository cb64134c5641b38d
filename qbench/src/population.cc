// Workload population: cross-study statements over a seeded population
// of small studies (32^3 atlas, elias-deltas band regions), stored
// through med::StoreStudyRecord, with the cross-study spatial index
// built at set-up and hooked into the planner. Two in-process callers
// run a closed loop over whole seeded blocks of five classes: a
// selective box probe, an intensity-range probe, an unselective scan,
// Table 4's ConsistentBandRegion and §6.4's AverageInStructure.
//
// The population has no log; its write and recovery metrics come from
// a durable load of a sample of its own study records into a scratch
// WAL database at set-up.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/macros.h"
#include "med/phantom.h"
#include "obs/trace.h"

namespace qbench {
namespace {

constexpr qbism::region::GridSpec kGrid{3, 5};
constexpr auto kEncoding = qbism::region::RegionEncoding::kEliasDeltas;
constexpr int kFirstStudy = 1000;
constexpr int kCallers = 2;
constexpr int kBandWidth = 32;
enum Class { kSelective, kRange, kScan, kConsistent, kAverage, kClasses };
const char* kClassNames[] = {"selective", "range", "scan", "consistent",
                             "average"};

struct Sizes {
  int studies;
  int durable_studies;
};

std::vector<qbism::med::StudyRecord> Records(uint64_t seed, int n) {
  std::vector<qbism::med::StudyRecord> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(SyntheticStudy(seed, kFirstStudy + i, 20, 20, 14,
                                 /*store_raw=*/false));
  }
  return out;
}

std::unique_ptr<World> EmptyDurableWorld(bool atlas) {
  return NewWorld(kGrid, kEncoding, 1 << 11, 1 << 13, 1 << 12, atlas);
}

struct Population {
  std::unique_ptr<World> serving;
  std::unique_ptr<World> durable;  // scratch WAL world of the sample
};

Population Build(const std::vector<qbism::med::StudyRecord>& records,
                 int durable_studies, OpLog* writes) {
  Population p;
  p.serving = NewWorld(kGrid, kEncoding, 1 << 13, 1 << 15, 0, true);
  World* w = p.serving.get();
  AddPatients(w, kFirstStudy,
              kFirstStudy + static_cast<int>(records.size()) - 1);
  for (const auto& r : records) {
    QBISM_CHECK_OK(qbism::med::StoreStudyRecord(w->ext.get(), r));
    w->studies.push_back(r.study_id);
    w->user_bytes += r.raw.data().size();
  }
  w->index = std::make_unique<qbism::index::SpatialIndexManager>(w->ext.get());
  QBISM_CHECK_OK(w->index->BuildFromCatalog());

  // The sample's index is maintained through the log, as online ingest
  // maintains it.
  p.durable = EmptyDurableWorld(true);
  World* d = p.durable.get();
  d->index = std::make_unique<qbism::index::SpatialIndexManager>(d->ext.get());
  QBISM_CHECK_OK(d->index->BuildFromCatalog());
  d->ingest->set_index_manager(d->index.get());
  AddPatients(d, kFirstStudy, kFirstStudy + durable_studies - 1);
  std::vector<qbism::med::StudyRecord> sample(
      records.begin(), records.begin() + durable_studies);
  DurableLoad(d, sample, writes);
  return p;
}

/// One statement or operator call drawn from a class's variant pool.
struct Variant {
  std::string sql;  // statement classes
  std::vector<int> studies;  // multi-study classes
  int structure = 0;
  std::vector<std::string> rows;  // reference rows
  qbism::region::Region region;   // reference region (consistent)
  std::vector<uint8_t> values;    // reference values (average)
};

std::vector<std::vector<Variant>> Variants(World* w, uint64_t seed,
                                           bool mini) {
  Rng rng(seed ^ 0xb0b0ull);
  std::vector<std::vector<Variant>> v(kClasses);
  int side = static_cast<int>(kGrid.SideLength());
  const int box = 5;
  for (int i = 0; i < (mini ? 4 : 32); ++i) {
    Variant s;
    s.sql = SelectiveSql(static_cast<int>(rng.NextBounded(side - box)),
                         static_cast<int>(rng.NextBounded(side - box)),
                         static_cast<int>(rng.NextBounded(side - box)), box,
                         96);
    v[kSelective].push_back(s);
  }
  for (int i = 0; i < 3; ++i) {
    v[kRange].emplace_back().sql = RangeSql(160 + 32 * i);
    v[kScan].emplace_back().sql = ScanSql(64, 2 << i);
  }
  auto pick = [&](int k) {
    std::vector<int> ids;
    while (static_cast<int>(ids.size()) < k) {
      int id = w->studies[rng.NextBounded(w->studies.size())];
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    return ids;
  };
  // Every structure appears equally often, so the seed picks studies,
  // not how large the averaged structures are.
  for (size_t i = 0; i < 2 * w->structures.size(); ++i) {
    Variant c;
    c.studies = pick(4);
    v[kConsistent].push_back(c);
    Variant a;
    a.studies = pick(4);
    a.structure = static_cast<int>(i % w->structures.size());
    v[kAverage].push_back(a);
  }
  return v;
}

/// References by paths that share none of the measured operators: the
/// statements with the index hook off; Table 4 as plain Region
/// intersections of the decoded bands; the average from whole decoded
/// VOLUMEs over the structure rasterized afresh from the atlas shapes.
void ComputeReferences(World* w, std::vector<std::vector<Variant>>* v) {
  for (int c : {kSelective, kRange, kScan}) {
    for (Variant& var : (*v)[c]) {
      auto rs = w->db->Execute(var.sql);
      QBISM_CHECK(rs.ok());
      var.rows = Rows(*rs);
    }
  }
  const auto kind = w->ext->config().curve;
  for (Variant& var : (*v)[kConsistent]) {
    var.region = qbism::region::Region::Full(kGrid, kind);
    for (int id : var.studies) {
      auto band = BandRegion(w, id, 0);
      QBISM_CHECK(band.ok());
      var.region = var.region.IntersectWith(*band).MoveValue();
    }
  }
  auto shapes = qbism::med::StandardAtlasStructures();
  for (Variant& var : (*v)[kAverage]) {
    const std::string& name = w->structures[var.structure];
    auto shape = std::find_if(shapes.begin(), shapes.end(),
                              [&](const auto& s) { return s.name == name; });
    QBISM_CHECK(shape != shapes.end());
    var.region = qbism::region::Region::FromShape(kGrid, kind, *shape->shape);
    std::vector<uint32_t> sums(var.region.VoxelCount(), 0);
    for (int id : var.studies) {
      auto rs = w->db->Execute("select data from warpedVolume where studyId = " +
                               std::to_string(id));
      QBISM_CHECK(rs.ok() && !rs->rows.empty());
      auto volume = w->ext->LoadVolume(
          rs->rows.front().front().AsLongField().MoveValue());
      QBISM_CHECK(volume.ok());
      size_t i = 0;
      for (const auto& run : var.region.runs()) {
        for (uint64_t cell = run.start; cell <= run.end; ++cell) {
          sums[i++] += volume->ValueAtId(cell);
        }
      }
    }
    var.values.resize(sums.size());
    for (size_t i = 0; i < sums.size(); ++i) {
      var.values[i] = static_cast<uint8_t>(sums[i] / var.studies.size());
    }
  }
}

/// Runs one variant; true when the answer matches its reference.
bool RunOp(World* w, qbism::MedicalServer* medical, int c, const Variant& v) {
  switch (c) {
    case kSelective:
    case kRange:
    case kScan: {
      auto rs = w->db->Execute(v.sql);
      return rs.ok() && Rows(*rs) == v.rows;
    }
    case kConsistent: {
      auto r = medical->ConsistentBandRegion(v.studies, 0, kBandWidth - 1);
      return r.ok() && r->region == v.region;
    }
    default: {
      auto r = medical->AverageInStructure(v.studies,
                                           w->structures[v.structure]);
      return r.ok() && r->data.region() == v.region &&
             r->data.values() == v.values;
    }
  }
}

OpLog RunLoad(World* w, const std::vector<std::vector<Variant>>& variants,
              uint64_t seed, double seconds, SpanLog* spans,
              std::vector<OpLog>* per_class) {
  std::vector<std::vector<OpLog>> logs(kCallers, std::vector<OpLog>(kClasses));
  std::vector<std::thread> threads;
  double deadline = Now() + seconds;
  std::atomic<uint64_t> request{0};
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      qbism::MedicalServer medical(w->ext.get());
      Rng rng(seed * 104729 + static_cast<uint64_t>(t));
      while (Now() < deadline) {
        int block[kClasses] = {0, 1, 2, 3, 4};
        for (int i = kClasses - 1; i > 0; --i) {
          std::swap(block[i], block[rng.NextBounded(i + 1)]);
        }
        for (int c : block) {
          const auto& pool = variants[c];
          const Variant& v = pool[rng.NextBounded(pool.size())];
          uint64_t span = spans ? spans->Begin(std::string("population.") +
                                                   kClassNames[c],
                                               0, ++request)
                                : 0;
          double t0 = Now();
          bool ok = RunOp(w, &medical, c, v);
          double dt = Now() - t0;
          if (spans) spans->End(span);
          OpLog& log = logs[t][c];
          ++log.attempted;
          if (ok) {
            log.Ok(dt);
          } else {
            ++log.failed;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  OpLog all;
  per_class->assign(kClasses, OpLog{});
  for (int t = 0; t < kCallers; ++t) {
    for (int c = 0; c < kClasses; ++c) {
      (*per_class)[c].Merge(logs[t][c]);
      all.Merge(logs[t][c]);
    }
  }
  return all;
}

void PrintClasses(const std::vector<OpLog>& per_class, Report* r) {
  for (int c = 0; c < kClasses; ++c) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-10s %6zu ok %4llu failed  p50 %8.3f ms", kClassNames[c],
                  per_class[c].seconds.size(),
                  static_cast<unsigned long long>(per_class[c].failed),
                  1e3 * Median(per_class[c].seconds));
    r->Note(line);
  }
}

}  // namespace

void RunPopulation(const Options& opt, Report* report, SpanLog* spans) {
  const Sizes sizes = opt.mini ? Sizes{200, 8} : Sizes{2000, 160};
  const int setups = opt.trace || opt.mini ? 1 : 3;
  auto records = Records(opt.seed, sizes.studies);

  std::vector<double> setup_t;
  OpLog writes;
  Population p;
  for (int i = 0; i < setups; ++i) {
    p = Population{};
    OpLog load;
    double t0 = Now();
    p = Build(records, sizes.durable_studies, &load);
    setup_t.push_back(Now() - t0);
    writes.Merge(load);
  }
  World* w = p.serving.get();
  char line[256];
  std::snprintf(line, sizeof(line),
                "setup: %d builds, median %.3f s; %d studies, intensityBand "
                "%zu rows, relational %llu pages, lfm %llu pages, buffer pool "
                "%zu pages",
                setups, Median(setup_t), sizes.studies,
                w->db->Execute("select studyId from intensityBand")
                    .MoveValue()
                    .rows.size(),
                static_cast<unsigned long long>(
                    w->db->page_allocator()->allocated()),
                static_cast<unsigned long long>(
                    w->db->lfm()->allocated_pages()),
                qbism::sql::DatabaseOptions{}.buffer_pool_pages);
  report->Note(line);

  auto variants = Variants(w, opt.seed, opt.mini);
  ComputeReferences(w, &variants);  // hook off: the scan is the reference
  if (opt.corrupt_reference) {
    auto& v = variants[kConsistent].front();
    v.region = v.region.Complement();
  }
  w->db->set_candidate_index_hook(w->index->MakeHook());

  std::vector<OpLog> per_class;
  if (!opt.trace) {
    // Writes are durable replaces of the sampled studies, in rounds
    // between read sub-phases.
    std::vector<OpLog> classes(kClasses);
    OpLog reads = ReadsWithReplaceRounds(
        [&](int round, double seconds) {
          OpLog l = RunLoad(w, variants, opt.seed * 64 + round, seconds,
                            nullptr, &per_class);
          for (int c = 0; c < kClasses; ++c) classes[c].Merge(per_class[c]);
          return l;
        },
        p.durable.get(),
        std::vector<qbism::med::StudyRecord>(
            records.begin(), records.begin() + sizes.durable_studies),
        [] { return EmptyDurableWorld(false); }, opt.mini ? 1 : 32,
        opt.seconds, report);
    PrintClasses(classes, report);
    report->attempted += writes.attempted;
    report->failed += writes.failed;
    if (reads.failed > 0) report->Fail("wrong or failed population answers");
    report->Set("setup_s", Median(setup_t), "s");

    std::unique_ptr<World> recovered;
    qbism::sql::RecoveryStats stats;
    Recover(p.durable.get(), [] { return EmptyDurableWorld(false); }, 1,
            &recovered, &stats);
    ++report->attempted;
    if (Fingerprint(recovered.get()) != Fingerprint(p.durable.get())) {
      ++report->failed;
      report->Fail("recovered sample database differs from the live one");
    }
    report->Set("stored_bytes_per_user_byte", StoredBytesPerUserByte(w),
                "ratio");
    return;
  }

  double third = opt.seconds / 3;
  OpLog plain = RunLoad(w, variants, opt.seed, third, nullptr, &per_class);
  OpLog traced = RunLoad(w, variants, opt.seed, third, spans, &per_class);
  PrintClasses(per_class, report);
  for (const OpLog* l : {&plain, &traced}) {
    report->attempted += l->attempted;
    report->failed += l->failed;
  }
  if (plain.failed + traced.failed > 0) {
    report->Fail("wrong or failed population answers");
  }
  report->Set("untraced_read_p50_ms", 1e3 * Median(plain.seconds), "ms");
  report->Set("trace.overhead_ratio",
              Median(traced.seconds) / Median(plain.seconds), "ratio");

  qbism::obs::Tracer tracer;
  auto server = StartServer(w, kCallers, &tracer);
  LayerInputs in;
  in.serving = w;
  in.server = server.get();
  in.tracer = &tracer;
  in.wire_specs = PaperQueries(*w, w->studies.front());
  in.base.assign(records.begin(), records.begin() + 2);
  for (const auto& r : in.base) {
    in.writes.push_back(SyntheticStudy(opt.seed + 7, r.study_id, 20, 20, 14,
                                       false));
  }
  in.samples = opt.mini ? 2 : 5;
  ReplayLayers(opt, &in, report, spans);
  server->Shutdown();
}

}  // namespace qbench
