// Shared pieces of the benchmark: statistics, the result line, span
// log, world construction, durable load and recovery, and the answer
// fingerprints the oracle compares.

#include <sys/utsname.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/crc32.h"
#include "common/macros.h"
#include "common/timer.h"
#include "med/schema.h"

namespace qbench {

using qbism::sql::Database;
using qbism::sql::DatabaseOptions;
using qbism::sql::Row;
using qbism::sql::Value;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double at = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(at));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

double TailQuantile(const std::vector<double>& v, double* q_used) {
  // p99 needs >= 1000 samples for ten beyond it; fall back to the
  // highest percentile the sample count supports.
  double q = 0.99;
  for (double cand : {0.99, 0.95, 0.9, 0.5}) {
    q = cand;
    if ((1.0 - cand) * static_cast<double>(v.size()) >= 10.0) break;
  }
  if (q_used != nullptr) *q_used = q;
  return Quantile(v, q);
}

void OpLog::Merge(const OpLog& o) {
  seconds.insert(seconds.end(), o.seconds.begin(), o.seconds.end());
  at.insert(at.end(), o.at.begin(), o.at.end());
  attempted += o.attempted;
  failed += o.failed;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  values_[name] = {value, unit};
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

void Report::Note(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Report::Fail(const std::string& why) {
  correct = false;
  Note("ORACLE FAILURE: " + why);
}

std::string Report::JsonLine() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    char num[64];
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
        << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

uint64_t SpanLog::Begin(const std::string& name, uint64_t parent,
                        uint64_t request) {
  double t = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t, t, parent, request});
  return spans_.size();
}

void SpanLog::End(uint64_t id) {
  double t = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = t;
}

double SpanLog::Duration(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_[id - 1].end - spans_[id - 1].start;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %llu, \"request\": %llu}\n",
                  i + 1, s.name.c_str(), 1e6 * (s.start - t0),
                  1e6 * (s.end - t0),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << line;
  }
  return static_cast<bool>(out);
}

std::unique_ptr<World> NewWorld(qbism::region::GridSpec grid,
                                qbism::region::RegionEncoding encoding,
                                uint64_t relational_pages,
                                uint64_t long_field_pages, uint64_t wal_pages,
                                bool load_atlas) {
  auto w = std::make_unique<World>();
  DatabaseOptions dbo;
  dbo.relational_pages = relational_pages;
  dbo.long_field_pages = long_field_pages;
  dbo.enable_wal = wal_pages > 0;
  if (wal_pages > 0) dbo.wal_pages = wal_pages;
  w->db = std::make_unique<Database>(dbo);
  qbism::SpatialConfig config;
  config.grid = grid;
  config.region_encoding = encoding;
  w->ext = qbism::SpatialExtension::Install(w->db.get(), config).MoveValue();
  QBISM_CHECK_OK(qbism::med::BootstrapSchema(w->db.get()));
  if (load_atlas) {
    qbism::med::LoadOptions load;
    load.num_pet_studies = 0;
    load.num_mri_studies = 0;
    load.build_meshes = false;
    auto dataset = qbism::med::PopulateDatabase(w->ext.get(), load);
    QBISM_CHECK(dataset.ok());
    w->structures = dataset->structure_names;
  }
  if (dbo.enable_wal) {
    w->ingest = std::make_unique<qbism::IngestManager>(w->ext.get());
  }
  return w;
}

qbism::med::StudyRecord SyntheticStudy(uint64_t seed, int study_id, int nx,
                                       int ny, int nz, bool store_raw) {
  Rng rng(seed * 1000003ull + static_cast<uint64_t>(study_id));
  double hx = rng.NextDoubleIn(2, nx - 3), hy = rng.NextDoubleIn(2, ny - 3),
         hz = rng.NextDoubleIn(2, nz - 3);
  double radius = rng.NextDoubleIn(1.5, 3.5);
  double peak = rng.NextDoubleIn(100, 255);
  std::vector<uint8_t> data(static_cast<size_t>(nx) * ny * nz);
  size_t i = 0;
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x, ++i) {
        double ex = (x - nx / 2.0) / (0.45 * nx);
        double ey = (y - ny / 2.0) / (0.45 * ny);
        double ez = (z - nz / 2.0) / (0.45 * nz);
        double v = 0;
        if (ex * ex + ey * ey + ez * ez <= 1.0) {
          v = 8 + static_cast<double>(rng.NextBounded(20));
        }
        double d = std::sqrt((x - hx) * (x - hx) + (y - hy) * (y - hy) +
                             (z - hz) * (z - hz));
        if (d < radius) v = std::max(v, peak * (1.0 - 0.6 * d / radius));
        data[i] = static_cast<uint8_t>(std::min(255.0, v));
      }
    }
  }
  qbism::med::StudyRecord r;
  r.study_id = study_id;
  r.patient_id = study_id;
  r.date = "1993-07-01";
  r.modality = "PET";
  r.raw = qbism::warp::RawVolume::Create(nx, ny, nz, std::move(data)).value();
  r.warp_seed = seed ^ static_cast<uint64_t>(study_id);
  r.band_width = 32;
  r.store_raw = store_raw;
  return r;
}

void AddPatients(World* w, int first, int last) {
  for (int id = first; id <= last; ++id) {
    QBISM_CHECK_OK(w->db->Insert(
        "patient", Row{Value::Int(id), Value::String("patient"),
                       Value::Int(30 + id % 40),
                       Value::String(id % 2 ? "F" : "M")}));
  }
}

void DurableLoad(World* w, const std::vector<qbism::med::StudyRecord>& records,
                 OpLog* writes) {
  for (const auto& record : records) {
    double t0 = Now();
    qbism::Status s = w->ingest->IngestStudy(record);
    double dt = Now() - t0;
    ++writes->attempted;
    if (s.ok()) {
      writes->Ok(dt);
      w->user_bytes += record.raw.data().size();
    } else {
      ++writes->failed;
      std::fprintf(stderr, "ingest of study %d failed: %s\n", record.study_id,
                   s.ToString().c_str());
    }
  }
}

DeviceImages CloneDevices(World* w) {
  return {w->db->long_field_device()->CloneContents(),
          w->db->wal_device()->CloneContents()};
}

double Replay(const DeviceImages& images,
              const std::function<std::unique_ptr<World>()>& fresh,
              std::unique_ptr<World>* recovered,
              qbism::sql::RecoveryStats* stats) {
  recovered->reset();
  std::unique_ptr<World> r = fresh();
  QBISM_CHECK_OK(r->db->long_field_device()->RestoreContents(images.lfm));
  QBISM_CHECK_OK(r->db->wal_device()->RestoreContents(images.wal));
  double t0 = Now();
  auto result = r->db->Recover();
  double seconds = Now() - t0;
  QBISM_CHECK(result.ok());
  *stats = *result;
  *recovered = std::move(r);
  return seconds;
}

std::vector<double> Recover(World* w,
                            const std::function<std::unique_ptr<World>()>& fresh,
                            int repeats, std::unique_ptr<World>* recovered,
                            qbism::sql::RecoveryStats* stats) {
  DeviceImages images = CloneDevices(w);
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    times.push_back(Replay(images, fresh, recovered, stats));
  }
  return times;
}

std::vector<std::string> Fingerprint(World* w) {
  static const char* kTables[] = {
      "atlas",   "neuralSystem", "neuralStructure", "atlasStructure",
      "patient", "rawVolume",    "warpedVolume",    "intensityBand"};
  std::vector<std::string> out;
  for (const char* table : kTables) {
    auto rs = w->db->Execute(std::string("select * from ") + table);
    QBISM_CHECK(rs.ok());
    for (const Row& row : rs->rows) {
      std::string line = table;
      for (const Value& v : row) {
        line += '|';
        if (v.kind() == Value::Kind::kLongField) {
          auto id = v.AsLongField().MoveValue();
          if (id.IsNull()) {
            line += "lf:null";
            continue;
          }
          auto bytes = w->db->lfm()->Read(id);
          QBISM_CHECK(bytes.ok());
          char buf[64];
          std::snprintf(buf, sizeof(buf), "lf:%zu:%08x", bytes->size(),
                        qbism::Crc32(*bytes));
          line += buf;
        } else {
          line += v.ToString();
        }
      }
      out.push_back(std::move(line));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double StoredBytesPerUserByte(World* w) {
  double stored = static_cast<double>(w->db->lfm()->allocated_pages()) * 4096;
  return w->user_bytes > 0 ? stored / static_cast<double>(w->user_bytes)
                           : 0.0;
}

std::vector<qbism::QuerySpec> PaperQueries(const World& w, int study_id) {
  // Table 3 on the 128^3 atlas; Q2's 71^3 box scales with the grid.
  int side = static_cast<int>(w.ext->config().grid.SideLength());
  auto scale = [&](int v) { return v * side / 128; };
  std::vector<qbism::QuerySpec> q(6);
  q[0].study_id = study_id;
  q[1] = q[0];
  q[1].box = qbism::geometry::Box3i{{scale(30), scale(30), scale(30)},
                                    {scale(100), scale(100), scale(100)}};
  q[2] = q[0];
  q[2].structure_name = "ntal";
  q[3] = q[0];
  q[3].structure_name = "ntal1";
  q[4] = q[0];
  q[4].intensity_range = std::make_pair(224, 255);
  q[5] = q[3];
  q[5].intensity_range = std::make_pair(224, 255);
  return q;
}

const char* PaperQueryName(int i) {
  static const char* kNames[] = {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"};
  return kNames[i];
}

bool SameAnswer(const qbism::volume::DataRegion& a,
                const qbism::volume::DataRegion& b) {
  return a.region().grid() == b.region().grid() &&
         a.region().runs() == b.region().runs() && a.values() == b.values();
}

std::unique_ptr<qbism::server::QbismServer> StartServer(
    World* w, int workers, qbism::obs::Tracer* tracer) {
  qbism::server::ServerOptions options;
  qbism::server::TenantConfig tenant;
  tenant.name = "bench";
  tenant.secret = "bench-secret";
  tenant.max_waiting = 1 << 10;
  options.tenants = {tenant};
  options.service.num_workers = workers;
  options.service.queue_capacity = 256;
  options.service.cache_entries = 0;  // the paper flushed caches
  options.service.io_wait_scale = 0.0;
  options.service.cost_model.sql_compile_seconds = 0.0;
  options.service.ingest = w->ingest.get();
  options.service.tracer = tracer;
  auto server = std::make_unique<qbism::server::QbismServer>(w->ext.get(),
                                                             options);
  QBISM_CHECK_OK(server->Start());
  return server;
}

std::string HostFingerprint() {
  std::string cpu = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned int brand[12] = {};
  if (__get_cpuid(0x80000002, &brand[0], &brand[1], &brand[2], &brand[3]) &&
      __get_cpuid(0x80000003, &brand[4], &brand[5], &brand[6], &brand[7]) &&
      __get_cpuid(0x80000004, &brand[8], &brand[9], &brand[10], &brand[11])) {
    cpu.assign(reinterpret_cast<const char*>(brand), sizeof(brand));
    cpu = cpu.c_str();  // drop the padding NULs
  }
#endif
  struct utsname u {};
  uname(&u);
  std::ostringstream out;
  out << "host: cpu=\"" << cpu << "\" nproc="
      << std::thread::hardware_concurrency() << " kernel=" << u.release
      << " compiler=\"" << __VERSION__ << "\" build=" << QBENCH_BUILD_TYPE;
  return out.str();
}

std::vector<OpLog> Slices(const OpLog& log, double start, double end, int k,
                          std::vector<double>* durations) {
  std::vector<OpLog> out(static_cast<size_t>(k));
  double width = (end - start) / k;
  durations->assign(static_cast<size_t>(k), width);
  for (size_t i = 0; i < log.seconds.size(); ++i) {
    int slot = static_cast<int>((log.at[i] - start) / width);
    OpLog& o = out[static_cast<size_t>(std::clamp(slot, 0, k - 1))];
    o.seconds.push_back(log.seconds[i]);
    o.at.push_back(log.at[i]);
  }
  out.front().attempted = log.attempted;  // counts are not windowed
  out.front().failed = log.failed;
  return out;
}

void SetLatencyMetrics(const std::string& kind,
                       const std::vector<OpLog>& windows,
                       const std::vector<double>& durations, Report* r) {
  OpLog all;
  std::vector<double> p50s, rates;
  for (size_t i = 0; i < windows.size(); ++i) {
    all.Merge(windows[i]);
    if (windows[i].seconds.empty()) continue;
    p50s.push_back(Median(windows[i].seconds));
    rates.push_back(static_cast<double>(windows[i].seconds.size()) /
                    durations[i]);
  }
  // The tail: the median, over consecutive chunks of at least 1000
  // operations in completion order, of each chunk's tail percentile, so
  // one disturbed stretch moves one chunk rather than the metric.
  std::vector<size_t> order(all.seconds.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return all.at[a] < all.at[b]; });
  size_t chunks = std::max<size_t>(1, order.size() / 1000);
  std::vector<double> tails;
  double q = 0.99;
  for (size_t c = 0; c < chunks; ++c) {
    std::vector<double> chunk;
    for (size_t i = c * order.size() / chunks;
         i < (c + 1) * order.size() / chunks; ++i) {
      chunk.push_back(all.seconds[order[i]]);
    }
    tails.push_back(TailQuantile(chunk, &q));
  }
  double tail = Median(tails);
  r->Set(kind + "_p50_ms", 1e3 * Median(p50s), "ms");
  r->Set(kind + "_p99_ms", 1e3 * tail, "ms");
  r->Set(kind + "_per_s", Median(rates), "1/s");
  char line[320];
  std::snprintf(line, sizeof(line),
                "%ss: %zu samples in %zu windows (%llu attempted, %llu "
                "failed); p50 %.3f ms, p%.0f %.3f ms (median of %zu chunks, "
                "%zu samples beyond it in each), %.2f/s",
                kind.c_str(), all.seconds.size(), windows.size(),
                static_cast<unsigned long long>(all.attempted),
                static_cast<unsigned long long>(all.failed),
                r->Get(kind + "_p50_ms"), 100 * q, r->Get(kind + "_p99_ms"),
                chunks,
                static_cast<size_t>((1.0 - q) * all.seconds.size() / chunks),
                r->Get(kind + "_per_s"));
  r->Note(line);
  std::string per_chunk = "  chunk tails (ms):";
  for (double t : tails) {
    std::snprintf(line, sizeof(line), " %.3f", 1e3 * t);
    per_chunk += line;
  }
  r->Note(per_chunk);
}

void SetReadMetrics(const OpLog& reads, double start, double end, Report* r) {
  std::vector<double> durations;
  auto windows = Slices(reads, start, end, 5, &durations);
  SetLatencyMetrics("read", windows, durations, r);
}

OpLog ReadsWithReplaceRounds(
    const std::function<OpLog(int round, double seconds)>& read,
    World* durable, const std::vector<qbism::med::StudyRecord>& records,
    const std::function<std::unique_ptr<World>()>& fresh, int rounds,
    double seconds, Report* r) {
  std::vector<OpLog> reads, writes;
  std::vector<double> read_t, write_t, replays;
  OpLog all;
  DeviceImages setup_log = CloneDevices(durable);
  std::unique_ptr<World> recovered;
  qbism::sql::RecoveryStats stats;
  for (int i = 0; i < rounds; ++i) {
    double t0 = Now();
    reads.push_back(read(i, seconds / rounds));
    read_t.push_back(Now() - t0);
    all.Merge(reads.back());
    OpLog& round = writes.emplace_back();
    double busy = 0;
    for (const auto& record : records) {
      double w0 = Now();
      qbism::Status s = durable->ingest->ReplaceStudy(record);
      double dt = Now() - w0;
      ++round.attempted;
      if (s.ok()) {
        round.Ok(dt);
        busy += dt;
      } else {
        if (round.failed == 0) {
          std::fprintf(stderr, "replace of study %d failed: %s\n",
                       record.study_id, s.ToString().c_str());
        }
        ++round.failed;
      }
    }
    durable->ingest->Vacuum();
    if (durable->index) durable->index->Vacuum();
    write_t.push_back(busy);
    replays.push_back(Replay(setup_log, fresh, &recovered, &stats));
    r->attempted += round.attempted;
    r->failed += round.failed;
    if (round.failed > 0) r->Fail("durable replaces failed");
  }
  r->attempted += all.attempted;
  r->failed += all.failed;
  SetLatencyMetrics("read", reads, read_t, r);
  SetLatencyMetrics("write", writes, write_t, r);
  r->Set("recover_s", Median(replays), "s");
  char line[160];
  std::snprintf(line, sizeof(line),
                "recovery of the set-up log: %llu records, median %.4f s of "
                "%zu replays",
                static_cast<unsigned long long>(stats.records_replayed),
                Median(replays), replays.size());
  r->Note(line);
  return all;
}

}  // namespace qbench
