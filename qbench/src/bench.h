// The repository benchmark: three seeded workloads driven through the
// layers' public entry points (see qbench/README.md).
//
// One process runs one workload. With tracing off it measures the
// end-to-end metrics; with tracing on it replays sampled requests at
// each layer's entry and reports per-layer self time and counters.
// Every answer is checked against references computed before timing.

#ifndef QBENCH_BENCH_H_
#define QBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "index/manager.h"
#include "med/loader.h"
#include "qbism/ingest.h"
#include "qbism/medical_server.h"
#include "qbism/spatial_extension.h"
#include "server/server.h"
#include "sql/database.h"

namespace qbench {

using qbism::Result;
using qbism::Rng;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool mini = false;               // miniature sizes for the self-test
  bool corrupt_reference = false;  // self-test: the oracle must object
};

double Now();  // steady-clock seconds

/// Median and other order statistics over a copy of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The highest percentile with at least ten samples beyond it, capped at
/// p99: the tail statistic the sample count supports.
double TailQuantile(const std::vector<double>& v, double* q_used);

/// Latencies of one operation class plus its attempt/failure counts.
struct OpLog {
  std::vector<double> seconds;  // successful, correct operations
  std::vector<double> at;       // their completion times (Now())
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors and wrong answers
  void Ok(double latency) {
    seconds.push_back(latency);
    at.push_back(Now());
  }
  void Merge(const OpLog& o);
};

/// Splits a phase's operations into `k` equal time slices of
/// [start, end]; `durations` receives each slice's length.
std::vector<OpLog> Slices(const OpLog& log, double start, double end, int k,
                          std::vector<double>* durations);

/// Metrics keyed by name, each with its unit; printed as the run's
/// JSON result line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  void Erase(const std::string& name) { values_.erase(name); }
  void Note(const std::string& line);  // human-readable report line
  const std::map<std::string, std::pair<double, std::string>>& values()
      const {
    return values_;
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  void Fail(const std::string& why);  // marks the run incorrect
  std::string JsonLine() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Spans recorded by the benchmark around its calls into each layer:
/// name, start, end, parent span and request id. Written out when the
/// traced run ends.
class SpanLog {
 public:
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t request);
  void End(uint64_t id);
  double Duration(uint64_t id) const;
  size_t size() const;
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0, end = 0;
    uint64_t parent = 0, request = 0;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // span id = index + 1
};

/// One loaded database with the spatial extension and, when durable,
/// its write-ahead log and online ingest manager.
struct World {
  std::unique_ptr<qbism::sql::Database> db;
  std::unique_ptr<qbism::SpatialExtension> ext;
  std::unique_ptr<qbism::IngestManager> ingest;               // WAL only
  std::unique_ptr<qbism::index::SpatialIndexManager> index;  // if built
  std::vector<int> studies;  // studies readers may query
  std::vector<std::string> structures;
  uint64_t user_bytes = 0;  // raw scan bytes of the live studies
};

/// Opens a database over the given grid, installs the extension and the
/// paper schema, and loads the atlas row plus its structures (no
/// studies). `wal_pages` = 0 leaves the WAL off.
std::unique_ptr<World> NewWorld(qbism::region::GridSpec grid,
                                qbism::region::RegionEncoding encoding,
                                uint64_t relational_pages,
                                uint64_t long_field_pages, uint64_t wal_pages,
                                bool load_atlas);

/// A synthetic PET-like scan: a noisy ellipsoid of low intensity with
/// one localized hot spot whose position, size and peak come from
/// (seed, study_id), so band bounding boxes differ between studies.
qbism::med::StudyRecord SyntheticStudy(uint64_t seed, int study_id, int nx,
                                       int ny, int nz, bool store_raw);

/// Adds the patient rows the study records reference.
void AddPatients(World* w, int first, int last);

/// A durable load: each record is ingested through IngestManager (one
/// WAL transaction each); per-ingest latencies are appended to `writes`.
void DurableLoad(World* w, const std::vector<qbism::med::StudyRecord>& records,
                 OpLog* writes);

/// Copies of a durable world's LFM and WAL devices, as a crash leaves
/// them.
struct DeviceImages {
  std::vector<uint8_t> lfm, wal;
};
DeviceImages CloneDevices(World* w);

/// Restores `images` into a fresh, empty database built by `fresh` and
/// times Database::Recover on it; the recovered world is kept in
/// `recovered`, its stats in `stats`.
double Replay(const DeviceImages& images,
              const std::function<std::unique_ptr<World>()>& fresh,
              std::unique_ptr<World>* recovered,
              qbism::sql::RecoveryStats* stats);

/// Replays `w`'s log into `repeats` fresh, empty databases built by
/// `fresh` from clones of `w`'s devices. Returns the replay wall times;
/// the last recovered world is kept in `recovered`, its stats in `stats`.
std::vector<double> Recover(World* w,
                            const std::function<std::unique_ptr<World>()>& fresh,
                            int repeats, std::unique_ptr<World>* recovered,
                            qbism::sql::RecoveryStats* stats);

/// Every row of every paper-schema table, rendered and sorted, plus
/// the bytes of every long field the rows reference: two worlds with
/// equal fingerprints hold the same data.
std::vector<std::string> Fingerprint(World* w);

/// Bytes the LFM holds per byte of live raw scan.
double StoredBytesPerUserByte(World* w);

/// The paper's Table-3 queries on one study; the box of Q2 is scaled
/// from the 128^3 atlas to the world's grid.
std::vector<qbism::QuerySpec> PaperQueries(const World& w, int study_id);
const char* PaperQueryName(int i);  // "Q1".."Q6"

/// Byte-for-byte equality of two answers (region runs and values).
bool SameAnswer(const qbism::volume::DataRegion& a,
                const qbism::volume::DataRegion& b);

/// A QbismServer over `w` for benchmark traffic: one tenant, cache off,
/// host-only costs (no modeled waits or compile time).
std::unique_ptr<qbism::server::QbismServer> StartServer(
    World* w, int workers, qbism::obs::Tracer* tracer = nullptr);

/// Host fingerprint line (CPU model, cores, compiler, build type).
std::string HostFingerprint();

/// SQL of the three population statement classes: an index-prunable
/// box probe, an intensity-range probe, and a scan no index can prune.
std::string SelectiveSql(int x, int y, int z, int width, int lo);
std::string RangeSql(int lo);
std::string ScanSql(int lo, int min_voxels);

/// Rows rendered and sorted, for order-insensitive comparison.
std::vector<std::string> Rows(const qbism::sql::ResultSet& rs);

/// A study's stored band region starting at `lo`, read back through SQL
/// and the LFM.
Result<qbism::region::Region> BandRegion(World* w, int study_id, int lo);

/// Table 3's Q1-Q6 on one study under the paper's cost model: LFM page
/// I/Os, seeks, and modeled 1993 seconds (disk + network + SQL
/// compile), all deterministic.
struct CycleRow {
  std::string name;
  uint64_t voxels = 0;
  uint64_t lfm_pages = 0;
  uint64_t seeks = 0;
  double modeled_s = 0.0;
};
std::vector<CycleRow> PaperCycle(World* w, int study_id);
/// Prints the cycle and fails the run when Q1 stops dominating or Q6's
/// I/Os are no longer below Q4's plus Q5's.
void CheckPaperShape(const std::vector<CycleRow>& rows, Report* r);

/// Per-workload entry points. Each fills `report` with every
/// end-to-end metric (trace off) or every per-layer metric (trace on).
void RunPaperQueries(const Options& opt, Report* report, SpanLog* spans);
void RunPopulation(const Options& opt, Report* report, SpanLog* spans);
void RunIngestMixed(const Options& opt, Report* report, SpanLog* spans);

/// Shared layer replay for traced runs, with inputs drawn from the
/// workload's own world; the write chain runs on scratch worlds of the
/// serving world's grid and encoding, loaded with `base`.
struct LayerInputs {
  World* serving = nullptr;
  qbism::server::QbismServer* server = nullptr;  // over `serving`
  qbism::obs::Tracer* tracer = nullptr;          // attached to `server`
  std::vector<qbism::QuerySpec> wire_specs;      // sampled read requests
  std::vector<qbism::med::StudyRecord> base;     // scratch world's studies
  std::vector<qbism::med::StudyRecord> writes;   // replaces of `base` ids
  int samples = 5;                               // calls per input
};
void ReplayLayers(const Options& opt, LayerInputs* in, Report* report,
                  SpanLog* spans);

/// Sets `<kind>_p50_ms`, `<kind>_p99_ms` and `<kind>_per_s` from
/// windows of a run (time slices of a phase, or repeated set-ups): the
/// median over windows of each window's median latency and throughput,
/// so one disturbed window cannot move them, and the tail percentile
/// over all samples.
void SetLatencyMetrics(const std::string& kind,
                       const std::vector<OpLog>& windows,
                       const std::vector<double>& durations, Report* r);
/// Reads of a measured phase in five time slices.
void SetReadMetrics(const OpLog& reads, double start, double end, Report* r);
/// The measured phase of a read workload, with its writes and
/// recoveries spread over it: `rounds` read sub-phases of
/// `seconds / rounds` each (`read` runs one and returns its log), each
/// followed by one round of durable replaces of `records` in `durable`
/// and one replay, into a world built by `fresh`, of `durable`'s log as
/// set-up left it. Every sub-phase is a window of the read metrics,
/// every round one of the write metrics, and `recover_s` is the median
/// replay, so a slow stretch of the host moves one sample of each
/// rather than a metric. Returns all reads; counts every operation
/// into `r`.
OpLog ReadsWithReplaceRounds(
    const std::function<OpLog(int round, double seconds)>& read,
    World* durable, const std::vector<qbism::med::StudyRecord>& records,
    const std::function<std::unique_ptr<World>()>& fresh, int rounds,
    double seconds, Report* r);

}  // namespace qbench

#endif  // QBENCH_BENCH_H_
