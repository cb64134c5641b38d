// The traced replay: sampled requests re-issued at each layer's public
// entry, one span per call, so a layer's self time is its call's
// duration minus the next-inner call's on the same input. Counters come
// from the program's public stats structs. Also the paper-shape cycle
// (Table 3's I/O and modeled 1993 times), which every run checks.

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.h"
#include "common/macros.h"
#include "common/rng.h"
#include "med/phantom.h"
#include "server/client.h"
#include "server/codec.h"
#include "service/query_service.h"
#include "warp/warp.h"

namespace qbench {

using qbism::region::EncodedRegion;
using qbism::region::Region;

std::string SelectiveSql(int x, int y, int z, int width, int lo) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "select studyId, lo, hi, voxelcount(region) from "
                "intensityBand where intersects(region, boxregion(%d, %d, "
                "%d, %d, %d, %d)) <> 0 and lo >= %d",
                x, y, z, x + width - 1, y + width - 1, z + width - 1, lo);
  return buf;
}

std::string RangeSql(int lo) {
  return "select studyId, lo, voxelcount(region) from intensityBand where "
         "intersects(region, fullregion()) <> 0 and lo >= " +
         std::to_string(lo);
}

std::string ScanSql(int lo, int min_voxels) {
  return "select studyId, lo, hi, voxelcount(region) from intensityBand "
         "where lo >= " +
         std::to_string(lo) + " and voxelcount(region) > " +
         std::to_string(min_voxels);
}

std::vector<std::string> Rows(const qbism::sql::ResultSet& rs) {
  std::vector<std::string> out;
  for (const auto& row : rs.rows) {
    std::string line;
    for (const auto& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<Region> BandRegion(World* w, int study_id, int lo) {
  auto rs = w->db->Execute(
      "select region from intensityBand where studyId = " +
      std::to_string(study_id) + " and lo = " + std::to_string(lo));
  if (!rs.ok()) return rs.status();
  if (rs->rows.empty()) return qbism::Status::NotFound("no band");
  auto id = rs->rows.front().front().AsLongField();
  if (!id.ok()) return id.status();
  return w->ext->LoadRegion(*id);
}

std::vector<CycleRow> PaperCycle(World* w, int study_id) {
  // The paper's cost model (modeled SQL compile, 1993 disk and
  // network); the host's own CPU time is left out so the figures are
  // deterministic counts of the modeled costs.
  qbism::MedicalServer server(w->ext.get());
  const double compile = qbism::ServerCostModel{}.sql_compile_seconds;
  std::vector<CycleRow> rows;
  auto specs = PaperQueries(*w, study_id);
  for (size_t i = 0; i < specs.size(); ++i) {
    auto lfm0 = w->db->long_field_device()->stats();
    auto rel0 = w->db->relational_device()->stats();
    auto result = server.RunStudyQuery(specs[i], /*render=*/false);
    QBISM_CHECK(result.ok());
    auto lfm = w->db->long_field_device()->stats() - lfm0;
    auto rel = w->db->relational_device()->stats() - rel0;
    CycleRow row;
    row.name = PaperQueryName(static_cast<int>(i));
    row.voxels = result->result_voxels;
    row.lfm_pages = lfm.pages_read + lfm.pages_written;
    row.seeks = lfm.seeks;
    row.modeled_s = lfm.simulated_seconds + rel.simulated_seconds +
                    result->timing.network_seconds + compile;
    rows.push_back(row);
  }
  return rows;
}

void CheckPaperShape(const std::vector<CycleRow>& rows, Report* r) {
  r->Note("paper shape (deterministic, 1993 model): query voxels "
          "lfm_pages seeks modeled_s");
  for (const CycleRow& row : rows) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %s %9llu %6llu %5llu %8.3f",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.voxels),
                  static_cast<unsigned long long>(row.lfm_pages),
                  static_cast<unsigned long long>(row.seeks), row.modeled_s);
    r->Note(line);
  }
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].modeled_s >= rows[0].modeled_s) {
      r->Fail("paper shape: Q1 no longer dominates (" + rows[i].name +
              " modeled time >= Q1's)");
    }
  }
  if (rows[5].lfm_pages >= rows[3].lfm_pages + rows[4].lfm_pages) {
    r->Fail("paper shape: Q6's I/Os are not below Q4's plus Q5's");
  }
}

namespace {

/// Times `fn` `n` times under a span each; returns the durations.
template <typename Fn>
std::vector<double> Timed(SpanLog* spans, const std::string& name,
                          uint64_t parent, uint64_t* request, int n, Fn fn) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    uint64_t id = spans->Begin(name, parent, ++*request);
    fn();
    spans->End(id);
    out.push_back(spans->Duration(id));
  }
  return out;
}

double Ms(double seconds) { return 1e3 * seconds; }

/// The long field holding an atlas structure's region.
qbism::storage::LongFieldId StructureField(qbism::sql::Database* db,
                                           const std::string& name) {
  auto rs = db->Execute(
      "select ast.region from atlasStructure ast, neuralStructure ns where "
      "ast.structureId = ns.structureId and ns.structureName = '" +
      name + "'");
  QBISM_CHECK(rs.ok() && !rs->rows.empty());
  return rs->rows.front().front().AsLongField().MoveValue();
}

}  // namespace

void ReplayLayers(const Options& opt, LayerInputs* in, Report* r,
                  SpanLog* spans) {
  World* w = in->serving;
  qbism::sql::Database* db = w->db.get();
  const int n = in->samples;
  uint64_t req = 1u << 30;  // replay request ids stay clear of the load's
  const uint64_t root = spans->Begin("replay", 0, 0);

  // --- wire -> service -> qbism -> sql, one chain per sampled request ---
  auto client = qbism::server::NetClient::Connect("127.0.0.1",
                                                  in->server->port());
  QBISM_CHECK(client.ok());
  QBISM_CHECK_OK(client->Login("bench", "bench-secret"));
  qbism::MedicalServer medical(w->ext.get(), qbism::net::NetworkCostModel{},
                               qbism::ServerCostModel{0.0});
  auto* service = in->server->service();
  auto s0 = in->server->stats();
  auto t0 = in->server->tenant_stats(0).admission;
  auto e0 = w->ext->extractor()->stats();
  double server_self = 0, service_self = 0, qbism_self = 0, info = 0,
         data = 0, encode = 0, decode = 0;
  for (const qbism::QuerySpec& spec : in->wire_specs) {
    std::vector<double> wire, exec, rsq, info_t, data_t, enc_t, dec_t;
    for (int s = 0; s < 3 * n; ++s) {
      ++req;
      uint64_t a = spans->Begin("server.RunQuery", root, req);
      auto outcome = client->RunQuery(spec);
      spans->End(a);
      uint64_t b = spans->Begin("service.Execute", a, req);
      qbism::service::ServiceRequest request;
      request.spec = spec;
      auto reply = service->Execute(request);
      spans->End(b);
      uint64_t c = spans->Begin("qbism.RunStudyQuery", b, req);
      auto result = medical.RunStudyQuery(spec, /*render=*/false);
      spans->End(c);
      QBISM_CHECK(result.ok());
      uint64_t d = spans->Begin("sql.info", c, req);
      auto info_rs = db->Execute(result->info_sql);
      spans->End(d);
      uint64_t e = spans->Begin("sql.data", c, req);
      auto data_rs = db->Execute(result->data_sql);
      spans->End(e);
      ++r->attempted;
      if (!outcome.ok() || !reply.ok() || !info_rs.ok() || !data_rs.ok() ||
          !SameAnswer(outcome->data, result->data) ||
          !SameAnswer(reply->result.data, result->data)) {
        ++r->failed;
        r->Fail("replay: " + spec.Describe() + " disagrees across layers");
        continue;
      }
      uint64_t f = spans->Begin("server.EncodeAnswerPayload", a, req);
      auto payload = qbism::server::EncodeAnswerPayload(outcome->data);
      spans->End(f);
      QBISM_CHECK(payload.ok());
      uint64_t g = spans->Begin("server.DecodeAnswerPayload", a, req);
      auto decoded = qbism::server::DecodeAnswerPayload(*payload);
      spans->End(g);
      QBISM_CHECK(decoded.ok() && SameAnswer(*decoded, outcome->data));
      wire.push_back(spans->Duration(a));
      exec.push_back(spans->Duration(b));
      rsq.push_back(spans->Duration(c));
      info_t.push_back(spans->Duration(d));
      data_t.push_back(spans->Duration(e));
      enc_t.push_back(spans->Duration(f));
      dec_t.push_back(spans->Duration(g));
    }
    server_self += Median(wire) - Median(exec);
    service_self += Median(exec) - Median(rsq);
    qbism_self += Median(rsq) - Median(info_t) - Median(data_t);
    info += Median(info_t);
    data += Median(data_t);
    encode += Median(enc_t);
    decode += Median(dec_t);
  }
  double classes = static_cast<double>(std::max<size_t>(
      1, in->wire_specs.size()));
  auto s1 = in->server->stats();
  auto t1 = in->server->tenant_stats(0).admission;
  auto ex = w->ext->extractor()->stats() - e0;
  double queries = static_cast<double>(
      std::max<uint64_t>(1, s1.queries_ok - s0.queries_ok));
  r->Set("server.self_ms", Ms(server_self / classes), "ms");
  r->Set("server.encode_ms", Ms(encode / classes), "ms");
  r->Set("server.decode_ms", Ms(decode / classes), "ms");
  r->Set("server.wire_bytes_per_read",
         static_cast<double>((s1.bytes_written - s0.bytes_written) +
                             (s1.bytes_read - s0.bytes_read)) /
             queries,
         "bytes");
  r->Set("server.frames_per_read",
         static_cast<double>((s1.frames_written - s0.frames_written) +
                             (s1.frames_read - s0.frames_read)) /
             queries,
         "count");
  double admitted = static_cast<double>(t1.admitted - t0.admitted);
  r->Set("server.admit_waited_share",
         admitted > 0 ? static_cast<double>(t1.waited - t0.waited) / admitted
                      : 0.0,
         "ratio");
  r->Set("service.self_ms", Ms(service_self / classes), "ms");
  r->Set("service.queue_wait_ms", Ms(service->metrics().queue_wait.p50),
         "ms");
  r->Set("qbism.self_ms", Ms(qbism_self / classes), "ms");
  r->Set("sql.info_ms", Ms(info / classes), "ms");
  r->Set("sql.data_ms", Ms(data / classes), "ms");
  double extractions = static_cast<double>(std::max<uint64_t>(
      1, ex.extractions));
  r->Set("qbism.extract_pages_read",
         static_cast<double>(ex.pages_read) / extractions, "pages");
  r->Set("qbism.extract_coalescing_ratio", ex.CoalescingRatio(), "ratio");
  r->Set("qbism.extract_parallel_efficiency", ex.ParallelEfficiency(),
         "threads");
  r->Set("qbism.extract_helper_tasks",
         static_cast<double>(ex.helper_tasks) / extractions, "count");
  client->Bye();
  // Coverage by the program's own stages: the share of each wire
  // request span that its direct child stages (admit, query, ship)
  // account for.
  std::map<uint64_t, double> request_spans;
  double covered = 0, requested = 0;
  auto traced = in->tracer->Spans();
  for (const auto& s : traced) {
    if (s.stage == qbism::obs::Stage::kRequest) {
      request_spans[s.span_id] = s.duration_seconds;
    }
  }
  for (const auto& s : traced) {
    // The accept span also covers the idle wait for the next frame.
    if (request_spans.count(s.parent_id) &&
        s.stage != qbism::obs::Stage::kAccept) {
      covered += s.duration_seconds;
    }
  }
  for (const auto& [id, d] : request_spans) requested += d;
  r->Set("trace.coverage", requested > 0 ? covered / requested : 0.0,
         "ratio");

  // --- the paper's Q1-Q6 cycle under the deterministic 1993 model -------
  std::vector<CycleRow> cycle = PaperCycle(w, w->studies.front());
  double modeled = 0, pages = 0, seeks = 0;
  for (const CycleRow& row : cycle) {
    modeled += row.modeled_s;
    pages += static_cast<double>(row.lfm_pages);
    seeks += static_cast<double>(row.seeks);
  }
  r->Set("qbism.modeled_cycle_s", modeled, "model-s");  // not wall time
  r->Set("storage.lfm_pages_per_cycle", pages, "pages");
  r->Set("storage.lfm_seeks_per_cycle", seeks, "count");

  // --- multi-study operators ---------------------------------------------
  std::vector<int> k_studies(
      w->studies.begin(),
      w->studies.begin() + std::min<size_t>(4, w->studies.size()));
  r->Set("qbism.consistent_band_ms",
         Ms(Median(Timed(spans, "qbism.ConsistentBandRegion", root, &req, n,
                         [&] {
                           QBISM_CHECK(medical
                                           .ConsistentBandRegion(k_studies, 0,
                                                                 31)
                                           .ok());
                         }))),
         "ms");
  r->Set("qbism.structure_average_ms",
         Ms(Median(Timed(spans, "qbism.AverageInStructure", root, &req, n,
                         [&] {
                           QBISM_CHECK(
                               medical.AverageInStructure(k_studies, "ntal1")
                                   .ok());
                         }))),
         "ms");

  // --- SQL statement classes and the cross-study index -------------------
  if (!w->index) {
    w->index = std::make_unique<qbism::index::SpatialIndexManager>(
        w->ext.get());
    QBISM_CHECK_OK(w->index->BuildFromCatalog());
    db->set_candidate_index_hook(w->index->MakeHook());
  }
  int side = static_cast<int>(w->ext->config().grid.SideLength());
  int box = std::max(2, side / 6);
  Rng rng(opt.seed ^ 0x5eedull);
  std::vector<std::string> selective, range, scan;
  std::vector<Region> probes;
  for (int i = 0; i < 4; ++i) {
    int x = static_cast<int>(rng.NextBounded(side - box));
    int y = static_cast<int>(rng.NextBounded(side - box));
    int z = static_cast<int>(rng.NextBounded(side - box));
    selective.push_back(SelectiveSql(x, y, z, box, 96));
    probes.push_back(Region::FromBox(w->ext->config().grid,
                                     w->ext->config().curve,
                                     {{x, y, z},
                                      {x + box - 1, y + box - 1,
                                       z + box - 1}}));
    range.push_back(RangeSql(160 + 32 * (i % 3)));
    scan.push_back(ScanSql(64, 4 + i));
  }
  auto* pool = db->buffer_pool();
  uint64_t hits0 = pool->hits(), misses0 = pool->misses();
  uint64_t lfm_pages0 = db->long_field_device()->stats().pages_read;
  int statements = 0;
  auto run_class = [&](const char* name, const std::vector<std::string>& sqls) {
    std::vector<double> t;
    for (const std::string& sql : sqls) {
      auto d = Timed(spans, name, root, &req, n, [&] {
        QBISM_CHECK(db->Execute(sql).ok());
      });
      statements += n;
      t.insert(t.end(), d.begin(), d.end());
    }
    return Ms(Median(t));
  };
  r->Set("sql.stmt_ms.selective", run_class("sql.selective", selective), "ms");
  r->Set("sql.stmt_ms.range", run_class("sql.range", range), "ms");
  r->Set("sql.stmt_ms.scan", run_class("sql.scan", scan), "ms");
  uint64_t hits = pool->hits() - hits0, misses = pool->misses() - misses0;
  r->Set("storage.buffer_pool_hit_ratio",
         hits + misses > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(hits + misses)
                           : 0.0,
         "ratio");
  r->Set("storage.lfm_pages_per_stmt",
         static_cast<double>(db->long_field_device()->stats().pages_read -
                             lfm_pages0) /
             std::max(1, statements),
         "pages");

  auto pc0 = w->index->probe_counters();
  std::vector<double> probe_t;
  double candidates = 0;
  for (const Region& probe : probes) {
    auto d = Timed(spans, "index.ProbeIntersect", root, &req, n, [&] {
      auto c = w->index->ProbeIntersect(probe, 96, 255);
      QBISM_CHECK(c.ok());
      candidates += static_cast<double>(c->size());
    });
    probe_t.insert(probe_t.end(), d.begin(), d.end());
  }
  auto pc = w->index->probe_counters();
  double probe_calls = static_cast<double>(probe_t.size());
  double tested = static_cast<double>(pc.entries_tested - pc0.entries_tested);
  double live = static_cast<double>(
      std::max<uint64_t>(1, w->index->stats().live_studies));
  r->Set("index.probe_ms", Ms(Median(probe_t)), "ms");
  r->Set("index.pages_per_probe",
         static_cast<double>(pc.pages_visited - pc0.pages_visited) /
             probe_calls,
         "pages");
  r->Set("index.entries_per_probe", tested / probe_calls, "count");
  r->Set("index.candidate_share", candidates / probe_calls / live, "ratio");
  r->Set("index.pruned_sig_share",
         tested > 0 ? static_cast<double>(pc.pruned_sig - pc0.pruned_sig) /
                          tested
                    : 0.0,
         "ratio");
  // The same statement with the hook off is the oracle and the base of
  // the speed-up.
  std::vector<double> on_t, off_t;
  for (const std::string& sql : selective) {
    std::vector<std::string> on_rows, off_rows;
    auto on = Timed(spans, "sql.selective.index", root, &req, n, [&] {
      auto rs = db->Execute(sql);
      QBISM_CHECK(rs.ok());
      on_rows = Rows(*rs);
    });
    db->set_candidate_index_hook(nullptr);
    auto off = Timed(spans, "sql.selective.scan", root, &req, n, [&] {
      auto rs = db->Execute(sql);
      QBISM_CHECK(rs.ok());
      off_rows = Rows(*rs);
    });
    db->set_candidate_index_hook(w->index->MakeHook());
    ++r->attempted;
    if (on_rows != off_rows) {
      ++r->failed;
      r->Fail("index probe rows differ from the scan: " + sql);
    }
    on_t.insert(on_t.end(), on.begin(), on.end());
    off_t.insert(off_t.end(), off.begin(), off.end());
  }
  r->Set("index.speedup_vs_scan", Median(off_t) / Median(on_t), "x");

  // --- region operators on Q2/Q6 and Table-4 operands --------------------
  const auto& grid = w->ext->config().grid;
  const auto kind = w->ext->config().curve;
  auto q2 = PaperQueries(*w, w->studies.front())[1];
  auto structure_id = StructureField(db, "ntal1");
  auto structure = w->ext->LoadRegion(structure_id);
  QBISM_CHECK(structure.ok());
  auto top_band = BandRegion(w, w->studies.front(), 224);
  QBISM_CHECK(top_band.ok());
  r->Set("region.decode_ms",
         Ms(Median(Timed(spans, "region.LoadRegion", root, &req, n, [&] {
           QBISM_CHECK(w->ext->LoadRegion(structure_id).ok());
         }))),
         "ms");
  auto enc_structure = EncodedRegion::FromRegion(*structure).MoveValue();
  auto enc_band = EncodedRegion::FromRegion(*top_band).MoveValue();
  Result<EncodedRegion> q6 = qbism::Status::Internal("unset");
  r->Set("region.intersect_ms",
         Ms(Median(Timed(spans, "region.IntersectWith", root, &req, n, [&] {
           q6 = enc_structure.IntersectWith(enc_band);
         }))),
         "ms");
  ++r->attempted;
  if (!q6.ok() || q6->Decode().MoveValue() !=
                      structure->IntersectWith(*top_band).MoveValue()) {
    ++r->failed;
    r->Fail("encoded Q6 intersection differs from the plain one");
  }
  std::vector<EncodedRegion> bands;
  Region plain_n = Region::Full(grid, kind);
  for (int id : k_studies) {
    auto band = BandRegion(w, id, 0);
    QBISM_CHECK(band.ok());
    plain_n = plain_n.IntersectWith(*band).MoveValue();
    bands.push_back(EncodedRegion::FromRegion(*band).MoveValue());
  }
  std::vector<const EncodedRegion*> operands;
  for (const auto& b : bands) operands.push_back(&b);
  Result<EncodedRegion> table4 = qbism::Status::Internal("unset");
  r->Set("region.intersection_n_ms",
         Ms(Median(Timed(spans, "region.IntersectAll", root, &req, n, [&] {
           table4 = EncodedRegion::IntersectAll(operands);
         }))),
         "ms");
  ++r->attempted;
  if (!table4.ok() || table4->Decode().MoveValue() != plain_n) {
    ++r->failed;
    r->Fail("encoded n-way intersection differs from the plain one");
  }
  r->Set("curve.box_runs_ms",
         Ms(Median(Timed(spans, "curve.FromBox", root, &req, n, [&] {
           Region::FromBox(grid, kind, *q2.box);
         }))),
         "ms");
  r->Set("sql.planner_refresh_ms",
         Ms(Median(Timed(spans, "sql.RefreshPlannerStats", root, &req, n, [&] {
           QBISM_CHECK_OK(w->ext->RefreshPlannerStats());
         }))),
         "ms");

  // --- the write chain, on scratch worlds built from the workload's own
  // records: warp, store (no WAL), replace (WAL), replace with a query
  // service's commit listener attached, vacuum, recovery -----------------
  const auto& dgrid = w->ext->config().grid;
  const auto encoding = w->ext->config().region_encoding;
  uint64_t cells = dgrid.NumCells();
  uint64_t per_study_pages = 2 * (cells / 4096 + 64);
  uint64_t lfm_pages = 1;
  while (lfm_pages < per_study_pages * (in->base.size() + 2 * n + 2) + 256) {
    lfm_pages <<= 1;
  }
  auto scratch = [&](uint64_t wal) {
    return NewWorld(dgrid, encoding, 1 << 11, lfm_pages, wal, true);
  };
  std::unique_ptr<World> plain = scratch(0);
  std::unique_ptr<World> durable = scratch(lfm_pages);
  OpLog base_writes;
  DurableLoad(durable.get(), in->base, &base_writes);
  QBISM_CHECK(base_writes.failed == 0);
  const auto& rec = in->writes.front();
  r->Set("warp.warp_ms",
         Ms(Median(Timed(spans, "warp.WarpToAtlas", root, &req, n, [&] {
           qbism::warp::WarpToAtlas(
               rec.raw,
               qbism::med::StudyWarp(rec.warp_seed, rec.raw.nx(),
                                     rec.raw.ny(), rec.raw.nz()),
               dgrid, w->ext->config().curve);
         }))),
         "ms");
  int next_id = 900000;
  std::vector<double> store_t = Timed(
      spans, "med.StoreStudyRecord", root, &req, n, [&] {
        auto copy = rec;
        copy.study_id = next_id++;
        QBISM_CHECK_OK(qbism::med::StoreStudyRecord(plain->ext.get(), copy));
      });
  auto wal0 = durable->db->wal()->stats();
  uint64_t user_bytes = 0;
  std::vector<double> replace_t, vacuum_t;
  double pages_freed = 0;
  size_t wi = 0;
  auto next_write = [&] { return in->writes[wi++ % in->writes.size()]; };
  for (int s = 0; s < n; ++s) {
    auto record = next_write();
    user_bytes += record.raw.data().size();
    replace_t.push_back(Timed(spans, "ingest.ReplaceStudy", root, &req, 1, [&] {
                          QBISM_CHECK_OK(
                              durable->ingest->ReplaceStudy(record));
                        }).front());
    vacuum_t.push_back(Timed(spans, "storage.Vacuum", root, &req, 1, [&] {
                         pages_freed += static_cast<double>(
                             durable->ingest->Vacuum().pages_freed);
                       }).front());
  }
  auto wal1 = durable->db->wal()->stats();
  std::vector<double> listener_t;
  {
    qbism::service::ServiceOptions so;
    so.num_workers = 1;
    so.cache_entries = 0;
    so.ingest = durable->ingest.get();
    qbism::service::QueryService svc(durable->ext.get(), so);
    listener_t = Timed(spans, "service.RunIngest", root, &req, n, [&] {
      QBISM_CHECK_OK(svc.RunIngest(next_write(), /*replace=*/true));
    });
    svc.Shutdown();
  }
  r->Set("med.store_ms", Ms(Median(store_t)), "ms");
  r->Set("ingest.self_ms", Ms(Median(replace_t) - Median(store_t)), "ms");
  r->Set("service.ingest_listener_ms",
         Ms(Median(listener_t) - Median(replace_t)), "ms");
  double writes = static_cast<double>(n);
  r->Set("storage.wal_bytes_per_user_byte",
         static_cast<double>(wal1.appended_bytes - wal0.appended_bytes) /
             static_cast<double>(std::max<uint64_t>(1, user_bytes)),
         "ratio");
  r->Set("storage.wal_syncs_per_write",
         static_cast<double>(wal1.syncs - wal0.syncs) / writes, "count");
  r->Set("storage.wal_pages_synced_per_write",
         static_cast<double>(wal1.pages_synced - wal0.pages_synced) / writes,
         "pages");
  r->Set("storage.vacuum_ms", Ms(Median(vacuum_t)), "ms");
  r->Set("storage.vacuum_pages_freed", pages_freed / writes, "pages");

  std::unique_ptr<World> recovered;
  qbism::sql::RecoveryStats stats;
  auto fresh = [&] {
    return NewWorld(dgrid, encoding, 1 << 11, lfm_pages, lfm_pages, false);
  };
  double recover_s = Median(Recover(durable.get(), fresh, 1, &recovered,
                                    &stats));
  ++r->attempted;
  if (Fingerprint(recovered.get()) != Fingerprint(durable.get())) {
    ++r->failed;
    r->Fail("replay: recovered scratch database differs from the live one");
  }
  r->Set("storage.recover_records",
         static_cast<double>(stats.records_replayed), "count");
  r->Set("storage.recover_records_per_s",
         recover_s > 0 ? static_cast<double>(stats.records_replayed) /
                             recover_s
                       : 0.0,
         "1/s");
  spans->End(root);
}

}  // namespace qbench
