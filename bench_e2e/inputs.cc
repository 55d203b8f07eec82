#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench_e2e.h"
#include "common/string_util.h"
#include "corpus/corpus_generator.h"
#include "detect/detector.h"
#include "net/json.h"
#include "obs/metrics.h"

namespace autodetect::bench {

namespace {

/// Independent, seed-derived generator seed per workload (SplitMix64 over
/// the seed and the workload name), so two workloads never share inputs.
uint64_t WorkloadSeed(const Workload& workload, uint64_t seed) {
  uint64_t h = seed;
  for (const char* c = workload.name; *c != '\0'; ++c) h = h * 131 + static_cast<uint8_t>(*c);
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

std::string HttpMessage(const WireRequest& request, size_t* id_offset) {
  std::string body = "{\"request_id\":";
  const size_t body_id_offset = body.size();
  body.append(kHttpIdWidth, ' ');
  body.append(",\"columns\":[");
  for (size_t c = 0; c < request.columns.size(); ++c) {
    if (c > 0) body.push_back(',');
    body.append("{\"name\":");
    AppendJsonString(&body, request.columns[c].name);
    body.append(",\"values\":[");
    for (size_t v = 0; v < request.columns[c].values.size(); ++v) {
      if (v > 0) body.push_back(',');
      AppendJsonString(&body, request.columns[c].values[v]);
    }
    body.append("]}");
  }
  body.append("]}");
  std::string message = StrFormat(
      "POST /detect HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
      "Content-Length: %zu\r\n\r\n",
      body.size());
  *id_offset = message.size() + body_id_offset;
  message.append(body);
  return message;
}

/// Fills every encoding of `pool.requests` (request_id = index + 1).
void EncodePool(RequestPool* pool) {
  pool->frames.reserve(pool->requests.size());
  pool->http.reserve(pool->requests.size());
  for (size_t i = 0; i < pool->requests.size(); ++i) {
    WireRequest& request = pool->requests[i];
    request.request_id = i + 1;
    pool->frames.push_back(EncodeRequestFrame(request));
    size_t offset = 0;
    pool->http.push_back(HttpMessage(request, &offset));
    pool->http_id_offsets.push_back(offset);
    PatchHttpId(&pool->http.back(), offset, request.request_id);
  }
}

WireColumn ToWireColumn(size_t index, std::vector<std::string> values) {
  return WireColumn{StrFormat("c%zu", index), std::move(values)};
}

}  // namespace

RequestPool MakeRequestPool(const Workload& workload, uint64_t seed) {
  GeneratorOptions gen;
  gen.profile = CorpusProfile::Web();
  gen.profile.dirty_rate = 0.10;
  gen.profile.min_rows = workload.min_rows;
  gen.profile.max_rows = workload.max_rows;
  gen.seed = WorkloadSeed(workload, seed);
  gen.num_columns = workload.pool_requests * workload.columns_per_request;
  gen.inject_errors = true;
  GeneratedColumnSource source(gen);

  RequestPool pool;
  pool.requests.resize(workload.pool_requests);
  Column column;
  for (WireRequest& request : pool.requests) {
    for (size_t c = 0; c < workload.columns_per_request; ++c) {
      source.Next(&column);
      request.columns.push_back(ToWireColumn(c, std::move(column.values)));
    }
  }
  EncodePool(&pool);
  return pool;
}

RequestPool PoolFromCorpus(const Corpus& corpus, size_t requests) {
  constexpr size_t kColumnsPerRequest = 16;
  RequestPool pool;
  requests = std::min(requests, corpus.size() / kColumnsPerRequest);
  pool.requests.resize(requests);
  for (size_t r = 0; r < requests; ++r) {
    for (size_t c = 0; c < kColumnsPerRequest; ++c) {
      pool.requests[r].columns.push_back(
          ToWireColumn(c, corpus[r * kColumnsPerRequest + c].values));
    }
  }
  EncodePool(&pool);
  return pool;
}

void PatchWireId(std::string* frame, uint64_t id) {
  // BinaryWriter writes integers little-endian; the id is the payload's
  // first field, right after the 5-byte frame header.
  for (size_t i = 0; i < 8; ++i) {
    (*frame)[kWireHeaderLen + i] = static_cast<char>(id >> (8 * i));
  }
}

void PatchHttpId(std::string* message, size_t offset, uint64_t id) {
  // Right-aligned digits in a space-padded field: leading whitespace before
  // a JSON number is valid, so the body stays the same length.
  char digits[kHttpIdWidth + 1];
  std::snprintf(digits, sizeof(digits), "%*llu", static_cast<int>(kHttpIdWidth),
                static_cast<unsigned long long>(id));
  std::memcpy(message->data() + offset, digits, kHttpIdWidth);
}

// ----------------------------------------------------------------- training

TrainPipeline::TrainPipeline(ColumnSource* corpus, size_t columns, size_t split,
                             const std::string& profile, uint64_t seed)
    : corpus_(corpus), columns_(columns), split_(split), profile_(profile), seed_(seed) {
  // The `autodetect_cli train` defaults: P >= 0.95, a 64 MB budget, exact
  // statistics, every core.
  options_.precision_target = 0.95;
  options_.memory_budget_bytes = 64ull << 20;
  options_.corpus_name = profile + "-synthetic";
  session_ = TrainSession(options_);
}

ShardProvenance TrainPipeline::Provenance(size_t begin, size_t end, size_t total) const {
  ShardProvenance prov;
  prov.corpus_name = options_.corpus_name;
  prov.profile = profile_;
  prov.seed = seed_;
  prov.total_columns = total;
  prov.column_begin = begin;
  prov.column_end = end;
  return prov;
}

Status TrainPipeline::BuildBase(TrainTimings* t) {
  SlicedColumnSource base(corpus_, 0, split_);
  // The values counted come from the stats builder's own counter.
  Counter* values = MetricsRegistry::Default()->GetCounter("train.values_total");
  const uint64_t values_before = values->Value();
  const double cpu_before = ProcessCpuSeconds();
  const auto start = Clock::now();
  AD_ASSIGN_OR_RETURN(StatsShard shard,
                      TrainSession::BuildShard(&base, options_, Provenance(0, split_, split_)));
  t->stats_s = Sec(Clock::now() - start);
  t->stats_cpu_s = ProcessCpuSeconds() - cpu_before;
  t->stats_values = values->Value() - values_before;
  return session_.UseStats(std::move(shard));
}

Status TrainPipeline::AddDelta(TrainTimings* t) {
  SlicedColumnSource delta(corpus_, split_, columns_);
  auto start = Clock::now();
  AD_ASSIGN_OR_RETURN(StatsShard shard,
                      TrainSession::BuildShard(&delta, options_,
                                               Provenance(split_, columns_, columns_)));
  t->shard_build_s = Sec(Clock::now() - start);
  std::vector<StatsShard> shards;
  shards.push_back(std::move(shard));
  start = Clock::now();
  AD_RETURN_NOT_OK(session_.AddShards(std::move(shards)));
  t->merge_s = Sec(Clock::now() - start);
  return Status::OK();
}

Status TrainPipeline::FinishModel(ColumnSource* supervision_source,
                                  const std::string& model_path, TrainTimings* t) {
  auto start = Clock::now();
  AD_RETURN_NOT_OK(session_.Supervise(supervision_source));
  t->supervise_s = Sec(Clock::now() - start);
  start = Clock::now();
  AD_ASSIGN_OR_RETURN(Model model, session_.Finalize());
  t->finalize_s = Sec(Clock::now() - start);
  start = Clock::now();
  AD_RETURN_NOT_OK(model.Save(model_path, ModelFormat::kV2));
  t->save_ms = Ms(Clock::now() - start);
  return Status::OK();
}

Status TrainPipeline::Train(const std::string& model_path, TrainTimings* t) {
  AD_RETURN_NOT_OK(BuildBase(t));
  SlicedColumnSource base(corpus_, 0, split_);
  return FinishModel(&base, model_path, t);
}

Status TrainPipeline::Retrain(const std::string& model_path, TrainTimings* t) {
  AD_RETURN_NOT_OK(AddDelta(t));
  SlicedColumnSource all(corpus_, 0, columns_);
  return FinishModel(&all, model_path, t);
}

Status TrainPipeline::Sharded(const std::string& model_path, TrainTimings* t) {
  AD_RETURN_NOT_OK(BuildBase(t));
  AD_RETURN_NOT_OK(AddDelta(t));
  SlicedColumnSource all(corpus_, 0, columns_);
  return FinishModel(&all, model_path, t);
}

Status AddTrainLayers(const TrainTimings& train, const TrainTimings& retrain,
                      const std::string& model_path, RunResult* result) {
  const auto start = Clock::now();
  AD_ASSIGN_OR_RETURN(Model model, Model::Load(model_path));
  const double load_ms = Ms(Clock::now() - start);
  const double cores = std::max(1u, std::thread::hardware_concurrency());
  result->Add("train.stats_s", "s", train.stats_s);
  result->Add("train.values_per_s", "1/s", static_cast<double>(train.stats_values) / train.stats_s);
  result->Add("train.cpu_util", "ratio", train.stats_cpu_s / (train.stats_s * cores));
  result->Add("train.supervise_s", "s", train.supervise_s);
  result->Add("train.finalize_s", "s", train.finalize_s);
  result->Add("train.save_ms", "ms", train.save_ms);
  result->Add("train.shard_build_s", "s", retrain.shard_build_s);
  result->Add("train.merge_s", "s", retrain.merge_s);
  result->Add("io.model_load_ms", "ms", load_ms);
  return Status::OK();
}

Status CheckFlagshipPair(const std::string& model_path) {
  AD_ASSIGN_OR_RETURN(Model model, Model::Load(model_path));
  Detector detector(&model);
  if (!detector.ScorePair("2011-01-01", "2011/01/06").incompatible) {
    return Status::Invalid(model_path + " does not flag \"2011-01-01\" vs \"2011/01/06\"");
  }
  return Status::OK();
}

}  // namespace autodetect::bench
