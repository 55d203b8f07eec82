#include "serve/resilience.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace autodetect {

namespace {

/// Longest an over-quota kBlock batch waits for its tenant's capacity.
constexpr uint64_t kTenantBlockTimeoutMs = 250;

}  // namespace

std::string_view AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kBlock:
      return "block";
    case AdmissionPolicy::kShedOldest:
      return "shed-oldest";
    case AdmissionPolicy::kReject:
      return "reject";
  }
  return "?";
}

Result<AdmissionPolicy> ParseAdmissionPolicy(std::string_view name) {
  if (name == "block") return AdmissionPolicy::kBlock;
  if (name == "shed-oldest") return AdmissionPolicy::kShedOldest;
  if (name == "reject") return AdmissionPolicy::kReject;
  return Status::Invalid("unknown admission policy '" + std::string(name) +
                         "' (expected block, shed-oldest or reject)");
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(std::move(options)) {
  MetricsRegistry* registry = OrDefaultRegistry(options_.metrics);
  const std::string& p = options_.metric_prefix;
  metrics_.admitted = registry->GetCounter(p + "admitted_total");
  metrics_.rejected = registry->GetCounter(p + "rejected_total");
  metrics_.shed_columns = registry->GetCounter(p + "shed_columns_total");
  metrics_.block_timeouts = registry->GetCounter(p + "block_timeouts_total");
  metrics_.queue_wait_us = registry->GetHistogram(p + "queue_wait_us");
  metrics_.inflight_columns = registry->GetGauge(p + "inflight_columns");
}

size_t AdmissionController::LiveColumnsLocked() const {
  size_t total = 0;
  for (const auto& ticket : live_) {
    if (!ticket->shed()) total += ticket->columns();
  }
  return total;
}

void AdmissionController::ShedOldestLocked(size_t needed) {
  // Oldest first: the deque is admission-ordered, so walk from the front
  // until the newcomer fits. Shed tickets stop counting toward capacity
  // immediately — their columns return kShed within one column's latency.
  // Shed column accounting happens at report time (the engine counts the
  // columns it actually returns kShed), not here — a victim's already-
  // scanned columns still deliver their full reports.
  for (auto& ticket : live_) {
    if (LiveColumnsLocked() + needed <= options_.queue_cap_columns) return;
    if (ticket->shed()) continue;
    ticket->shed_.store(true, std::memory_order_relaxed);
  }
}

std::shared_ptr<AdmissionController::Ticket> AdmissionController::Admit(
    size_t columns) {
  if (!enabled()) return nullptr;  // engine treats "disabled" as always-admit
  StageTimer wait_timer(metrics_.queue_wait_us);
  std::unique_lock<std::mutex> lock(mu_);
  // A batch larger than the cap can never fit beside other work; admit it
  // alone (cap bounds backlog, not table width).
  auto fits = [&] {
    const size_t live = LiveColumnsLocked();
    return live + columns <= options_.queue_cap_columns ||
           (live == 0 && columns > options_.queue_cap_columns);
  };
  if (!fits()) {
    switch (options_.policy) {
      case AdmissionPolicy::kReject:
        rejected_.fetch_add(1, std::memory_order_relaxed);
        metrics_.rejected->Add(1);
        return nullptr;
      case AdmissionPolicy::kShedOldest:
        ShedOldestLocked(columns);
        capacity_cv_.notify_all();  // blocked admitters may fit now too
        break;
      case AdmissionPolicy::kBlock: {
        const bool got_capacity = capacity_cv_.wait_for(
            lock, std::chrono::milliseconds(options_.block_timeout_ms), fits);
        if (!got_capacity) {
          block_timeouts_.fetch_add(1, std::memory_order_relaxed);
          rejected_.fetch_add(1, std::memory_order_relaxed);
          metrics_.block_timeouts->Add(1);
          metrics_.rejected->Add(1);
          return nullptr;
        }
        break;
      }
    }
  }
  auto ticket = std::shared_ptr<Ticket>(new Ticket(columns));
  ticket->seq_ = next_seq_++;
  live_.push_back(ticket);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  metrics_.admitted->Add(1);
  metrics_.inflight_columns->Set(static_cast<double>(LiveColumnsLocked()));
  return ticket;
}

void AdmissionController::Release(const std::shared_ptr<Ticket>& ticket) {
  AD_CHECK(ticket != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(live_.begin(), live_.end(), ticket);
    AD_CHECK(it != live_.end()) << "double Release of an admission ticket";
    live_.erase(it);
    metrics_.inflight_columns->Set(static_cast<double>(LiveColumnsLocked()));
  }
  capacity_cv_.notify_all();
}

void AdmissionController::CountShedColumns(size_t n) {
  if (n == 0) return;
  shed_columns_.fetch_add(n, std::memory_order_relaxed);
  metrics_.shed_columns->Add(n);
}

AdmissionStats AdmissionController::Stats() const {
  AdmissionStats stats;
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.shed_columns = shed_columns_.load(std::memory_order_relaxed);
  stats.block_timeouts = block_timeouts_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  stats.inflight_columns = LiveColumnsLocked();
  return stats;
}

Status TenantTable::Parse(std::string_view spec) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string_view entry = spec.substr(
        pos, comma == std::string_view::npos ? spec.size() - pos : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    if (entry.empty()) continue;

    size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::Invalid(StrFormat(
          "tenant spec entry '%.*s' is not name=cap[:policy]",
          static_cast<int>(entry.size()), entry.data()));
    }
    std::string name(entry.substr(0, eq));
    std::string_view rest = entry.substr(eq + 1);
    std::string_view cap_str = rest;
    TenantSpec tenant_spec;
    size_t colon = rest.find(':');
    if (colon != std::string_view::npos) {
      cap_str = rest.substr(0, colon);
      AD_ASSIGN_OR_RETURN(tenant_spec.policy,
                          ParseAdmissionPolicy(rest.substr(colon + 1)));
    }
    char* end = nullptr;
    std::string cap_token(cap_str);
    unsigned long long cap = std::strtoull(cap_token.c_str(), &end, 10);
    if (cap_token.empty() || end != cap_token.c_str() + cap_token.size()) {
      return Status::Invalid(StrFormat(
          "tenant spec entry '%.*s' has a malformed column cap",
          static_cast<int>(entry.size()), entry.data()));
    }
    tenant_spec.queue_cap_columns = static_cast<size_t>(cap);
    SetSpec(name, tenant_spec);
  }
  return Status::OK();
}

void TenantTable::SetSpec(const std::string& tenant, TenantSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenant == "*") {
    default_spec_ = spec;
  } else {
    specs_[tenant] = spec;
  }
  // Quotas are fixed once a controller exists; dropping it here lets a
  // re-SetSpec before first use take effect (the server configures the
  // table before accepting connections).
  controllers_.erase(tenant);
}

TenantSpec TenantTable::SpecFor(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = specs_.find(tenant);
  return it == specs_.end() ? default_spec_ : it->second;
}

std::string TenantTable::MetricLabel(const std::string& tenant) {
  if (tenant.empty()) return "anonymous";
  std::string label = tenant;
  for (char& c : label) {
    if (c == '.' || c == ' ') c = '_';
  }
  return label;
}

AdmissionController* TenantTable::ControllerFor(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto existing = controllers_.find(tenant);
  if (existing != controllers_.end()) return existing->second.get();

  auto spec_it = specs_.find(tenant);
  const TenantSpec& spec =
      spec_it == specs_.end() ? default_spec_ : spec_it->second;
  if (spec.queue_cap_columns == 0) return nullptr;  // unlimited

  AdmissionOptions options;
  options.queue_cap_columns = spec.queue_cap_columns;
  options.policy = spec.policy;
  options.block_timeout_ms = kTenantBlockTimeoutMs;
  options.metrics = metrics_;
  options.metric_prefix =
      "serve.admission.tenant." + MetricLabel(tenant) + ".";
  auto controller = std::make_unique<AdmissionController>(std::move(options));
  AdmissionController* raw = controller.get();
  controllers_.emplace(tenant, std::move(controller));
  return raw;
}

std::vector<std::string> TenantTable::ConfiguredTenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(specs_.size());
  for (const auto& [name, spec] : specs_) names.push_back(name);
  return names;
}

}  // namespace autodetect
