#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace perfbench {

// --- spans -------------------------------------------------------------------

SpanRecorder::SpanRecorder(bool enabled, std::uint32_t run_id)
    : enabled_(enabled), run_(run_id), origin_(Clock::now()) {}

std::uint32_t SpanRecorder::open(const char* name) {
  Span s;
  s.name = name;
  s.start_s = seconds_since(origin_);
  s.parent = stack_.empty() ? 0 : stack_.back().id;
  s.run = run_;
  spans_.push_back(s);
  const auto id = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(Frame{id, 0.0});
  return id;
}

void SpanRecorder::close(std::uint32_t id) {
  Span& s = spans_[id - 1];
  s.end_s = seconds_since(origin_);
  const double duration = s.end_s - s.start_s;
  s.self_s = duration - stack_.back().child_s;
  stack_.pop_back();
  if (!stack_.empty()) stack_.back().child_s += duration;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::map<std::string, Totals> out;
  for (const Span& s : spans_) {
    Totals& t = out[s.name];
    ++t.count;
    t.total_s += s.end_s - s.start_s;
    t.self_s += s.self_s;
  }
  return out;
}

bool SpanRecorder::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trun\tname\tstart_s\tend_s\tself_s\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%u\t%u\t%s\t%.9f\t%.9f\t%.9f\n", i + 1, s.parent,
                 s.run, s.name, s.start_s, s.end_s, s.self_s);
  }
  return std::fclose(f) == 0;
}

// --- statistics ----------------------------------------------------------------

double percentile_with_failures(std::vector<double> samples,
                                std::size_t failures, double q, double tick) {
  const std::size_t n = samples.size() + failures;
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  // Nearest rank: the smallest value with at least q*n samples at or below.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (rank > samples.size()) return std::numeric_limits<double>::infinity();
  std::sort(samples.begin(), samples.end());
  const double v = samples[rank - 1];
  if (tick <= 0.0) return v;
  const auto lo = std::lower_bound(samples.begin(), samples.end(), v);
  const auto hi = std::upper_bound(samples.begin(), samples.end(), v);
  const double pos = static_cast<double>(rank - 1 - static_cast<std::size_t>(lo - samples.begin()));
  return v + tick * (pos + 0.5) / static_cast<double>(hi - lo);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

double jain_index(const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                      served_attempted) {
  double sum = 0, sum_sq = 0;
  std::size_t n = 0;
  for (const auto& [served, attempted] : served_attempted) {
    if (attempted == 0) continue;
    const double x = static_cast<double>(served) / static_cast<double>(attempted);
    sum += x;
    sum_sq += x * x;
    ++n;
  }
  if (n == 0 || sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(n) * sum_sq);
}

// --- operation ledger ------------------------------------------------------------

void OpLedger::complete(std::size_t op) {
  if (completions_[op] < 255) ++completions_[op];
  ++acct_.attempted;
}

void OpLedger::ok(std::size_t op, double latency) {
  complete(op);
  ++acct_.ok;
  latencies_.push_back(latency);
}

void OpLedger::failed(std::size_t op) {
  complete(op);
  ++acct_.failed;
}

double OpLedger::percentile(double q, double tick) const {
  return percentile_with_failures(latencies_, acct_.failed, q, tick);
}

std::vector<std::string> OpLedger::problems() const {
  std::vector<std::string> out;
  const auto once = std::count(completions_.begin(), completions_.end(), 1);
  if (static_cast<std::size_t>(once) != completions_.size()) {
    out.push_back(std::to_string(completions_.size() - static_cast<std::size_t>(once)) +
                  " operations did not complete exactly once");
  }
  if (!acct_.closes() || acct_.attempted != completions_.size()) {
    out.push_back("accounting does not close: attempted != ok + failed + denied + cancelled");
  }
  return out;
}

// --- acknowledged writes ------------------------------------------------------------

std::uint64_t AckedWrites::floor(const std::string& key) const {
  auto it = acked_.find(key);
  return it == acked_.end() ? 0 : it->second;
}

void AckedWrites::acked(const std::string& key, std::uint64_t seq) {
  std::uint64_t& v = acked_[key];
  v = std::max(v, seq);
}

bool AckedWrites::stale(std::uint64_t floor_at_issue,
                        const std::optional<std::string>& value) {
  if (floor_at_issue == 0) return false;
  if (!value) return true;
  return std::strtoull(value->c_str(), nullptr, 10) < floor_at_issue;
}

// --- digest ---------------------------------------------------------------------

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  add(static_cast<std::uint64_t>(s.size()));
}

std::string numbered(const char* prefix, std::uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
