#include "pws/job.h"

#include <charconv>
#include <limits>

namespace phoenix::pws {

std::string_view to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kAuthorizing: return "authorizing";
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed: return "failed";
    case JobState::kRejected: return "rejected";
    case JobState::kCancelled: return "cancelled";
    case JobState::kTimedOut: return "timed-out";
  }
  return "?";
}

std::string_view to_string(SubmitStatus status) noexcept {
  switch (status) {
    case SubmitStatus::kAccepted: return "accepted";
    case SubmitStatus::kAdmissionDenied: return "admission-denied";
    case SubmitStatus::kUnknownPool: return "unknown-pool";
    case SubmitStatus::kAuthDenied: return "auth-denied";
    case SubmitStatus::kCancelled: return "cancelled";
    case SubmitStatus::kUnavailable: return "unavailable";
  }
  return "?";
}

namespace {

template <typename Int>
void append_int(std::string& out, Int value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

// Field parsers with the accept/reject behaviour of std::stoull / stoul /
// stoi (strtoull/strtol in the "C" locale; unsigned long is 64-bit on LP64
// hosts), so a restore reads every table the stream-based parser read:
// leading whitespace and one sign are skipped, at least one digit is
// required, trailing characters are ignored, and out-of-range values are
// rejected.
bool is_c_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool parse_sign_magnitude(std::string_view s, bool& negative,
                          std::uint64_t& magnitude) {
  std::size_t i = 0;
  while (i < s.size() && is_c_space(s[i])) ++i;
  negative = false;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) negative = s[i++] == '-';
  const auto result =
      std::from_chars(s.data() + i, s.data() + s.size(), magnitude);
  return result.ec == std::errc{};
}

// strtoull semantics: a leading '-' negates modulo 2^64.
bool parse_u64(std::string_view s, std::uint64_t& out) {
  bool negative = false;
  std::uint64_t magnitude = 0;
  if (!parse_sign_magnitude(s, negative, magnitude)) return false;
  out = negative ? 0 - magnitude : magnitude;
  return true;
}

bool parse_int(std::string_view s, int& out) {
  bool negative = false;
  std::uint64_t magnitude = 0;
  if (!parse_sign_magnitude(s, negative, magnitude)) return false;
  const auto limit = static_cast<std::uint64_t>(
      std::numeric_limits<int>::max()) + (negative ? 1 : 0);
  if (magnitude > limit) return false;
  out = negative ? static_cast<int>(0 - static_cast<std::int64_t>(magnitude))
                 : static_cast<int>(magnitude);
  return true;
}

/// Splits `text` on `sep` one piece at a time, as repeated std::getline
/// calls do. Like getline, which leaves its output untouched once the
/// stream is exhausted, it keeps returning the final piece after that: a
/// line with missing trailing fields reads its last field again.
class Splitter {
 public:
  Splitter(std::string_view text, char sep) : rest_(text), sep_(sep) {}

  bool done() const noexcept { return done_; }

  std::string_view next() {
    if (done_) return piece_;
    const auto at = rest_.find(sep_);
    if (at == std::string_view::npos) {
      done_ = true;
      piece_ = rest_;
    } else {
      piece_ = rest_.substr(0, at);
      rest_.remove_prefix(at + 1);
    }
    return piece_;
  }

 private:
  std::string_view rest_;
  std::string_view piece_;
  char sep_;
  bool done_ = false;
};

bool parse_job_line(std::string_view line, Job& job) {
  Splitter fields(line, '|');
  std::uint64_t u = 0;
  int i = 0;
  if (!parse_u64(fields.next(), job.id)) return false;
  job.name = fields.next();
  job.user = fields.next();
  job.pool = fields.next();
  if (!parse_u64(fields.next(), u)) return false;
  job.nodes_needed = static_cast<unsigned>(u);
  if (!parse_u64(fields.next(), job.duration)) return false;
  if (!parse_int(fields.next(), i)) return false;
  job.state = static_cast<JobState>(i);
  if (!parse_u64(fields.next(), job.submitted_at)) return false;
  if (!parse_u64(fields.next(), job.started_at)) return false;
  if (!parse_u64(fields.next(), job.finished_at)) return false;
  if (!parse_u64(fields.next(), u)) return false;
  job.exited = static_cast<unsigned>(u);
  if (!parse_u64(fields.next(), u)) return false;
  job.requeues = static_cast<unsigned>(u);
  if (!parse_int(fields.next(), job.priority)) return false;
  if (!parse_u64(fields.next(), job.walltime_limit)) return false;
  job.arch = fields.next();
  if (!parse_u64(fields.next(), job.after_ok)) return false;

  Splitter alloc(fields.next(), ',');
  while (!alloc.done()) {
    const std::string_view a = alloc.next();
    if (a.empty()) continue;
    if (!parse_u64(a, u)) return false;
    job.allocated.push_back(net::NodeId{static_cast<std::uint32_t>(u)});
  }
  Splitter pids(fields.next(), ',');
  while (!pids.done()) {
    const std::string_view p = pids.next();
    const auto eq = p.find('=');
    if (eq == std::string_view::npos) continue;
    std::uint64_t pid = 0;
    if (!parse_u64(p.substr(0, eq), u) || !parse_u64(p.substr(eq + 1), pid)) {
      return false;
    }
    job.pids[static_cast<std::uint32_t>(u)] = pid;
  }
  return true;
}

}  // namespace

void append_job_line(std::string& out, const Job& job) {
  const auto number = [&out](auto value) {
    append_int(out, value);
    out += '|';
  };
  const auto text = [&out](const std::string& value) {
    out += value;
    out += '|';
  };
  number(job.id);
  text(job.name);
  text(job.user);
  text(job.pool);
  number(job.nodes_needed);
  number(job.duration);
  number(static_cast<int>(job.state));
  number(job.submitted_at);
  number(job.started_at);
  number(job.finished_at);
  number(job.exited);
  number(job.requeues);
  number(job.priority);
  number(job.walltime_limit);
  text(job.arch);
  number(job.after_ok);
  for (std::size_t i = 0; i < job.allocated.size(); ++i) {
    if (i > 0) out += ',';
    append_int(out, job.allocated[i].value);
  }
  out += '|';
  bool first = true;
  for (const auto& [node, pid] : job.pids) {
    if (!first) out += ',';
    first = false;
    append_int(out, node);
    out += '=';
    append_int(out, pid);
  }
  out += '\n';
}

std::string serialize_jobs(const std::map<JobId, Job>& jobs) {
  std::string out;
  for (const auto& [id, job] : jobs) append_job_line(out, job);
  return out;
}

std::map<JobId, Job> deserialize_jobs(std::string_view data) {
  std::map<JobId, Job> jobs;
  Splitter lines(data, '\n');
  while (!lines.done()) {
    const std::string_view line = lines.next();
    if (line.empty()) continue;
    Job job;
    if (!parse_job_line(line, job)) continue;  // skip, don't abort recovery
    jobs.emplace(job.id, std::move(job));
  }
  return jobs;
}

std::string JobTableImage::serialize(const std::map<JobId, Job>& jobs) {
  buffer_.clear();
  auto cached = terminal_lines_.begin();
  for (const auto& [id, job] : jobs) {
    // Lines of jobs retired from the table fall out here.
    while (cached != terminal_lines_.end() && cached->first < id) {
      cached = terminal_lines_.erase(cached);
    }
    if (!job.terminal()) {
      append_job_line(buffer_, job);
      continue;
    }
    if (cached == terminal_lines_.end() || cached->first != id) {
      std::string line;
      append_job_line(line, job);
      cached = terminal_lines_.emplace_hint(cached, id, std::move(line));
    }
    buffer_ += cached->second;
    ++cached;
  }
  terminal_lines_.erase(cached, terminal_lines_.end());
  return buffer_;  // an exact-size copy: saves in flight carry no slack
}

}  // namespace phoenix::pws
