#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

namespace netbench {

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  const auto n = static_cast<std::int64_t>(spans.size());
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || s.parent >= n) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.t0_ns, p.t0_ns);
    const std::int64_t hi = std::min(s.t1_ns, p.t1_ns);
    if (hi > lo) {
      covered[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = std::max<std::int64_t>(0, spans[i].duration_ns()) - union_ns;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].duration_ns();
    t.self_ns += self[i];
  }
  return out;
}

bool write_spans_jsonl(const std::string& path,
                       const std::vector<Span>& spans) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f.get(),
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"trial\":%lld,"
                 "\"synthetic\":%s}\n",
                 i, s.name, static_cast<long long>(s.t0_ns),
                 static_cast<long long>(s.t1_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.trial),
                 s.synthetic ? "true" : "false");
  }
  return std::ferror(f.get()) == 0;
}

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace netbench
