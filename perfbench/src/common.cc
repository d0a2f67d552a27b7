#include "common.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <string_view>

namespace perfbench {

const char* OpName(int op) {
  switch (op) {
    case kPut: return "put";
    case kGet: return "get";
    case kVersionRead: return "version_read";
    case kDiff: return "diff";
  }
  return "?";
}

void ClientStats::Merge(const ClientStats& o) {
  for (int k = 0; k < kNumOps; ++k) {
    lat_ms[k].insert(lat_ms[k].end(), o.lat_ms[k].begin(), o.lat_ms[k].end());
    start_s[k].insert(start_s[k].end(), o.start_s[k].begin(),
                      o.start_s[k].end());
    traced_wire_us[k].insert(traced_wire_us[k].end(),
                             o.traced_wire_us[k].begin(),
                             o.traced_wire_us[k].end());
    embedded_us[k].insert(embedded_us[k].end(), o.embedded_us[k].begin(),
                          o.embedded_us[k].end());
  }
  done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
  attempted += o.attempted;
  failed += o.failed;
  user_bytes += o.user_bytes;
  writes += o.writes;
  ops_untraced += o.ops_untraced;
  ops_traced += o.ops_traced;
  ops_sampled += o.ops_sampled;
  sampled_busy_s += o.sampled_busy_s;
  if (first_error.empty()) first_error = o.first_error;
}

double Phases::traced_seconds() const {
  if (!traced_) return 0;
  double total = 0;
  for (double t = 0; t < seconds_; t += slice_) {
    const uint64_t idx = static_cast<uint64_t>(std::llround(t / slice_));
    if (idx % 2 == 1) total += std::min(slice_, seconds_ - t);
  }
  return total;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string FillBytes(uint64_t seed, uint64_t a, uint64_t b, uint64_t c,
                      size_t n) {
  std::string out(n, '\0');
  uint64_t s = Mix64(seed ^ Mix64(a ^ Mix64(b ^ Mix64(c))));
  for (size_t i = 0; i < n; i += 8) {
    s = Mix64(s);
    for (size_t j = 0; j < 8 && i + j < n; ++j) {
      out[i + j] = static_cast<char>('!' + ((s >> (8 * j)) & 0xff) % 94);
    }
  }
  return out;
}

std::vector<uint32_t> Permutation(uint64_t n, uint64_t seed) {
  std::vector<uint32_t> p(n);
  std::iota(p.begin(), p.end(), 0u);
  uint64_t s = Mix64(seed ^ 0x5eedULL);
  for (uint64_t i = n; i > 1; --i) {
    s = Mix64(s);
    std::swap(p[i - 1], p[s % i]);
  }
  return p;
}

uint64_t Digest(const std::string& s) {
  return std::hash<std::string_view>{}(std::string_view(s));
}

namespace {

uint64_t ProcField(const char* path, const std::string& field) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size(), field) == 0) {
      std::istringstream rest(line.substr(field.size()));
      uint64_t v = 0;
      rest >> v;
      return v;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() {
  return static_cast<double>(ProcField("/proc/self/status", "VmHWM:")) /
         1024.0;
}

uint64_t ProcWriteBytes() {
  return ProcField("/proc/self/io", "write_bytes:");
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(std::ceil(p / 100.0 * v.size())) - 1);
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx];
}

double WindowedPercentile(const std::vector<double>& values,
                          const std::vector<double>& times, double p,
                          size_t per_window) {
  const size_t n = values.size();
  const size_t windows = n / per_window;
  if (windows < 2 || times.size() != n) return Percentile(values, p);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return times[a] < times[b]; });
  std::vector<double> per;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> chunk;
    for (size_t i = w * n / windows; i < (w + 1) * n / windows; ++i) {
      chunk.push_back(values[order[i]]);
    }
    per.push_back(Percentile(std::move(chunk), p));
  }
  return Median(std::move(per));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
