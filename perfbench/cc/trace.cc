#include "trace.h"

#include <sys/resource.h>

#include <map>
#include <utility>

namespace perfbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

/// Open spans of this thread, innermost last.
thread_local std::vector<int> t_open;

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// CPU time so far: this thread's for single-threaded calls (other
/// threads may be busy beside it), the whole process's otherwise.
void cpu_now(int threads, double* user, double* sys) {
  rusage usage{};
  getrusage(threads == 1 ? RUSAGE_THREAD : RUSAGE_SELF, &usage);
  *user = seconds(usage.ru_utime);
  *sys = seconds(usage.ru_stime);
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, int threads,
                     int parent)
    : tracer_(tracer) {
  if (tracer_.enabled_) id_ = tracer_.open(std::move(name), threads, parent);
}

Tracer::Scope::~Scope() {
  if (id_ >= 0) tracer_.close(id_, items_, bytes_);
}

int Tracer::open(std::string name, int threads, int parent) {
  Span span;
  span.name = std::move(name);
  span.threads = threads;
  span.parent = parent == kInheritParent
                    ? (t_open.empty() ? -1 : t_open.back())
                    : parent;
  cpu_now(threads, &span.user_s, &span.sys_s);
  span.start = now_s();
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    span.id = id;
    spans_.push_back(std::move(span));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::close(int id, std::uint64_t items, std::uint64_t bytes) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  double user = 0;
  double sys = 0;
  cpu_now(span.threads, &user, &sys);
  span.end = end;
  span.user_s = user - span.user_s;
  span.sys_s = sys - span.sys_s;
  span.items = items;
  span.bytes = bytes;
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::print_tree(std::FILE* out) const {
  const std::vector<Span> all = spans();
  // Group children by (parent group, name) so repeated calls fold into
  // one line; a group's id is the first span of that name there.
  std::map<int, int> group_of;  // span id -> group id
  struct Group {
    std::string name;
    int parent = -1;
    std::size_t calls = 0;
    double wall = 0;
    double cpu = 0;
    std::uint64_t items = 0;
    int threads = 1;
    std::vector<int> children;
  };
  std::map<int, Group> groups;
  std::map<std::pair<int, std::string>, int> by_key;
  std::vector<int> roots;
  for (const Span& s : all) {
    const int parent_group = s.parent < 0 ? -1 : group_of[s.parent];
    const auto key = std::make_pair(parent_group, s.name);
    auto it = by_key.find(key);
    int gid;
    if (it == by_key.end()) {
      gid = s.id;
      by_key.emplace(key, gid);
      groups[gid].name = s.name;
      groups[gid].parent = parent_group;
      if (parent_group < 0) {
        roots.push_back(gid);
      } else {
        groups[parent_group].children.push_back(gid);
      }
    } else {
      gid = it->second;
    }
    group_of[s.id] = gid;
    Group& g = groups[gid];
    ++g.calls;
    g.wall += s.wall();
    g.cpu += s.cpu();
    g.items += s.items;
    g.threads = s.threads;
  }
  std::fprintf(out, "%-44s %8s %12s %10s %6s %14s\n", "span", "calls",
               "items", "wall_s", "cpu%", "items/s");
  const auto print = [&](const auto& self, int gid, int depth) -> void {
    const Group& g = groups[gid];
    const std::string label = std::string(2 * depth, ' ') + g.name;
    const double util =
        g.wall > 0 ? 100.0 * g.cpu / (g.wall * g.threads) : 0.0;
    const double rate = g.wall > 0 ? static_cast<double>(g.items) / g.wall : 0;
    std::fprintf(out, "%-44s %8zu %12llu %10.4f %6.1f %14.1f\n",
                 label.c_str(), g.calls,
                 static_cast<unsigned long long>(g.items), g.wall, util,
                 rate);
    for (int child : g.children) self(self, child, depth + 1);
  };
  for (int root : roots) print(print, root, 0);
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start\":%.9f,"
                 "\"end\":%.9f,\"wall\":%.9f,\"items\":%llu,\"bytes\":%llu,"
                 "\"user\":%.6f,\"sys\":%.6f,\"threads\":%d}\n",
                 s.id, s.parent, s.name.c_str(), s.start, s.end, s.wall(),
                 static_cast<unsigned long long>(s.items),
                 static_cast<unsigned long long>(s.bytes), s.user_s, s.sys_s,
                 s.threads);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
