#pragma once

// Spans the benchmark records around its own calls into each layer of the
// program. Nothing inside the program is instrumented. Spans are kept in
// memory and written out when the run ends; a disabled tracer records
// nothing and costs one branch per span.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds since the process started timing (steady clock).
double now_s();

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  double start = 0;  // now_s()
  double end = 0;
  std::uint64_t items = 0;
  std::uint64_t bytes = 0;
  double user_s = 0;  // getrusage(RUSAGE_SELF) deltas: every thread
  double sys_s = 0;
  int threads = 1;  // threads the call was allowed to use

  double wall() const { return end - start; }
  double cpu() const { return user_s + sys_s; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span. The parent is the innermost open span on this thread,
  /// unless one is given.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, int threads = 1,
          int parent = kInheritParent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void items(std::uint64_t n) { items_ = n; }
    void bytes(std::uint64_t n) { bytes_ = n; }
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_ = -1;
    std::uint64_t items_ = 0;
    std::uint64_t bytes_ = 0;
  };

  static constexpr int kInheritParent = -2;

  /// Completed spans (copy; safe while other threads still record).
  std::vector<Span> spans() const;
  /// Prints the span tree grouped by name under each parent: calls,
  /// items, wall, CPU utilisation (CPU over wall x threads) and rate.
  void print_tree(std::FILE* out) const;
  /// One JSON object per span, one per line.
  bool write_jsonl(const std::string& path) const;

 private:
  int open(std::string name, int threads, int parent);
  void close(int id, std::uint64_t items, std::uint64_t bytes);

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench
