// Entry points of the benchmark binary (see phases.cpp and selftest.cpp).
#pragma once

#include <memory>
#include <string>

#include "bench.hpp"

namespace e2e {

/// The workload named by opts.workload, or null for an unknown name.
std::unique_ptr<BenchWorkload> make_workload(const Options& opts);

/// Runs opts.workload untraced (end-to-end metrics) or traced (per-layer
/// metrics) and prints the result; returns the process exit code.
int run_benchmark(const Options& opts);

/// Feeds every output check a genuine and a deliberately perturbed input;
/// returns 0 when each check passes the first and rejects the second.
int run_selftest(const std::string& out_dir);

}  // namespace e2e
