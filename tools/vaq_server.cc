// vaq_server: serve a point database over the VQRY protocol (loopback).
//
// Usage:
//   vaq_server [--port P] [--points N | --load FILE] [--seed S]
//              [--threads T] [--queue-capacity Q] [--max-deadline-ms D]
//
//   --port P             TCP port on 127.0.0.1 (default 0 = ephemeral;
//                        the bound port is printed either way).
//   --points N           Serve N uniform points in the unit square
//                        (default 100000).
//   --load FILE          Serve points from FILE instead (binary .vqp via
//                        SavePointsBinary, or CSV "x,y" lines — format
//                        sniffed by extension: .csv = CSV, else binary).
//   --seed S             Generator seed for --points (default 42).
//   --threads T          Engine execution slots: queries running at once
//                        (default 0 = hardware).
//   --queue-capacity Q   Engine admission bound (default 256): a request
//                        that finds every slot busy and Q requests
//                        already waiting sheds with RETRY_LATER.
//   --max-deadline-ms D  Ceiling on client-requested deadlines, a finite
//                        number >= 0 (default 0 = none).
//
// The server runs until SIGINT/SIGTERM, then drains and exits.
//
// Exit codes (see README):
//   0  clean shutdown on SIGINT/SIGTERM
//   2  bad usage (unknown flag, malformed value)
//   3  bind/listen failure (port taken, permissions)
//   4  dataset failure (file unreadable/malformed, or invalid point set)

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "cli_args.h"
#include "server/query_server.h"
#include "workload/dataset_io.h"
#include "workload/point_generator.h"
#include "workload/rng.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace vaq;

  QueryServer::Options options;
  std::uint64_t num_points = 100000;
  std::uint64_t seed = 42;
  std::string load_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "vaq_server: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // Called after value() advanced i to the rejected value.
    auto bad_value = [&]() {
      std::cerr << "vaq_server: bad value for " << arg << ": '" << argv[i]
                << "'\n";
      std::exit(2);
    };
    std::uint64_t n = 0;
    if (arg == "--port") {
      if (!ParseUint(value(), &n, 65535)) bad_value();
      options.port = static_cast<std::uint16_t>(n);
    } else if (arg == "--points") {
      if (!ParseUint(value(), &n) || n == 0) bad_value();
      num_points = n;
    } else if (arg == "--load") {
      load_path = value();
    } else if (arg == "--seed") {
      if (!ParseUint(value(), &n)) bad_value();
      seed = n;
    } else if (arg == "--threads") {
      if (!ParseUint(value(), &n, 1024)) bad_value();
      options.engine_threads = static_cast<int>(n);
    } else if (arg == "--queue-capacity") {
      if (!ParseUint(value(), &n) || n == 0) bad_value();
      options.engine_queue_capacity = n;
    } else if (arg == "--max-deadline-ms") {
      double d = 0.0;
      if (!ParseFinite(value(), &d) || d < 0.0) bad_value();
      options.max_deadline_ms = d;
    } else {
      std::cerr << "vaq_server: unknown flag " << arg << "\n";
      return 2;
    }
  }

  std::vector<Point> points;
  if (!load_path.empty()) {
    const bool csv = load_path.size() > 4 &&
                     load_path.compare(load_path.size() - 4, 4, ".csv") == 0;
    const bool ok = csv ? LoadPointsCsv(load_path, &points)
                        : LoadPointsBinary(load_path, &points);
    if (!ok || points.empty()) {
      std::cerr << "vaq_server: failed to load points from " << load_path
                << "\n";
      return 4;
    }
  } else {
    Rng rng(seed);
    points = GenerateUniformPoints(num_points, Box{{0.0, 0.0}, {1.0, 1.0}},
                                   &rng);
  }

  std::unique_ptr<DynamicPointDatabase> db;
  try {
    db = std::make_unique<DynamicPointDatabase>(std::move(points));
  } catch (const std::exception& e) {
    std::cerr << "vaq_server: invalid point set: " << e.what() << "\n";
    return 4;
  }

  std::unique_ptr<QueryServer> server;
  try {
    server = std::make_unique<QueryServer>(db.get(), options);
  } catch (const std::system_error& e) {
    std::cerr << "vaq_server: " << e.what() << "\n";
    return 3;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  server->Start();
  std::cout << "vaq_server: serving " << db->Size() << " points on 127.0.0.1:"
            << server->port() << std::endl;

  while (!g_stop) {
    timespec ts{0, 100 * 1000 * 1000};  // 100 ms between signal polls.
    nanosleep(&ts, nullptr);
  }

  std::cout << "vaq_server: draining and shutting down\n";
  server->Stop();
  const QueryServer::Counters c = server->counters();
  std::cout << "vaq_server: served " << c.requests_total << " requests ("
            << c.queries_ok << " queries ok, " << c.queries_shed << " shed, "
            << c.queries_rejected << " rejected, " << c.queries_aborted
            << " aborted, " << c.mutations_total << " mutations)\n";
  return 0;
}
