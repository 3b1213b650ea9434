// vaq_client: one-shot CLI client for a running vaq_server.
//
// Usage:
//   vaq_client --port P query "POLYGON ((...))" [--method M] [--no-cache]
//              [--deadline-ms D] [--ids]
//   vaq_client --port P insert X Y
//   vaq_client --port P erase ID
//   vaq_client --port P compact
//   vaq_client --port P stats
//   vaq_client --port P ping
//
//   --method M       Force a method: voronoi | traditional | grid-sweep |
//                    brute (default: the planner chooses).
//   --no-cache       Bypass the server's result cache for this query.
//   --deadline-ms D  Per-query deadline (server may cap it).
//   --ids            Print every result id (default: count + stats only).
//
// Numeric operands and flags must be whole numbers in range: P in
// [1, 65535], ID a 32-bit point id, X/Y finite, D finite and >= 0.
//
// Exit codes (see README):
//   0  success
//   2  bad usage (unknown command, missing or malformed value)
//   3  connection failure (server not running / wrong port)
//   4  typed server error (the code name is printed, e.g. RETRY_LATER)
//   5  transport/protocol failure mid-conversation

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "cli_args.h"
#include "server/client.h"

namespace {

int Usage() {
  std::cerr << "usage: vaq_client --port P "
               "(query WKT [--method M] [--no-cache] [--deadline-ms D] "
               "[--ids] | insert X Y | erase ID | compact | stats | ping)\n";
  return 2;
}

int BadValue(const std::string& what, const std::string& value) {
  std::cerr << "vaq_client: bad value for " << what << ": '" << value
            << "'\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vaq;

  std::uint16_t port = 0;
  std::string command;
  std::vector<std::string> operands;
  WireQueryRequest query;
  bool print_ids = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(Usage());
      return argv[++i];
    };
    if (arg == "--port") {
      std::uint64_t n = 0;
      if (!ParseUint(value(), &n, 65535) || n == 0) {
        return BadValue(arg, argv[i]);
      }
      port = static_cast<std::uint16_t>(n);
    } else if (arg == "--method") {
      const std::string m = value();
      if (m == "voronoi") query.force_method = DynamicMethod::kVoronoi;
      else if (m == "traditional")
        query.force_method = DynamicMethod::kTraditional;
      else if (m == "grid-sweep") query.force_method = DynamicMethod::kGridSweep;
      else if (m == "brute") query.force_method = DynamicMethod::kBruteForce;
      else return Usage();
    } else if (arg == "--no-cache") {
      query.use_cache = false;
    } else if (arg == "--deadline-ms") {
      if (!ParseFinite(value(), &query.deadline_ms) ||
          query.deadline_ms < 0.0) {
        return BadValue(arg, argv[i]);
      }
    } else if (arg == "--ids") {
      print_ids = true;
    } else if (command.empty()) {
      command = arg;
    } else {
      operands.push_back(arg);
    }
  }
  if (port == 0 || command.empty()) return Usage();

  // Operands are checked before connecting, so a bad value is a usage
  // error whether or not a server is listening.
  double x = 0.0, y = 0.0;
  std::uint64_t erase_id = 0;
  if (command == "query" && operands.size() != 1) return Usage();
  if (command == "insert") {
    if (operands.size() != 2) return Usage();
    if (!ParseFinite(operands[0].c_str(), &x)) {
      return BadValue("X", operands[0]);
    }
    if (!ParseFinite(operands[1].c_str(), &y)) {
      return BadValue("Y", operands[1]);
    }
  } else if (command == "erase") {
    if (operands.size() != 1) return Usage();
    if (!ParseUint(operands[0].c_str(), &erase_id, UINT32_MAX)) {
      return BadValue("ID", operands[0]);
    }
  }

  try {
    QueryClient client(port);
    if (command == "query") {
      query.wkt = operands[0];
      const QueryClient::QueryOutcome outcome = client.Query(query);
      std::cout << "results: " << outcome.ids.size()
                << "  candidates: " << outcome.stats.candidates
                << "  plan_method: 0x" << std::hex
                << outcome.stats.plan_method << "  plan_reason: 0x"
                << outcome.stats.plan_reason << std::dec
                << "  cache: " << outcome.stats.result_cache_hits << "h/"
                << outcome.stats.result_cache_misses << "m"
                << "  elapsed_ms: " << outcome.stats.elapsed_ms << "\n";
      if (print_ids) {
        for (const PointId id : outcome.ids) std::cout << id << "\n";
      }
    } else if (command == "insert") {
      const WireMutationResult r = client.Insert(x, y);
      if (r.ok) {
        std::cout << "inserted id " << r.value << "\n";
      } else {
        std::cout << "rejected (duplicate or invalid point)\n";
      }
    } else if (command == "erase") {
      const WireMutationResult r =
          client.Erase(static_cast<PointId>(erase_id));
      std::cout << (r.ok ? "erased\n" : "no such live id\n");
    } else if (command == "compact") {
      client.Compact();
      std::cout << "compacted\n";
    } else if (command == "stats") {
      const WireServerStats s = client.Stats();
      std::cout << "queries_completed: " << s.queries_completed
                << "\nthroughput_qps: " << s.throughput_qps
                << "\nlatency_p50_ms: " << s.latency_p50_ms
                << "\nlatency_p95_ms: " << s.latency_p95_ms
                << "\nlatency_p99_ms: " << s.latency_p99_ms
                << "\nconnections: " << s.connections_active << " active / "
                << s.connections_total << " total"
                << "\nrequests_total: " << s.requests_total
                << "\nqueries: " << s.queries_ok << " ok, " << s.queries_shed
                << " shed, " << s.queries_rejected << " rejected, "
                << s.queries_aborted << " aborted"
                << "\nmutations_total: " << s.mutations_total
                << "\ncompacts_completed: " << s.compacts_completed
                << "\nresult_cache: " << s.result_cache_hits << " hits, "
                << s.result_cache_misses << " misses"
                << "\nthis_connection: " << s.client_requests << " requests, "
                << s.client_errors << " errors\n";
    } else if (command == "ping") {
      if (!client.Ping()) {
        std::cerr << "vaq_client: pong payload mismatch\n";
        return 5;
      }
      std::cout << "pong\n";
    } else {
      return Usage();
    }
  } catch (const ServerError& e) {
    std::cerr << "vaq_client: server error " << WireErrorCodeName(e.code())
              << ": " << e.what() << "\n";
    return 4;
  } catch (const std::system_error& e) {
    std::cerr << "vaq_client: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "vaq_client: " << e.what() << "\n";
    return 5;
  }
  return 0;
}
