#include "pdcu/extensions/gap_sims.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <thread>

#include "pdcu/runtime/start_line.hpp"
#include "pdcu/support/rng.hpp"

namespace pdcu::ext {

// --- HumanScan ----------------------------------------------------------------

ScanResult human_scan(const std::vector<std::int64_t>& values,
                      rt::TraceLog* trace) {
  ScanResult result;
  const int n = static_cast<int>(values.size());
  if (n == 0) return result;
  result.prefix.resize(values.size());

  std::vector<std::int64_t> gathered(values.size());
  auto body = [&](rt::Comm& comm) {
    const int i = comm.rank();
    std::int64_t held = values[static_cast<std::size_t>(i)];
    int round = 0;
    for (int stride = 1; stride < n; stride <<= 1, ++round) {
      // Everyone simultaneously shows their value to the student `stride`
      // places to the right, then adds what arrived from the left.
      if (i + stride < n) comm.send(i + stride, {held}, /*tag=*/round);
      std::int64_t incoming = 0;
      if (i - stride >= 0) {
        incoming = comm.recv(i - stride, round).payload[0];
      }
      comm.work(1);
      held += incoming;
      if (trace != nullptr && i - stride >= 0) {
        comm.log("adds the value from student " +
                 std::to_string(i - stride) + ", now holds " +
                 std::to_string(held));
      }
      comm.barrier();
    }
    if (comm.rank() == 0) result.rounds = round;
    auto all = comm.gather(0, held);
    if (comm.rank() == 0) gathered = std::move(all);
  };
  rt::ClassroomResult run = rt::Classroom::run(n, body, {}, trace);
  for (std::size_t i = 0; i < gathered.size(); ++i) {
    result.prefix[i] = gathered[i];
  }
  result.cost = run.cost;
  return result;
}

// --- BucketBrigade --------------------------------------------------------------

BrigadeResult bucket_brigade(int students, int items, rt::TraceLog* trace) {
  assert(students >= 1 && items >= students);
  BrigadeResult result;

  std::vector<std::int64_t> worksheets(static_cast<std::size_t>(items));
  for (int i = 0; i < items; ++i) {
    worksheets[static_cast<std::size_t>(i)] = i + 1;
  }
  const std::int64_t expected_total =
      static_cast<std::int64_t>(items) * (items + 1) / 2;

  // Naive: the teacher (rank 0) walks to each student with their stack,
  // then walks back to collect each total.
  std::atomic<bool> naive_ok{true};
  auto naive = [&](rt::Comm& comm) {
    const int n = comm.size();
    const std::size_t chunk =
        (worksheets.size() + static_cast<std::size_t>(n) - 1) /
        static_cast<std::size_t>(n);
    if (comm.rank() == 0) {
      for (int dst = 1; dst < n; ++dst) {
        std::size_t lo = std::min(worksheets.size(),
                                  chunk * static_cast<std::size_t>(dst));
        std::size_t hi = std::min(worksheets.size(), lo + chunk);
        comm.work(2);  // the walk
        comm.send(dst,
                  std::vector<std::int64_t>(
                      worksheets.begin() + static_cast<long>(lo),
                      worksheets.begin() + static_cast<long>(hi)),
                  1);
      }
      std::int64_t total = 0;
      for (std::size_t i = 0; i < std::min(chunk, worksheets.size()); ++i) {
        comm.work(1);
        total += worksheets[i];
      }
      for (int src = 1; src < n; ++src) {
        comm.work(2);
        total += comm.recv(rt::kAny, 2).payload[0];
      }
      if (total != expected_total) naive_ok.store(false);
    } else {
      std::vector<std::int64_t> mine = comm.recv(0, 1).payload;
      std::int64_t total = 0;
      for (std::int64_t v : mine) {
        comm.work(1);
        total += v;
      }
      comm.send(0, {total}, 2);
    }
  };
  auto naive_run = rt::Classroom::run(students, naive);
  result.naive_makespan = naive_run.cost.makespan;

  // Brigade: binomial-tree scatter, local sum, binomial-tree reduce.
  std::atomic<bool> tree_ok{true};
  auto tree = [&](rt::Comm& comm) {
    std::vector<std::int64_t> mine = comm.scatter(0, worksheets);
    std::int64_t total = 0;
    for (std::int64_t v : mine) {
      comm.work(1);
      total += v;
    }
    if (trace != nullptr) {
      comm.log("passes a stack down the brigade and reports " +
               std::to_string(total));
    }
    std::int64_t sum = comm.reduce(
        0, total, [](std::int64_t a, std::int64_t b) { return a + b; });
    if (comm.rank() == 0 && sum != expected_total) tree_ok.store(false);
  };
  auto tree_run = rt::Classroom::run(students, tree, {}, trace);
  result.tree_makespan = tree_run.cost.makespan;
  result.all_delivered = naive_ok.load() && tree_ok.load();
  result.totals_match = result.all_delivered;
  return result;
}

// --- LibraryWebSearch -------------------------------------------------------------

WebSearchResult web_search(int shards, int docs_per_shard, int top_k,
                           std::uint64_t seed) {
  assert(shards >= 1 && top_k >= 1);
  WebSearchResult result;
  result.shards = shards;

  // Document scores: doc id -> relevance for "the query".
  const int total_docs = shards * docs_per_shard;
  Rng rng(seed);
  std::vector<std::int64_t> score(static_cast<std::size_t>(total_docs));
  for (auto& s : score) s = rng.between(0, 1000000);

  // Serial oracle: full sort by (score desc, id asc).
  std::vector<std::int64_t> oracle(static_cast<std::size_t>(total_docs));
  for (int d = 0; d < total_docs; ++d) {
    oracle[static_cast<std::size_t>(d)] = d;
  }
  std::sort(oracle.begin(), oracle.end(),
            [&](std::int64_t a, std::int64_t b) {
              if (score[static_cast<std::size_t>(a)] !=
                  score[static_cast<std::size_t>(b)]) {
                return score[static_cast<std::size_t>(a)] >
                       score[static_cast<std::size_t>(b)];
              }
              return a < b;
            });
  oracle.resize(static_cast<std::size_t>(top_k));

  // Each shard scores its slice and reports its local top-k; the
  // aggregator merges. Shard s owns docs [s*dps, (s+1)*dps).
  std::vector<std::int64_t> merged;
  auto body = [&](rt::Comm& comm) {
    const int s = comm.rank();
    const int lo = s * docs_per_shard;
    const int hi = lo + docs_per_shard;
    std::vector<std::int64_t> local;
    for (int d = lo; d < hi; ++d) {
      comm.work(1);  // score one card
      local.push_back(d);
    }
    std::sort(local.begin(), local.end(),
              [&](std::int64_t a, std::int64_t b) {
                if (score[static_cast<std::size_t>(a)] !=
                    score[static_cast<std::size_t>(b)]) {
                  return score[static_cast<std::size_t>(a)] >
                         score[static_cast<std::size_t>(b)];
                }
                return a < b;
              });
    local.resize(std::min<std::size_t>(local.size(),
                                       static_cast<std::size_t>(top_k)));
    if (s != 0) {
      comm.send(0, local, /*tag=*/5);
    } else {
      std::vector<std::int64_t> pool = local;
      for (int i = 0; i < comm.size() - 1; ++i) {
        auto msg = comm.recv(rt::kAny, 5);
        pool.insert(pool.end(), msg.payload.begin(), msg.payload.end());
      }
      std::sort(pool.begin(), pool.end(),
                [&](std::int64_t a, std::int64_t b) {
                  if (score[static_cast<std::size_t>(a)] !=
                      score[static_cast<std::size_t>(b)]) {
                    return score[static_cast<std::size_t>(a)] >
                           score[static_cast<std::size_t>(b)];
                  }
                  return a < b;
                });
      comm.work(static_cast<std::int64_t>(pool.size()));
      pool.resize(static_cast<std::size_t>(top_k));
      merged = std::move(pool);
    }
  };
  auto run = rt::Classroom::run(shards, body);
  result.top_docs = std::move(merged);
  result.matches_serial_oracle = result.top_docs == oracle;
  result.cost = run.cost;
  return result;
}

// --- GossipPeerToPeer -----------------------------------------------------------

P2pResult p2p_lookup(int peers, int start, int target_key) {
  assert(peers >= 1);
  P2pResult result;
  result.max_possible = peers;
  const int owner = ((target_key % peers) + peers) % peers;
  result.linear_hops = ((owner - start) % peers + peers) % peers;

  // Finger-table routing: from `current`, jump the largest power-of-two
  // distance that does not overshoot the owner (clockwise).
  int current = start;
  while (current != owner) {
    int remaining = ((owner - current) % peers + peers) % peers;
    int jump = 1;
    while (jump * 2 <= remaining) jump *= 2;
    current = (current + jump) % peers;
    ++result.hops;
    if (result.hops > 2 * peers) return result;  // defensive
  }
  result.found = true;
  return result;
}

// --- FoodTruckElasticity -----------------------------------------------------------

ElasticityResult food_truck_rush(int fixed_trucks, int minutes,
                                 int scale_up_at, int scale_down_at,
                                 std::uint64_t seed) {
  assert(fixed_trucks >= 1 && minutes >= 1);
  ElasticityResult result;

  // Arrival curve: quiet, lunch spike in the middle, quiet again.
  Rng rng(seed);
  std::vector<int> arrivals(static_cast<std::size_t>(minutes));
  for (int t = 0; t < minutes; ++t) {
    const bool rush = t > minutes / 3 && t < 2 * minutes / 3;
    arrivals[static_cast<std::size_t>(t)] =
        static_cast<int>(rng.below(rush ? 8 : 2));
  }
  constexpr int kServicePerTruckPerMinute = 2;

  // Fixed provisioning.
  {
    int queue = 0;
    for (int t = 0; t < minutes; ++t) {
      queue += arrivals[static_cast<std::size_t>(t)];
      queue = std::max(0, queue - fixed_trucks * kServicePerTruckPerMinute);
      result.max_queue_static = std::max(result.max_queue_static, queue);
      result.truck_minutes_static += fixed_trucks;
    }
  }

  // Elastic provisioning: one truck minimum, scale on queue thresholds.
  {
    int queue = 0;
    int trucks = 1;
    for (int t = 0; t < minutes; ++t) {
      queue += arrivals[static_cast<std::size_t>(t)];
      if (queue > scale_up_at) {
        ++trucks;
        ++result.scale_ups;
      } else if (queue < scale_down_at && trucks > 1) {
        --trucks;
        ++result.scale_downs;
      }
      queue = std::max(0, queue - trucks * kServicePerTruckPerMinute);
      result.max_queue_elastic = std::max(result.max_queue_elastic, queue);
      result.truck_minutes_elastic += trucks;
    }
  }
  return result;
}

// --- PhoneBatteryBudget -------------------------------------------------------------

PowerResult battery_budget(std::int64_t work, std::int64_t deadline,
                           std::int64_t static_power) {
  assert(work > 0 && deadline > 0);
  PowerResult result;

  // Power model: running at frequency f costs f^3 + static_power per time
  // unit (dynamic + leakage) and retires f work units per time unit; deep
  // sleep after finishing is free. Fast: f=2 (race-to-idle). Slow: the
  // lowest integer f meeting the deadline.
  auto energy = [&](std::int64_t f, std::int64_t time) {
    return time * (f * f * f + static_power);
  };
  {
    const std::int64_t f = 2;
    result.fast_time = (work + f - 1) / f;
    result.fast_energy = energy(f, result.fast_time);
  }
  {
    std::int64_t f = 1;
    while ((work + f - 1) / f > deadline) ++f;
    result.slow_time = (work + f - 1) / f;
    result.deadline_met_slow = result.slow_time <= deadline;
    result.slow_energy = energy(f, result.slow_time);
  }
  return result;
}

// --- BankTransferRace ----------------------------------------------------------------

TransferResult bank_transfer_race(int trials, bool transactional,
                                  std::uint64_t seed) {
  TransferResult result;
  result.trials = trials;

  for (int trial = 0; trial < trials; ++trial) {
    // Two accounts, total 100. Two tellers each move 10 from A to B using
    // individually atomic loads and stores only.
    std::atomic<std::int64_t> account_a{100};
    std::atomic<std::int64_t> account_b{0};
    std::mutex transaction;

    // Tellers start together, so their transfers overlap on any core count.
    rt::StartLine start(2);
    auto teller = [&](int id) {
      Rng rng(seed + static_cast<std::uint64_t>(trial) * 131 +
              static_cast<std::uint64_t>(id));
      start.arrive_and_wait();
      if (transactional) {
        std::lock_guard lock(transaction);
        account_a.store(account_a.load() - 10);
        account_b.store(account_b.load() + 10);
        return;
      }
      // Every access is atomic — no data race — but the four accesses are
      // not one atomic transaction.
      std::int64_t a = account_a.load();
      const auto spins = rng.below(32);
      for (std::uint64_t s = 0; s < spins; ++s) std::this_thread::yield();
      account_a.store(a - 10);
      std::int64_t b = account_b.load();
      account_b.store(b + 10);
    };
    std::thread t1(teller, 1);
    std::thread t2(teller, 2);
    t1.join();
    t2.join();
    if (account_a.load() + account_b.load() != 100) {
      ++result.invariant_violations;
    }
  }
  return result;
}

}  // namespace pdcu::ext
