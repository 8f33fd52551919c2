#include "pdcu/activities/races.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "pdcu/runtime/start_line.hpp"
#include "pdcu/support/rng.hpp"

namespace pdcu::act {

namespace {

/// A small busy delay to widen the check-then-act window, seeded per thread
/// so runs are reproducible in distribution.
void think(Rng& rng) {
  const auto spins = rng.below(64);
  for (std::uint64_t i = 0; i < spins; ++i) {
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
  std::this_thread::yield();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// --- SweeteningTheJuice -------------------------------------------------------

JuiceResult sweeten_juice(int robots, int target, JuiceMode mode,
                          std::uint64_t seed) {
  std::atomic<int> sweetness{0};
  std::atomic<int> added{0};
  std::mutex glass;

  // Robots start together, so their check-then-act windows overlap on any
  // core count.
  rt::StartLine start(robots);
  auto robot = [&](int id) {
    Rng rng(seed * 1315423911u + static_cast<std::uint64_t>(id));
    start.arrive_and_wait();
    while (true) {
      switch (mode) {
        case JuiceMode::kUnsynchronized: {
          int seen = sweetness.load(std::memory_order_relaxed);
          if (seen >= target) return;
          think(rng);  // both robots can pass the check before either adds
          sweetness.store(seen + 1, std::memory_order_relaxed);
          added.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        case JuiceMode::kMutex: {
          std::lock_guard lock(glass);
          if (sweetness.load(std::memory_order_relaxed) >= target) return;
          sweetness.fetch_add(1, std::memory_order_relaxed);
          added.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        case JuiceMode::kCompareExchange: {
          int seen = sweetness.load(std::memory_order_relaxed);
          if (seen >= target) return;
          think(rng);
          if (sweetness.compare_exchange_strong(seen, seen + 1)) {
            added.fetch_add(1, std::memory_order_relaxed);
          }
          break;
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < robots; ++i) threads.emplace_back(robot, i);
  for (auto& t : threads) t.join();

  JuiceResult result;
  result.target = target;
  result.spoonfuls_added = added.load();
  // In the unsynchronized mode lost updates can make the glass *appear*
  // less sweet than the sugar actually added; the classroom moral is told
  // by spoonfuls_added exceeding the target.
  result.final_sweetness = result.spoonfuls_added;
  result.oversweetened = result.spoonfuls_added > target;
  return result;
}

int count_oversweetened(int robots, int target, int trials,
                        std::uint64_t seed) {
  int bad = 0;
  for (int t = 0; t < trials; ++t) {
    JuiceResult r = sweeten_juice(robots, target, JuiceMode::kUnsynchronized,
                                  seed + static_cast<std::uint64_t>(t));
    if (r.oversweetened) ++bad;
  }
  return bad;
}

// --- ConcertTickets -------------------------------------------------------------

TicketResult sell_tickets(int seats, int clerks, TicketStrategy strategy,
                          std::uint64_t seed) {
  // state[i]: number of times seat i has been sold (0 = free). Sales are
  // recorded with relaxed atomics so double-sales are observable, not UB.
  std::vector<std::atomic<int>> state(static_cast<std::size_t>(seats));
  for (auto& s : state) s.store(0);
  std::vector<std::atomic_flag> seat_locks(static_cast<std::size_t>(seats));
  std::mutex box_office;
  std::atomic<int> issued{0};

  // Clerks open together, so their scans overlap on any core count.
  rt::StartLine start(clerks);
  auto clerk = [&](int id) {
    Rng rng(seed * 2654435761u + static_cast<std::uint64_t>(id));
    start.arrive_and_wait();
    // Each clerk scans from a random start so clerks collide on seats.
    while (true) {
      bool sold_one = false;
      std::size_t start = rng.below(static_cast<std::uint64_t>(seats));
      for (int k = 0; k < seats; ++k) {
        std::size_t i = (start + static_cast<std::size_t>(k)) %
                        static_cast<std::size_t>(seats);
        switch (strategy) {
          case TicketStrategy::kNoCoordination: {
            if (state[i].load(std::memory_order_relaxed) == 0) {
              think(rng);  // collect the customer's money
              state[i].fetch_add(1, std::memory_order_relaxed);
              issued.fetch_add(1, std::memory_order_relaxed);
              sold_one = true;
            }
            break;
          }
          case TicketStrategy::kCoarseLock: {
            std::lock_guard lock(box_office);
            if (state[i].load(std::memory_order_relaxed) == 0) {
              state[i].fetch_add(1, std::memory_order_relaxed);
              issued.fetch_add(1, std::memory_order_relaxed);
              sold_one = true;
            }
            break;
          }
          case TicketStrategy::kPerSeatLock: {
            if (state[i].load(std::memory_order_relaxed) == 0 &&
                !seat_locks[i].test_and_set(std::memory_order_acquire)) {
              // The flag is the per-seat sale record; set wins the seat.
              state[i].fetch_add(1, std::memory_order_relaxed);
              issued.fetch_add(1, std::memory_order_relaxed);
              sold_one = true;
            }
            break;
          }
          case TicketStrategy::kOptimistic: {
            int expected = 0;
            if (state[i].load(std::memory_order_relaxed) == 0) {
              think(rng);
              if (state[i].compare_exchange_strong(expected, 1)) {
                issued.fetch_add(1, std::memory_order_relaxed);
                sold_one = true;
              }
            }
            break;
          }
        }
        if (sold_one) break;
      }
      if (!sold_one) return;  // no seat appears free anymore
    }
  };

  const std::int64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (int i = 0; i < clerks; ++i) threads.emplace_back(clerk, i);
  for (auto& t : threads) t.join();
  const std::int64_t t1 = now_ns();

  TicketResult result;
  result.seats = seats;
  result.clerks = clerks;
  result.nanoseconds = t1 - t0;
  result.tickets_issued = issued.load();
  for (auto& s : state) {
    if (s.load() > 1) ++result.double_sold_seats;
  }
  result.oversold = result.double_sold_seats > 0 ||
                    result.tickets_issued > result.seats;
  return result;
}

// --- IntersectionSynchronization -------------------------------------------------

IntersectionResult run_intersection(int cars, int crossings_per_car,
                                    IntersectionControl control) {
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  std::vector<int> crossings(static_cast<std::size_t>(cars), 0);

  // The checked critical action: enter, verify exclusivity, leave.
  auto cross = [&](int id) {
    if (inside.fetch_add(1) != 0) overlap.store(true);
    crossings[static_cast<std::size_t>(id)] += 1;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    inside.fetch_sub(1);
  };

  std::atomic_flag stop_sign = ATOMIC_FLAG_INIT;
  std::atomic<int> ticket_next{0};
  std::atomic<int> ticket_serving{0};
  std::mutex officer_mutex;
  std::condition_variable officer_signal;
  bool intersection_free = true;
  std::atomic<int> token_holder{0};

  auto car = [&](int id) {
    for (int k = 0; k < crossings_per_car; ++k) {
      switch (control) {
        case IntersectionControl::kStopSign: {
          while (stop_sign.test_and_set(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          cross(id);
          stop_sign.clear(std::memory_order_release);
          break;
        }
        case IntersectionControl::kTrafficLight: {
          const int my_turn = ticket_next.fetch_add(1);
          while (ticket_serving.load(std::memory_order_acquire) != my_turn) {
            std::this_thread::yield();
          }
          cross(id);
          ticket_serving.fetch_add(1, std::memory_order_release);
          break;
        }
        case IntersectionControl::kPoliceOfficer: {
          std::unique_lock lock(officer_mutex);
          officer_signal.wait(lock, [&] { return intersection_free; });
          intersection_free = false;
          lock.unlock();
          cross(id);
          lock.lock();
          intersection_free = true;
          lock.unlock();
          officer_signal.notify_one();
          break;
        }
        case IntersectionControl::kTokenRoad: {
          while (token_holder.load(std::memory_order_acquire) != id) {
            std::this_thread::yield();
          }
          cross(id);
          token_holder.store((id + 1) % cars, std::memory_order_release);
          break;
        }
      }
    }
  };

  const std::int64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (int i = 0; i < cars; ++i) threads.emplace_back(car, i);
  for (auto& t : threads) t.join();
  const std::int64_t t1 = now_ns();

  IntersectionResult result;
  result.mutual_exclusion_held = !overlap.load();
  result.nanoseconds = t1 - t0;
  result.max_crossings_by_one_car = 0;
  result.min_crossings_by_one_car = crossings_per_car;
  for (int c : crossings) {
    result.total_crossings += c;
    result.max_crossings_by_one_car =
        std::max(result.max_crossings_by_one_car, c);
    result.min_crossings_by_one_car =
        std::min(result.min_crossings_by_one_car, c);
  }
  return result;
}

// --- FastAnswerVsSharedAccess ------------------------------------------------------

TwoStationsResult two_stations(int students, int work_items,
                               std::uint64_t seed) {
  TwoStationsResult result;
  Rng rng(seed);

  // Station A: count face cards across `work_items` cards, sliced evenly.
  // One card inspection = 1 unit. Perfectly parallel plus a tally round.
  std::int64_t faces = 0;
  for (int i = 0; i < work_items; ++i) {
    if (rng.below(13) < 3) ++faces;  // J/Q/K of any suit
  }
  result.station_a_count = faces;
  auto station_a = [&](int p) {
    const std::int64_t slice = (work_items + p - 1) / p;
    return slice + (p > 1 ? 1 : 0);  // counting + shouting the subtotal
  };
  result.station_a_makespan = station_a(students);
  result.station_a_speedup =
      static_cast<double>(station_a(1)) /
      static_cast<double>(result.station_a_makespan);

  // Station B: each packet takes 3 units of parallel assembly plus 1 unit
  // at the single stapler. The stapler serializes: its total demand is a
  // floor on the makespan (assembly overlaps with stapling of earlier
  // packets).
  auto station_b = [&](int p) {
    const std::int64_t assembly = (work_items + p - 1) / p * 3;
    const std::int64_t stapling = work_items;
    return std::max(assembly + 1, stapling + 3);
  };
  result.station_b_makespan = station_b(students);
  result.station_b_speedup =
      static_cast<double>(station_b(1)) /
      static_cast<double>(result.station_b_makespan);
  return result;
}

// --- DinnerPartyProducers ---------------------------------------------------------

DinnerResult dinner_party(int cooks, int waiters, int dishes_per_cook,
                          int window_capacity) {
  std::mutex window_mutex;
  std::condition_variable window_not_full;
  std::condition_variable window_not_empty;
  std::deque<int> window;  // dish ids on the serving window
  bool kitchen_closed = false;
  int full_stalls = 0;
  int empty_stalls = 0;

  const int total_dishes = cooks * dishes_per_cook;
  std::vector<std::atomic<int>> served(
      static_cast<std::size_t>(total_dishes));
  for (auto& s : served) s.store(0);

  auto cook = [&](int id) {
    for (int d = 0; d < dishes_per_cook; ++d) {
      const int dish = id * dishes_per_cook + d;
      std::unique_lock lock(window_mutex);
      if (window.size() >= static_cast<std::size_t>(window_capacity)) {
        ++full_stalls;
        window_not_full.wait(lock, [&] {
          return window.size() < static_cast<std::size_t>(window_capacity);
        });
      }
      window.push_back(dish);
      lock.unlock();
      window_not_empty.notify_one();  // ring the dinner bell
    }
  };

  auto waiter = [&] {
    while (true) {
      std::unique_lock lock(window_mutex);
      if (window.empty() && !kitchen_closed) {
        ++empty_stalls;
        window_not_empty.wait(lock,
                              [&] { return !window.empty() || kitchen_closed; });
      }
      if (window.empty()) {
        if (kitchen_closed) return;
        continue;
      }
      const int dish = window.front();
      window.pop_front();
      lock.unlock();
      window_not_full.notify_one();
      served[static_cast<std::size_t>(dish)].fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < cooks; ++i) threads.emplace_back(cook, i);
  std::vector<std::thread> waiter_threads;
  for (int i = 0; i < waiters; ++i) waiter_threads.emplace_back(waiter);
  for (auto& t : threads) t.join();
  {
    std::lock_guard lock(window_mutex);
    kitchen_closed = true;
  }
  window_not_empty.notify_all();
  for (auto& t : waiter_threads) t.join();

  DinnerResult result;
  result.dishes_cooked = total_dishes;
  result.window_full_stalls = full_stalls;
  result.window_empty_stalls = empty_stalls;
  for (auto& s : served) {
    const int times = s.load();
    result.dishes_served += times;
    if (times != 1) result.every_dish_served_once = false;
  }
  return result;
}

}  // namespace pdcu::act
