// Exhaustive small-scope checks of the two protocols whose correctness
// arguments live in comments: the CircuitBreaker half-open epoch
// (src/lrpc/circuit_breaker.h — "only the CAS winner publishes the
// epoch's probe budget") and the ValidateCached seqlock + generation
// protocol (src/kern/sharded_binding_table.cc — "a stale success can
// never be cached under a newer generation than the validation actually
// observed"). Each protocol is modeled step-for-step against the real
// code, every 2- and 3-thread interleaving is enumerated, and — because a
// checker that cannot find bugs proves nothing — each model is paired
// with a deliberately broken variant (the exact orderings the source
// comments defend against) that the checker must catch. The same treatment
// covers the AsyncRing completion ring, the futex doorbell, and the A-stack
// free list's per-processor magazine.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/model_check.h"

namespace lrpc {
namespace model {
namespace {

// --- Scheduler exhaustiveness on straight-line threads ---

struct CounterState {
  int a = 0;
  int b = 0;
  int c = 0;
  bool operator==(const CounterState&) const = default;
};

ModelThread<CounterState> Incrementer(const std::string& name,
                                      int CounterState::* field,
                                      int steps) {
  ModelThread<CounterState> thread;
  thread.name = name;
  for (int i = 0; i < steps; ++i) {
    const bool last = i + 1 == steps;
    thread.steps.push_back([field, i, last](CounterState& s) {
      ++(s.*field);
      return last ? kDone : i + 1;
    });
  }
  return thread;
}

TEST(Explorer, EnumeratesEveryTwoThreadInterleaving) {
  // Two straight-line threads of 2 steps interleave in C(4,2) = 6 ways.
  Explorer<CounterState> explorer({Incrementer("a", &CounterState::a, 2),
                                   Incrementer("b", &CounterState::b, 2)});
  explorer.set_terminal_check(
      [](const CounterState& s) { return s.a == 2 && s.b == 2; });
  const ExploreStats stats = explorer.Run(CounterState{});
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  EXPECT_EQ(stats.schedules, InterleavingCount(2, 2));
  EXPECT_EQ(stats.schedules, 6u);
  EXPECT_EQ(stats.max_depth_seen, 4);
}

TEST(Explorer, EnumeratesEveryThreeThreadInterleaving) {
  // 6! / (2! 2! 2!) = 90 interleavings of three 2-step threads.
  Explorer<CounterState> explorer({Incrementer("a", &CounterState::a, 2),
                                   Incrementer("b", &CounterState::b, 2),
                                   Incrementer("c", &CounterState::c, 2)});
  const ExploreStats stats = explorer.Run(CounterState{});
  EXPECT_TRUE(stats.ok());
  EXPECT_EQ(stats.schedules, 90u);
}

TEST(Explorer, ReportsAFailingScheduleAsATrace) {
  Explorer<CounterState> explorer({Incrementer("a", &CounterState::a, 1),
                                   Incrementer("b", &CounterState::b, 1)});
  // Fails exactly when b runs before a.
  explorer.set_invariant(
      [](const CounterState& s) { return !(s.b == 1 && s.a == 0); });
  const ExploreStats stats = explorer.Run(CounterState{});
  EXPECT_EQ(stats.failures, 1u);
  ASSERT_EQ(stats.failure_traces.size(), 1u);
  EXPECT_NE(stats.failure_traces[0].find("b/0"), std::string::npos);
}

TEST(Explorer, PrunesSpinStepsThatChangeNothing) {
  // A reader that re-polls a flag spins in place until the writer flips
  // it; without no-op pruning this model would be infinite.
  struct SpinState {
    bool flag = false;
    bool saw = false;
    bool operator==(const SpinState&) const = default;
  };
  ModelThread<SpinState> writer{
      "writer", {[](SpinState& s) {
        s.flag = true;
        return kDone;
      }}};
  ModelThread<SpinState> spinner{
      "spinner", {[](SpinState& s) {
        if (!s.flag) {
          return 0;  // Re-poll: pruned while nothing changed.
        }
        s.saw = true;
        return kDone;
      }}};
  Explorer<SpinState> explorer({writer, spinner});
  explorer.set_terminal_check([](const SpinState& s) { return s.saw; });
  const ExploreStats stats = explorer.Run(SpinState{});
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  EXPECT_GT(stats.pruned_noops, 0u);
}

// --- CircuitBreaker: the half-open probe-budget epoch ---
//
// Mirrors CircuitBreaker::AllowCall step-for-step from the open state
// with the cooldown elapsed: load state; CAS open -> half-open; the
// winner (and in the correct protocol, ONLY the winner) publishes the
// probe budget; every admitter claims a probe by CAS decrement. The
// property: however 2 or 3 callers interleave, at most probe_budget
// calls are admitted in the epoch.

enum BreakerStateKind { kClosed, kOpen, kHalfOpen };

constexpr int kMaxCallers = 3;

struct BreakerModel {
  int state = kOpen;
  int probes_left = 0;  // Guaranteed zero on entry to kOpen.
  int budget = 1;
  int admitted = 0;
  int rejected = 0;
  // Per-caller locals (survive between steps).
  int seen[kMaxCallers] = {};
  int probes[kMaxCallers] = {};
  bool operator==(const BreakerModel&) const = default;
};

// Step indices for a caller thread.
enum : int {
  kLoadState = 0,
  kCasHalfOpen,
  kPublishBudget,
  kLoadProbes,
  kClaimProbe,
};

ModelThread<BreakerModel> Caller(int id, bool budget_before_cas) {
  ModelThread<BreakerModel> t;
  t.name = "caller" + std::to_string(id);
  t.steps.resize(5);
  t.steps[kLoadState] = [id, budget_before_cas](BreakerModel& m) {
    m.seen[id] = m.state;
    if (m.seen[id] == kClosed) {
      ++m.admitted;
      return kDone;
    }
    if (m.seen[id] == kHalfOpen) {
      return static_cast<int>(kLoadProbes);
    }
    // Open, cooldown elapsed: race for the half-open transition. The
    // broken variant publishes the budget BEFORE the CAS — the ordering
    // the comment in AllowCall rejects, because a CAS loser then re-arms
    // probes a faster thread already spent.
    return static_cast<int>(budget_before_cas ? kPublishBudget
                                              : kCasHalfOpen);
  };
  t.steps[kCasHalfOpen] = [id, budget_before_cas](BreakerModel& m) {
    if (m.state == m.seen[id]) {  // Expected kOpen: the CAS wins.
      m.state = kHalfOpen;
      m.seen[id] = kHalfOpen;
      return static_cast<int>(budget_before_cas ? kLoadProbes
                                                : kPublishBudget);
    }
    m.seen[id] = m.state;  // Failed CAS hands back the rival's state.
    if (m.seen[id] == kClosed) {
      ++m.admitted;
      return kDone;
    }
    if (m.seen[id] != kHalfOpen) {
      ++m.rejected;
      return kDone;
    }
    return static_cast<int>(kLoadProbes);
  };
  t.steps[kPublishBudget] = [budget_before_cas](BreakerModel& m) {
    m.probes_left = m.budget;
    return static_cast<int>(budget_before_cas ? kCasHalfOpen : kLoadProbes);
  };
  t.steps[kLoadProbes] = [id](BreakerModel& m) {
    m.probes[id] = m.probes_left;
    return static_cast<int>(kClaimProbe);
  };
  t.steps[kClaimProbe] = [id](BreakerModel& m) {
    if (m.probes[id] <= 0) {
      ++m.rejected;  // Budget spent (or not yet published): fail fast.
      return kDone;
    }
    if (m.probes_left == m.probes[id]) {  // The decrement CAS wins.
      --m.probes_left;
      ++m.admitted;
      return kDone;
    }
    m.probes[id] = m.probes_left;  // Lost the race: retry off the reload.
    return static_cast<int>(kClaimProbe);
  };
  return t;
}

ExploreStats CheckBreaker(int callers, int budget, bool budget_before_cas) {
  std::vector<ModelThread<BreakerModel>> threads;
  for (int i = 0; i < callers; ++i) {
    threads.push_back(Caller(i, budget_before_cas));
  }
  Explorer<BreakerModel> explorer(std::move(threads));
  BreakerModel initial;
  initial.budget = budget;
  explorer.set_invariant(
      [budget](const BreakerModel& m) { return m.admitted <= budget; });
  explorer.set_terminal_check([callers](const BreakerModel& m) {
    // Every caller resolves one way or the other: no admission lost.
    return m.admitted + m.rejected == callers;
  });
  return explorer.Run(initial);
}

TEST(BreakerEpochModel, TwoCallersNeverOverspendTheBudget) {
  const ExploreStats stats = CheckBreaker(2, 1, false);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  // At least every interleaving of two straight-line 5-step threads is
  // covered (branching only adds schedules beyond this floor).
  EXPECT_GE(stats.schedules, InterleavingCount(4, 4));
}

TEST(BreakerEpochModel, ThreeCallersNeverOverspendTheBudget) {
  const ExploreStats stats = CheckBreaker(3, 1, false);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  EXPECT_GT(stats.schedules, 1000u);
}

TEST(BreakerEpochModel, ThreeCallersRespectALargerBudget) {
  const ExploreStats stats = CheckBreaker(3, 2, false);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
}

TEST(BreakerEpochModel, PublishingBudgetBeforeTheCasIsCaught) {
  // The rejected ordering: a CAS loser re-arms the budget the winner's
  // epoch already spent, and two probes are admitted against budget 1.
  const ExploreStats stats = CheckBreaker(2, 1, true);
  EXPECT_FALSE(stats.ok());
  ASSERT_FALSE(stats.failure_traces.empty());
  EXPECT_NE(stats.failure_traces[0].find("invariant violated"),
            std::string::npos);
}

// --- ValidateCached: the seqlock + generation cache protocol ---
//
// Mirrors ShardedBindingTable: a reader runs ValidateCached twice (the
// first call seeds its thread-local cache, the second is the probe under
// attack) while a revoker runs Revoke (seq odd, revoked store, seq even,
// then the generation bump). The property: once the revoke has completed,
// no later call may return "valid" — neither from a cache hit nor from a
// fresh seqlock read. Two broken variants must be caught: bumping the
// generation before the entry update (the ordering Revoke's comment
// defends), and tagging the cache with a generation re-loaded AFTER the
// validation instead of the probe value (the ordering ValidateCached's
// comment defends).

struct SeqlockModel {
  // The shared entry and generation word.
  std::uint64_t seq = 2;  // Published: even, nonzero.
  bool revoked = false;
  std::uint64_t generation = 1;
  bool revoke_done = false;
  // The reader's thread-local cache.
  bool cache_valid = false;
  std::uint64_t cache_gen = 0;
  // The reader's per-call locals.
  std::uint64_t r_gen = 0;
  std::uint64_t r_s1 = 0;
  bool r_revoked = false;
  bool started_after_revoke = false;
  int calls_left = 2;
  // The verdict of the last completed call.
  bool last_ok = false;
  bool last_started_after_revoke = false;
  bool operator==(const SeqlockModel&) const = default;
};

enum : int {
  kGenProbe = 0,
  kReadSeq,
  kReadFields,
  kRecheckSeq,
  kConclude,
};

// `stale_cache_tag`: the broken variant that re-loads the generation at
// fill time instead of tagging with the pre-validation probe.
ModelThread<SeqlockModel> Reader(bool stale_cache_tag) {
  ModelThread<SeqlockModel> t;
  t.name = "reader";
  t.steps.resize(5);
  t.steps[kGenProbe] = [](SeqlockModel& m) {
    m.r_gen = m.generation;
    m.started_after_revoke = m.revoke_done;
    if (m.cache_valid && m.cache_gen == m.r_gen) {
      // Cache hit: the call answers without touching the seqlock. A
      // cached entry always recorded a successful validation.
      m.last_ok = true;
      m.last_started_after_revoke = m.started_after_revoke;
      --m.calls_left;
      return m.calls_left > 0 ? static_cast<int>(kGenProbe) : kDone;
    }
    return static_cast<int>(kReadSeq);
  };
  t.steps[kReadSeq] = [](SeqlockModel& m) {
    m.r_s1 = m.seq;
    if ((m.r_s1 & 1) != 0) {
      return static_cast<int>(kReadSeq);  // Mid-update: spin (pruned).
    }
    return static_cast<int>(kReadFields);
  };
  t.steps[kReadFields] = [](SeqlockModel& m) {
    m.r_revoked = m.revoked;
    return static_cast<int>(kRecheckSeq);
  };
  t.steps[kRecheckSeq] = [](SeqlockModel& m) {
    if (m.seq != m.r_s1) {
      return static_cast<int>(kReadSeq);  // Torn read: go around again.
    }
    return static_cast<int>(kConclude);
  };
  t.steps[kConclude] = [stale_cache_tag](SeqlockModel& m) {
    m.last_ok = !m.r_revoked;
    m.last_started_after_revoke = m.started_after_revoke;
    if (!m.r_revoked) {
      m.cache_valid = true;
      // The correct protocol tags with the generation loaded BEFORE the
      // validation; the broken one re-loads, letting a concurrent bump
      // launder a stale validation under the new generation.
      m.cache_gen = stale_cache_tag ? m.generation : m.r_gen;
    } else {
      m.cache_valid = false;  // Drop the refuted entry.
    }
    --m.calls_left;
    return m.calls_left > 0 ? static_cast<int>(kGenProbe) : kDone;
  };
  return t;
}

// `bump_first`: the broken variant that bumps the generation before the
// seqlock write instead of after it.
ModelThread<SeqlockModel> Revoker(bool bump_first) {
  ModelThread<SeqlockModel> t;
  t.name = "revoker";
  auto bump = [](SeqlockModel& m) { ++m.generation; };
  if (bump_first) {
    t.steps.push_back([bump](SeqlockModel& m) {
      bump(m);
      return 1;
    });
  }
  const int base = static_cast<int>(t.steps.size());
  t.steps.push_back([base](SeqlockModel& m) {
    ++m.seq;  // Odd: readers retry.
    return base + 1;
  });
  t.steps.push_back([base](SeqlockModel& m) {
    m.revoked = true;
    return base + 2;
  });
  t.steps.push_back([base, bump_first](SeqlockModel& m) {
    ++m.seq;  // Even again: entry republished.
    if (bump_first) {
      m.revoke_done = true;
      return kDone;
    }
    return base + 3;
  });
  if (!bump_first) {
    t.steps.push_back([bump](SeqlockModel& m) {
      bump(m);  // The bump FOLLOWS the entry update.
      m.revoke_done = true;
      return kDone;
    });
  }
  return t;
}

ExploreStats CheckSeqlock(bool bump_first, bool stale_cache_tag) {
  Explorer<SeqlockModel> explorer(
      {Reader(stale_cache_tag), Revoker(bump_first)});
  explorer.set_terminal_check([](const SeqlockModel& m) {
    // No stale validation survives the bump: a call that began after the
    // revoke completed must have seen the revocation.
    return !(m.last_started_after_revoke && m.last_ok);
  });
  return explorer.Run(SeqlockModel{});
}

TEST(SeqlockCacheModel, RevokeIsNeverMissedAfterItCompletes) {
  const ExploreStats stats = CheckSeqlock(false, false);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  // Floor: the interleavings of the revoker's 4 steps with one 5-step
  // reader call (retries and the second call only add schedules).
  EXPECT_GE(stats.schedules, InterleavingCount(4, 5));
}

TEST(SeqlockCacheModel, BumpingGenerationBeforeTheEntryIsCaught) {
  // Reader validates the pre-revoke entry but tags it with the already
  // bumped generation; its next call cache-hits a revoked binding.
  const ExploreStats stats = CheckSeqlock(true, false);
  EXPECT_FALSE(stats.ok());
  ASSERT_FALSE(stats.failure_traces.empty());
  EXPECT_NE(stats.failure_traces[0].find("terminal check failed"),
            std::string::npos);
}

TEST(SeqlockCacheModel, ReloadingTheGenerationAtFillTimeIsCaught) {
  // Even with the CORRECT revoker, tagging the cache with a generation
  // re-loaded after validation lets the bump land between the two and
  // launder the stale entry under the new generation.
  const ExploreStats stats = CheckSeqlock(false, true);
  EXPECT_FALSE(stats.ok());
}

TEST(SeqlockCacheModel, ThreeThreadsTwoReadersStayConsistent) {
  // Two independent readers (locals duplicated via a second state copy
  // would complicate the model; instead reuse the revoker window with a
  // reader and a second revoker-observer running Validate once). Model
  // one reader against a revoker plus a bumper that adds an unrelated
  // generation bump — the cache must not hit across EITHER bump with a
  // stale verdict.
  ModelThread<SeqlockModel> bumper{
      "bumper", {[](SeqlockModel& m) {
        ++m.generation;  // An unrelated mutation elsewhere in the table.
        return kDone;
      }}};
  Explorer<SeqlockModel> explorer(
      {Reader(false), Revoker(false), bumper});
  explorer.set_terminal_check([](const SeqlockModel& m) {
    return !(m.last_started_after_revoke && m.last_ok);
  });
  const ExploreStats stats = explorer.Run(SeqlockModel{});
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  EXPECT_GT(stats.schedules, 1000u);
}

// --- AsyncRing's SPSC completion ring: the publish/consume protocol ---
//
// Mirrors src/lrpc/async_call.cc: PublishCompletion writes the cell, then
// release-stores the new tail; Reap acquire-loads the tail and consumes
// cells up to it, release-storing the head behind itself; the Submit gate
// bounds unreaped completions at the ring's depth, so the producer never
// laps the consumer. In the model each publish is two steps — cell write,
// tail store — because the release/acquire pair is exactly the guarantee
// that the consumer observes them in that order. The property: however
// the two threads interleave, the consumer reaps every published value,
// exactly once, in publication order — no completion lost, none fired
// twice, none read before its cell is written. The broken variant
// publishes the tail BEFORE the cell write — the reordering a relaxed
// store on comp_tail_ would permit — and the checker must catch the
// consumer reaping an unwritten cell.

constexpr int kRingDepth = 2;
constexpr int kRingValues = 3;  // > depth: the ring wraps.

struct RingModel {
  int cells[kRingDepth] = {};
  int tail = 0;  // comp_tail_: published count.
  int head = 0;  // comp_head_: consumed count.
  int consumed[kRingValues] = {};
  int consumed_count = 0;
  bool operator==(const RingModel&) const = default;
};

ModelThread<RingModel> RingProducer(bool tail_before_write) {
  ModelThread<RingModel> t;
  t.name = "flush";
  for (int v = 1; v <= kRingValues; ++v) {
    const int base = static_cast<int>(t.steps.size());
    const bool last = v == kRingValues;
    if (!tail_before_write) {
      // Correct order: cell write, then the tail publish (the release
      // store). The full-ring guard is the Submit gate.
      t.steps.push_back([v, base](RingModel& m) {
        if (m.tail - m.head == kRingDepth) {
          return base;  // Ring full: wait for the reaper (pruned spin).
        }
        m.cells[m.tail % kRingDepth] = v;
        return base + 1;
      });
      t.steps.push_back([last, base](RingModel& m) {
        ++m.tail;
        return last ? kDone : base + 2;
      });
    } else {
      // The rejected order: the tail becomes visible while the cell still
      // holds its previous contents.
      t.steps.push_back([base](RingModel& m) {
        if (m.tail - m.head == kRingDepth) {
          return base;
        }
        ++m.tail;
        return base + 1;
      });
      t.steps.push_back([v, last, base](RingModel& m) {
        m.cells[(m.tail - 1) % kRingDepth] = v;
        return last ? kDone : base + 2;
      });
    }
  }
  return t;
}

ModelThread<RingModel> RingConsumer() {
  ModelThread<RingModel> t;
  t.name = "reap";
  t.steps.push_back([](RingModel& m) {
    if (m.head == m.tail) {
      if (m.consumed_count == kRingValues) {
        return kDone;
      }
      return 0;  // Nothing published yet: re-poll (pruned spin).
    }
    m.consumed[m.consumed_count] = m.cells[m.head % kRingDepth];
    ++m.consumed_count;
    ++m.head;  // Frees the cell for the producer.
    return 0;
  });
  return t;
}

ExploreStats CheckCompletionRing(bool tail_before_write) {
  Explorer<RingModel> explorer(
      {RingProducer(tail_before_write), RingConsumer()});
  explorer.set_invariant([](const RingModel& m) {
    // Publication order, no loss, no double fire, no unwritten reads:
    // the consumed prefix must be exactly 1, 2, ..., consumed_count.
    for (int i = 0; i < m.consumed_count; ++i) {
      if (m.consumed[i] != i + 1) {
        return false;
      }
    }
    return true;
  });
  explorer.set_terminal_check([](const RingModel& m) {
    return m.consumed_count == kRingValues && m.head == m.tail;
  });
  return explorer.Run(RingModel{});
}

TEST(CompletionRingModel, EveryCompletionReapedOnceInOrder) {
  const ExploreStats stats = CheckCompletionRing(false);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  // No-op pruning collapses every consumer poll that observes nothing, so
  // the distinct schedules are few — but they cover every point at which
  // the reaper can overtake the flush, including the full-ring wait and
  // the wrap. The broken-variant test below proves the space is still
  // discriminating.
  EXPECT_GT(stats.schedules, 1u);
  EXPECT_GT(stats.pruned_noops, 0u);
}

TEST(CompletionRingModel, PublishingTailBeforeTheCellIsCaught) {
  // The consumer reaps a cell whose write has not landed: with the tail
  // visible first, the very first reap can read cell 0 still holding its
  // initial contents (and after the wrap, the previous completion —
  // a double fire of one value and the loss of another).
  const ExploreStats stats = CheckCompletionRing(true);
  EXPECT_FALSE(stats.ok());
  ASSERT_FALSE(stats.failure_traces.empty());
  EXPECT_NE(stats.failure_traces[0].find("invariant violated"),
            std::string::npos);
}

// --- The futex doorbell's wake elision (src/proc/futex_doorbell.cc). ---
//
// One ringer, one waiter, one doorbell word. The ringer advances the word
// (a release RMW), then reads the sleepers count with an acq_rel RMW and
// issues FUTEX_WAKE only when someone announced. The waiter announces with
// an acq_rel increment, re-checks the word, and FUTEX_WAITs — whose
// in-kernel compare of the word and enqueue is one atomic step, as is
// FUTEX_WAKE's dequeue. The property: no schedule leaves the waiter asleep
// after the ringer has finished without waking it (a lost wake, which the
// real code would only survive by its bounded wait). The acq_rel pair puts
// the two RMWs in one modification order, which is what lets the model run
// each as one step (docs/concurrency.md, "The futex doorbell"). The broken
// variant is what relaxed RMWs would permit: the ringer's count check takes
// effect before its word advance, and the checker must catch the waiter
// sleeping through the ring.

struct DoorbellModel {
  int word = 0;            // The doorbell's sequence word.
  int sleepers = 0;        // Announced waiters.
  int ringer_saw = 0;      // What the ringer's sleepers RMW read.
  bool asleep = false;     // The waiter is enqueued in FUTEX_WAIT.
  bool ringer_done = false;
  // The graceful stop (below): the channel's shutdown flag, and how the
  // serving child left its wait.
  bool stop = false;
  bool child_exited = false;    // Saw the flag and exited.
  bool child_accepted = false;  // Accepted what it woke for as a batch.
  bool operator==(const DoorbellModel&) const = default;
};

ModelThread<DoorbellModel> Ringer(bool check_before_advance) {
  ModelThread<DoorbellModel> t;
  t.name = "ringer";
  auto advance = [](DoorbellModel& m) { m.word = 1; };
  auto check = [](DoorbellModel& m) { m.ringer_saw = m.sleepers; };
  t.steps.push_back([=](DoorbellModel& m) {
    check_before_advance ? check(m) : advance(m);
    return 1;
  });
  t.steps.push_back([=](DoorbellModel& m) {
    check_before_advance ? advance(m) : check(m);
    if (m.ringer_saw == 0) {
      m.ringer_done = true;  // Elided: the partner is still polling.
      return kDone;
    }
    return 2;
  });
  t.steps.push_back([](DoorbellModel& m) {
    m.asleep = false;  // FUTEX_WAKE.
    m.ringer_done = true;
    return kDone;
  });
  return t;
}

ModelThread<DoorbellModel> Waiter() {
  ModelThread<DoorbellModel> t;
  t.name = "waiter";
  enum { kAnnounce, kRecheck, kFutexWait, kBlocked, kLeave };
  t.steps.resize(5);
  t.steps[kAnnounce] = [](DoorbellModel& m) {
    ++m.sleepers;
    return static_cast<int>(kRecheck);
  };
  t.steps[kRecheck] = [](DoorbellModel& m) {
    return static_cast<int>(m.word != 0 ? kLeave : kFutexWait);
  };
  t.steps[kFutexWait] = [](DoorbellModel& m) {
    if (m.word != 0) {
      return static_cast<int>(kLeave);  // EAGAIN: the word moved.
    }
    m.asleep = true;
    return static_cast<int>(kBlocked);
  };
  t.steps[kBlocked] = [](DoorbellModel& m) {
    // Asleep until woken (a no-op re-poll, pruned).
    return static_cast<int>(m.asleep ? kBlocked : kLeave);
  };
  t.steps[kLeave] = [](DoorbellModel& m) {
    --m.sleepers;
    return kDone;
  };
  return t;
}

ExploreStats CheckDoorbell(bool check_before_advance) {
  Explorer<DoorbellModel> explorer(
      {Ringer(check_before_advance), Waiter()});
  explorer.set_invariant([](const DoorbellModel& m) {
    return !(m.asleep && m.ringer_done);  // A lost wake.
  });
  explorer.set_terminal_check([](const DoorbellModel& m) {
    return !m.asleep && m.sleepers == 0 && m.word == 1;
  });
  return explorer.Run(DoorbellModel{});
}

TEST(DoorbellModel, NoInterleavingLosesAWake) {
  const ExploreStats stats = CheckDoorbell(false);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  // Schedules where the waiter sleeps and is woken, and where it sees the
  // word first and never sleeps, are both reached.
  EXPECT_GT(stats.schedules, 2u);
}

TEST(DoorbellModel, CheckingSleepersBeforeTheAdvanceIsCaught) {
  // The ringer reads "no sleepers", the waiter then announces, re-checks
  // the still-unmoved word and sleeps, and the ringer advances the word
  // and skips the wake: the waiter sleeps through the ring.
  const ExploreStats stats = CheckDoorbell(true);
  EXPECT_FALSE(stats.ok());
  ASSERT_FALSE(stats.failure_traces.empty());
  EXPECT_NE(stats.failure_traces[0].find("invariant violated"),
            std::string::npos);
}

// --- The graceful stop (ProcHost::RingStop). ---
//
// The stopper sets the shutdown flag, advances the call doorbell word (a
// release RMW that publishes the flag with it) and runs Wake's elision
// check. The child is ChildServe's wait on that word — poll, announce,
// re-check, FUTEX_WAIT — followed by its flag check, which comes before the
// accept. The properties: the child never sleeps with a stop pending once
// the stopper is done (it would sleep a whole slice before noticing), and
// a stop is never accepted as a batch. The flag-only variant is the stop
// sequence that did not advance the word: a child still polling when the
// stopper's check reads no sleepers goes on to sleep through the stop, and
// the checker must catch it.

ModelThread<DoorbellModel> Stopper(bool flag_only) {
  ModelThread<DoorbellModel> t;
  t.name = "stopper";
  enum { kFlag, kAdvance, kCheck, kWake };
  t.steps.resize(4);
  t.steps[kFlag] = [=](DoorbellModel& m) {
    m.stop = true;
    return static_cast<int>(flag_only ? kCheck : kAdvance);
  };
  t.steps[kAdvance] = [](DoorbellModel& m) {
    m.word = 1;
    return static_cast<int>(kCheck);
  };
  t.steps[kCheck] = [](DoorbellModel& m) {
    m.ringer_saw = m.sleepers;
    if (m.ringer_saw == 0) {
      m.ringer_done = true;  // Elided: the child is still polling.
      return kDone;
    }
    return static_cast<int>(kWake);
  };
  t.steps[kWake] = [](DoorbellModel& m) {
    m.asleep = false;  // FUTEX_WAKE.
    m.ringer_done = true;
    return kDone;
  };
  return t;
}

ModelThread<DoorbellModel> ServingChild() {
  ModelThread<DoorbellModel> t;
  t.name = "child";
  enum { kPoll, kAnnounce, kRecheck, kFutexWait, kBlocked, kLeave, kFlag };
  t.steps.resize(7);
  t.steps[kPoll] = [](DoorbellModel& m) {
    return static_cast<int>(m.word != 0 ? kFlag : kAnnounce);
  };
  t.steps[kAnnounce] = [](DoorbellModel& m) {
    ++m.sleepers;
    return static_cast<int>(kRecheck);
  };
  t.steps[kRecheck] = [](DoorbellModel& m) {
    return static_cast<int>(m.word != 0 ? kLeave : kFutexWait);
  };
  t.steps[kFutexWait] = [](DoorbellModel& m) {
    if (m.word != 0) {
      return static_cast<int>(kLeave);  // EAGAIN: the word moved.
    }
    m.asleep = true;
    return static_cast<int>(kBlocked);
  };
  t.steps[kBlocked] = [](DoorbellModel& m) {
    return static_cast<int>(m.asleep ? kBlocked : kLeave);
  };
  t.steps[kLeave] = [](DoorbellModel& m) {
    --m.sleepers;
    return static_cast<int>(kFlag);
  };
  t.steps[kFlag] = [](DoorbellModel& m) {
    // Before the accept: a stop ends the serve loop.
    (m.stop ? m.child_exited : m.child_accepted) = true;
    return kDone;
  };
  return t;
}

ExploreStats CheckStop(bool flag_only) {
  Explorer<DoorbellModel> explorer({Stopper(flag_only), ServingChild()});
  explorer.set_invariant([](const DoorbellModel& m) {
    return !(m.asleep && m.stop && m.ringer_done) && !m.child_accepted;
  });
  explorer.set_terminal_check([](const DoorbellModel& m) {
    return m.child_exited && !m.asleep && m.sleepers == 0;
  });
  return explorer.Run(DoorbellModel{});
}

TEST(DoorbellModel, StopRingsTheWordSoTheChildNeverSleepsThroughIt) {
  const ExploreStats stats = CheckStop(/*flag_only=*/false);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  // The child is caught polling, caught after its re-check, and woken.
  EXPECT_GT(stats.schedules, 2u);
}

TEST(DoorbellModel, FlagOnlyStopIsCaught) {
  // The stopper sets the flag and reads no sleepers while the child is
  // still polling; the child then announces, re-checks the unmoved word
  // and sleeps with the stop pending.
  const ExploreStats stats = CheckStop(/*flag_only=*/true);
  EXPECT_FALSE(stats.ok());
  ASSERT_FALSE(stats.failure_traces.empty());
  EXPECT_NE(stats.failure_traces[0].find("invariant violated"),
            std::string::npos);
}

// --- ParFreeList's per-processor magazine (src/shm/par_free_list.cc). ---
//
// Processors share one list of two A-stacks. A pop empties its own slot
// word, then pops the Treiber stack, then steals from the other slots by
// exchange, and reports exhaustion only after two censuses of the head and
// every slot find nothing free and agree on the sum of their tags; a push
// exchanges the A-stack into its own slot and spills the one it displaces
// onto the stack. Each word access is one step; the Treiber stack's pop
// and push are one step each (its compare-exchange is linearizable; the
// ABA tag has its own tests). Two properties, checked after every step:
//
//   - each A-stack is in exactly one place — a slot, the stack, one
//     claimant's hands, or a spill in flight — so none is handed to two
//     claimants and none is lost; at quiescence all are free again
//   - a pop reports exhaustion only if, at some instant during that pop,
//     no A-stack was free anywhere (k A-stacks admit k claims)
//
// Three broken variants must be caught: a steal that loads a slot and
// stores it empty in a later step instead of one exchange, a push that
// loads its slot and stores the new A-stack in a later step (both let two
// claimants hold one A-stack), and a pop that reports exhaustion after a
// single look at the stack and the slots (an owner refills a slot the look
// has passed while another empties one it has yet to reach).

constexpr int kMagazineCpus = 3;
constexpr int kMagazineAStacks = 2;
constexpr int kMagazineWords = kMagazineCpus + 1;  // The head and the slots.

struct MagazineModel {
  int slot[kMagazineCpus] = {};  // Per-processor slots; 0 = empty.
  int slot_tag[kMagazineCpus] = {};
  int stack[kMagazineAStacks] = {};  // Treiber stack; top at depth - 1.
  int depth = 0;
  int stack_tag = 0;
  int held[kMagazineCpus][kMagazineAStacks] = {};  // Claimants' hands.
  int held_count[kMagazineCpus] = {};
  int spill[kMagazineCpus] = {};  // A displaced A-stack bound for the stack.
  int peek[kMagazineCpus] = {};   // A broken variant's loaded slot value.
  // The exhaustion census, per claimant.
  int census_sum[kMagazineCpus] = {};
  bool census_free[kMagazineCpus] = {};
  int first_sum[kMagazineCpus] = {};
  // Whether, since the claimant's pop began, an instant passed with no
  // A-stack free.
  bool in_pop[kMagazineCpus] = {};
  bool none_free_seen[kMagazineCpus] = {};
  int exhausted = 0;
  bool spurious_exhaustion = false;
  bool operator==(const MagazineModel&) const = default;
};

enum class MagazineVariant { kCorrect, kSplitSteal, kSplitPush, kSingleLook };

int FreeAStacks(const MagazineModel& m) {
  int free = m.depth;
  for (int c = 0; c < kMagazineCpus; ++c) {
    free += (m.slot[c] != 0 ? 1 : 0) + (m.spill[c] != 0 ? 1 : 0);
  }
  return free;
}

void TakeAStack(MagazineModel& m, int t, int astack) {
  m.held[t][m.held_count[t]++] = astack;
}

void EndPop(MagazineModel& m, int t) {
  m.census_sum[t] = 0;
  m.census_free[t] = false;
  m.first_sum[t] = 0;
  m.in_pop[t] = false;
  m.none_free_seen[t] = false;
}

// Appends one Pop on processor `t`; control continues after its steps.
void AppendPop(ModelThread<MagazineModel>& thread, int t,
               MagazineVariant variant) {
  const bool split_steal = variant == MagazineVariant::kSplitSteal;
  const int census_steps =
      variant == MagazineVariant::kSingleLook ? 0 : 2 * kMagazineWords;
  const int base = static_cast<int>(thread.steps.size());
  const int stack_step = base + 1;
  std::vector<int> victims;
  std::vector<int> steal_step;
  int index = base + 2;
  for (int c = 0; c < kMagazineCpus; ++c) {
    if (c != t) {
      victims.push_back(c);
      steal_step.push_back(index);
      index += split_steal ? 2 : 1;
    }
  }
  const int census_step = index;
  const int report_step = census_step + census_steps;
  const int next = report_step + 1;

  thread.steps.push_back([=](MagazineModel& m) {  // Own slot: take.
    m.in_pop[t] = true;
    const int astack = m.slot[t];
    if (astack == 0) {
      return stack_step;
    }
    m.slot[t] = 0;
    ++m.slot_tag[t];
    TakeAStack(m, t, astack);
    EndPop(m, t);
    return next;
  });
  thread.steps.push_back([=](MagazineModel& m) {  // Treiber pop.
    if (m.depth == 0) {
      return steal_step[0];
    }
    TakeAStack(m, t, m.stack[--m.depth]);
    m.stack[m.depth] = 0;
    ++m.stack_tag;
    EndPop(m, t);
    return next;
  });
  for (std::size_t v = 0; v < victims.size(); ++v) {
    const int victim = victims[v];
    const int after = v + 1 < victims.size() ? steal_step[v + 1] : census_step;
    if (!split_steal) {
      thread.steps.push_back([=](MagazineModel& m) {  // Steal: exchange.
        const int astack = m.slot[victim];
        if (astack == 0) {
          return after;
        }
        m.slot[victim] = 0;
        ++m.slot_tag[victim];
        TakeAStack(m, t, astack);
        EndPop(m, t);
        return next;
      });
    } else {
      const int store_step = steal_step[v] + 1;
      thread.steps.push_back([=](MagazineModel& m) {  // Broken steal: load.
        m.peek[t] = m.slot[victim];
        return m.peek[t] != 0 ? store_step : after;
      });
      thread.steps.push_back([=](MagazineModel& m) {  // Broken steal: store.
        m.slot[victim] = 0;
        ++m.slot_tag[victim];
        TakeAStack(m, t, m.peek[t]);
        m.peek[t] = 0;
        EndPop(m, t);
        return next;
      });
    }
  }
  for (int step = 0; step < census_steps; ++step) {
    const int pass = step / kMagazineWords;
    const int word = step % kMagazineWords;
    thread.steps.push_back([=](MagazineModel& m) {  // One census read.
      if (word == 0) {
        m.census_sum[t] = m.stack_tag;
        m.census_free[t] = m.depth > 0;
      } else {
        m.census_sum[t] += m.slot_tag[word - 1];
        m.census_free[t] = m.census_free[t] || m.slot[word - 1] != 0;
      }
      if (word + 1 < kMagazineWords) {
        return census_step + step + 1;
      }
      const bool retry = m.census_free[t] ||
                         (pass == 1 && m.census_sum[t] != m.first_sum[t]);
      if (pass == 0 && !retry) {
        m.first_sum[t] = m.census_sum[t];
      }
      m.census_sum[t] = 0;
      m.census_free[t] = false;
      if (retry) {
        m.first_sum[t] = 0;
        return stack_step;
      }
      return census_step + step + 1;  // The second pass, or the report.
    });
  }
  thread.steps.push_back([=](MagazineModel& m) {  // kAStacksExhausted.
    ++m.exhausted;
    if (!m.none_free_seen[t]) {
      m.spurious_exhaustion = true;
    }
    EndPop(m, t);
    return next;
  });
}

// Appends one Push of the claimant's latest A-stack (nothing when its pop
// came up empty).
void AppendPush(ModelThread<MagazineModel>& thread, int t,
                MagazineVariant variant) {
  const bool split_push = variant == MagazineVariant::kSplitPush;
  const int base = static_cast<int>(thread.steps.size());
  const int spill_step = base + (split_push ? 2 : 1);
  const int next = spill_step + 1;
  auto park = [=](MagazineModel& m, int displaced) {
    const int astack = m.held[t][--m.held_count[t]];
    m.held[t][m.held_count[t]] = 0;
    m.slot[t] = astack;
    ++m.slot_tag[t];
    m.spill[t] = displaced;
    return displaced != 0 ? spill_step : next;
  };
  if (!split_push) {
    thread.steps.push_back([=](MagazineModel& m) {  // Own slot: exchange.
      if (m.held_count[t] == 0) {
        return next;
      }
      return park(m, m.slot[t]);
    });
  } else {
    thread.steps.push_back([=](MagazineModel& m) {  // Broken push: load.
      if (m.held_count[t] == 0) {
        return next;
      }
      m.peek[t] = m.slot[t];
      return base + 1;
    });
    thread.steps.push_back([=](MagazineModel& m) {  // Broken push: store.
      const int displaced = m.peek[t];
      m.peek[t] = 0;
      return park(m, displaced);
    });
  }
  thread.steps.push_back([=](MagazineModel& m) {  // Spill: Treiber push.
    m.stack[m.depth++] = m.spill[t];
    m.spill[t] = 0;
    ++m.stack_tag;
    return next;
  });
}

// `pops` pops, then `pushes` pushes, on processor `cpu`.
ModelThread<MagazineModel> MagazineClaimant(std::string name, int cpu,
                                            int pops, int pushes,
                                            MagazineVariant pop,
                                            MagazineVariant push) {
  ModelThread<MagazineModel> thread;
  thread.name = std::move(name);
  for (int i = 0; i < pops; ++i) {
    AppendPop(thread, cpu, pop);
  }
  for (int i = 0; i < pushes; ++i) {
    AppendPush(thread, cpu, push);
  }
  thread.steps.push_back([](MagazineModel&) { return kDone; });
  // After every step, note for each pop in progress whether no A-stack is
  // free right now (what an exhaustion report must be able to point to).
  for (auto& step : thread.steps) {
    step = [inner = step](MagazineModel& m) {
      const int pc = inner(m);
      if (FreeAStacks(m) == 0) {
        for (int c = 0; c < kMagazineCpus; ++c) {
          m.none_free_seen[c] = m.none_free_seen[c] || m.in_pop[c];
        }
      }
      return pc;
    };
  }
  return thread;
}

ExploreStats CheckMagazine(std::vector<ModelThread<MagazineModel>> threads,
                           const MagazineModel& initial) {
  Explorer<MagazineModel> explorer(std::move(threads));
  explorer.set_invariant([](const MagazineModel& m) {
    for (int astack = 1; astack <= kMagazineAStacks; ++astack) {
      int places = 0;
      for (int c = 0; c < kMagazineCpus; ++c) {
        places += m.slot[c] == astack ? 1 : 0;
        places += m.spill[c] == astack ? 1 : 0;
        for (int i = 0; i < m.held_count[c]; ++i) {
          places += m.held[c][i] == astack ? 1 : 0;
        }
      }
      for (int i = 0; i < m.depth; ++i) {
        places += m.stack[i] == astack ? 1 : 0;
      }
      if (places != 1) {
        return false;  // Handed out twice, or lost.
      }
    }
    return !m.spurious_exhaustion;
  });
  explorer.set_terminal_check([](const MagazineModel& m) {
    // Every claim was returned: all A-stacks are free again.
    return FreeAStacks(m) == kMagazineAStacks;
  });
  return explorer.Run(initial);
}

// An owner claims twice and returns both; a stealer on another processor
// claims once and returns it — three claims on two A-stacks, so some
// schedules drain the list and a pop must steal or come up empty. The
// owner starts with A-stack 1 parked in its slot and A-stack 2 on the
// stack.
ExploreStats CheckOwnerAndStealer(MagazineVariant steal, MagazineVariant push) {
  MagazineModel initial;
  initial.slot[0] = 1;
  initial.stack[0] = 2;
  initial.depth = 1;
  return CheckMagazine(
      {MagazineClaimant("owner", 0, 2, 2, MagazineVariant::kCorrect, push),
       MagazineClaimant("stealer", 1, 1, 1, steal,
                        MagazineVariant::kCorrect)},
      initial);
}

// One pop on processor 0 while processor 1 returns the A-stack it holds
// and processor 2 claims and returns the one parked in its slot: one
// A-stack is free at every instant, so the pop must never report
// exhaustion.
ExploreStats CheckPopAmidChurn(MagazineVariant pop) {
  MagazineModel initial;
  initial.held[1][0] = 1;
  initial.held_count[1] = 1;
  initial.slot[2] = 2;
  return CheckMagazine(
      {MagazineClaimant("popper", 0, 1, 1, pop, MagazineVariant::kCorrect),
       MagazineClaimant("returner", 1, 0, 1, MagazineVariant::kCorrect,
                        MagazineVariant::kCorrect),
       MagazineClaimant("churner", 2, 1, 1, MagazineVariant::kCorrect,
                        MagazineVariant::kCorrect)},
      initial);
}

TEST(MagazineModel, StealByExchangeNeverDoubleClaimsOrLoses) {
  const ExploreStats stats =
      CheckOwnerAndStealer(MagazineVariant::kCorrect, MagazineVariant::kCorrect);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  // Schedules where the stealer takes from the stack, steals the owner's
  // slot, and comes up empty are all reached.
  EXPECT_GT(stats.schedules, 10u);
}

TEST(MagazineModel, StealWithLoadThenStoreIsCaught) {
  // The stealer loads A-stack 1 from the owner's slot; the owner's own
  // exchange takes it; the stealer's store then claims it too.
  const ExploreStats stats = CheckOwnerAndStealer(MagazineVariant::kSplitSteal,
                                                  MagazineVariant::kCorrect);
  EXPECT_FALSE(stats.ok());
  ASSERT_FALSE(stats.failure_traces.empty());
  EXPECT_NE(stats.failure_traces[0].find("invariant violated"),
            std::string::npos);
}

TEST(MagazineModel, PushWithLoadThenStoreIsCaught) {
  // The owner's push loads A-stack 2 from its slot; the stealer, finding
  // the stack empty, steals 2; the owner's store then spills 2 onto the
  // stack as well.
  const ExploreStats stats = CheckOwnerAndStealer(MagazineVariant::kCorrect,
                                                  MagazineVariant::kSplitPush);
  EXPECT_FALSE(stats.ok());
  ASSERT_FALSE(stats.failure_traces.empty());
  EXPECT_NE(stats.failure_traces[0].find("invariant violated"),
            std::string::npos);
}

TEST(MagazineModel, ExhaustionNeedsTwoAgreeingCensuses) {
  const ExploreStats stats = CheckPopAmidChurn(MagazineVariant::kCorrect);
  EXPECT_TRUE(stats.ok()) << stats.failure_traces[0];
  EXPECT_GT(stats.schedules, 10u);
}

TEST(MagazineModel, ExhaustionAfterASingleLookIsCaught) {
  // The popper finds processor 1's slot empty while it still holds its
  // A-stack; processor 1 then parks it, and processor 2 takes its own
  // before the popper's look reaches slot 2.
  const ExploreStats stats = CheckPopAmidChurn(MagazineVariant::kSingleLook);
  EXPECT_FALSE(stats.ok());
  ASSERT_FALSE(stats.failure_traces.empty());
  EXPECT_NE(stats.failure_traces[0].find("invariant violated"),
            std::string::npos);
}

}  // namespace
}  // namespace model
}  // namespace lrpc
