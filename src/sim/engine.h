// Deterministic discrete-event engine.
//
// The simulator models concurrency (application threads, kswapd, kpromote,
// the Memtis migrator, the PT scanner) as cooperatively scheduled Actors on
// a single OS thread. Each actor owns a local virtual clock; the engine
// repeatedly runs the actor with the smallest next-scheduled time. Because
// actor order at equal timestamps is fixed (lowest id first) and all
// randomness is seeded, entire experiments are bit-reproducible.
//
// An actor's Step() performs one unit of work (one memory access, one
// migration stage, one reclaim batch, ...) and returns how many cycles that
// work consumed. Blocking is modelled by SleepUntil(): kernel daemons sleep
// until woken by watermark events; TPM's page-copy window is a Step that
// returns the copy duration, during which application actors naturally
// interleave and may dirty the page.
#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/base/annotations.h"
#include "src/sim/clock.h"

namespace nomad {

class Engine;

// Index of an actor within its engine; doubles as the simulated CPU id for
// TLB shootdown targeting.
using ActorId = size_t;

// A unit of simulated concurrency. Subclasses implement Step().
class Actor {
 public:
  virtual ~Actor() = default;

  // Executes one unit of work at the actor's scheduled time and returns the
  // number of cycles it consumed. A return of 0 is bumped to 1 by the engine
  // to guarantee global progress. An actor that has nothing to do should
  // call Engine::SleepUntil() (possibly with kNever) and return 0.
  virtual Cycles Step(Engine& engine) = 0;

  // Display name for debugging and reports.
  virtual std::string name() const = 0;

  // Once true, the engine never schedules the actor again. Contract: the
  // value may only change during this actor's own Step() — the engine
  // caches it per step instead of re-asking every scheduling pass.
  virtual bool done() const { return false; }
};

// Owner-agnostic scheduler. Actors are registered once and stepped until a
// stop condition holds; the engine does not own actor storage.
class NOMAD_SHARD_CONFINED Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Registers an actor; it first runs at `start`. Returns its id.
  ActorId AddActor(Actor* actor, Cycles start = 0);

  // Current virtual time: the scheduled time of the actor being stepped.
  Cycles now() const { return now_; }

  // May only be called from within the running actor's Step(): reschedules
  // that actor for `when` instead of now + returned cycles.
  void SleepUntil(Cycles when);

  // Wakes a sleeping actor no later than `when`. A busy actor (scheduled
  // earlier than `when`) is left alone.
  void Wake(ActorId id, Cycles when);

  // Adds `cycles` of interruption to an actor's schedule, modelling e.g. the
  // cost of servicing a TLB-shootdown IPI on a remote CPU.
  void Penalize(ActorId id, Cycles cycles);

  // Id of the actor currently inside Step(); only valid during a Step call.
  ActorId current() const { return current_; }

  // Runs until virtual time exceeds `until`, all actors are done, or every
  // live actor sleeps forever. Returns the final virtual time.
  Cycles Run(Cycles until);

  // Runs until `stop()` returns true (checked between steps) or the actor
  // pool drains. Returns the final virtual time.
  Cycles RunUntil(const std::function<bool()>& stop);

  size_t NumActors() const { return actors_.size(); }
  Cycles NextTimeOf(ActorId id) const { return entries_[id].next_time; }

  // Display name of an actor, for trace exporters and reports.
  std::string ActorNameOf(ActorId id) const {
    return id < actors_.size() ? actors_[id]->name() : "actor-" + std::to_string(id);
  }

 private:
  struct Entry {
    Cycles next_time = 0;
    bool slept = false;  // SleepUntil was called during the current Step.
    bool done = false;   // cached Actor::done(), refreshed after each Step
  };

  // Picks the runnable actor with the minimum next_time, ties to the lowest
  // id; returns false when none is runnable. Also reports the runner-up's
  // (time, id) so the run loop can re-step the winner without rescanning
  // while it provably stays the minimum. With no runner-up, *sec_time is
  // kNever.
  bool PickNext(ActorId* out, Cycles* sec_time, ActorId* sec_id) const;

  // Steps the chosen actor and applies its scheduling outcome.
  void StepOne(ActorId id);

  std::vector<Actor*> actors_;
  std::vector<Entry> entries_;
  Cycles now_ = 0;
  ActorId current_ = 0;
  // Set whenever a step mutates another actor's schedule (Wake/Penalize) or
  // the actor pool grows; invalidates the run loop's cached runner-up.
  bool sched_dirty_ = false;
};

}  // namespace nomad

#endif  // SRC_SIM_ENGINE_H_
