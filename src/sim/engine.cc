#include "src/sim/engine.h"

#include <algorithm>

namespace nomad {

ActorId Engine::AddActor(Actor* actor, Cycles start) {
  actors_.push_back(actor);
  entries_.push_back(Entry{start, false, actor->done()});
  sched_dirty_ = true;
  return actors_.size() - 1;
}

void Engine::SleepUntil(Cycles when) {
  Entry& e = entries_[current_];
  e.next_time = when;
  e.slept = true;
}

void Engine::Wake(ActorId id, Cycles when) {
  if (id >= entries_.size()) {
    return;  // not an engine-scheduled entity (e.g. a bare test CPU)
  }
  Entry& e = entries_[id];
  if (e.next_time > when) {
    e.next_time = when;
    sched_dirty_ = true;
  }
}

void Engine::Penalize(ActorId id, Cycles cycles) {
  if (id >= entries_.size()) {
    return;  // not an engine-scheduled entity (e.g. a bare test CPU)
  }
  Entry& e = entries_[id];
  if (e.next_time == kNever) {
    return;  // Sleeping forever; the IPI cost is irrelevant to it.
  }
  e.next_time += cycles;
  sched_dirty_ = true;
}

void Engine::StepOne(ActorId id) {
  Entry& e = entries_[id];
  now_ = std::max(now_, e.next_time);
  current_ = id;
  e.slept = false;
  Cycles used = actors_[id]->Step(*this);
  if (!e.slept) {
    e.next_time = now_ + std::max<Cycles>(used, 1);
  }
  e.done = actors_[id]->done();
}

bool Engine::PickNext(ActorId* out, Cycles* sec_time, ActorId* sec_id) const {
  // Tight scan over the entry table; the cached done bit avoids a virtual
  // call per actor per scheduling pass. Ties break to the lowest id because
  // the < comparison only replaces on strictly-smaller times.
  Cycles best = kNever;
  ActorId best_id = 0;
  Cycles sec = kNever;
  ActorId sec_best_id = 0;
  bool found = false;
  for (ActorId id = 0; id < entries_.size(); id++) {
    const Entry& e = entries_[id];
    if (e.done || e.next_time == kNever) {
      continue;
    }
    if (!found || e.next_time < best) {
      sec = best;
      sec_best_id = best_id;
      best = e.next_time;
      best_id = id;
      found = true;
    } else if (e.next_time < sec) {
      sec = e.next_time;
      sec_best_id = id;
    }
  }
  if (found) {
    *out = best_id;
    *sec_time = sec;
    *sec_id = sec_best_id;
  }
  return found;
}

Cycles Engine::Run(Cycles until) {
  ActorId id;
  Cycles sec_time;
  ActorId sec_id;
  while (PickNext(&id, &sec_time, &sec_id)) {
    if (entries_[id].next_time > until) {
      break;
    }
    // Re-step the same actor while it provably remains the schedule's
    // minimum: nothing else's entry changed and it still beats the
    // runner-up under the (time, id) order. Identical pick sequence to a
    // full rescan per step, without the rescan.
    for (;;) {
      sched_dirty_ = false;
      StepOne(id);
      const Entry& e = entries_[id];
      if (sched_dirty_ || e.done || e.next_time == kNever) {
        break;
      }
      if (e.next_time > sec_time || (e.next_time == sec_time && sec_id < id)) {
        break;
      }
      if (e.next_time > until) {
        break;
      }
    }
  }
  return now_;
}

Cycles Engine::RunUntil(const std::function<bool()>& stop) {
  ActorId id;
  Cycles sec_time;
  ActorId sec_id;
  while (!stop() && PickNext(&id, &sec_time, &sec_id)) {
    for (;;) {
      sched_dirty_ = false;
      StepOne(id);
      const Entry& e = entries_[id];
      if (sched_dirty_ || e.done || e.next_time == kNever) {
        break;
      }
      if (e.next_time > sec_time || (e.next_time == sec_time && sec_id < id)) {
        break;
      }
      if (stop()) {
        return now_;  // checked between steps, exactly as before
      }
    }
  }
  return now_;
}

}  // namespace nomad
