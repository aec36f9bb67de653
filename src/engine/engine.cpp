#include "engine/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/logging.hpp"

namespace fastjoin {

namespace {
/// Simulated time a crashed instance stays paused while it reloads its
/// checkpoint.
constexpr SimTime kRecoveryPause = kNanosPerMilli;
}  // namespace

const char* system_name(SystemKind k) {
  switch (k) {
    case SystemKind::kBiStream: return "BiStream";
    case SystemKind::kBiStreamContRand: return "BiStream-ContRand";
    case SystemKind::kFastJoin: return "FastJoin";
    case SystemKind::kFastJoinSA: return "FastJoin-SAFit";
  }
  return "?";
}

void apply_system(EngineConfig& cfg, SystemKind kind) {
  switch (kind) {
    case SystemKind::kBiStream:
      cfg.strategy = PartitionStrategy::kHash;
      cfg.balancer.enabled = false;
      break;
    case SystemKind::kBiStreamContRand:
      cfg.strategy = PartitionStrategy::kContRand;
      cfg.balancer.enabled = false;
      break;
    case SystemKind::kFastJoin:
      cfg.strategy = PartitionStrategy::kHash;
      cfg.balancer.enabled = true;
      cfg.balancer.planner.selector = KeySelectorKind::kGreedyFit;
      break;
    case SystemKind::kFastJoinSA:
      cfg.strategy = PartitionStrategy::kHash;
      cfg.balancer.enabled = true;
      cfg.balancer.planner.selector = KeySelectorKind::kSAFit;
      break;
  }
}

SimJoinEngine::SimJoinEngine(const EngineConfig& cfg)
    : cfg_(cfg),
      dispatcher_(cfg.strategy, cfg.instances, cfg.contrand_group,
                  cfg.seed) {
  metrics_ = std::make_unique<MetricsHub>(cfg_.metrics, cfg_.instances);
  JoinInstance::Hooks hooks;
  hooks.on_probe_done = [this](SimTime now, std::uint64_t matches,
                               SimTime latency) {
    metrics_->on_results(now, matches);
    metrics_->on_probe_latency(now, latency);
  };
  if (cfg_.metrics.record_pairs) {
    hooks.on_match = [this](const MatchPair& p) {
      metrics_->on_match_pair(p);
    };
  }
  instance_hooks_ = hooks;
  for (int g = 0; g < 2; ++g) {
    const Side side = static_cast<Side>(g);
    groups_[g].reserve(cfg_.instances);
    for (InstanceId i = 0; i < cfg_.instances; ++i) {
      groups_[g].push_back(std::make_unique<JoinInstance>(
          sim_, i, side, cfg_.cost, cfg_.window_subwindows,
          instance_hooks_, cfg_.phi_signal, cfg_.stats_capacity));
    }
  }
}

void SimJoinEngine::schedule_scale_out(SimTime at, std::uint32_t add) {
  sim_.schedule_at(at, [this, add]() {
    for (int g = 0; g < 2; ++g) {
      const Side side = static_cast<Side>(g);
      for (std::uint32_t i = 0; i < add; ++i) {
        const auto id = static_cast<InstanceId>(groups_[g].size());
        groups_[g].push_back(std::make_unique<JoinInstance>(
            sim_, id, side, cfg_.cost, cfg_.window_subwindows,
            instance_hooks_, cfg_.phi_signal, cfg_.stats_capacity));
      }
    }
    dispatcher_.grow(add);
    FJ_INFO("engine") << "scaled out by " << add << " instances/side at "
                      << to_seconds(sim_.now()) << "s";
  });
}

void SimJoinEngine::schedule_failure(SimTime at, Side group,
                                     InstanceId id) {
  sim_.schedule_at(at, [this, group, id]() {
    const int g = static_cast<int>(group);
    if (id >= groups_[g].size()) {
      ++failures_skipped_;
      FJ_WARN("engine") << "skipping crash of unknown instance "
                        << side_name(group) << "-" << id;
      return;
    }
    if (const auto it = migrating_[g].find(id); it != migrating_[g].end()) {
      abort_migration(group, it->second, id);
    }
    JoinInstance* inst = groups_[g][id].get();
    inst->crash();
    ++failures_;
    // Restore from the latest checkpoint after a recovery pause.
    inst->pause();
    sim_.schedule_after(kRecoveryPause, [this, g, inst, id]() {
      if (id < checkpoints_[g].size()) {
        inst->restore(checkpoints_[g][id]);
        tuples_recovered_ += checkpoints_[g][id].size();
      }
      inst->resume();
    });
    FJ_INFO("engine") << side_name(group) << "-" << id << " crashed at "
                      << to_seconds(sim_.now()) << "s";
  });
}

void SimJoinEngine::checkpoint_tick(SimTime duration) {
  for (int g = 0; g < 2; ++g) {
    checkpoints_[g].resize(groups_[g].size());
    for (std::size_t i = 0; i < groups_[g].size(); ++i) {
      // A paused instance is either recovering from a crash or mid-
      // migration; snapshotting it now could replace a good checkpoint
      // with a post-crash empty store. Keep the previous snapshot.
      if (groups_[g][i]->paused()) continue;
      checkpoints_[g][i] = groups_[g][i]->checkpoint_store();
    }
  }
  if (sim_.now() + cfg_.checkpoint_period <= duration) {
    sim_.schedule_after(cfg_.checkpoint_period, [this, duration]() {
      checkpoint_tick(duration);
    });
  }
}

void SimJoinEngine::feed_next(RecordSource& source, SimTime duration) {
  auto rec = source.next();
  if (!rec || rec->ts > duration) {
    feed_end_ = sim_.now();  // feed ends
    return;
  }
  sim_.schedule_at(std::max(rec->ts, sim_.now()),
                   [this, rec = *rec, &source, duration]() {
                     dispatch(rec);
                     feed_next(source, duration);
                   });
}

void SimJoinEngine::dispatch(const Record& raw) {
  Record rec = raw;
  if (cfg_.preprocess) {
    auto processed = cfg_.preprocess(raw);
    if (!processed) return;  // filtered out by the pre-processing unit
    rec = *processed;
  }
  ++records_in_;
  // Store destination in the record's own side group.
  const InstanceId store_dst = dispatcher_.route_store(rec);
  JoinInstance* store_inst =
      groups_[static_cast<int>(rec.side)][store_dst].get();
  sim_.schedule_after(cfg_.dispatch_latency,
                      [store_inst, rec]() { store_inst->enqueue(rec); });

  // Probe destinations in the opposite group.
  const Side probe_group = other_side(rec.side);
  probe_dsts_.clear();
  dispatcher_.route_probe(probe_group, rec, probe_dsts_);
  for (InstanceId dst : probe_dsts_) {
    JoinInstance* inst = groups_[static_cast<int>(probe_group)][dst].get();
    sim_.schedule_after(cfg_.dispatch_latency,
                        [inst, rec]() { inst->enqueue(rec); });
  }
}

void SimJoinEngine::monitor_tick(Side group, SimTime duration) {
  const int g = static_cast<int>(group);
  std::vector<InstanceLoad> loads;
  loads.reserve(groups_[g].size());
  double heaviest = 0.0;
  for (const auto& inst : groups_[g]) {
    loads.push_back(inst->aggregate_load());
    heaviest = std::max(heaviest, loads.back().load());
    metrics_->record_instance_load(sim_.now(), group, inst->id(),
                                   loads.back().load());
  }
  const double li =
      load_imbalance(loads, cfg_.balancer.planner.floor_eps);
  metrics_->record_li(sim_.now(), group, li);

  // Age the probe-rate EWMA once per period (after sampling).
  for (auto& inst : groups_[g]) inst->decay_probe_window();

  if (cfg_.balancer.enabled &&
      heaviest >= cfg_.balancer.min_heaviest_load) {
    const auto pairs =
        pick_migration_pairs(loads, cfg_.balancer.planner,
                             cfg_.balancer.max_concurrent_migrations);
    for (const auto& pair : pairs) {
      // Each active migration marks its two instances busy, so
      // migrating_.size()/2 counts in-flight migrations in this group.
      if (migrating_[g].size() / 2 >=
          cfg_.balancer.max_concurrent_migrations) {
        break;
      }
      if (migrating_[g].count(pair.src) || migrating_[g].count(pair.dst)) {
        continue;  // instance already part of an active migration
      }
      start_migration(group, pair);
    }
  }

  if (sim_.now() + cfg_.balancer.monitor_period <= duration) {
    sim_.schedule_after(cfg_.balancer.monitor_period,
                        [this, group, duration]() {
                          monitor_tick(group, duration);
                        });
  }
}

void SimJoinEngine::end_migration(Side group, const ActiveMigration& am) {
  const int g = static_cast<int>(group);
  migrating_[g].erase(am.pair.src);
  migrating_[g].erase(am.pair.dst);
}

/// Unwind an in-flight migration after `crashed` (src or dst) died.
/// The rules, per phase reached (see docs/migration_protocol.md):
///  * Nothing extracted yet: resume the source, stop holding.
///  * Batch extracted, target never absorbed it: the surviving source
///    re-merges the batch and replays pending + forward buffer locally;
///    routing was never changed.
///  * Target absorbed the batch and then died: roll routing back to the
///    source and re-insert the batch's *stored* tuples there. Pending
///    records are NOT replayed — the target may have served some of
///    them before dying, and replaying would double-count matches.
///    Re-inserting stored tuples is always safe: a stored tuple emits
///    nothing by itself, and each probe is routed to exactly one
///    instance.
///  * Source died after the routing update: roll forward — the batch
///    already lives at the target; only the source's forward buffer is
///    lost (bounded by the migration window).
void SimJoinEngine::abort_migration(
    Side group, const std::shared_ptr<ActiveMigration>& am,
    InstanceId crashed) {
  const int g = static_cast<int>(group);
  am->aborted = true;
  JoinInstance* src = groups_[g][am->pair.src].get();
  JoinInstance* dst = groups_[g][am->pair.dst].get();
  const bool src_crashed = crashed == am->pair.src;
  const bool dst_crashed = crashed == am->pair.dst;

  switch (am->phase) {
    case MigPhase::kSelecting:
      if (!src_crashed) src->resume();
      break;
    case MigPhase::kExtracted:
      if (!dst_crashed && am->hold_installed) dst->release_held({});
      if (!src_crashed) {
        src->abort_migration(am->batch->stored, /*replay_pending=*/true,
                             am->batch->pending);
      }
      break;
    case MigPhase::kAbsorbed:
      if (dst_crashed) {
        // Routing still points at the source; restore the stored half.
        src->abort_migration(am->batch->stored, /*replay_pending=*/false,
                             {});
      } else {
        // Source died with the batch already delivered: roll forward.
        for (KeyId k : am->batch->keys) {
          dispatcher_.apply_override(group, k, am->pair.dst);
        }
        dst->release_held({});
      }
      break;
    case MigPhase::kRoutingUpdated:
      if (dst_crashed) {
        for (const auto& [k, prev] : am->prev_overrides) {
          if (prev) {
            dispatcher_.apply_override(group, k, *prev);
          } else {
            dispatcher_.clear_override(group, k);
          }
        }
        src->abort_migration(am->batch->stored, /*replay_pending=*/false,
                             {});
      } else {
        // Forward buffer died with the source; keys stay at the target.
        dst->release_held({});
      }
      break;
  }
  end_migration(group, *am);
  ++migrations_aborted_;
  FJ_WARN("migrate") << "aborted " << side_name(group) << "-group migration "
                     << am->pair.src << "->" << am->pair.dst << " at phase "
                     << static_cast<int>(am->phase) << ": "
                     << side_name(group) << "-" << crashed << " crashed";
}

void SimJoinEngine::start_migration(Side group, const MigrationPair& pair) {
  const int g = static_cast<int>(group);
  auto am = std::make_shared<ActiveMigration>();
  am->pair = pair;
  migrating_[g][pair.src] = am;
  migrating_[g][pair.dst] = am;

  JoinInstance* src = groups_[g][pair.src].get();
  JoinInstance* dst = groups_[g][pair.dst].get();
  const SimTime ctrl = cfg_.migration.control_latency;
  const SimTime triggered_at = sim_.now();

  FJ_DEBUG("migrate") << side_name(group) << "-group LI=" << pair.li
                      << " src=" << pair.src << " dst=" << pair.dst;

  // Monitor -> source: migration signal (Algorithm 2 entry). Every
  // scheduled step re-checks am->aborted: a crash of either endpoint
  // aborts the migration synchronously (abort_migration) and the rest
  // of the chain must become a no-op.
  sim_.schedule_after(ctrl, [this, g, group, src, dst, pair, triggered_at,
                             am]() {
    if (am->aborted) return;
    src->pause();
    src->when_idle([this, g, group, src, dst, pair, triggered_at, am]() {
      if (am->aborted) return;
      // Key selection runs while the instance is quiesced; its cost is
      // charged as wall time (the paper's motivation for GreedyFit's
      // O(K log K) bound).
      KeySelectionInput in;
      in.src = src->aggregate_load();
      in.dst = dst->aggregate_load();
      in.keys = src->key_loads();
      in.theta_gap = cfg_.balancer.planner.theta_gap;
      const SimTime select_time =
          cfg_.migration.selection_time(in.keys.size());

      sim_.schedule_after(select_time, [this, g, group, src, dst, pair,
                                        triggered_at, am,
                                        in = std::move(in)]() {
        if (am->aborted) return;
        const KeySelectionResult sel =
            select_keys(in, cfg_.balancer.planner);
        if (sel.selection.empty()) {
          src->resume();
          end_migration(group, *am);
          return;
        }

        am->batch = std::make_shared<MigrationBatch>(
            src->extract(sel.selection));
        am->phase = MigPhase::kExtracted;
        const auto batch = am->batch;
        const SimTime ctrl = cfg_.migration.control_latency;

        // Source -> target: migration start signal; target begins
        // holding dispatcher traffic for the migrating keys.
        sim_.schedule_after(ctrl, [dst, batch, am]() {
          if (am->aborted) return;
          dst->hold_keys(batch->keys);
          am->hold_installed = true;
        });

        // Bulk tuple transfer.
        const SimTime transfer = cfg_.migration.transfer_time(
            batch->stored.size() + batch->pending.size());
        sim_.schedule_after(ctrl + transfer, [this, g, group, src, dst,
                                              pair, batch, triggered_at,
                                              ctrl, am]() {
          if (am->aborted) return;
          dst->absorb_stored(*batch);
          am->phase = MigPhase::kAbsorbed;

          // Source -> dispatcher: routing-table update.
          sim_.schedule_after(ctrl, [this, g, group, src, dst, pair,
                                     batch, triggered_at, ctrl, am]() {
            if (am->aborted) return;
            for (KeyId k : batch->keys) {
              am->prev_overrides.emplace_back(
                  k, dispatcher_.override_for(group, k));
              dispatcher_.apply_override(group, k, pair.dst);
            }
            am->phase = MigPhase::kRoutingUpdated;
            // Dispatcher -> source: ack; source forwards what it
            // buffered during the migration and resumes.
            sim_.schedule_after(ctrl, [this, g, group, src, dst, pair,
                                       batch, triggered_at, ctrl, am]() {
              if (am->aborted) return;
              auto fwd = std::make_shared<std::vector<Record>>(
                  src->take_forward_buffer());
              const SimTime fwd_transfer =
                  cfg_.migration.transfer_time(fwd->size());
              sim_.schedule_after(ctrl + fwd_transfer, [dst, fwd]() {
                dst->release_held(*fwd);
              });
              src->resume();
              end_migration(group, *am);

              MigrationEvent ev;
              ev.triggered_at = triggered_at;
              // The migration is complete for scheduling purposes when
              // the source resumes (the held-release at the target lands
              // ctrl + fwd_transfer later but blocks nothing).
              ev.completed_at = sim_.now();
              ev.group = group;
              ev.src = pair.src;
              ev.dst = pair.dst;
              ev.li_before = pair.li;
              ev.keys_moved = batch->keys.size();
              ev.tuples_moved = batch->stored.size() + batch->pending.size();
              tuples_migrated_ += ev.tuples_moved;
              metrics_->log_migration(ev);
            });
          });
        });
      });
    });
  });
}

void SimJoinEngine::window_tick(SimTime duration) {
  for (int g = 0; g < 2; ++g) {
    for (auto& inst : groups_[g]) {
      evicted_ += inst->advance_subwindow();
    }
  }
  if (sim_.now() + cfg_.subwindow_len <= duration) {
    sim_.schedule_after(cfg_.subwindow_len,
                        [this, duration]() { window_tick(duration); });
  }
}

RunReport SimJoinEngine::run(RecordSource& source, SimTime duration) {
  feed_next(source, duration);
  sim_.schedule_after(cfg_.balancer.monitor_period, [this, duration]() {
    monitor_tick(Side::kR, duration);
    monitor_tick(Side::kS, duration);
  });
  if (cfg_.window_subwindows > 0) {
    sim_.schedule_after(cfg_.subwindow_len,
                        [this, duration]() { window_tick(duration); });
  }
  if (cfg_.checkpoint_period > 0) {
    sim_.schedule_after(cfg_.checkpoint_period, [this, duration]() {
      checkpoint_tick(duration);
    });
  }

  if (cfg_.drain) {
    sim_.run();
  } else {
    sim_.run(duration);
  }
  metrics_->finish();

  RunReport rep;
  rep.records_in = records_in_;
  rep.evicted = evicted_;
  for (int g = 0; g < 2; ++g) {
    for (const auto& inst : groups_[g]) {
      rep.results += inst->results_emitted();
      rep.probes += inst->probes_done();
      rep.stores += inst->stores_done();
    }
  }
  rep.mean_throughput = metrics_->mean_throughput();
  rep.mean_latency_ms = metrics_->mean_latency_ms();
  rep.p50_latency_ms =
      metrics_->latency_hist().value_at_percentile(50) / 1e6;
  rep.p99_latency_ms =
      metrics_->latency_hist().value_at_percentile(99) / 1e6;
  {
    // LI is only meaningful while traffic flows: once the feed stops,
    // drained instances decay to zero load and the floored ratio
    // explodes, so the mean is taken over [warmup, feed end].
    const SimTime li_end =
        feed_end_ > 0 ? feed_end_ : std::numeric_limits<SimTime>::max();
    const auto& r = metrics_->li_series(Side::kR);
    const auto& s = metrics_->li_series(Side::kS);
    const double mr = r.mean_between(cfg_.metrics.warmup, li_end);
    const double ms = s.mean_between(cfg_.metrics.warmup, li_end);
    rep.mean_li = std::max({mr, ms, 1.0});
    rep.li_r_ts = r;
    rep.li_s_ts = s;
  }
  rep.migrations = metrics_->migrations().size();
  rep.tuples_migrated = tuples_migrated_;
  rep.migrations_aborted = migrations_aborted_;
  rep.failures = failures_;
  rep.failures_skipped = failures_skipped_;
  rep.tuples_recovered = tuples_recovered_;
  rep.sim_end = sim_.now();
  rep.feed_end = feed_end_;
  rep.throughput_ts = metrics_->throughput().series();
  rep.latency_ts = metrics_->latency_series();
  rep.instance_load_r = metrics_->instance_load_series(Side::kR);
  rep.instance_load_s = metrics_->instance_load_series(Side::kS);
  rep.migration_log = metrics_->migrations();
  rep.pairs = metrics_->pairs();
  return rep;
}

}  // namespace fastjoin
