#include "engine/matrix_engine.hpp"

namespace fastjoin {

MatrixJoinEngine::MatrixJoinEngine(const MatrixConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed ^ 0x3a7215ULL),
      results_rate_(cfg.rate_window) {
  cells_.reserve(static_cast<std::size_t>(cfg_.rows) * cfg_.cols);
  for (std::uint32_t i = 0; i < cfg_.rows * cfg_.cols; ++i) {
    cells_.push_back(std::make_unique<Cell>());
  }
}

void MatrixJoinEngine::dispatch(const Record& rec) {
  ++records_in_;
  if (rec.side == Side::kR) {
    // Random row; replicate across its columns.
    const auto row = static_cast<std::uint32_t>(rng_.next_below(cfg_.rows));
    for (std::uint32_t c = 0; c < cfg_.cols; ++c) {
      const std::uint32_t cell = row * cfg_.cols + c;
      sim_.schedule_after(cfg_.dispatch_latency,
                          [this, cell, rec]() { deliver(cell, rec); });
    }
  } else {
    // Random column; replicate across its rows.
    const auto col = static_cast<std::uint32_t>(rng_.next_below(cfg_.cols));
    for (std::uint32_t r = 0; r < cfg_.rows; ++r) {
      const std::uint32_t cell = r * cfg_.cols + col;
      sim_.schedule_after(cfg_.dispatch_latency,
                          [this, cell, rec]() { deliver(cell, rec); });
    }
  }
}

void MatrixJoinEngine::deliver(std::uint32_t cell, const Record& rec) {
  cells_[cell]->queue.push_back({rec, sim_.now()});
  maybe_start(cell);
}

void MatrixJoinEngine::maybe_start(std::uint32_t cell_idx) {
  Cell& cell = *cells_[cell_idx];
  if (cell.busy || cell.queue.empty()) return;
  cell.busy = true;
  auto [rec, enq_time] = cell.queue.front();
  cell.queue.pop_front();

  // A delivered tuple is both stored (its side) and probed against the
  // opposite side's local store. The ordering rule keeps every pair
  // joined exactly once within the cell.
  JoinStore& own = rec.side == Side::kR ? cell.r_store : cell.s_store;
  JoinStore& other = rec.side == Side::kR ? cell.s_store : cell.r_store;

  const std::uint64_t matches =
      on_match_ ? other.probe_each(rec, on_match_) : other.probe_count(rec);

  const SimTime service = cfg_.cost.store_time() +
                          cfg_.cost.probe_time(other.size(), matches);
  sim_.schedule_after(service, [this, cell_idx, rec, enq_time, matches,
                                &own]() {
    StoredTuple st;
    st.seq = rec.seq;
    st.payload = rec.payload;
    st.ts = rec.ts;
    own.insert(rec.key, st);

    ++cell_ops_;
    results_ += matches;
    results_rate_.add(sim_.now(), matches);
    latency_hist_.add(
        static_cast<double>(std::max<SimTime>(sim_.now() - enq_time, 1)));

    cells_[cell_idx]->busy = false;
    maybe_start(cell_idx);
  });
}

MatrixReport MatrixJoinEngine::run(RecordSource& source, SimTime duration) {
  // Feed chain, like SimJoinEngine.
  std::function<void()> feed = [&]() {
    auto rec = source.next();
    if (!rec || rec->ts > duration) return;
    sim_.schedule_at(std::max(rec->ts, sim_.now()),
                     [this, rec = *rec, &feed]() {
                       dispatch(rec);
                       feed();
                     });
  };
  feed();

  if (cfg_.drain) {
    sim_.run();
  } else {
    sim_.run(duration);
  }
  results_rate_.finish();

  MatrixReport rep;
  rep.records_in = records_in_;
  rep.results = results_;
  rep.cell_ops = cell_ops_;
  for (const auto& cell : cells_) {
    rep.tuples_stored += cell->r_store.size() + cell->s_store.size();
  }
  rep.replication_factor =
      records_in_ ? static_cast<double>(rep.tuples_stored) /
                        static_cast<double>(records_in_)
                  : 0.0;
  rep.mean_throughput = results_rate_.series().mean_after(cfg_.warmup);
  rep.mean_latency_ms = latency_hist_.mean() / 1e6;
  rep.p99_latency_ms = latency_hist_.value_at_percentile(99) / 1e6;
  rep.sim_end = sim_.now();
  rep.throughput_ts = results_rate_.series();
  return rep;
}

}  // namespace fastjoin
