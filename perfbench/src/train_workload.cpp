// The training workloads: train_apt, train_apt_int8 and train_fp32.
//
// Untraced, one repetition is Trainer::run with a TrainHook registered
// last that stamps each iteration. Traced, the same public calls that
// Trainer::run makes are made here, with timestamps around each, so the
// per-layer spans come from this file and src/ is not touched. The traced
// loop must reproduce Trainer::run's History exactly; perfbench/run.py
// runs both in separate processes (the stochastic-rounding step counter
// is process-wide) and compares them.
#include <algorithm>
#include <memory>

#include "common.hpp"
#include "core/controller.hpp"
#include "data/loader.hpp"
#include "models/zoo.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/plan.hpp"
#include "train/trainer.hpp"

namespace perfbench {
namespace {

using namespace apt;

constexpr int kSetupRepeats = 3;

struct TrainRun {
  std::unique_ptr<data::SynthImageDataset> dataset;
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<data::DataLoader> loader;
  std::unique_ptr<train::Trainer> trainer;
  std::unique_ptr<core::AptController> ctrl;
};

TrainRun build(const std::string& workload, uint64_t seed, const Fixture& fx) {
  TrainRun r;
  r.dataset = std::make_unique<data::SynthImageDataset>(
      data_config(fx, seed), fx.n_train, fx.n_test);
  Rng rng(derive_seed(seed, SeedUse::kModel));
  r.model = models::make_resnet({.n = fx.resnet_n,
                                 .base_width = fx.resnet_width,
                                 .num_classes = fx.classes},
                                rng);
  r.loader = std::make_unique<data::DataLoader>(
      r.dataset->train().images, r.dataset->train().labels, fx.batch,
      /*shuffle=*/true, derive_seed(seed, SeedUse::kLoader),
      data::AugmentConfig{});

  train::TrainerConfig cfg;
  cfg.epochs = fx.epochs;
  cfg.schedule = train::StepDecaySchedule(
      0.1,
      {static_cast<int>(fx.epochs * 0.50), static_cast<int>(fx.epochs * 0.77)},
      0.1, 0, 0.01);
  r.trainer = std::make_unique<train::Trainer>(
      *r.model, *r.loader, r.dataset->test().images,
      r.dataset->test().labels, cfg);

  if (workload != "train_fp32") {
    core::AptConfig ac;
    ac.initial_bits = 6;
    ac.t_min = 6.0;
    ac.k_max = workload == "train_apt_int8" ? 8 : 32;
    ac.eval_interval = 2;
    ac.adjust_every_iters =
        static_cast<int>(std::max<int64_t>(1, fx.iters_per_epoch() / 2));
    ac.seed = derive_seed(seed, SeedUse::kGrid);
    r.ctrl = std::make_unique<core::AptController>(*r.trainer, ac);
    r.trainer->add_hook(r.ctrl.get());
  }
  return r;
}

/// Stamps the interval between consecutive iterations of one epoch.
/// Registered last, so it sees each iteration after every other hook.
class IntervalHook : public train::TrainHook {
 public:
  void on_gradients(train::Trainer&, int64_t iter) override {
    const Clock::time_point now = Clock::now();
    if (iter > 0) intervals_ms.push_back(ms_since(last_, now));
    last_ = now;
  }
  std::vector<double> intervals_ms;

 private:
  Clock::time_point last_;
};

std::string history_json(const train::History& h) {
  std::string out = "[";
  for (size_t i = 0; i < h.epochs.size(); ++i) {
    const train::EpochStats& e = h.epochs[i];
    if (i) out += ',';
    out += Json()
               .num("epoch", e.epoch)
               .num("lr", e.lr)
               .num("train_loss", e.train_loss)
               .num("train_accuracy", e.train_accuracy)
               .num("test_accuracy", e.test_accuracy)
               .num("cumulative_energy_j", e.cumulative_energy_j)
               .num("model_memory_bits", e.model_memory_bits)
               .num("underflow_fraction", e.underflow_fraction)
               .arr("unit_bits", e.unit_bits)
               .done();
  }
  return out + ']';
}

bool params_finite(nn::Layer& model) {
  for (nn::Parameter* p : model.parameters())
    for (float v : p->value.span())
      if (!std::isfinite(v)) return false;
  return true;
}

/// Per-iteration spans and per-step counters of the traced loop.
struct Trace {
  std::vector<double> wait, forward, backward, controller, update, iteration,
      unattributed, eval;
  int64_t layer_iters = 0, int8_fwd = 0, int8_bwd = 0, consumed = 0;
  int64_t nonfinite_loss_iters = 0;
  double plan_hit_ratio = 0.0;
};

/// Trainer::run's loop, made through the same public calls with
/// timestamps around each. Differs only in skipping on_epoch_end, which
/// needs Trainer::current_epoch_stats() (valid only inside run()); with
/// adjust_every_iters > 0 that hook only annotates unit_gavg, which the
/// History record leaves out.
train::History traced_run(TrainRun& r, Trace& t) {
  train::Trainer& tr = *r.trainer;
  const train::TrainerConfig& cfg = tr.config();
  train::ShardedStep step(*r.model,
                          train::ShardedStepConfig{cfg.num_workers,
                                                   cfg.shard_grain});
  std::vector<nn::Conv2d*> convs;
  std::vector<nn::Linear*> linears;
  for (nn::Layer* leaf : nn::leaves_of(*r.model)) {
    if (auto* c = dynamic_cast<nn::Conv2d*>(leaf)) convs.push_back(c);
    if (auto* l = dynamic_cast<nn::Linear*>(leaf)) linears.push_back(l);
  }
  auto count_paths = [&t](const auto& layer) {
    ++t.layer_iters;
    t.int8_fwd += layer->last_forward_was_int8();
    t.int8_bwd += layer->last_backward_was_int8();
    t.consumed += layer->last_forward_consumed_codes();
  };

  train::History history;
  for (const auto& u : tr.units()) history.unit_names.push_back(u.name);
  bool profiles_ready = false;
  double energy_pj = 0.0;
  const nn::PlanCacheStats plans0 = nn::plan_cache_stats();

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const double lr = cfg.schedule.lr_at(epoch);
    double loss_sum = 0.0;
    int64_t seen = 0, hits = 0;
    quant::UpdateStats epoch_stats;

    Clock::time_point mark = Clock::now();
    r.loader->for_each_batch([&](int64_t iter, const data::Batch& batch) {
      const Clock::time_point t_batch = Clock::now();
      tr.optimizer().zero_grad();
      const Clock::time_point t_fwd0 = Clock::now();
      Clock::time_point t_fwd1;
      const train::ShardedStep::Result res = step.run(batch, [&] {
        t_fwd1 = Clock::now();
        if (!profiles_ready) {
          for (auto& u : tr.units()) {
            u.profile.macs_per_sample = u.layer->macs_per_sample();
            u.profile.act_elems_per_sample = u.layer->out_elems_per_sample();
          }
          profiles_ready = true;
        }
      });
      const Clock::time_point t_bwd1 = Clock::now();
      if (r.ctrl) r.ctrl->on_gradients(tr, iter);
      const Clock::time_point t_ctrl1 = Clock::now();
      epoch_stats.accumulate(tr.optimizer().step(lr));
      const Clock::time_point t_upd1 = Clock::now();

      loss_sum += res.mean_loss * static_cast<double>(batch.size());
      seen += batch.size();
      hits += res.hits;
      double iter_pj = 0.0;  // summed per iteration first, as Trainer does
      for (const auto& u : tr.units())
        iter_pj += cost::layer_iteration_cost(
                       cfg.energy, u.profile, train::Trainer::unit_bits(u),
                       batch.size(), train::Trainer::unit_has_master(u))
                       .total_pj();
      energy_pj += iter_pj;
      if (!std::isfinite(res.mean_loss)) ++t.nonfinite_loss_iters;
      for (auto* c : convs) count_paths(c);
      for (auto* l : linears) count_paths(l);

      const Clock::time_point t_end = Clock::now();
      const double wait = ms_since(mark, t_batch);
      const double fwd = ms_since(t_fwd0, t_fwd1);
      const double bwd = ms_since(t_fwd1, t_bwd1);
      const double ctl = ms_since(t_bwd1, t_ctrl1);
      const double upd = ms_since(t_ctrl1, t_upd1);
      const double iter_ms = ms_since(mark, t_end);
      t.wait.push_back(wait);
      t.forward.push_back(fwd);
      t.backward.push_back(bwd);
      if (r.ctrl) t.controller.push_back(ctl);
      t.update.push_back(upd);
      t.iteration.push_back(iter_ms);
      t.unattributed.push_back(iter_ms - wait - fwd - bwd - ctl - upd);
      mark = t_end;
    });

    train::EpochStats stats;
    stats.epoch = epoch;
    stats.lr = lr;
    stats.train_loss = loss_sum / static_cast<double>(seen);
    stats.train_accuracy =
        static_cast<double>(hits) / static_cast<double>(seen);
    const Clock::time_point t_eval0 = Clock::now();
    const train::EvalResult ev =
        train::evaluate(*r.model, r.dataset->test().images,
                        r.dataset->test().labels, cfg.eval_batch);
    t.eval.push_back(ms_since(t_eval0, Clock::now()));
    stats.test_accuracy = ev.accuracy;
    stats.cumulative_energy_j = energy_pj * 1e-12;
    stats.model_memory_bits = tr.model_memory_bits();
    stats.underflow_fraction = epoch_stats.underflow_fraction();
    for (const auto& u : tr.units())
      stats.unit_bits.push_back(train::Trainer::unit_bits(u));
    history.epochs.push_back(std::move(stats));
  }

  const nn::PlanCacheStats plans1 = nn::plan_cache_stats();
  const double hits = static_cast<double>(plans1.hits - plans0.hits);
  const double misses = static_cast<double>(plans1.misses - plans0.misses);
  t.plan_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  return history;
}

}  // namespace

int run_train(const std::string& workload, uint64_t seed, bool traced,
              bool tiny) {
  const Fixture fx = Fixture::make(tiny);
  // Set-up is short next to its run-to-run noise, so it is timed several
  // times; only the last build trains.
  std::vector<double> setup_s;
  for (int i = 1; i < kSetupRepeats; ++i) {
    const Clock::time_point s0 = Clock::now();
    build(workload, seed, fx);
    setup_s.push_back(ms_since(s0, Clock::now()) / 1e3);
  }
  const Clock::time_point t0 = Clock::now();
  TrainRun r = build(workload, seed, fx);
  IntervalHook stamps;
  if (!traced) r.trainer->add_hook(&stamps);
  const Clock::time_point t1 = Clock::now();
  setup_s.push_back(ms_since(t0, t1) / 1e3);

  Trace t;
  const train::History h =
      traced ? traced_run(r, t) : r.trainer->run();
  const Clock::time_point t2 = Clock::now();

  int64_t nonfinite_iters = t.nonfinite_loss_iters;
  if (!traced)  // per-iteration losses are not visible through run()
    for (const auto& e : h.epochs)
      if (!std::isfinite(e.train_loss)) nonfinite_iters += fx.iters_per_epoch();
  const bool finite = params_finite(*r.model);

  const auto& bits = h.epochs.back().unit_bits;
  double bits_sum = 0.0;
  for (int b : bits) bits_sum += b;

  Json j;
  j.str("workload", workload)
      .num("seed", static_cast<double>(seed))
      .num("batch", static_cast<double>(fx.batch))
      .arr("setup_s", setup_s)
      .num("run_s", ms_since(t1, t2) / 1e3)
      .num("accuracy", h.final_test_accuracy())
      .num("peak_rss_mb", peak_rss_mb())
      .num("attempted", static_cast<double>(fx.epochs * fx.iters_per_epoch()))
      .num("failed", static_cast<double>(nonfinite_iters))
      .boolean("params_finite", finite)
      .raw("history", history_json(h))
      .num("bits_mean", bits_sum / static_cast<double>(bits.size()))
      .num("policy_decisions",
           r.ctrl ? static_cast<double>(r.ctrl->decisions().size()) : 0.0)
      .num("energy_j", h.total_energy_j())
      .num("model_memory_mb", h.peak_memory_bits() / 8e6)
      .num("underflow_fraction", h.epochs.back().underflow_fraction);
  if (!traced) {
    j.arr("intervals_ms", stamps.intervals_ms);
  } else {
    std::vector<double> synth;
    for (int i = 0; i < kStageRepeats; ++i) {
      const Clock::time_point s0 = Clock::now();
      data::SynthImageDataset again(data_config(fx, seed), fx.n_train,
                                    fx.n_test);
      synth.push_back(ms_since(s0, Clock::now()));
    }
    const double li = static_cast<double>(std::max<int64_t>(t.layer_iters, 1));
    j.arr("data.wait_ms", t.wait)
        .arr("data.synth_ms", synth)
        .arr("nn.forward_ms", t.forward)
        .arr("nn.backward_ms", t.backward)
        .arr("core.controller_ms", t.controller)
        .arr("train.update_ms", t.update)
        .arr("train.eval_ms", t.eval)
        .arr("train.iteration_ms", t.iteration)
        .arr("trace.unattributed_ms", t.unattributed)
        .num("nn.int8_fwd_share", static_cast<double>(t.int8_fwd) / li)
        .num("nn.int8_bwd_share", static_cast<double>(t.int8_bwd) / li)
        .num("nn.codes_consumed_share", static_cast<double>(t.consumed) / li)
        .num("nn.plan_cache_hit_ratio", t.plan_hit_ratio);
  }
  std::printf("%s\n", j.done().c_str());
  return finite ? 0 : 1;
}

}  // namespace perfbench
