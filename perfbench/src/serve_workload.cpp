// The serving workload, serve_closed: train -> freeze -> serve without
// the training. A ResNet-8 with 6-bit weight grids is calibrated on the
// SynthCIFAR test images, compiled, saved, loaded back from the artifact
// and served by a one-worker Server. Closed-loop clients with zero think
// time send the test images in a seed-chosen order through the
// synchronous Server::infer; with more clients than workers the queue
// coalesces requests into batches, and the single worker's
// CompiledModel::run bounds throughput.
//
// Every response is compared byte for byte with a batch-1 run of the
// same sample on the loaded model: bit-identity under coalescing is the
// server's contract.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "common.hpp"
#include "core/grid_representation.hpp"
#include "models/zoo.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "serve/compiled_model.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace apt;

// Two full batches of clients: while one batch runs, the other waits in
// the queue, so the worker never waits for a wake-up, every batch is
// full, and each request waits exactly one batch before its own.
// Throughput is bounded by CompiledModel::run alone. With 3 clients, every
// batch waited on two cross-thread wake-ups whose cost swung throughput
// by +-25% between processes on a shared VM; with 12, the median latency
// flipped between one and two batch times.
constexpr size_t kClients = 16;

Tensor rows(const Tensor& images, int64_t begin, int64_t count) {
  std::vector<int64_t> dims = images.shape().dims();
  dims[0] = count;
  Tensor out{Shape(dims)};
  const int64_t row = images.numel() / images.dim(0);
  std::memcpy(out.data(), images.data() + begin * row,
              sizeof(float) * static_cast<size_t>(count * row));
  return out;
}

int64_t argmax(const float* v, int64_t n) {
  return std::max_element(v, v + n) - v;
}

}  // namespace

int run_serve(uint64_t seed, bool traced, bool tiny, double serve_seconds,
              const std::string& scratch_dir) {
  const Fixture fx = Fixture::make(tiny);
  const Clock::time_point t0 = Clock::now();
  const data::SynthImageDataset dataset(data_config(fx, seed), fx.n_train,
                                        fx.n_test);
  const Tensor& images = dataset.test().images;
  const int64_t n = fx.n_test;

  Rng rng(derive_seed(seed, SeedUse::kModel));
  auto model = models::make_resnet({.n = fx.resnet_n,
                                    .base_width = fx.resnet_width,
                                    .num_classes = fx.classes},
                                   rng);
  core::GridOptions go;
  go.bits = 6;
  go.seed = derive_seed(seed, SeedUse::kGrid);
  for (nn::Layer* leaf : nn::leaves_of(*model)) {
    nn::Parameter* w = nullptr;
    if (auto* c = dynamic_cast<nn::Conv2d*>(leaf)) w = &c->weight();
    if (auto* l = dynamic_cast<nn::Linear*>(leaf)) w = &l->weight();
    if (w != nullptr)
      w->rep = std::make_shared<core::GridRepresentation>(*w, go);
  }
  for (int64_t b = 0; b < n; b += fx.batch)  // warms the range trackers
    model->forward(rows(images, b, std::min(fx.batch, n - b)),
                   /*training=*/true);

  const Shape sample{3, fx.image_hw, fx.image_hw};
  const serve::CompileOptions copts{.max_batch = 8};
  const serve::CompiledModel compiled =
      serve::CompiledModel::compile(*model, sample, copts);
  const std::string path =
      scratch_dir + "/serve_" + std::to_string(getpid()) + ".aptm";
  Status st = compiled.try_save(path);
  serve::CompiledModel loaded;
  if (st.ok()) st = serve::CompiledModel::try_load(path, &loaded);
  if (!st.ok()) {
    std::fprintf(stderr, "artifact round trip failed: %s\n",
                 st.to_string().c_str());
    return 1;
  }
  serve::Server server(loaded, {.workers = 1});
  const Clock::time_point t1 = Clock::now();

  // Untimed references: batch-1 runs on the loaded model, and the
  // uncompiled model's own top-1 answers.
  const int64_t in_elems = loaded.in_elems();
  const int64_t classes = loaded.out_elems();
  std::vector<float> reference(static_cast<size_t>(n * classes));
  serve::InferenceContext ctx;
  for (int64_t i = 0; i < n; ++i)
    loaded.run(images.data() + i * in_elems, 1,
               reference.data() + i * classes, ctx);
  const Tensor logits = model->forward(images, /*training=*/false);
  std::vector<int64_t> source_top1(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i)
    source_top1[static_cast<size_t>(i)] =
        argmax(logits.data() + i * classes, classes);

  std::vector<int64_t> order(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  Rng order_rng(derive_seed(seed, SeedUse::kRequestOrder));
  for (int64_t i = n - 1; i > 0; --i)
    std::swap(order[static_cast<size_t>(i)],
              order[static_cast<size_t>(order_rng.randint(0, i))]);

  // Closed loop: each client sends its next request as soon as the
  // previous one returns, walking the seed-chosen order cyclically.
  // Every response is checked against the batch-1 reference.
  struct ClientLog {
    std::vector<double> latency_us;
    std::vector<Clock::time_point> done;
    int64_t sent = 0, failed = 0, mismatched = 0, agree = 0;
  };
  auto serve_loop = [&](int64_t max_requests, double seconds) {
    std::atomic<int64_t> next{0};
    std::atomic<bool> stop{false};
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        ClientLog& log = logs[c];
        std::vector<float> out(static_cast<size_t>(classes));
        for (int64_t k;
             !stop.load() && (k = next.fetch_add(1)) < max_requests;) {
          const int64_t idx = order[static_cast<size_t>(k % n)];
          const Clock::time_point s0 = Clock::now();
          const Status st = server.infer(images.data() + idx * in_elems,
                                         out.data(), serve::InferOptions{});
          const Clock::time_point s1 = Clock::now();
          ++log.sent;
          if (!st.ok()) {
            ++log.failed;
            continue;
          }
          if (std::memcmp(out.data(), reference.data() + idx * classes,
                          sizeof(float) * out.size()) != 0)
            ++log.mismatched;
          log.agree += argmax(out.data(), classes) ==
                       source_top1[static_cast<size_t>(idx)];
          log.latency_us.push_back(ms_since(s0, s1) * 1e3);
          log.done.push_back(s1);
        }
      });
    if (seconds > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      stop = true;
    }
    for (auto& c : clients) c.join();
    return logs;
  };

  auto arena_bytes = [&server] {
    size_t sum = 0;
    for (size_t b : server.stats().arena_capacity) sum += b;
    return static_cast<double>(sum);
  };

  std::vector<ClientLog> logs = serve_loop(n, 0.0);  // warm-up: one pass
  const double arena_warm = arena_bytes();
  const serve::Server::Stats stats0 = server.stats();
  constexpr int64_t kUnbounded = std::numeric_limits<int64_t>::max();
  for (ClientLog& log : serve_loop(kUnbounded, serve_seconds))
    logs.push_back(std::move(log));
  const serve::Server::Stats stats1 = server.stats();
  const double arena_end = arena_bytes();
  server.shutdown();

  int64_t requests = 0, failed = 0, mismatched = 0, agree = 0;
  std::vector<double> latencies_us;
  std::vector<Clock::time_point> done;
  for (size_t c = 0; c < logs.size(); ++c) {
    requests += logs[c].sent;
    failed += logs[c].failed;
    mismatched += logs[c].mismatched;
    if (c < kClients) continue;  // warm-up
    agree += logs[c].agree;
    latencies_us.insert(latencies_us.end(), logs[c].latency_us.begin(),
                        logs[c].latency_us.end());
    done.insert(done.end(), logs[c].done.begin(), logs[c].done.end());
  }
  // Time to complete each successive block of n requests.
  std::sort(done.begin(), done.end());
  std::vector<double> block_s;
  const size_t block = static_cast<size_t>(n);
  for (size_t i = block; i < done.size(); i += block)
    block_s.push_back(ms_since(done[i - block], done[i]) / 1e3);

  Json j;
  j.str("workload", "serve_closed")
      .num("seed", static_cast<double>(seed))
      .arr("setup_s", std::vector<double>{ms_since(t0, t1) / 1e3})
      .num("block_requests", static_cast<double>(n))
      .arr("block_s", block_s)
      .arr("latencies_us", latencies_us)
      .num("accuracy", static_cast<double>(agree) /
                           static_cast<double>(latencies_us.size()))
      .num("peak_rss_mb", peak_rss_mb())
      .num("attempted", static_cast<double>(requests))
      .num("failed", static_cast<double>(failed + mismatched))
      .num("serve.mismatched", static_cast<double>(mismatched))
      .num("serve.shed", static_cast<double>(stats1.shed))
      .num("serve.rejected", static_cast<double>(stats1.rejected))
      .num("serve.mean_batch",
           static_cast<double>(stats1.requests - stats0.requests) /
               static_cast<double>(std::max<uint64_t>(
                   stats1.batches - stats0.batches, 1)))
      .num("serve.arena_bytes", arena_end)
      .num("serve.arena_growth_bytes", arena_end - arena_warm);

  if (traced) {
    std::vector<double> synth, compile_ms, save_ms, load_ms, b1_us, b8_us;
    for (int r = 0; r < kStageRepeats; ++r) {
      Clock::time_point s0 = Clock::now();
      const data::SynthImageDataset again(data_config(fx, seed), fx.n_train,
                                          fx.n_test);
      synth.push_back(ms_since(s0, Clock::now()));
      s0 = Clock::now();
      const serve::CompiledModel c =
          serve::CompiledModel::compile(*model, sample, copts);
      compile_ms.push_back(ms_since(s0, Clock::now()));
      s0 = Clock::now();
      st = c.try_save(path);
      save_ms.push_back(ms_since(s0, Clock::now()));
      serve::CompiledModel back;
      s0 = Clock::now();
      if (st.ok()) st = serve::CompiledModel::try_load(path, &back);
      load_ms.push_back(ms_since(s0, Clock::now()));
      if (!st.ok()) {
        std::fprintf(stderr, "artifact round trip failed: %s\n",
                     st.to_string().c_str());
        return 1;
      }
    }
    std::vector<float> out(static_cast<size_t>(8 * classes));
    for (int round = 0; round < 2; ++round) {
      for (int64_t i = 0; i < n; ++i) {
        const Clock::time_point s0 = Clock::now();
        loaded.run(images.data() + i * in_elems, 1, out.data(), ctx);
        b1_us.push_back(ms_since(s0, Clock::now()) * 1e3);
      }
      for (int64_t i = 0; i + 8 <= n; i += 8) {
        const Clock::time_point s0 = Clock::now();
        loaded.run(images.data() + i * in_elems, 8, out.data(), ctx);
        b8_us.push_back(ms_since(s0, Clock::now()) * 1e3 / 8.0);
      }
    }
    j.arr("data.synth_ms", synth)
        .arr("serve.compile_ms", compile_ms)
        .arr("io.save_ms", save_ms)
        .arr("io.load_ms", load_ms)
        .arr("serve.run_b1_us", b1_us)
        .arr("serve.run_b8_us_per_sample", b8_us);
  }
  std::remove(path.c_str());
  std::printf("%s\n", j.done().c_str());
  return mismatched == 0 ? 0 : 1;
}

}  // namespace perfbench
