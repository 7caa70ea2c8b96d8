#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <span>
#include <stdexcept>
#include <thread>

#include "blas/blas.hpp"
#include "cactus/adm.hpp"
#include "fft/fft_multi.hpp"
#include "gtc/deposition.hpp"
#include "gtc/push.hpp"
#include "host.hpp"
#include "lbmhd/collision.hpp"
#include "lbmhd/stream.hpp"
#include "part/halo.hpp"
#include "qcd/dslash.hpp"
#include "qcd/lattice.hpp"
#include "simrt/parallel.hpp"
#include "simrt/runtime.hpp"
#include "trace/metrics.hpp"

namespace perfbench {

namespace {

namespace simrt = vpar::simrt;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t counter(const char* name) {
  return vpar::trace::Metrics::instance().counter(name).value();
}

/// Median wall time (ms) of `fn`, called until ~`budget_ms` is spent
/// (at least 3, at most 200 calls), each call inside a span `name`.
double time_calls(SpanLog* log, const char* name, const std::function<void()>& fn,
                  double budget_ms = 150.0) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 3 || (samples.size() < 200 && ms_since(start) < budget_ms)) {
    const auto t0 = Clock::now();
    {
      ScopedSpan span(log, name, static_cast<std::int64_t>(samples.size()));
      fn();
    }
    samples.push_back(ms_since(t0));
  }
  return median(samples);
}

/// A kernel's time plus its computed rate and intensity.
void note_kernel(LadderResult& out, const std::string& kernel, double ms,
                 double flops, double bytes) {
  out.values["kernel." + kernel + ".ms"] = ms;
  out.values["kernel." + kernel + ".gflops"] = flops / (ms * 1e6);
  out.values["kernel." + kernel + ".flop_per_byte"] = flops / bytes;
}

/// Halo plan facts of rank 0: bytes to other ranks, bytes to itself, sends.
template <std::size_t N>
void note_plan(LadderResult& out, const std::string& app, double exchange_ms,
               const vpar::part::HaloSchedule<N>& plan, int rank, std::size_t planes) {
  out.values["part.exchange." + app + ".ms"] = exchange_ms;
  double remote = 0.0, self = 0.0, messages = 0.0;
  for (const auto& phase : plan.phases) {
    for (const auto& s : phase.sends) {
      const double bytes = static_cast<double>(planes * s.box.volume() * sizeof(double));
      (s.peer == rank ? self : remote) += bytes;
      messages += 1.0;
    }
  }
  out.values["part.halo_bytes." + app] = remote;
  out.values["part.self_bytes." + app] = self;
  out.values["part.messages." + app] = messages;
}

constexpr int kProbeTag = 900;  // above every app's halo tag range

template <std::size_t N>
double time_exchange(simrt::Communicator& comm, SpanLog* log, const char* span,
                     const vpar::part::HaloSchedule<N>& plan,
                     const vpar::part::TileLayout<N>& layout,
                     const std::vector<double*>& planes) {
  // Every rank runs the same number of exchanges: rank 0 decides the count
  // from its own timing and broadcasts it.
  int reps = 0;
  if (comm.rank() == 0) {
    const auto t0 = Clock::now();
    vpar::part::exchange_halo(comm, plan, layout, std::span<double* const>(planes));
    reps = std::clamp(static_cast<int>(100.0 / std::max(ms_since(t0), 1e-3)), 5, 100);
  } else {
    vpar::part::exchange_halo(comm, plan, layout, std::span<double* const>(planes));
  }
  comm.broadcast(std::span<int>(&reps, 1), 0);
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    comm.barrier();
    const auto t0 = Clock::now();
    {
      ScopedSpan s(log, span, r);
      vpar::part::exchange_halo(comm, plan, layout, std::span<double* const>(planes));
    }
    samples.push_back(ms_since(t0));
  }
  return median(samples);
}

}  // namespace

void run_app_ladder(simrt::Communicator& comm, AppSet& set, SpanLog* spans,
                    LadderResult& out) {
  const bool root = comm.rank() == 0;
  const int rank = comm.rank();
  const int p = comm.size();
  SpanLog* log = root ? spans : nullptr;
  ScopedSpan ladder(log, "ladder");

  // Per-step traffic and call counts, from the existing counters, one step
  // of each app. Counters are process-wide: read them between barriers.
  std::array<double, kNumApps> exchanges_per_step{};
  double messages = 0.0, bytes = 0.0, allocs = 0.0, recycles = 0.0, inlines = 0.0;
  double applies_per_step = 0.0;
  static constexpr std::array<const char*, kNumApps> kStepSpan = {
      "lbmhd.step", "cactus.step", "gtc.step", "paratec.step", "qcd.step"};
  for (std::size_t a = 0; a < kNumApps; ++a) {
    comm.barrier();
    const auto ex0 = counter("part.exchanges");
    const auto m0 = counter("comm.messages"), b0 = counter("comm.bytes");
    const auto al0 = counter("arena.payload_allocs");
    const auto re0 = counter("arena.payload_recycles");
    const auto in0 = counter("arena.payload_inlines");
    const long ap0 = set.paratec->hamiltonian.applies();
    comm.barrier();
    {
      ScopedSpan s(log, kStepSpan[a]);
      set.step(a);
    }
    comm.barrier();
    if (root) {
      exchanges_per_step[a] = static_cast<double>(counter("part.exchanges") - ex0) / p;
      messages += static_cast<double>(counter("comm.messages") - m0) / p;
      bytes += static_cast<double>(counter("comm.bytes") - b0) / p;
      allocs += static_cast<double>(counter("arena.payload_allocs") - al0) / p;
      recycles += static_cast<double>(counter("arena.payload_recycles") - re0) / p;
      inlines += static_cast<double>(counter("arena.payload_inlines") - in0) / p;
      if (a == 3) applies_per_step = static_cast<double>(set.paratec->hamiltonian.applies() - ap0);
    }
    comm.barrier();
  }
  if (root) {
    out.values["comm.messages_per_step"] = messages / kNumApps;
    out.values["comm.bytes_per_step"] = bytes / kNumApps;
    out.values["arena.allocs_per_step"] = allocs / kNumApps;
    const double payloads = allocs + recycles + inlines;
    out.values["arena.recycle_share"] = payloads > 0.0 ? recycles / payloads : 0.0;
  }

  // part: exchange_halo on each stencil app's own plan.
  {
    auto& f = set.lbmhd->fields();
    const auto& d = set.lbmhd->decomp();
    const auto layout = vpar::part::TileLayout<2>::make({{f.nxl(), f.nyl()}}, {{2, 2}});
    const auto plan = vpar::part::plan_halo(d.partition, rank, {{{2, 2}}, kProbeTag});
    std::vector<double*> planes;
    for (int i = 0; i < vpar::lbmhd::FieldSet::kPlanes; ++i) planes.push_back(f.plane(i));
    const double ms = time_exchange(comm, log, "part.exchange.lbmhd", plan, layout, planes);
    if (root) {
      out.exchange_ms[0] = ms * exchanges_per_step[0];
      note_plan(out, "lbmhd", ms, plan, rank, planes.size());
    }
  }
  {
    auto& g = set.cactus->state();
    const auto& d = set.cactus->decomp();
    const auto layout = vpar::part::TileLayout<3>::make({{g.nx(), g.ny(), g.nz()}}, {{2, 2, 2}});
    const auto plan = vpar::part::plan_halo(d.partition, rank, {{{2, 2, 2}}, kProbeTag});
    std::vector<double*> planes;
    for (int i = 0; i < g.nfields(); ++i) planes.push_back(g.field(i));
    const double ms = time_exchange(comm, log, "part.exchange.cactus", plan, layout, planes);
    if (root) {
      out.exchange_ms[1] = ms * exchanges_per_step[1];
      note_plan(out, "cactus", ms, plan, rank, planes.size());
    }
  }
  std::vector<double> qcd_field(vpar::qcd::kPlanes * set.qcd->geom().layout.total(), 0.5);
  {
    const auto& geom = set.qcd->geom();
    const auto plan = vpar::part::plan_halo(set.qcd->partition(), rank,
                                            {{{1, 1, 1, 1}}, kProbeTag});
    std::vector<double*> planes;
    for (std::size_t i = 0; i < vpar::qcd::kPlanes; ++i) {
      planes.push_back(qcd_field.data() + i * geom.layout.total());
    }
    const double ms = time_exchange(comm, log, "part.exchange.qcd", plan, geom.layout, planes);
    if (root) {
      out.exchange_ms[4] = ms * exchanges_per_step[4];
      note_plan(out, "qcd", ms, plan, rank, planes.size());
    }
  }

  // PARATEC's H application transforms through the distributed FFT, so
  // every rank calls it, a fixed number of times.
  {
    auto& h = set.paratec->hamiltonian;
    std::vector<vpar::fft::Complex> hpsi(h.local_coeffs());
    const auto band = set.paratec->scf.solver().band(0);
    std::vector<double> samples;
    for (int r = 0; r < 20; ++r) {
      comm.barrier();
      const auto t0 = Clock::now();
      {
        ScopedSpan s(log, "kernel.paratec_apply", r);
        h.apply(band, hpsi);
      }
      samples.push_back(ms_since(t0));
    }
    if (root) {
      out.values["kernel.paratec_apply.ms"] = median(samples);
      out.covered_ms[3] = median(samples) * applies_per_step;
    }
  }

  // Kernels: rank 0 calls each public kernel on its own tile; at P=1 the
  // pool's idle workers serve its parallel_for chunks.
  comm.barrier();
  if (root) {
    const auto vec0 = counter("simd.vector_iters");
    const auto rem0 = counter("simd.remainder_iters");

    auto& f = set.lbmhd->fields();
    const double points = static_cast<double>(f.nxl() * f.nyl());
    const auto& lo = set.lbmhd->options();
    const vpar::lbmhd::CollisionParams params{1.0 / lo.tau_f, 1.0 / lo.tau_g};
    const double collide = time_calls(log, "kernel.lbmhd_collide",
                                      [&] { vpar::lbmhd::collide_flat(f, params); });
    note_kernel(out, "lbmhd_collide", collide,
                vpar::lbmhd::collision_flops_per_point() * points,
                vpar::lbmhd::collision_bytes_per_point() * points);
    vpar::lbmhd::FieldSet next(f.nxl(), f.nyl());
    const double stream = time_calls(log, "kernel.lbmhd_stream",
                                     [&] { vpar::lbmhd::stream(f, next); });
    // Computed traffic: every plane read once and written once.
    note_kernel(out, "lbmhd_stream", stream, vpar::lbmhd::stream_flops_per_point() * points,
                2.0 * vpar::lbmhd::FieldSet::kPlanes * sizeof(double) * points);
    out.covered_ms[0] = collide + stream;

    auto& g = set.cactus->state();
    vpar::cactus::GridFunctions rhs(g.nfields(), g.nx(), g.ny(), g.nz());
    const double cpoints = static_cast<double>(g.nx() * g.ny() * g.nz());
    const double crhs = time_calls(log, "kernel.cactus_rhs", [&] {
      vpar::cactus::compute_rhs(g, rhs, 1.0, 0, g.nx(), 0, g.ny(), 0, g.nz(),
                                vpar::cactus::RhsVariant::Vector);
    });
    note_kernel(out, "cactus_rhs", crhs, vpar::cactus::rhs_flops_per_point() * cpoints,
                vpar::cactus::rhs_bytes_per_point() * cpoints);
    out.covered_ms[1] = crhs * vpar::cactus::Options{}.icn_iterations;

    auto& gtc = *set.gtc;
    const double particles = static_cast<double>(gtc.particles().size());
    const auto& go = gtc.options();
    const double deposit = time_calls(log, "kernel.gtc_deposit", [&] {
      vpar::gtc::deposit(gtc.particles(), gtc.grid(), go.deposit, go.vlen);
    });
    // Per-particle traffic of the repo's GTC workload model.
    note_kernel(out, "gtc_deposit", deposit,
                vpar::gtc::deposition_flops_per_particle() * particles,
                (32.0 * 2.0 + 6.0) * sizeof(double) * particles);
    const std::vector<double> ghost(gtc.grid().plane_size(), 0.0);
    const double push = time_calls(log, "kernel.gtc_push", [&] {
      // dt = 0: the full gather and push arithmetic, markers stay home.
      vpar::gtc::gather_push(gtc.particles(), gtc.grid(), ghost, ghost, 0.0, go.b0);
    });
    note_kernel(out, "gtc_push", push, vpar::gtc::push_flops_per_particle() * particles,
                (32.0 * 2.0 + 12.0) * sizeof(double) * particles);
    out.covered_ms[2] = deposit + push;

    auto& h = set.paratec->hamiltonian;
    const std::size_t n = h.basis().grid_n();
    const std::size_t lines = n * n / static_cast<std::size_t>(p);
    const vpar::fft::MultiFft1d fft(n);
    std::vector<vpar::fft::Complex> fft_data(n * lines, vpar::fft::Complex(1.0, 0.5));
    const double fft_ms = time_calls(log, "kernel.fft_multi1d",
                                     [&] { fft.simultaneous(fft_data, lines); });
    note_kernel(out, "fft_multi1d", fft_ms, fft.flop_count(lines),
                2.0 * sizeof(vpar::fft::Complex) * static_cast<double>(n * lines));
    // Rayleigh-Ritz overlap shape: (bands x coeffs) x (coeffs x bands).
    const std::size_t nb = static_cast<std::size_t>(set.paratec->scf.solver().nbands());
    const std::size_t nloc = h.local_coeffs();
    std::vector<vpar::fft::Complex> a(nb * nloc, {0.5, 0.25}), c(nb * nb);
    const double gemm_ms = time_calls(log, "kernel.gemm", [&] {
      vpar::blas::gemm(vpar::blas::Trans::ConjTranspose, vpar::blas::Trans::None, nb, nb, nloc,
                       {1.0, 0.0}, a.data(), nb, a.data(), nb, {0.0, 0.0}, c.data(), nb);
    });
    note_kernel(out, "gemm", gemm_ms, vpar::blas::gemm_flops_complex(nb, nb, nloc),
                sizeof(vpar::fft::Complex) * static_cast<double>(2 * nb * nloc + 2 * nb * nb));

    const auto& geom = set.qcd->geom();
    std::vector<double> qout(qcd_field.size(), 0.0);
    std::array<double*, vpar::qcd::kPlanes> op{};
    std::array<const double*, vpar::qcd::kPlanes> ip{};
    for (std::size_t i = 0; i < vpar::qcd::kPlanes; ++i) {
      op[i] = qout.data() + i * geom.layout.total();
      ip[i] = qcd_field.data() + i * geom.layout.total();
    }
    const double sites = static_cast<double>(geom.n[0] * geom.n[1] * geom.n[2] * geom.n[3]);
    const double dslash = time_calls(log, "kernel.qcd_dslash",
                                     [&] { vpar::qcd::apply_dslash(op, ip, geom, 0); });
    note_kernel(out, "qcd_dslash", dslash, vpar::qcd::dslash_flops_per_site() * sites,
                vpar::qcd::dslash_bytes_per_site() * sites);
    out.covered_ms[4] = 2.0 * dslash;

    const double vec = static_cast<double>(counter("simd.vector_iters") - vec0);
    const double rem = static_cast<double>(counter("simd.remainder_iters") - rem0);
    out.values["simd.vector_share"] = vec + rem > 0.0 ? vec / (vec + rem) : 0.0;

    // Executor: parallel_for over LBMHD's rows with a light body; helpers
    // join only when this job leaves pool workers idle.
    const auto help0 = counter("simrt.helper_chunks");
    std::atomic<std::size_t> chunks{0};
    std::vector<double> row_sums(f.nyl(), 0.0);
    const double* plane0 = f.plane(0);
    out.values["executor.parallel_for.us"] = 1e3 * time_calls(log, "executor.parallel_for", [&] {
      simrt::parallel_for(0, f.nyl(), 0, [&](std::size_t j0, std::size_t j1) {
        chunks.fetch_add(1, std::memory_order_relaxed);
        for (std::size_t j = j0; j < j1; ++j) {
          const double* row = plane0 + f.at(static_cast<std::ptrdiff_t>(j), 0);
          double sum = 0.0;
          for (std::size_t i = 0; i < f.nxl(); ++i) sum += row[i];
          row_sums[j] = sum;
        }
      });
    }, 50.0);
    out.values["executor.helper_chunk_share"] =
        static_cast<double>(counter("simrt.helper_chunks") - help0) /
        static_cast<double>(chunks.load());
    out.paratec_grid_n = n;
  }
  comm.barrier();

  // Point-to-point at the workload's rank count: ring neighbours (at P=1 a
  // self-send), a small payload and an LBMHD-face-sized one.
  {
    const int right = (rank + 1) % p, left = (rank + p - 1) % p;
    auto ring = [&](const char* span, std::size_t doubles, int iters) {
      std::vector<double> tx(doubles, 1.0), rx(doubles);
      comm.barrier();
      const auto t0 = Clock::now();
      {
        ScopedSpan s(log, span);
        for (int i = 0; i < iters; ++i) {
          comm.sendrecv<double>(right, tx, left, std::span<double>(rx), kProbeTag);
        }
      }
      return ms_since(t0) * 1e3 / iters;  // us per exchange
    };
    const double small = ring("comm.p2p_small", 8, 2000);
    const std::size_t face = vpar::lbmhd::FieldSet::kPlanes * 2 * set.lbmhd->fields().nyl();
    const double halo = ring("comm.p2p_halo", face, 200);
    std::vector<double> tx(8, 2.0), rx(8);
    const auto t0 = Clock::now();
    {
      ScopedSpan s(log, "comm.self_send");
      for (int i = 0; i < 2000; ++i) {
        comm.sendrecv<double>(rank, tx, rank, std::span<double>(rx), kProbeTag);
      }
    }
    const double self = ms_since(t0) * 1e3 / 2000;
    if (root) {
      out.values["comm.p2p_small.us"] = small;
      out.values["comm.p2p_halo.us"] = halo;
      out.values["comm.p2p_halo.gbps"] = static_cast<double>(face * sizeof(double)) / (halo * 1e3);
      out.values["comm.self_send.us"] = self;
    }
  }
  comm.barrier();
}

void run_outside_probes(int ranks, SpanLog* spans, LadderResult& out) {
  out.values["executor.run_launch.us"] = 1e3 * time_calls(spans, "executor.run_launch", [&] {
    simrt::run(ranks, [](simrt::Communicator&) {});
  }, 100.0);

  for (int p : {2, 4}) {
    simrt::run(p, [&](simrt::Communicator& comm) {
      SpanLog* log = comm.rank() == 0 ? spans : nullptr;
      auto timed = [&](const char* span, int iters, const std::function<void()>& op) {
        comm.barrier();
        const auto t0 = Clock::now();
        {
          ScopedSpan s(log, span);
          for (int i = 0; i < iters; ++i) op();
        }
        return ms_since(t0) * 1e3 / iters;
      };
      const double allreduce = timed("coll.allreduce", 2000, [&] {
        if (comm.allreduce<double>(1.0, simrt::ReduceOp::Sum) != comm.size()) {
          throw std::runtime_error("allreduce probe: wrong sum");
        }
      });
      const double barrier = timed("coll.barrier", 2000, [&] { comm.barrier(); });
      double alltoallv = 0.0;
      if (p == 4) {
        // PARATEC's transpose shape: its complex grid split into P x P blocks.
        const std::size_t n = out.paratec_grid_n;
        const std::size_t block = 2 * n * n * n / 16;
        std::vector<std::vector<double>> boxes(4, std::vector<double>(block, 1.0));
        alltoallv = timed("coll.alltoallv", 200, [&] {
          if (comm.alltoallv(boxes)[0].size() != block) {
            throw std::runtime_error("alltoallv probe: wrong block");
          }
        }) / 1e3;
      }
      if (comm.rank() == 0) {
        const std::string suffix = ".p" + std::to_string(p) + ".us";
        out.values["coll.allreduce" + suffix] = allreduce;
        out.values["coll.barrier" + suffix] = barrier;
        if (p == 4) out.values["coll.alltoallv.ms"] = alltoallv;
      }
    });
  }

  // Sustainable bandwidth: STREAM triad over arrays each 4x the summed
  // last-level caches, one slice per core, five passes, median.
  const HostFingerprint host = host_fingerprint();
  const std::size_t elems = std::max<std::size_t>(host.llc_bytes, 8u << 20) * 4 / sizeof(double);
  std::vector<double> a(elems), b(elems), c(elems);
  const unsigned threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  auto sweep = [&](const std::function<void(std::size_t, std::size_t)>& body) {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back(body, elems * t / threads, elems * (t + 1) / threads);
    }
    for (auto& th : pool) th.join();
  };
  sweep([&](std::size_t lo, std::size_t hi) {  // first touch by the same slices
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  std::vector<double> gbps;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    {
      ScopedSpan s(spans, "mem.triad", pass);
      sweep([&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
      });
    }
    gbps.push_back(3.0 * sizeof(double) * static_cast<double>(elems) / (ms_since(t0) * 1e6));
  }
  if (a[elems / 2] != 7.0) throw std::runtime_error("triad probe: wrong result");
  out.values["mem.triad_gbps"] = median(gbps);
  out.values["mem.triad_array_mib"] = static_cast<double>(elems * sizeof(double)) / (1 << 20);
  out.values["mem.llc_mib"] = static_cast<double>(host.llc_bytes) / (1 << 20);
}

}  // namespace perfbench

namespace perfbench {

const std::vector<LayerMetricSpec>& layer_metric_specs() {
  static const std::vector<LayerMetricSpec> specs = [] {
    std::vector<LayerMetricSpec> v;
    for (const std::string k : {"lbmhd_collide", "lbmhd_stream", "cactus_rhs", "gtc_push",
                                "gtc_deposit", "fft_multi1d", "gemm", "qcd_dslash"}) {
      v.push_back({"kernel." + k + ".ms", "ms"});
      v.push_back({"kernel." + k + ".gflops", "GFLOP/s"});
      v.push_back({"kernel." + k + ".flop_per_byte", "flop/B"});
    }
    for (const std::string app : {"lbmhd", "cactus", "qcd"}) {
      v.push_back({"part.exchange." + app + ".ms", "ms"});
      v.push_back({"part.halo_bytes." + app, "B"});
      v.push_back({"part.self_bytes." + app, "B"});
      v.push_back({"part.messages." + app, "count"});
      v.push_back({"part.exchange_share." + app, "ratio"});
    }
    for (const char* app : kAppNames) {
      v.push_back({std::string("layer.unattributed_share.") + app, "ratio"});
    }
    const std::vector<LayerMetricSpec> rest = {
        {"kernel.paratec_apply.ms", "ms"},
        {"simd.vector_share", "ratio"},
        {"mem.triad_gbps", "GB/s"},
        {"comm.p2p_small.us", "us"},
        {"comm.p2p_halo.us", "us"},
        {"comm.p2p_halo.gbps", "GB/s"},
        {"comm.self_send.us", "us"},
        {"comm.messages_per_step", "count"},
        {"comm.bytes_per_step", "B"},
        {"arena.recycle_share", "ratio"},
        {"arena.allocs_per_step", "count"},
        {"coll.allreduce.p2.us", "us"},
        {"coll.allreduce.p4.us", "us"},
        {"coll.barrier.p2.us", "us"},
        {"coll.barrier.p4.us", "us"},
        {"coll.alltoallv.ms", "ms"},
        {"executor.run_launch.us", "us"},
        {"executor.parallel_for.us", "us"},
        {"executor.helper_chunk_share", "ratio"},
        {"service.submit.us", "us"},
        {"service.queue_ms_p50", "ms"},
        {"service.queue_ms_p99", "ms"},
        {"service.run_ms_p50", "ms"},
        {"service.reject_share", "ratio"},
        {"service.lateness_ms_p50", "ms"},
        {"service.lateness_ms_max", "ms"},
        {"trace.overhead", "ratio"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return specs;
}

void add_layer_metrics(const AppPhaseResult& apps, const JobPhaseResult& jobs,
                       const LadderResult& ladder, Report& report) {
  std::map<std::string, double> v = ladder.values;
  double traced = 0.0, untraced = 0.0;
  for (std::size_t a = 0; a < kNumApps; ++a) {
    const double step = median(apps.step_ms[a]);
    const std::string app = kAppNames[a];
    v["part.exchange_share." + app] = ladder.exchange_ms[a] / step;
    v["layer.unattributed_share." + app] =
        1.0 - (ladder.covered_ms[a] + ladder.exchange_ms[a]) / step;
    traced += median(apps.traced_step_ms[a]);
    untraced += step;
  }
  v["trace.overhead"] = traced / untraced;
  v["service.submit.us"] = median(jobs.submit_us);
  v["service.queue_ms_p50"] = median(jobs.queue_ms);
  const auto q99 = highest_tail_percentile(jobs.queue_ms);
  v["service.queue_ms_p99"] = q99 ? q99->value : 0.0;
  v["service.run_ms_p50"] = median(jobs.run_ms);
  v["service.reject_share"] =
      static_cast<double>(jobs.rejected) / static_cast<double>(std::max<std::size_t>(1, jobs.attempted));
  v["service.lateness_ms_p50"] = median(jobs.lateness_ms);
  v["service.lateness_ms_max"] =
      jobs.lateness_ms.empty() ? 0.0 : *std::max_element(jobs.lateness_ms.begin(), jobs.lateness_ms.end());

  report.detail("mem.triad_array_mib", json_number(v["mem.triad_array_mib"]));
  report.detail("mem.llc_mib", json_number(v["mem.llc_mib"]));
  for (const auto& spec : layer_metric_specs()) {
    const auto it = v.find(spec.name);
    if (it == v.end()) {
      throw std::logic_error(std::string("per-layer metric not measured: ") + spec.name);
    }
    report.add(spec.name, it->second, spec.unit);
  }
}

}  // namespace perfbench
