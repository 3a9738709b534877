#include "linalg/cg.h"

#include <cassert>
#include <cmath>
#include <utility>

#include "linalg/multigrid.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace p3d::linalg {
namespace {

// Fixed reduction/element-wise chunk sizes. Determinism requires these to be
// constants (chunk boundaries must not depend on the thread count); the
// values amortize dispatch over a few thousand fused multiply-adds.
constexpr std::int64_t kDotGrain = 2048;
constexpr std::int64_t kAxpyGrain = 4096;

/// Deterministic parallel dot product: per-chunk partials accumulate
/// serially, then combine in chunk order — bit-identical for any thread
/// count, including the serial path.
double Dot(runtime::ThreadPool* pool, const std::vector<double>& a,
           const std::vector<double>& b) {
  return runtime::ParallelReduce(
      pool, 0, static_cast<std::int64_t>(a.size()), kDotGrain, 0.0,
      [&](std::int64_t lo, std::int64_t hi) {
        double acc = 0.0;
        for (std::int64_t i = lo; i < hi; ++i) {
          acc += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
        }
        return acc;
      },
      [](double acc, double partial) { return acc + partial; });
}

double Norm(runtime::ThreadPool* pool, const std::vector<double>& a) {
  return std::sqrt(Dot(pool, a, a));
}

}  // namespace

const char* CgStopName(CgStop stop) {
  switch (stop) {
    case CgStop::kConverged: return "converged";
    case CgStop::kCap: return "cap";
    case CgStop::kBreakdown: return "breakdown";
  }
  return "unknown";
}

CgPreconditioner CgPreconditioner::BuildMultigrid(
    std::shared_ptr<const MultigridHierarchy> hierarchy) {
  assert(hierarchy != nullptr && !hierarchy->empty());
  CgPreconditioner p;
  p.kind_ = PreconditionerKind::kMultigrid;
  p.mg_ = std::move(hierarchy);
  return p;
}

CgPreconditioner CgPreconditioner::Build(const CsrMatrix& a) {
  CgPreconditioner p;
  p.inv_diag_ = a.Diagonal();
  for (double& d : p.inv_diag_) d = (d != 0.0) ? 1.0 / d : 1.0;
  return p;
}

void CgPreconditioner::Apply(const std::vector<double>& r,
                             std::vector<double>* z,
                             runtime::ThreadPool* pool) const {
  if (kind_ == PreconditionerKind::kMultigrid) {
    assert(mg_ != nullptr);
    mg_->PrecondApply(r, z, pool);
    return;
  }
  const std::size_t n = r.size();
  assert(inv_diag_.size() == n);
  z->resize(n);
  for (std::size_t i = 0; i < n; ++i) (*z)[i] = inv_diag_[i] * r[i];
}

namespace {

CgResult SolveImpl(const CsrMatrix& a, const CgPreconditioner& precond,
                   const std::vector<double>& b, std::vector<double>* x,
                   const CgOptions& options) {
  const std::size_t n = static_cast<std::size_t>(a.Dim());
  assert(b.size() == n);
  if (x->size() != n) x->assign(n, 0.0);
  runtime::ThreadPool* pool = runtime::SharedPool(options.threads);

  obs::TraceScope trace_solve("cg.solve");
  // Iteration counts and residuals are deterministic for any thread count
  // (the reductions above combine partials in chunk order), so recording
  // them is safe under the registry's determinism contract.
  const auto record = [](const CgResult& res) {
    obs::MetricAdd("cg/solves", 1);
    obs::MetricAdd("cg/iters", res.iters);
    obs::MetricObserve("cg/iters_per_solve", res.iters);
    if (!res.converged) obs::MetricAdd("cg/unconverged", 1);
    if (res.stop == CgStop::kCap) obs::MetricAdd("cg/stop_cap", 1);
    if (res.stop == CgStop::kBreakdown) {
      obs::MetricAdd("cg/stop_breakdown", 1);
    }
    obs::MetricSet("cg/last_rel_residual", res.residual_norm);
  };

  CgResult result;
  const double bnorm = Norm(pool, b);
  if (bnorm == 0.0) {
    x->assign(n, 0.0);
    result.converged = true;
    result.stop = CgStop::kConverged;
    record(result);
    return result;
  }

  const std::int64_t ni = static_cast<std::int64_t>(n);
  std::vector<double> r(n), z(n), p(n), ap(n);
  a.Multiply(*x, &ap, pool);
  runtime::ParallelFor(pool, 0, ni, kAxpyGrain, [&](std::int64_t i) {
    const std::size_t u = static_cast<std::size_t>(i);
    r[u] = b[u] - ap[u];
  });
  // Warm-started iterates can already satisfy the tolerance; bail before the
  // first SpMV so cache hits on a quiescent placement cost one residual.
  {
    const double rnorm0 = Norm(pool, r);
    if (rnorm0 / bnorm < options.rel_tolerance) {
      result.converged = true;
      result.stop = CgStop::kConverged;
      result.residual_norm = rnorm0 / bnorm;
      record(result);
      return result;
    }
  }
  precond.Apply(r, &z, pool);
  p = z;
  double rz = Dot(pool, r, z);

  // A non-positive r'z means the preconditioner lost positive definiteness
  // (numerically), a non-positive p'Ap the matrix: stop rather than divide
  // by it or diverge on a negative step.
  bool breakdown = !(rz > 0.0);
  for (int it = 0; it < options.max_iters && !breakdown; ++it) {
    a.Multiply(p, &ap, pool);
    const double pap = Dot(pool, p, ap);
    if (pap <= 0.0) {
      breakdown = true;
      break;
    }
    const double alpha = rz / pap;
    runtime::ParallelFor(pool, 0, ni, kAxpyGrain, [&](std::int64_t i) {
      const std::size_t u = static_cast<std::size_t>(i);
      (*x)[u] += alpha * p[u];
      r[u] -= alpha * ap[u];
    });
    result.iters = it + 1;
    const double rnorm = Norm(pool, r);
    if (rnorm / bnorm < options.rel_tolerance) {
      result.converged = true;
      result.stop = CgStop::kConverged;
      result.residual_norm = rnorm / bnorm;
      record(result);
      return result;
    }
    precond.Apply(r, &z, pool);
    const double rz_new = Dot(pool, r, z);
    if (!(rz_new > 0.0)) {
      breakdown = true;
      break;
    }
    const double beta = rz_new / rz;
    rz = rz_new;
    runtime::ParallelFor(pool, 0, ni, kAxpyGrain, [&](std::int64_t i) {
      const std::size_t u = static_cast<std::size_t>(i);
      p[u] = z[u] + beta * p[u];
    });
  }
  result.residual_norm = Norm(pool, r) / bnorm;
  result.converged = result.residual_norm < options.rel_tolerance;
  result.stop = result.converged ? CgStop::kConverged
                : breakdown      ? CgStop::kBreakdown
                                 : CgStop::kCap;
  record(result);
  return result;
}

}  // namespace

CgResult SolveCg(const CsrMatrix& a, const std::vector<double>& b,
                 std::vector<double>* x, const CgOptions& options) {
  return SolveImpl(a, CgPreconditioner::Build(a), b, x, options);
}

CgResult SolveCgPreconditioned(const CsrMatrix& a,
                               const CgPreconditioner& precond,
                               const std::vector<double>& b,
                               std::vector<double>* x,
                               const CgOptions& options) {
  assert(!precond.empty());
  return SolveImpl(a, precond, b, x, options);
}

}  // namespace p3d::linalg
