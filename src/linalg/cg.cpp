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

const char* PreconditionerName(PreconditionerKind kind) {
  switch (kind) {
    case PreconditionerKind::kJacobi: return "jacobi";
    case PreconditionerKind::kIc0: return "ic0";
    case PreconditionerKind::kMultigrid: return "multigrid";
  }
  return "unknown";
}

bool CgPreconditioner::BuildIc0(const CsrMatrix& a, double shift) {
  const std::int32_t n = a.Dim();
  ic_row_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  ic_col_.clear();
  ic_vals_.clear();

  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& vals = a.values();

  // Copy the lower triangle (diagonal included, shifted) into the factor's
  // storage; the factorization then runs in place.
  for (std::int32_t i = 0; i < n; ++i) {
    bool saw_diag = false;
    for (std::int32_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int32_t c = col_idx[static_cast<std::size_t>(k)];
      if (c > i) break;  // columns are sorted within a row
      double v = vals[static_cast<std::size_t>(k)];
      if (c == i) {
        if (v <= 0.0) return false;  // not SPD-ish; caller falls back
        v *= 1.0 + shift;
        saw_diag = true;
      }
      ic_col_.push_back(c);
      ic_vals_.push_back(v);
    }
    if (!saw_diag) return false;  // structurally missing diagonal
    ic_row_ptr_[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int32_t>(ic_col_.size());
  }

  // Left-looking row factorization. For each entry (i, k):
  //   l_ik = (a_ik - <L_i, L_k>_{cols < k}) / l_kk        (k < i)
  //   l_ii = sqrt(a_ii - <L_i, L_i>_{cols < i})
  // The sparse dots merge two column-sorted row prefixes with two pointers.
  for (std::int32_t i = 0; i < n; ++i) {
    const std::int32_t row_lo = ic_row_ptr_[static_cast<std::size_t>(i)];
    const std::int32_t row_hi = ic_row_ptr_[static_cast<std::size_t>(i) + 1];
    for (std::int32_t ik = row_lo; ik < row_hi; ++ik) {
      const std::int32_t k = ic_col_[static_cast<std::size_t>(ik)];
      if (k < i) {
        const std::int32_t krow_lo = ic_row_ptr_[static_cast<std::size_t>(k)];
        const std::int32_t krow_hi =
            ic_row_ptr_[static_cast<std::size_t>(k) + 1];
        double dot = 0.0;
        std::int32_t p = row_lo, q = krow_lo;
        while (p < ik && q < krow_hi - 1) {  // krow's last entry is l_kk
          const std::int32_t cp = ic_col_[static_cast<std::size_t>(p)];
          const std::int32_t cq = ic_col_[static_cast<std::size_t>(q)];
          if (cp == cq) {
            dot += ic_vals_[static_cast<std::size_t>(p)] *
                   ic_vals_[static_cast<std::size_t>(q)];
            ++p;
            ++q;
          } else if (cp < cq) {
            ++p;
          } else {
            ++q;
          }
        }
        const double l_kk = ic_vals_[static_cast<std::size_t>(krow_hi - 1)];
        ic_vals_[static_cast<std::size_t>(ik)] =
            (ic_vals_[static_cast<std::size_t>(ik)] - dot) / l_kk;
      } else {  // k == i: the diagonal closes the row
        double sq = 0.0;
        for (std::int32_t p = row_lo; p < ik; ++p) {
          const double v = ic_vals_[static_cast<std::size_t>(p)];
          sq += v * v;
        }
        const double d = ic_vals_[static_cast<std::size_t>(ik)] - sq;
        if (!(d > 0.0)) return false;  // breakdown: retry with larger shift
        ic_vals_[static_cast<std::size_t>(ik)] = std::sqrt(d);
      }
    }
  }

  // Transpose (CSR of L^T) for the backward substitution, plus the hoisted
  // reciprocal diagonal.
  icT_row_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  icT_col_.assign(ic_col_.size(), 0);
  icT_vals_.assign(ic_vals_.size(), 0.0);
  for (const std::int32_t c : ic_col_) {
    icT_row_ptr_[static_cast<std::size_t>(c) + 1] += 1;
  }
  for (std::int32_t r = 0; r < n; ++r) {
    icT_row_ptr_[static_cast<std::size_t>(r) + 1] +=
        icT_row_ptr_[static_cast<std::size_t>(r)];
  }
  std::vector<std::int32_t> fill(icT_row_ptr_.begin(), icT_row_ptr_.end() - 1);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t k = ic_row_ptr_[static_cast<std::size_t>(i)];
         k < ic_row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int32_t c = ic_col_[static_cast<std::size_t>(k)];
      const std::int32_t slot = fill[static_cast<std::size_t>(c)]++;
      icT_col_[static_cast<std::size_t>(slot)] = i;
      icT_vals_[static_cast<std::size_t>(slot)] =
          ic_vals_[static_cast<std::size_t>(k)];
    }
  }
  ic_inv_diag_.resize(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    ic_inv_diag_[static_cast<std::size_t>(i)] =
        1.0 / ic_vals_[static_cast<std::size_t>(
                  ic_row_ptr_[static_cast<std::size_t>(i) + 1] - 1)];
  }
  ic_shift_ = shift;
  return true;
}

CgPreconditioner CgPreconditioner::BuildMultigrid(
    std::shared_ptr<const MultigridHierarchy> hierarchy) {
  assert(hierarchy != nullptr && !hierarchy->empty());
  CgPreconditioner p;
  p.kind_ = PreconditionerKind::kMultigrid;
  p.mg_ = std::move(hierarchy);
  return p;
}

CgPreconditioner CgPreconditioner::Build(const CsrMatrix& a,
                                         PreconditionerKind kind) {
  CgPreconditioner p;
  p.kind_ = kind;
  if (kind == PreconditionerKind::kMultigrid) {
    // No grid information here — a hierarchy cannot be built from the bare
    // matrix. Degrade to Jacobi (callers that want multigrid go through
    // BuildMultigrid with a prebuilt hierarchy, e.g. thermal::FeaAssembly).
    obs::MetricAdd("cg/mg_fallbacks", 1);
    p.kind_ = PreconditionerKind::kJacobi;
    kind = PreconditionerKind::kJacobi;
  }
  if (kind == PreconditionerKind::kIc0) {
    // Diagonal-shift restart: IC(0) can break down on matrices that are SPD
    // but not diagonally dominant. Each failure retries with a 10x larger
    // relative shift; the FEA matrices factor cleanly at shift 0.
    for (double shift = 0.0; shift <= 1.0e4;
         shift = (shift == 0.0 ? 1e-3 : shift * 10.0)) {
      if (p.BuildIc0(a, shift)) {
        obs::MetricAdd("cg/ic0_builds", 1);
        if (shift > 0.0) obs::MetricAdd("cg/ic0_shift_restarts", 1);
        return p;
      }
    }
    // Pathological matrix: degrade to Jacobi rather than failing the solve.
    p.ic_row_ptr_.clear();
    p.ic_col_.clear();
    p.ic_vals_.clear();
    p.kind_ = PreconditionerKind::kJacobi;
  }
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
  z->resize(n);
  if (kind_ == PreconditionerKind::kJacobi) {
    assert(inv_diag_.size() == n);
    for (std::size_t i = 0; i < n; ++i) (*z)[i] = inv_diag_[i] * r[i];
    return;
  }
  // Forward substitution L y = r (y lives in *z), rows ascending; each row's
  // last stored entry is its diagonal.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = r[i];
    const std::int32_t lo = ic_row_ptr_[i];
    const std::int32_t hi = ic_row_ptr_[i + 1] - 1;
    for (std::int32_t k = lo; k < hi; ++k) {
      acc -= ic_vals_[static_cast<std::size_t>(k)] *
             (*z)[static_cast<std::size_t>(ic_col_[static_cast<std::size_t>(k)])];
    }
    (*z)[i] = acc * ic_inv_diag_[i];
  }
  // Backward substitution L^T z = y, rows descending; row i of L^T holds
  // columns >= i with the diagonal first.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = (*z)[ii];
    const std::int32_t lo = icT_row_ptr_[ii] + 1;  // skip the diagonal
    const std::int32_t hi = icT_row_ptr_[ii + 1];
    for (std::int32_t k = lo; k < hi; ++k) {
      acc -= icT_vals_[static_cast<std::size_t>(k)] *
             (*z)[static_cast<std::size_t>(icT_col_[static_cast<std::size_t>(k)])];
    }
    (*z)[ii] = acc * ic_inv_diag_[ii];
  }
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
    obs::MetricSet("cg/last_rel_residual", res.residual_norm);
  };

  CgResult result;
  const double bnorm = Norm(pool, b);
  if (bnorm == 0.0) {
    x->assign(n, 0.0);
    result.converged = true;
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
      result.residual_norm = rnorm0 / bnorm;
      record(result);
      return result;
    }
  }
  precond.Apply(r, &z, pool);
  p = z;
  double rz = Dot(pool, r, z);

  for (int it = 0; it < options.max_iters && rz > 0.0; ++it) {
    a.Multiply(p, &ap, pool);
    const double pap = Dot(pool, p, ap);
    if (pap <= 0.0) break;  // matrix not SPD or breakdown
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
      result.residual_norm = rnorm / bnorm;
      record(result);
      return result;
    }
    precond.Apply(r, &z, pool);
    const double rz_new = Dot(pool, r, z);
    // A non-positive r'z means the preconditioner lost positive definiteness
    // (numerically); stop rather than diverge on a negative beta.
    if (!(rz_new > 0.0)) break;
    const double beta = rz_new / rz;
    rz = rz_new;
    runtime::ParallelFor(pool, 0, ni, kAxpyGrain, [&](std::int64_t i) {
      const std::size_t u = static_cast<std::size_t>(i);
      p[u] = z[u] + beta * p[u];
    });
  }
  result.residual_norm = Norm(pool, r) / bnorm;
  result.converged = result.residual_norm < options.rel_tolerance;
  record(result);
  return result;
}

}  // namespace

CgResult SolveCg(const CsrMatrix& a, const std::vector<double>& b,
                 std::vector<double>* x, const CgOptions& options) {
  const CgPreconditioner precond =
      CgPreconditioner::Build(a, options.preconditioner);
  return SolveImpl(a, precond, b, x, options);
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
