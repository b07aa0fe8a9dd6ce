// The Zhang–Shasha ordered-tree-edit-distance dynamic program, shared by
// every alter-cost model of the distance layer: the memoized path of
// SessionDistance (distance/ted.cc) and the metric-core lower bound of the
// kNN index (index/vptree.cc). Callers parameterize the alter cost; the DP
// structure — and therefore the exact floating-point operation order — is
// identical across them, which is what makes cross-path bitwise-identity
// arguments possible (DESIGN.md §8, §11).
//
// Kernel layout (DESIGN.md §13). The recurrence is evaluated in a
// restructured, vectorization-friendly form that is bitwise identical to
// the textbook per-cell formulation:
//
//  * Alter-table precompute. The classic DP consults alter(pi, pj) exactly
//    once per node pair: a postorder position is anchored (leftmost equal
//    to the block's) in exactly one keyroot block of its tree, and the
//    alter cost is only evaluated on anchored (row, column) pairs. So the
//    full n x m table is filled up front — the same evaluations in
//    row-major instead of keyroot order — turning every inner-loop alter
//    read into a contiguous load instead of a hash lookup or gather.
//
//  * Two-pass row evaluation. min(del, ins, sub) carries a serial
//    dependency through `ins = fdrow[j-1] + indel`. Pass A computes
//    t_j = min(fdprev[j] + indel, sub_j) — independent per column, hence
//    vectorizable — and pass B applies the serial prefix scan
//    fdrow[j] = min(t_j, fdrow[j-1] + indel). Every floating-point
//    addition has the same operands as the per-cell form, and min over
//    non-NaN doubles is an exact comparison (no rounding), so regrouping
//    the three-way min cannot change the computed doubles.
//
//  * Anchored-block fast path. n-contexts are paths (session/ncontext.h),
//    so the common block has every column anchored and the recurrence
//    degenerates to the classic string-edit form with only contiguous
//    loads — the loop auto-vectorizes. The KernelEquivalence tests pin
//    the restructured kernel bitwise to the per-cell formulation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "distance/ted.h"

namespace ida::internal {

// The Zhang–Shasha dynamic program over two non-empty flattened trees,
// parameterized on the alter-cost functor alter(pi, pj) over postorder
// positions. Every scratch cell read is written earlier in the same call
// (keyroot order guarantees subtree distances are filled before they are
// consumed), so the reused workspace buffers are never cleared.
//
// Monotonicity note (the index relies on this): the result is built from
// the alter values exclusively through additions and mins, both of which
// are monotone non-decreasing per operand even in floating point, so a
// pointwise-smaller alter functor yields a smaller-or-equal result — not
// just mathematically but for the computed doubles.
template <typename AlterFn>
double ZhangShashaCompute(const FlatContext& ta, const FlatContext& tb,
                          double indel, TedWorkspace* ws,
                          const AlterFn& alter) {
  const size_t n = ta.size();
  const size_t m = tb.size();
  ws->Reserve(n, m);
  double* const treedist = ws->treedist();      // n x m, stride m
  double* const fd = ws->fd();                  // (n+1) x (m+1), stride m+1
  double* const alter_tab = ws->alter_table();  // n x m, stride m
  int32_t* const bleft = ws->bleft();           // m
  const size_t fstride = m + 1;
  const FlatContext::Node* an = ta.post.data();
  const FlatContext::Node* bn = tb.post.data();

  // Precompute phases (see the header comment): the full alter table —
  // identical evaluations to the lazy per-cell scheme, different order —
  // and a contiguous copy of tb's leftmost-leaf row.
  for (size_t i = 0; i < n; ++i) {
    double* row = alter_tab + i * m;
    for (size_t j = 0; j < m; ++j) {
      row[j] = alter(static_cast<int>(i), static_cast<int>(j));
    }
  }
  for (size_t j = 0; j < m; ++j) {
    bleft[j] = static_cast<int32_t>(bn[j].leftmost);
  }

  for (int ki : ta.keyroots) {
    const int li = an[ki].leftmost;
    const int ni = ki - li + 2;  // forest rows: positions li..ki plus empty
    for (int kj : tb.keyroots) {
      const int lj = bn[kj].leftmost;
      const int nj = kj - lj + 2;
      // jl[j - 1] is the leftmost leaf of column j's node; a column is
      // anchored iff it equals lj. When every column is (always true for
      // the path-shaped n-contexts), the anchored rows take the
      // gather-free string-edit fast path below.
      const int32_t* const jl = bleft + lj;
      bool all_anchored = true;
      for (int j = 1; j < nj; ++j) all_anchored &= jl[j - 1] == lj;
      fd[0] = 0.0;
      for (int i = 1; i < ni; ++i) {
        fd[static_cast<size_t>(i) * fstride] =
            fd[static_cast<size_t>(i - 1) * fstride] + indel;
      }
      for (int j = 1; j < nj; ++j) {
        fd[static_cast<size_t>(j)] = fd[static_cast<size_t>(j - 1)] + indel;
      }
      for (int i = 1; i < ni; ++i) {
        const int pi = li + i - 1;       // postorder position in a
        const int fi = an[pi].leftmost - li;  // 0 <=> this row is anchored
        double* const fdrow = fd + static_cast<size_t>(i) * fstride;
        const double* const fdprev = fdrow - fstride;
        double* const trow = treedist + static_cast<size_t>(pi) * m;
        const double* const arow = alter_tab + static_cast<size_t>(pi) * m + lj;
        const double* const fdfi = fd + static_cast<size_t>(fi) * fstride;

        // Pass A: per-column candidate min(del, sub) — no serial
        // dependency, every row it reads (fdprev, fdfi with fi < i, and
        // treedist cells finalized by earlier blocks) is already final.
        if (fi == 0 && all_anchored) {
          for (int j = 1; j < nj; ++j) {
            fdrow[j] =
                std::min(fdprev[j] + indel, fdprev[j - 1] + arow[j - 1]);
          }
        } else if (fi == 0) {
          for (int j = 1; j < nj; ++j) {
            const int bl = jl[j - 1];
            const double sub =
                bl == lj ? fdprev[j - 1] + arow[j - 1]
                         : fdfi[bl - lj] + trow[lj + j - 1];
            fdrow[j] = std::min(fdprev[j] + indel, sub);
          }
        } else {
          for (int j = 1; j < nj; ++j) {
            fdrow[j] = std::min(fdprev[j] + indel,
                                fdfi[jl[j - 1] - lj] + trow[lj + j - 1]);
          }
        }

        // Pass B: the serial insert-prefix scan, plus the tree-distance
        // writes for anchored (row, column) cells. Write columns (anchored)
        // and pass-A read columns of trow (non-anchored) are disjoint, so
        // the two passes see exactly the per-cell formulation's values.
        if (fi == 0 && all_anchored) {
          for (int j = 1; j < nj; ++j) {
            const double best = std::min(fdrow[j], fdrow[j - 1] + indel);
            fdrow[j] = best;
            trow[lj + j - 1] = best;
          }
        } else if (fi == 0) {
          for (int j = 1; j < nj; ++j) {
            const double best = std::min(fdrow[j], fdrow[j - 1] + indel);
            fdrow[j] = best;
            if (jl[j - 1] == lj) trow[lj + j - 1] = best;
          }
        } else {
          for (int j = 1; j < nj; ++j) {
            fdrow[j] = std::min(fdrow[j], fdrow[j - 1] + indel);
          }
        }
      }
    }
  }
  return treedist[(n - 1) * m + (m - 1)];
}

}  // namespace ida::internal
