//===-- analysis/Dataflow.h - Monotone dataflow framework -------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic monotone dataflow framework over `analysis::CFG`: a worklist
/// solver parameterised by a problem type providing a join-semilattice of
/// states and a per-node transfer function. Problems flow forward, from the
/// entry along successor edges. The solver is deterministic: the worklist is an
/// ordered set of node ids, so the iteration order — and therefore any
/// observable side effect of the transfer functions — depends only on the
/// graph, never on timing.
///
/// A problem type `P` must provide:
///
///   using State = ...;                 // copyable lattice element
///   State boundary(const CFG &G);      // initial state at entry
///   State bottom(const CFG &G);        // least element
///   // Joins Src into Dst; returns true iff Dst changed.
///   bool join(State &Dst, const State &Src);
///   // Computes the post-state of node Id from its pre-state.
///   State transfer(const CFG &G, unsigned Id, const State &In);
///
/// Termination is the problem's obligation: transfer must be monotone and
/// the lattice must have finite height (all in-tree problems use maps into
/// finite level sets, which do).
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_ANALYSIS_DATAFLOW_H
#define COMMCSL_ANALYSIS_DATAFLOW_H

#include "analysis/CFG.h"

#include <set>
#include <vector>

namespace commcsl {

/// Fixpoint result: one pre- and one post-state per node, indexed by node
/// id.
template <typename P> struct DataflowResult {
  std::vector<typename P::State> In;
  std::vector<typename P::State> Out;
};

/// Runs \p Problem over \p G to fixpoint and returns the per-node states.
template <typename P>
DataflowResult<P> solveDataflow(const CFG &G, P &Problem) {
  const unsigned N = G.size();
  DataflowResult<P> R;
  R.In.assign(N, Problem.bottom(G));
  R.Out.assign(N, Problem.bottom(G));

  const unsigned Boundary = G.entry();
  R.In[Boundary] = Problem.boundary(G);

  // Ordered worklist: lowest node id first. Node ids are assigned in
  // syntactic order, which approximates reverse post-order, and the
  // ordering makes every run identical.
  std::set<unsigned> Worklist;
  for (unsigned I = 0; I < N; ++I)
    Worklist.insert(I);

  while (!Worklist.empty()) {
    unsigned Id = *Worklist.begin();
    Worklist.erase(Worklist.begin());

    if (Id != Boundary) {
      typename P::State In = Problem.bottom(G);
      for (unsigned Pr : G.node(Id).Preds)
        Problem.join(In, R.Out[Pr]);
      R.In[Id] = std::move(In);
    }

    typename P::State Out = Problem.transfer(G, Id, R.In[Id]);
    if (Problem.join(R.Out[Id], Out)) {
      for (unsigned S : G.node(Id).Succs)
        Worklist.insert(S);
    }
  }
  return R;
}

} // namespace commcsl

#endif // COMMCSL_ANALYSIS_DATAFLOW_H
