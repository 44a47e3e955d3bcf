"""Baseline [29] (Vanna-iampikul et al., VLSI 2024): PDN-aware flipping.

The work combines the criticality-driven clock flipping of [6] with a
back-side power delivery network: the PDN occupies most of the back-side
area, so the clock may only use a limited nTSV budget.  The reproduction
models exactly that constraint: end-points are flipped in decreasing
criticality order until the estimated nTSV budget is exhausted.
"""

from __future__ import annotations

from repro.baselines.backside import trunk_edges
from repro.baselines.timing_critical import TimingCriticalBacksideOptimizer
from repro.ir.design import KIND_BUFFER, DesignArrays


class PdnAwareBacksideOptimizer(TimingCriticalBacksideOptimizer):
    """[29]: criticality-driven flipping under a back-side nTSV budget."""

    flow_name = "vanna_iampikul_2024"

    def __init__(
        self,
        pdk,
        critical_fraction: float = 0.5,
        ntsv_budget: int = 200,
    ) -> None:
        super().__init__(pdk, critical_fraction=critical_fraction)
        if ntsv_budget < 0:
            raise ValueError("the nTSV budget must be non-negative")
        self.ntsv_budget = ntsv_budget

    def select_edges(self, design: DesignArrays) -> list[int]:
        critical = self._critical_endpoints(design)
        allowed = set(trunk_edges(design))
        selected: dict[int, None] = {}
        estimated_ntsvs = 0
        for endpoint in critical:
            path = [
                row
                for row in self._path_to_root(design, endpoint)
                if row in allowed and row not in selected
            ]
            # Rough per-path cost: one via pair where the path meets the
            # front-side root/leaf plus one via pair per buffer on the path.
            buffers_on_path = sum(1 for row in path if design.kind[row] == KIND_BUFFER)
            cost = 2 + 2 * buffers_on_path
            if estimated_ntsvs + cost > self.ntsv_budget and selected:
                break
            estimated_ntsvs += cost
            selected.update(dict.fromkeys(path))
        return list(selected)
