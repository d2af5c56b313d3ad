"""The closed-case anti-diagonal sum and tail bound of the pyramidal
truncation table as they were first written, through ``ParamSeq`` calls,
for the test that pins ``PyramidalSampler``'s plain-float pass to them."""
import math

from schursample.unbounded import PyramidalSampler


class ReferenceSampler(PyramidalSampler):
    """A PyramidalSampler that builds its closed-case table from the
    reference term and bound below."""

    def _closed_sums(self):
        a, b, conv = self.params.a, self.params.b, self.conv

        def term(s):
            """sum of log(1 - c) over the boxes with i + j = s."""
            x = a[0] * b[s]
            if x < 1:
                per_parity = (s // 2 + 1, (s + 1) // 2)  # boxes with j even, j odd
                plus = sum(n for j, n in enumerate(per_parity) if conv.epsilon(s - j, j) == 1)
                return (s + 1 - plus) * math.log1p(-x) - plus * math.log1p(x)
            return self._diag_sum(s)  # box by box, which names the first divergent box

        def bound(s):
            """Upper bound on -sum log(1 - c) over the boxes with i + j >= s."""
            m = (s + 1) // 2  # every such box has i >= m or j >= m
            cmax = max(a.sup(m) * b.sup(0), a.sup(0) * b.sup(m))
            if cmax >= 1:
                return math.inf
            r = a.ratio
            mass = a[0] * b[s] * ((s + 1) / (1 - r) + r / (1 - r) ** 2)
            return mass / (1 - cmax)

        return term, bound
