"""Entropy optimality: the randomness is recoverable from the output.

Each box of the encoded shape consumes exactly one geometric value or one
bit; inverting the local rules box by box (outer corners inward) returns the
full draw log, so no entropy is wasted and the sampler is exactly invertible.
The same holds for symmetric (free-boundary) samples, whose diagonal boxes
invert the one-sided reflection rules.
"""
from schursample import RandomSource, parse_word, reconstruct_inputs, schur_sample
from schursample.symmetric import reconstruct_symmetric_inputs, symmetric_schur_sample
from schursample.words import precompute_par

word = parse_word("<<'><>'<>>'")
z = tuple(0.5 for _ in word)
src = RandomSource(4, log_draws=True)
sample = schur_sample(word, z, src)
plan = precompute_par(word, z)

print(f"word {''.join(s.value for s in word)}, encoded shape {plan.pi}")
print("output sequence:")
for k, lam in enumerate(sample.lambdas):
    print(f"  lambda({k}) = {lam}")

recovered = reconstruct_inputs(sample)
print("\nper-box inputs drawn (row-major) vs recovered from the output alone:")
for (box, entry) in zip(plan.boxes(), src.draw_log):
    kind, param, value = entry
    i, j = box
    mark = "ok" if recovered[box] == value else "MISMATCH"
    print(f"  box {box} {plan.row_kinds[j - 1][i - 1]} {kind}({param:.3f}) = {value}  -> {recovered[box]} {mark}")

assert all(recovered[b] == v for b, (_, _, v) in zip(plan.boxes(), src.draw_log))
print(f"\nledger: {src.ledger.geometric_draws} geometric draws + "
      f"{src.ledger.bernoulli_draws} bits = {src.ledger.total} boxes")

print("\nsymmetric samples of <'<><' (t = 0.9): draws recovered from the output alone")
for mode in ("free", "even_rows", "even_columns"):
    src = RandomSource(4, log_draws=True)
    sym = symmetric_schur_sample(parse_word("<'<><'"), (0.7, 0.6, 0.8, 0.5), 0.9, mode, src)
    drawn = [value for _, _, value in src.draw_log]
    recovered = reconstruct_symmetric_inputs(sym)
    assert recovered == drawn
    print(f"  {mode:12s} free partition {sym.free_partition}, {len(drawn)} draws {drawn} ok")
