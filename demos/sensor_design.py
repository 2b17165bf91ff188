"""Design a sensor for a target error budget and inspect the result.

One call to design_sensor runs the whole pipeline: solve the trade-off
program at budget D, reconstruct a concrete observation gain C from the
optimal covariance, then certify the pair by resolving the algebraic
Riccati equation along an independent route.  The script unpacks each
stage for the canonical scalar source, where the optimum is known by
hand: at D = 0.25 the best gain is C = 2*sqrt(2) and the rate is 1 nat
per unit time.
"""

import numpy as np

from immse import (
    SystemModel,
    care_residual,
    design_sensor,
    rates_from_P,
    solve_care,
)


def main() -> None:
    model = SystemModel(A=np.array([[-1.0]]), B=np.array([[1.0]]))
    D = 0.25

    point = design_sensor(model, D)
    print(f"budget D = {D}")
    print(f"designed gain C       = {point.C.C[0, 0]:.10f}   (2*sqrt(2) = {2 * np.sqrt(2):.10f})")
    print(f"rate R(D)             = {point.R:.10f}   nats per unit time")
    print(f"stationary covariance = {point.P[0, 0]:.10f}")
    print(f"duality gap cert      = {point.gap:.2e}")
    print(f"Riccati residual      = {point.are_residual:.2e}")

    # Re-derive the stationary covariance from the designed gain alone.
    care = solve_care(model, point.C)
    info, mmse = rates_from_P(care.P, point.C)
    print()
    print("independent re-solve from the gain:")
    print(f"  trace P   = {np.trace(care.P):.10f}  (budget was {D})")
    print(f"  info rate = {info:.10f}  (matches R(D) above)")
    print(f"  mmse rate = {mmse:.10f}")
    print(f"  residual  = {care_residual(model, point.C, care.P):.2e}")
    eigs = np.linalg.eigvals(model.A - care.P @ point.C.C.T @ point.C.C)
    print(f"  closed-loop spectrum = {np.sort_complex(eigs)}")

    # Tighter budgets demand stronger sensing.
    print()
    print("sensing effort grows as the budget shrinks:")
    for budget in (1.0, 0.5, 0.25, 0.1):
        p = design_sensor(model, budget)
        effort = float(np.linalg.eigvalsh(p.C.C.T @ p.C.C).max())
        print(f"  D = {budget:5.2f}:  R = {p.R:9.5f},  max eig(C^T C) = {effort:9.4f}")


if __name__ == "__main__":
    main()
