"""diffusionlab: numerics for the degenerate diffusion equation u_t = u^p Lap(u).

The package root exports nothing; import each name from its submodule, as in
`from diffusionlab.pde import evolve`.

Submodules:
    profiles    self-similar profile ODE, tail certification, evaluation
    steady      steady Dirichlet profiles on balls and their exact rescaling
    pde         regularized radial evolution, rescaled picture, comparisons
    rates       closed-form exponents, heat polynomials, decay fitting
    rk          Dormand-Prince 5(4) integrator, first-integral residual
    errors      exception types shared across the solvers
    experiments manifest-driven scenario runner, sweeps, reports
    cli         the `difflab` command line
"""
