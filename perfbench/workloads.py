"""The three benchmark workloads: inputs, first-use builds, timed body, checks.

Every call into the library goes through a module attribute looked up at call
time (``cli.cli_main``, ``bloch.bloch_encode``, ...), so the tracing shim in
``tracer.py`` sees it once installed. Output checks never run inside a timed
interval; they use plain numpy rather than the library where they can, so a
defect in a library helper cannot hide itself.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os

import numpy as np

from quditbloch import bases, bloch, cli, entanglement, gilbert, states

HERE = os.path.dirname(os.path.abspath(__file__))

# Tolerances of the output checks.
TOL_CERT = 1e-12        # reported D against ||rho - rho0||
TOL_STATE = 1e-9        # PSD / PPT eigenvalue slack, as the library's TOL_PSD
TOL_TRACE = 1e-10
TOL_ORACLE_LOW = 1e-6   # acceptance criterion 09: oracle within
TOL_ORACLE_HIGH = 1e-3  # [closed - 1e-6, closed + 1e-3]
TOL_ROUND_TRIP = 1e-10
TOL_GRAM = 1e-12
TOL_ISO = 1e-12         # isotropic closed form
TOL_DB = 1e-10          # D = B


class Tally:
    """Output checks made and failed; failures are kept with a message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


def _hermitian_min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0])


def _partial_transpose_b(mat: np.ndarray, d: int) -> np.ndarray:
    return mat.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)


def _check_certificate(tally: Tally, what: str, rho: np.ndarray, rho0: np.ndarray,
                       distance: float) -> None:
    """rho0 is a state with positive partial transpose at distance D from rho."""
    d = int(round(np.sqrt(rho.shape[0])))
    tally.check(abs(np.trace(rho0) - 1.0) <= TOL_TRACE, f"{what}: rho0 trace is not 1")
    tally.check(_hermitian_min_eig(rho0) >= -TOL_STATE, f"{what}: rho0 is not PSD")
    tally.check(_hermitian_min_eig(_partial_transpose_b(rho0, d)) >= -TOL_STATE,
                f"{what}: rho0 is not PPT")
    gap = abs(distance - float(np.linalg.norm(rho - rho0)))
    tally.check(gap <= TOL_CERT, f"{what}: D differs from ||rho - rho0|| by {gap:.3e}")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class Sweep:
    """Both parameter planes at the demo grid sizes, CSV through ``cli_main``.

    The grid is the traffic, so the seed is ignored. The CSV bytes are a
    contract: their sha256 at the benchmark's defining commit is in
    ``golden.json``.
    """

    name = "sweep"
    bypass = {"gilbert.seesaw_calls": 0, "gilbert.oracle_calls": 0, "cg.calls": 0}
    GRIDS = {
        False: (("qubit2p", (-1.3, 1.3, 105), (-2.2, 1.3, 141)),
                ("qutrit2p", (-0.4, 1.1, 121), (-0.6, 1.2, 145))),
        True: (("qubit2p", (-1.3, 1.3, 7), (-2.2, 1.3, 9)),
               ("qutrit2p", (-0.4, 1.1, 9), (-0.6, 1.2, 11))),
    }

    def __init__(self, seed: int, tiny: bool = False):
        self.grids = self.GRIDS[tiny]
        self.points = sum(a[2] * b[2] for _, a, b in self.grids)

    @staticmethod
    def grid_key(family, a, b) -> str:
        return f"{family} {a[2]}x{b[2]}"

    def setup(self) -> None:
        bases.get_basis("wob", 3)      # Weyl Bell projectors and U1/U2

    def make_inputs(self) -> None:
        pass

    def check_setup(self, tally: Tally) -> None:
        pass

    def steps(self, workdir: str) -> list:
        def plane(family, a, b):
            path = os.path.join(workdir, f"{family}.csv")
            rc = cli.cli_main(["sweep", "--family", family,
                               "--alpha", *map(repr, a), "--beta", *map(repr, b),
                               "--format", "csv", "--out", path])
            return self.grid_key(family, a, b), rc, path
        return [functools.partial(plane, *grid) for grid in self.grids]

    def check(self, out, tally: Tally, quality: dict) -> None:
        with open(os.path.join(HERE, "golden.json")) as fh:
            golden = json.load(fh)["sweep_csv_sha256"]
        for key, rc, path in out:
            tally.check(rc == 0, f"sweep {key}: exit code {rc}")
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            tally.check(digest == golden.get(key), f"sweep {key}: CSV sha256 {digest}")


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

# Closed-form D of each entangled region of the two planes (the paper's
# nearest-separable-point results, as in entanglement.hs_measure_*_plane).
_PLANE_D = {
    ("qubit2p", "I"): lambda a, b: np.sqrt(3) / 2 * (a - 1 / 3 - b / 3),
    ("qubit2p", "II"): lambda a, b: (-a - 1 - b) / (2 * np.sqrt(3)),
    ("qutrit2p", "I"): lambda a, b: 2 * np.sqrt(2) / 3 * (a - 1 / 4 - b / 8),
    ("qutrit2p", "II"): lambda a, b: (-4 * a - 2 + 5 * b) / (6 * np.sqrt(2)),
}
_PLANE = {
    "qubit2p": (entanglement.classify_qubit_plane, ((-1.0, 1.0), (-2.0, 1.0))),
    "qutrit2p": (entanglement.classify_qutrit_plane, ((-1 / 6, 1.0), (-1 / 3, 1.0))),
}


def _plane_points(rng, family: str, n: int, d_min: float, candidates: int) -> list:
    """n uniform points of each entangled region of a plane with D >= d_min.

    A fixed number of candidates is drawn from the bounding box of the
    plane's physical triangle and each is classified, so the cost does not
    depend on the seed. The rarest target, qutrit Region II with D >= 0.2,
    holds about 1.3% of the box.
    """
    classify, box = _PLANE[family]
    alphas, betas = (rng.uniform(*lim, size=candidates) for lim in box)
    found = {"I": [], "II": []}
    for alpha, beta in zip(alphas.tolist(), betas.tolist()):
        region = classify(alpha, beta).value.partition("Region")[2]
        if region in found and _PLANE_D[family, region](alpha, beta) >= d_min:
            found[region].append((alpha, beta))
    if min(map(len, found.values())) < n:
        raise RuntimeError(f"{family}: fewer than {n} points with D >= {d_min} "
                           f"among {candidates} candidates")
    return found["I"][:n] + found["II"][:n]


class Oracle:
    """``measure --oracle`` on seed-drawn entangled points, plus the oracle
    called directly on sampled separable states, which the CLI cannot take.

    The parameter ranges keep the seed-to-seed spread of the Frank-Wolfe
    work within the wall_s bound. Low-alpha isotropic points at d=2 and d=3
    converge in either ~5 or ~200 iterations depending on the seed, and
    plane points with D < 0.2 take up to three times the seesaw work of the
    rest, so both are left out. The separable inputs, whose seesaw work
    varies fourfold between seeds, stop after SEPARABLE_ITERATIONS
    Frank-Wolfe steps (reported through gilbert.converged_frac). Each case
    gets its own oracle seed, drawn from the workload seed: with one shared
    seed, cases of the same d start from the same random restarts, so their
    iteration counts rise and fall together from one workload seed to the
    next.
    """

    name = "oracle"
    bypass = {"cg.calls": 0, "bloch.decompose_calls": 0}
    ISO_ALPHA = {2: (0.6, 1.0), 3: (0.5, 0.7), 4: (0.27, 0.33)}
    D_MIN = 0.2
    CANDIDATES = 4000       # per plane; about 50 expected in the rarest region
    SEPARABLE_ITERATIONS = 60
    # points per isotropic d, per plane region, separable states per d
    SIZES = {False: ({2: 3, 3: 6, 4: 1}, 5, 3), True: ({2: 1}, 0, 1)}

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.n_iso, self.n_plane, self.n_sep = self.SIZES[tiny]

    def setup(self) -> None:
        for d in self.n_iso:
            bases.get_basis("ggb", d)        # LAMBDA of the isotropic witness
        bases.get_basis("wob", 3)            # Weyl Bell projectors and U1/U2

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.cases = []                      # (CLI arguments, rho)
        for d, n in self.n_iso.items():
            lo, hi = self.ISO_ALPHA[d]
            for i in range(n):               # stratified in alpha
                alpha = lo + (hi - lo) * (i + rng.uniform()) / n
                self.cases.append((["--family", "isotropic", "--dim", str(d),
                                    "--alpha", repr(alpha)],
                                   states.isotropic_state(d, alpha).matrix))
        for family, make in (("qubit2p", states.two_param_qubit),
                             ("qutrit2p", states.two_param_qutrit)):
            for alpha, beta in _plane_points(rng, family, self.n_plane, self.D_MIN,
                                             self.CANDIDATES):
                self.cases.append((["--family", family, "--alpha", repr(alpha),
                                    "--beta", repr(beta)], make(alpha, beta).matrix))
        self.separable = [states.sample_separable(d, rng)
                          for d in (2, 3) for _ in range(self.n_sep)]
        self.points = len(self.cases) + len(self.separable)
        self.oracle_seeds = [int(x) for x in rng.integers(2**31, size=self.points)]

    def check_setup(self, tally: Tally) -> None:
        pass

    def steps(self, workdir: str) -> list:
        def measure(i, argv, seed):
            path = os.path.join(workdir, f"measure{i}.json")
            rc = cli.cli_main(["measure", *argv, "--oracle", "--seed", str(seed),
                               "--out", path])
            return rc, path

        def separable(state, seed):
            config = gilbert.GilbertConfig(seed=seed,
                                           max_iterations=self.SEPARABLE_ITERATIONS)
            return gilbert.nearest_separable_numeric(state, config)

        seeds = iter(self.oracle_seeds)
        return ([functools.partial(measure, i, argv, next(seeds))
                 for i, (argv, _) in enumerate(self.cases)]
                + [functools.partial(separable, state, next(seeds)) for state in self.separable])

    def check(self, out, tally: Tally, quality: dict) -> None:
        docs, results = out[:len(self.cases)], out[len(self.cases):]
        excess = []
        for (argv, rho), (rc, path) in zip(self.cases, docs):
            what = "measure " + " ".join(argv)
            tally.check(rc == 0, f"{what}: exit code {rc}")
            if rc != 0:
                continue
            with open(path) as fh:
                doc = json.load(fh)
            rho0 = np.array(doc["rho0"]["re"]) + 1j * np.array(doc["rho0"]["im"])
            closed, oracle_d = doc["D"], doc["oracle_D"]
            _check_certificate(tally, what, rho, rho0, closed)
            tally.check(closed - TOL_ORACLE_LOW <= oracle_d <= closed + TOL_ORACLE_HIGH,
                        f"{what}: oracle D {oracle_d!r} outside [D - 1e-6, D + 1e-3] "
                        f"of D = {closed!r}")
            excess.append(oracle_d - closed)
        for state, res in zip(self.separable, results):
            _check_certificate(tally, f"separable d={state.subdim}", state.matrix,
                               res.rho0.matrix, res.distance)
        quality["oracle_max_excess"] = max(excess, default=0.0)
        quality["oracle_sep_D"] = max((r.distance for r in results), default=0.0)


# ---------------------------------------------------------------------------
# dim_scan
# ---------------------------------------------------------------------------

class DimScan:
    """Cold basis builds at d=2..16, then Bloch round trips, bipartite
    decompositions and isotropic closed forms as d grows."""

    name = "dim_scan"
    bypass = {}
    KINDS = ("ggb", "pob", "wob")
    CONVENTIONS = ("coeff", "expval")
    # (largest d of the bases, largest d of the bipartite parts, states per d)
    SIZES = {False: (16, 8, 12), True: (4, 3, 2)}

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.d_max, self.d_bip, self.n_states = self.SIZES[tiny]

    def setup(self) -> None:
        self.bases = [bases.get_basis(kind, d) for kind in self.KINDS
                      for d in range(2, self.d_max + 1)]

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        dims = range(2, self.d_max + 1)
        self.states = {d: [states.random_density_matrix(d, rng) for _ in range(self.n_states)]
                       for d in dims}
        self.bipartite = {d: states.random_density_matrix(d * d, rng)
                          for d in range(2, self.d_bip + 1)}
        self.alphas = {d: float(rng.uniform(1.0 / (d + 1) + 0.05, 1.0))
                       for d in range(2, self.d_bip + 1)}
        self.points = (len(self.KINDS) * len(self.CONVENTIONS) * self.n_states * len(dims)
                       + len(self.KINDS) * len(self.bipartite) + len(self.alphas))

    def check_setup(self, tally: Tally) -> None:
        for basis in self.bases:
            stack = np.asarray(basis.stacked)
            gram = np.einsum("iab,jab->ij", stack.conj(), stack)
            off = np.abs(gram - np.diag(np.diag(gram))).max()
            diag = np.abs(np.diag(gram).real[1:] - basis.ortho_const).max()
            tally.check(max(off, diag) <= TOL_GRAM,
                        f"{basis!r}: Gram orthogonality off by {max(off, diag):.3e}")

    def steps(self, workdir: str) -> list:
        def round_trips(kind):
            return [(rho.matrix, bloch.bloch_decode(bloch.bloch_encode(rho, kind, conv)).matrix)
                    for rhos in self.states.values() for rho in rhos
                    for conv in self.CONVENTIONS]

        def decompositions(kind):
            return [(rho.matrix, bloch.bipartite_decompose(rho, kind, subdim=d).reconstruct())
                    for d, rho in self.bipartite.items()]

        def measures():
            return [(d, alpha, entanglement.hs_measure_isotropic(d, alpha))
                    for d, alpha in self.alphas.items()]

        return ([functools.partial(round_trips, kind) for kind in self.KINDS]
                + [functools.partial(decompositions, kind) for kind in self.KINDS]
                + [measures])

    def check(self, out, tally: Tally, quality: dict) -> None:
        n = len(self.KINDS)
        for i, step in enumerate(out[:2 * n]):
            label = "Bloch round trip" if i < n else "bipartite reconstruct"
            for rho, got in step:
                err = float(np.abs(got - rho).max())
                tally.check(err <= TOL_ROUND_TRIP, f"{label} d={rho.shape[0]}: error {err:.3e}")
        for d, alpha, res in out[2 * n]:
            closed = np.sqrt(d * d - 1.0) / d * (alpha - 1.0 / (d + 1))
            tally.check(abs(res.distance - closed) <= TOL_ISO,
                        f"isotropic d={d} alpha={alpha!r}: D {res.distance!r} != {closed!r}")
            tally.check(abs(res.distance - res.max_violation) <= TOL_DB,
                        f"isotropic d={d} alpha={alpha!r}: D != B")


WORKLOADS = {cls.name: cls for cls in (Sweep, Oracle, DimScan)}
