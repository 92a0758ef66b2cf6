"""The four workloads: inputs drawn from the seed, ops, and each op's gate.

An op is one derivation (``suite``, ``ladder``), one oracle cross-check
(``oracle``) or one CLI process (``cold_cli``).  A pass runs a fixed mix of
ops in a seeded order; a workload holds ``cycle`` passes whose inputs differ
and repeats them.  Every op is checked against ``reference.py`` after its
timed call returns.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import calibrate
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# (model, overrides) for the registry ops; phi4 goes through effective_potential
SUITE_MODELS = [
    ("harmonic_oscillator_1d", {}),
    ("topological_oscillator", {}),
    ("schwinger_free", {}),
    ("dirac_fermion", {"n": 1}),
    ("dirac_fermion", {"n": 2}),
    ("dirac_fermion", {"n": 3}),
    ("schwinger_boson_mass", {}),
    ("phi4", {}),
]
LADDER_OPS = (
    [(f"ho_nd.n{n}", "harmonic_oscillator_nd", {"n": n}, 4) for n in range(1, 7)]
    + [(f"ho_nd_axis.n{n}", "harmonic_oscillator_nd", {"n": n, "per_axis": True}, 4) for n in range(1, 4)]
    + [(f"ho_1d.o{o}", "harmonic_oscillator_1d", {}, o) for o in (4, 8, 16)]
    + [(f"dirac.o{o}", "dirac_fermion", {"n": 3}, o) for o in (4, 8, 16)]
)
# (op class, model, observable, overrides) for the quadrature cross-checks
ORACLE_MODELS = [
    ("oracle.topo", "topological_oscillator", "chi_top", {}),
    ("oracle.ho_1d", "harmonic_oscillator_1d", "H", {}),
    ("oracle.schwinger_free", "schwinger_free", "H_m", {}),
    ("oracle.dirac", "dirac_fermion", "H_m", {"n": 3}),
    ("oracle.boson", "schwinger_boson_mass", "m_g^2", {}),
]
ORACLE_Z = (-0.2, -0.1, -0.05)  # the z samples tests/test_engine.py uses
CLI_RUN_MODELS = ["topological_oscillator", "schwinger_boson_mass", "dirac_fermion", "phi4"]
CHECK_POINTS = 2  # seeded (bindings, T) points per op for the finite-T gate


@dataclass
class Op:
    label: str  # what failed, in a failure report
    cls: str  # op class: the same work in every pass, up to seeded inputs
    group: str  # op.<group>_ms in the traced run
    inputs: str  # the generated inputs, for failure reports and the same-seed test
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the result matches its reference
    known_defect: str | None = None  # error text of a documented run-time failure


@dataclass
class Outcome:
    label: str
    cls: str
    group: str
    ms: float
    status: str  # "pass" | "known_defect" | "fail"
    reason: str = ""


def execute(op: Op) -> Outcome:
    start = perf_counter_ns()
    try:
        out = op.call()
    except Exception as exc:  # an op that raises is a counted outcome, never a crash
        ms = (perf_counter_ns() - start) / 1e6
        text = f"{type(exc).__name__}: {exc}"
        if op.known_defect is not None and op.known_defect in str(exc):
            return Outcome(op.label, op.cls, op.group, ms, "known_defect", text)
        return Outcome(op.label, op.cls, op.group, ms, "fail", "raised " + text)
    ms = (perf_counter_ns() - start) / 1e6
    try:
        reason = op.check(out)
    except Exception as exc:  # a malformed result is a failed op
        reason = f"check raised {type(exc).__name__}: {exc}"
    return Outcome(op.label, op.cls, op.group, ms, "fail" if reason else "pass", reason or "")


def child_env() -> dict:
    """The environment of a child process: this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _kv_terms(rng: random.Random, dim: int) -> tuple[list[tuple[Fraction, int, float]], float]:
    """Two non-critical terms (degree, log order, angular) and a volume."""
    terms = [(Fraction(-dim) + rng.choice((-1, 1)) * _rational(rng), rng.randint(0, 2), rng.randint(1, 12) / 4)
             for _ in range(2)]
    return terms, rng.randint(1, 12) / 4


def _points(rng: random.Random, names, t_range=(5.0, 50.0)) -> list[tuple[dict, float]]:
    return [({n: rng.uniform(0.5, 2.0) for n in sorted(names)}, rng.uniform(*t_range))
            for _ in range(CHECK_POINTS)]


def _asym_names(asym: ref.Asymptote) -> set[str]:
    names = set()
    for coeff, _p, _l, phase in asym.terms:
        for form in (coeff, phase):
            names |= {n for key in form for n, _ in key if n != "pi"}
    return names


class Workload:
    """Seeded passes of ops.  ``cycle`` passes with distinct inputs, then repeat."""

    name = ""
    cycle = 1
    # times are rescaled by this reference, timed around every op (see run.py)
    reference = staticmethod(calibrate.reference_ms)
    nominal_ms = calibrate.REF_MS

    def __init__(self, seed: int):
        self.seed = seed
        self.passes: list[list[Op]] = []
        self.warmup: list[Op] = []

    def rng(self, k: int, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}:{purpose}")

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# In-process derivations: suite and ladder
# ---------------------------------------------------------------------------


class _Engine(Workload):
    def __init__(self, seed: int):
        super().__init__(seed)
        from zetatrace import engine, modelfile, models
        from zetatrace.tables import PAPER, PRINCIPAL

        self.engine, self.modelfile, self.models = engine, modelfile, models
        self.policies = {"paper": PAPER, "principal": PRINCIPAL}
        self.recorded = ref.load_recorded()

    def registry_op(self, rng, cls, group, model, overrides, branch, order) -> Op:
        closed = ref.registry_closed_form(model, overrides)
        asym = self.recorded[ref.reference_key(model, overrides, branch)]
        points = _points(rng, _asym_names(asym))
        models, policy = self.models, self.policies[branch]

        def call():
            return models.run_model(model, policy, order, **overrides)

        def check(run):
            if run.potential is not None:
                pot = run.potential
                got = {"minimum": pot.minima[:1], "mass": pot.masses[:1]}
                for obs, want in closed.items():
                    if not got[obs]:
                        return f"{obs}: missing"
                    why = ref.compare_forms(ref.poly_form(got[obs][0]), want)
                    if why:
                        return f"{obs}: {why}"
                return ref.compare_asymptote(pot.residual.eval, asym, points)
            for obs, want in closed.items():
                value = run.results[obs].value
                if not hasattr(value, "terms"):
                    return f"{obs}: {value!r}"
                why = ref.compare_forms(ref.poly_form(value), want)
                if why:
                    return f"{obs}: {why}"
            finite = [r.finite_t for r in run.results.values() if r.finite_t is not None]
            if len(finite) != 1:
                return f"expected one finite-T asymptote, got {len(finite)}"
            return ref.compare_asymptote(finite[0].eval, asym, points)

        return Op(cls, cls, group, repr(points), call, check)


class Suite(_Engine):
    """Registry models on both branches, generated model files and kv amplitudes."""

    name = "suite"
    cycle = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        for k in range(self.cycle):
            rng = self.rng(k, "inputs")
            ops = []
            for model, overrides in SUITE_MODELS:
                for branch in ("paper", "principal"):
                    tag = f"{model}{overrides or ''}/{branch}"
                    ops.append(self.registry_op(rng, tag, "suite.registry", model, overrides, branch, 4))
            ops += self.file_ops(rng, k)
            ops += [self.kv_op(rng, dim, f"kv{k}.{j}") for j, dim in enumerate((1, 2, 3, 3))]
            rng.shuffle(ops)
            self.passes.append(ops)
            # warm-up: the registry ops once, every generated input once
            self.warmup += [op for op in ops if k == 0 or op.group != "suite.registry"]

    def file_op(self, rng, k, cls, group, text, closed, asym, known_defect=None) -> Op:
        modelfile, models, policy = self.modelfile, self.models, self.policies["paper"]
        points = _points(rng, _asym_names(asym) | {n for key in closed for n, _ in key if n != "pi"})
        name = f"file{k}_{cls}"

        def call():
            spec = modelfile.to_model_spec(modelfile.parse_model_text(text, name))
            entry = models.RegistryEntry(lambda **kw: spec, spec.description, "custom")
            return models.run_model(name, policy, registry={name: entry})

        def check(run):
            res = run.results["observable"]
            if not hasattr(res.value, "terms"):
                return f"observable: {res.value!r}"
            why = ref.compare_forms(ref.poly_form(res.value), closed)
            if why:
                return why
            return ref.compare_asymptote(res.finite_t.eval, asym, points)

        return Op(name, cls, group, f"{text}{points!r}", call, check, known_defect)

    def file_ops(self, rng, k) -> list[Op]:
        ops = []
        text, closed, asym = ref.rotor_file(_rational(rng))
        ops.append(self.file_op(rng, k, "rotor", "suite.modelfile", text, closed, asym))
        for axes in (1, 2, 3):
            a = [_rational(rng) for _ in range(axes)]
            b = [_rational(rng) for _ in range(axes)]
            text, closed, asym = ref.oscillator_file(a, b, _rational(rng), grouped=axes > 1)
            ops.append(self.file_op(rng, k, f"osc{axes}", "suite.modelfile", text, closed, asym))
        text, closed, asym = ref.oscillator_file(
            [_rational(rng)], [_rational(rng)], _rational(rng), grouped=False, shift=_rational(rng))
        ops.append(self.file_op(rng, k, "shifted", "suite.shifted", text, closed, asym,
                                known_defect=ref.KNOWN_DEFECT))
        return ops

    def kv_op(self, rng, dim: int, label: str) -> Op:
        engine = self.engine
        from zetatrace.params import ParamPoly

        terms, volume = _kv_terms(rng, dim)
        spec = engine.KVAmplitudeSpec(
            dimension=dim,
            terms=tuple((d, l, ParamPoly.number(ang)) for d, l, ang in terms),
            vol_x=ParamPoly.number(volume),
        )
        closed, scale = ref.kv_closed_form(dim, volume, terms)

        def call():
            return engine.kv_trace_at_zero(spec)

        def check(value):
            return ref.compare_forms(ref.poly_form(value), closed, scale=scale)

        return Op(label, f"kv.d{dim}", "suite.kv", ref.kv_file(dim, volume, terms), call, check)


class Ladder(_Engine):
    """harmonic_oscillator_nd n = 1..6 (grouped), n = 1..3 (per axis); series order 4/8/16."""

    name = "ladder"
    cycle = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng(0, "inputs")
        ops = [self.registry_op(rng, cls, cls, model, overrides, "paper", order)
               for cls, model, overrides, order in LADDER_OPS]
        rng.shuffle(ops)
        self.passes.append(ops)
        self.warmup = list(ops)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------


class Oracle(Workload):
    """oracle.small_z_ratio at seeded bindings and T, against the principal-branch engine value."""

    name = "oracle"
    cycle = 16

    def __init__(self, seed: int):
        super().__init__(seed)
        from zetatrace import engine, models, oracle
        from zetatrace.tables import PRINCIPAL

        recorded = ref.load_recorded()
        self.oracle = oracle
        built = {}
        for cls, model, obs, overrides in ORACLE_MODELS:
            spec = models.build_model(model, **overrides)
            finite_t = engine.expectation(spec, obs, PRINCIPAL).finite_t
            asym = recorded[ref.reference_key(model, overrides, "principal")]
            built[cls] = (spec, obs, finite_t, asym)
        for k in range(self.cycle):
            rng = self.rng(k, "inputs")
            ops = [self.quadrature_op(rng, cls, *built[cls]) for cls, *_ in ORACLE_MODELS]
            rng.shuffle(ops)
            self.passes.append(ops)
        self.warmup = list(self.passes[0])

    def quadrature_op(self, rng, cls, spec, obs, finite_t, asym) -> Op:
        bindings = {p.name: rng.uniform(0.7, 1.4) for p in spec.params}
        t_value = rng.uniform(5.0, 20.0)
        oracle = self.oracle

        def call():
            return oracle.small_z_ratio(spec, obs, ORACLE_Z, t_value, bindings)

        def check(value):
            engine_value = finite_t.eval(bindings, t_value)
            why = ref.compare_asymptote(lambda b, t: engine_value, asym, [(bindings, t_value)])
            if why:
                return "engine " + why
            if abs(value - engine_value) > ref.ORACLE_REL * abs(engine_value):
                return f"oracle {value:.8g} != engine {engine_value:.8g} at T={t_value:.6g}"
            return None

        return Op(f"{cls}@T={t_value:.3f}", cls, cls, f"{bindings!r} T={t_value!r}", call, check,
                  ref.ORACLE_NONCONVERGENT)


# ---------------------------------------------------------------------------
# Cold CLI processes
# ---------------------------------------------------------------------------

CLI_MAIN = "import sys; from zetatrace.cli import main; sys.exit(main())"


class ColdCli(Workload):
    """Fresh ``zetatrace`` processes, one at a time.

    Rescaled by a reference child process rather than the in-process loop: an
    op here is mostly interpreter start-up and imports in another process,
    which the loop in this process does not track.
    """

    name = "cold_cli"
    cycle = 1
    reference = staticmethod(calibrate.child_reference_ms)
    nominal_ms = calibrate.CHILD_REF_MS

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tmp = OUT / f"tmp-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.trace_spans: list[str] | None = None  # one spans file per traced child
        self.max_rss_kb = 0
        self.children = 0
        rng = self.rng(0, "inputs")
        ops = [
            self.check_op("cli.check", ["check"]),
            self.check_op("cli.check_principal", ["check", "--branch", "principal"]),
            self.run_op(rng),
            self.model_op(rng),
            self.kv_op(rng),
        ]
        rng.shuffle(ops)
        self.passes.append(ops)
        self.warmup = list(ops)

    def spawn(self, argv: list[str]) -> tuple[int, str, str]:
        self.children += 1
        n = self.children
        out_path, err_path = self.tmp / f"{n}.out", self.tmp / f"{n}.err"
        if self.trace_spans is None:
            cmd = [sys.executable, "-c", CLI_MAIN, *argv]
        else:
            spans = self.tmp / f"{n}.spans.json"
            self.trace_spans.append(str(spans))
            cmd = [sys.executable, str(Path(__file__).with_name("clichild.py")), str(spans), str(n), *argv]
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(), err_path.read_text()

    def check_op(self, cls: str, argv: list[str]) -> Op:
        def check(result):
            code, out, err = result
            if code != 0 or "7/7 models passing" not in out or "FAIL" in out:
                return f"exit {code}: {(out.strip().splitlines() or [err.strip()[-200:]])[-1]}"
            return None

        return Op(" ".join(argv), cls, cls, " ".join(argv), lambda: self.spawn(argv), check)

    @staticmethod
    def _json_gate(out: str, closed: dict[str, dict], bindings: dict) -> str | None:
        rows = {}
        for line in out.splitlines():
            record = json.loads(line)
            rows.setdefault(record["observable"], record)
        for obs, want in closed.items():
            if obs not in rows:
                return f"{obs}: missing from output"
            why = ref.compare_forms(ref.parse_rendered(rows[obs]["value"]), want, ref.PRINTED_REL)
            if why:
                return f"{obs}: {why}"
            got = complex(rows[obs]["numeric_value"].replace("i", "j"))
            exact = ref.eval_form(want, bindings)
            if abs(got - exact) > ref.FINITE_T_REL * abs(exact):
                return f"{obs}: numeric {got} != {exact}"
        return None

    def run_op(self, rng) -> Op:
        model = rng.choice(CLI_RUN_MODELS)
        closed = ref.registry_closed_form(model, {})
        names = sorted({n for form in closed.values() for key in form for n, _ in key if n != "pi"})
        bindings = {n: round(rng.uniform(0.5, 2.0), 6) for n in names}
        argv = ["run", model, "--emit", "json"] + [f"--param={n}={v}" for n, v in bindings.items()]

        def check(result):
            code, out, err = result
            if code != 0:
                return f"exit {code}: {err.strip()[-200:]}"
            return self._json_gate(out, closed, bindings)

        return Op(f"run {model}", "cli.run", "cli.run", " ".join(argv), lambda: self.spawn(argv), check)

    def model_op(self, rng) -> Op:
        text, closed, _asym = ref.oscillator_file(
            [_rational(rng)], [_rational(rng)], _rational(rng), grouped=False)
        path = self.tmp / f"osc_{self.seed}.zt"
        path.write_text(text)
        bindings = {"m": round(rng.uniform(0.5, 2.0), 6), "w": round(rng.uniform(0.5, 2.0), 6)}
        argv = ["model", str(path), "--emit", "json"] + [f"--param={n}={v}" for n, v in bindings.items()]

        def check(result):
            code, out, err = result
            if code != 0:
                return f"exit {code}: {err.strip()[-200:]}"
            return self._json_gate(out, {"observable": closed}, bindings)

        inputs = text + " ".join(argv[2:])
        return Op(f"model {path.name}", "cli.model", "cli.model", inputs, lambda: self.spawn(argv), check)

    def kv_op(self, rng) -> Op:
        dim = rng.choice((1, 2, 3))
        terms, volume = _kv_terms(rng, dim)
        closed, scale = ref.kv_closed_form(dim, volume, terms)
        path = self.tmp / f"amp_{self.seed}.kv"
        path.write_text(ref.kv_file(dim, volume, terms))

        def check(result):
            code, out, err = result
            lines = dict(line.split(" = ", 1) if " = " in line else line.split(": ", 1)
                         for line in out.strip().splitlines())
            if code != 0 or "trace(0)" not in lines:
                return f"exit {code}: {err.strip()[-200:]}"
            why = ref.compare_forms(ref.parse_rendered(lines["trace(0)"]), closed, ref.PRINTED_REL, scale)
            if why:
                return why
            got, exact = float(lines["numeric"]), ref.eval_form(closed, {}).real
            if abs(got - exact) > ref.FINITE_T_REL * ref.eval_form(scale, {}).real:
                return f"numeric {got} != {exact}"
            return None

        argv = ["kv-trace", str(path)]
        return Op(f"kv-trace {path.name}", "cli.kv_trace", "cli.kv_trace", ref.kv_file(dim, volume, terms),
                  lambda: self.spawn(argv), check)

    def close(self) -> None:
        for path in self.tmp.iterdir():
            path.unlink()
        self.tmp.rmdir()


WORKLOADS = {w.name: w for w in (Suite, Ladder, ColdCli, Oracle)}
