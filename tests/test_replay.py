"""The recorded engine program against the dual recursion it was recorded from."""

import gc
import math
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expstab import GainConfig, SystemModel
from expstab import codegen, duals
from expstab.backstepping import (
    _FULL_FIELDS,
    BacksteppingEngine,
    control_theorem1,
    control_theorem2,
)
from expstab.duals import Dual
from expstab.scenarios import build_synthetic, build_wing_rock


def _phi1(x1):
    return (x1 * x1, 0.0)


def _phi2(x1, x2):
    return (x1 * x2, x2 * x2)


def _phi3(x1, x2, x3):
    return (x3 * x3, x1 * x3)


def _phi4(x1, x2, x3, x4):
    return (x4 * x4, x2 * x4)


def _order4():
    model = SystemModel(n=4, q=2, regressors=[_phi1, _phi2, _phi3, _phi4],
                        theta_signal=lambda t: (0.1, -0.2), b_signal=lambda t: -1.0)
    cfg = GainConfig(k=(1.0,) * 4, lam=0.3, delta_theta=0.1, eps_psi=1.0,
                     Gamma=np.eye(2), quad_nodes=12)
    return BacksteppingEngine(model, cfg)


def _order1():
    model = SystemModel(n=1, q=2, regressors=[lambda x1: (x1 * x1, x1)],
                        theta_signal=lambda t: (0.1, -0.2), b_signal=lambda t: -1.0)
    cfg = GainConfig(k=(1.0,), lam=0.3, delta_theta=0.1, eps_psi=1.0,
                     Gamma=np.array([[1.0, 0.2], [0.2, 0.5]]))
    return BacksteppingEngine(model, cfg)


@pytest.fixture(scope="module")
def engines():
    wr = build_wing_rock("theorem1")
    syn = build_synthetic("theorem1", seed=0)
    return {
        1: _order1(),
        2: BacksteppingEngine(wr.model, wr.gains),
        3: BacksteppingEngine(syn.model, syn.gains),
        4: _order4(),
    }


def _fields(ev, names):
    out = []
    for name in names:
        v = getattr(ev, name)
        if name == "grad_alpha":
            v = tuple((g.x, g.th, g.mu) for g in v)
        out.append(v)
    return tuple(out)


def _assert_close(got, want, tol, path=()):
    if type(want) is tuple:
        assert type(got) is tuple and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, tol, path + (i,))
    elif tol == 0.0:
        assert got == want, (path, got, want)
    else:
        assert abs(got - want) <= tol * max(1.0, abs(want)), (path, got, want)


_coord = st.one_of(st.just(0.0), st.floats(-1.2, 1.2))
_estimate = st.one_of(st.just(0.0), st.floats(-0.8, 0.8))
_mu = st.one_of(st.just(1.0), st.floats(0.5, 2.0))


def _check_against_recursion(engine, x, th, mu):
    want = engine._cascade(tuple(x), tuple(th), mu)
    # A plain exact zero in theta_hat lets the recursion fold terms that
    # the recording (valid at every estimate) keeps; a derivative that is
    # constant along a ray is then integrated by quadrature rather than
    # passed through, which moves the result by rounding only.
    tol = 1e-12 if 0.0 in th else 0.0
    for diagnostics in (True, False):  # accepted, with no effect
        ev = engine.evaluate(0.3, x, th, mu=mu, diagnostics=diagnostics)
        _assert_close(_fields(ev, _FULL_FIELDS), want, tol)


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_replay_equals_dual_recursion(engines, n, data):
    engine = engines[n]
    x = data.draw(st.lists(_coord, min_size=n, max_size=n))
    th = data.draw(st.lists(_estimate, min_size=engine.q, max_size=engine.q))
    _check_against_recursion(engine, x, th, data.draw(_mu))


@settings(max_examples=4)
@given(x=st.lists(_coord, min_size=4, max_size=4),
       th=st.lists(_estimate, min_size=2, max_size=2), mu=_mu)
def test_replay_equals_dual_recursion_order4(engines, x, th, mu):
    _check_against_recursion(engines[4], x, th, mu)


def test_second_evaluate_builds_no_dual(monkeypatch):
    scn = build_synthetic("theorem2", seed=0)
    engine = BacksteppingEngine(scn.model, scn.gains)
    engine.evaluate(0.1, (0.3, -0.2, 0.4), (0.1, 0.0))  # records
    made = []
    orig_init = Dual.__init__

    def counting_init(self, *args):
        made.append(1)
        orig_init(self, *args)

    def no_tags():
        raise AssertionError("a replay drew a derivative tag")

    monkeypatch.setattr(Dual, "__init__", counting_init)
    monkeypatch.setattr(duals, "fresh_tag", no_tags)
    monkeypatch.setattr("expstab.backstepping.fresh_tag", no_tags)
    for diagnostics in (True, False):
        engine.evaluate(0.2, (0.5, 0.1, -0.3), (0.2, 0.1), diagnostics=diagnostics)
    assert made == []


def _snapshots(count):
    rng = np.random.default_rng(31)
    return [(float(rng.uniform(0, 1)), tuple(rng.uniform(-1, 1, size=3)),
             tuple(rng.uniform(0, 0.5, size=2)), bool(k % 2)) for k in range(count)]


def _in_threads(count, target):
    """Run ``target(k)`` in ``count`` threads with a fine switch interval."""
    errors = []

    def guarded(k):
        try:
            target(k)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=guarded, args=(k,)) for k in range(count)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors


def test_concurrent_first_calls_match_single_thread():
    # more threads than cores race the lazy recording of one fresh engine
    scn = build_synthetic("theorem1", seed=0)
    points = _snapshots(6)

    def run(engine):
        return repr([
            _fields(engine.evaluate(t, x, th, diagnostics=d),
                    ("z", "s", "kappa", "psi_bar", "theta_hat_dot"))
            for t, x, th, d in points
        ])

    want = run(BacksteppingEngine(scn.model, scn.gains))
    engine = BacksteppingEngine(scn.model, scn.gains)
    barrier = threading.Barrier(4, timeout=60)
    got = [None] * 4

    def worker(k):
        barrier.wait()
        got[k] = run(engine)

    _in_threads(4, worker)
    assert got == [want] * 4


def test_fresh_tags_are_unique_across_threads():
    drawn = [[] for _ in range(4)]

    def worker(k):
        for _ in range(5000):
            drawn[k].append(duals.fresh_tag())

    _in_threads(4, worker)
    tags = [t for d in drawn for t in d]
    assert len(tags) == 20000 and len(set(tags)) == len(tags)


# operation counts of the fixture programs: the tape's zero and unit
# folds, its value-keyed constants and its commuted sums and products must
# keep them this small
_ZERO_TESTED_OPS = {1: 39, 2: 39, 3: 892, 4: 8690}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_zero_folds_keep_programs_small(engines, n):
    engine = engines[n]
    engine.evaluate(0.2, (0.4, -0.3, 0.5, 0.2)[:n], (0.1, 0.2))
    assert engine._programs[None].n_ops <= _ZERO_TESTED_OPS[n]


def test_order4_program_is_compiled_in_bounded_chunks(monkeypatch):
    sources = []

    def kept(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(codegen, "compile", kept, raising=False)
    engine = _order4()
    ev = engine.evaluate(0.2, (0.4, -0.3, 0.5, 0.2), (0.1, 0.2))
    assert math.isfinite(ev.kappa) and ev.max_residual() <= 1e-8
    program = engine._programs[None]
    assert program.n_ops > 5000
    # one generated function per bounded run of statements, never one huge
    # one: a statement assigns locals; loads from and stores to the shared
    # list and the first chunk's input unpacking do not count
    chunks = [src for src in sources if src.startswith("def _c")]
    assert len(chunks) == len([n for n in program.__globals__ if n.startswith("_c")])
    counts = [len([line for line in src.splitlines()
                   if re.match(r"    v\d+[ ,]", line) and not re.search(r"= r\[\d+\]$", line)])
              for src in chunks]
    assert max(counts) <= codegen._CHUNK_STATEMENTS
    assert sum(counts) > 2 * program.n_ops  # the node arrays are unrolled


def _residuals(ev):
    """|w_i - W_i^T zbar_i| per layer and |psi - psi_bar^T z|, with numpy."""
    z = np.array(ev.z)
    resid_w = [np.linalg.norm(np.array(w) - np.array(W).T @ z[:len(W)])
               for w, W in zip(ev.w, ev.W)]
    return resid_w, abs(ev.psi - np.array(ev.psi_bar) @ z)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(max_examples=10)
@given(data=st.data())
def test_residuals_are_those_of_the_factors(engines, n, data):
    # w = W^T z and psi = psi_bar^T z, checked from evaluate's factors with
    # numpy, apart from the program's own arithmetic
    engine = engines[n]
    x = data.draw(st.lists(_coord, min_size=n, max_size=n))
    th = data.draw(st.lists(_estimate, min_size=engine.q, max_size=engine.q))
    ev = engine.evaluate(0.3, x, th, mu=data.draw(_mu))
    resid_w, resid_psi = _residuals(ev)
    z = np.abs(ev.z)
    for got, want, w, W in zip(ev.resid_w, resid_w, ev.w, ev.W):
        scale = np.max(np.abs(w)) + np.max(np.abs(W).T @ z[:len(W)])
        assert abs(got - want) <= 1e-14 * scale
    scale = abs(ev.psi) + np.abs(ev.psi_bar) @ z
    assert abs(ev.resid_psi - resid_psi) <= 1e-14 * scale
    # The factors are exact to 1e-8 on this box only at orders 1 and 2.
    # The fixed rules miss at |x| near 1: resid_psi reads 5.7e-5 at order
    # 3 (8 nodes, x = (1, 0, 0)) and up to 1e25 at order 4 (12 nodes);
    # choosing the node count per engine is ROADMAP item 8.
    if n <= 2:
        assert max(resid_w) <= 1e-8 and resid_psi <= 1e-8


def test_compiling_the_order3_loop_stays_small_in_memory(monkeypatch):
    # unrolled node arrays make the order-3 program about six times as many
    # statements; compiling them chunk by chunk on reused locals keeps the
    # compiler's peak where it was (1.16 MiB for the same program as numpy
    # calls in 200-operation chunks; 7.4 MiB with one local per value in
    # one function)
    peaks = []
    real = duals.Tape.compile

    def traced(tape, outputs):
        gc.collect()
        tracemalloc.start()
        try:
            program = real(tape, outputs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return program

    monkeypatch.setattr(duals.Tape, "compile", traced)
    syn = build_synthetic("theorem1", seed=0)
    program = BacksteppingEngine(syn.model, syn.gains).closed_loop_program(
        control_theorem1, (0.3, -0.2, 0.4, 0.1, 0.0, -0.5, 1.2, 0.1, -0.1, -1.0))
    assert program.n_ops == 903 and len(peaks) == 1
    assert peaks[0] < 2 * 2**20


# -- the closed-loop program ----------------------------------------------------

_LOOP_SCENARIOS = {
    "wr-theorem1": lambda: build_wing_rock("theorem1"),
    "wr-theorem2": lambda: build_wing_rock("theorem2"),
    "wr-baseline": lambda: build_wing_rock("baseline-lambda0"),
    "syn-theorem1": lambda: build_synthetic("theorem1", seed=0),
    "syn-theorem2": lambda: build_synthetic("theorem2", seed=0),
}


@pytest.fixture(scope="module")
def loops():
    """Per scenario: the config, the law, a closed-loop engine and a plain one."""
    built = {}
    for name, build in _LOOP_SCENARIOS.items():
        scn = build()
        law = control_theorem2 if scn.controller == "theorem2" else control_theorem1
        built[name] = (scn.gains, law, BacksteppingEngine(scn.model, scn.gains),
                       BacksteppingEngine(scn.model, scn.gains))
    return built


def _composed(engine, law, cfg, x, th, aux, mu, theta, b):
    """The right-hand side as evaluate, the law and the plant sum in turn."""
    ev = engine.evaluate(0.0, x, th, mu=mu, diagnostics=True)
    u, aux_dot, th_dot = law(ev, aux, cfg)
    n = len(x)
    dx = []
    for i, phi_i in enumerate(ev.phi):
        acc = 0.0
        for pc, tc in zip(phi_i, theta):
            if type(pc) is float and pc == 0.0:
                continue
            acc += pc * tc
        acc += x[i + 1] if i + 1 < n else b * u
        dx.append(acc)
    return (tuple(dx) + th_dot + (aux_dot,), u), (ev.s, ev.kappa, ev.resid_w, ev.resid_psi)


@pytest.mark.parametrize("name", sorted(_LOOP_SCENARIOS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_closed_loop_program_equals_the_composition(loops, name, data):
    cfg, law, engine, plain = loops[name]
    n, q = engine.n, engine.q
    x = tuple(data.draw(st.lists(_coord, min_size=n, max_size=n)))
    th = tuple(data.draw(st.lists(_estimate, min_size=q, max_size=q)))
    if law is control_theorem2:
        aux = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    else:
        aux = data.draw(st.floats(-2.0, -0.1))
    mu = data.draw(_mu) if cfg.lam != 0.0 else 1.0
    theta = tuple(data.draw(st.lists(st.floats(-30.0, 30.0), min_size=q, max_size=q)))
    b = data.draw(st.floats(-3.0, -0.5))
    inputs = x + th + (aux, mu) + theta + (b,)
    program = engine.closed_loop_program(law, inputs)
    want_light, want_diag = _composed(plain, law, cfg, x, th, aux, mu, theta, b)
    assert program(inputs) == want_light + want_diag


def test_negative_xi_in_a_stage_raises_the_laws_error(loops):
    cfg, law, engine, plain = loops["wr-theorem2"]

    def inputs(xi):
        return (0.5, -0.2, 0.1, 0.1, xi, 1.2, -26.0, 0.67, -2.0)

    program = engine.closed_loop_program(law, inputs(0.5))
    message = re.escape("the Nussbaum argument must stay >= 0, got -0.25")
    with pytest.raises(ValueError, match=message):
        law(plain.evaluate(0.0, (0.5, -0.2), (0.1, 0.1), mu=1.2), -0.25, cfg)
    with pytest.raises(ValueError, match=message):
        program(inputs(-0.25))


def test_recording_frees_its_tape(monkeypatch):
    # compiling leaves no reference cycle, so a tape goes with the
    # recording's last traced value instead of at a later collection
    tapes = []

    class Watched(duals.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr("expstab.backstepping.Tape", Watched)
    syn = build_synthetic("theorem1", seed=0)
    wr = build_wing_rock("theorem2")
    gc.collect()
    gc.disable()
    try:
        BacksteppingEngine(syn.model, syn.gains).evaluate(0.1, (0.3, -0.2, 0.4), (0.1, 0.0))
        BacksteppingEngine(wr.model, wr.gains).closed_loop_program(
            control_theorem2, (0.5, -0.2, 0.1, 0.1, 0.5, 1.2, -26.0, 0.67, -2.0))
        assert len(tapes) == 2
        assert [ref() for ref in tapes] == [None, None]
    finally:
        gc.enable()


def test_order3_tape_holds_each_constant_once(monkeypatch):
    tapes = []

    class Kept(duals.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr("expstab.backstepping.Tape", Kept)
    syn = build_synthetic("theorem1", seed=0)
    BacksteppingEngine(syn.model, syn.gains).closed_loop_program(
        control_theorem1, (0.3, -0.2, 0.4, 0.1, 0.0, -0.5, 1.2, 0.1, -0.1, -1.0))
    (tape,) = tapes
    arrays = [c for c in tape._consts.values() if type(c) is np.ndarray]
    assert len(arrays) > 10
    assert len({(c.dtype, c.shape, c.tobytes()) for c in arrays}) == len(arrays)


@pytest.mark.parametrize("build", [lambda: build_wing_rock("theorem2", horizon=0.01),
                                   lambda: build_synthetic("theorem1", seed=0, horizon=0.002)],
                         ids=["wing-rock", "synthetic"])
def test_a_run_compiles_one_program(monkeypatch, build):
    from expstab.sim import simulate

    compiled = []
    orig = duals.Tape.compile

    def counting(tape, outputs):
        compiled.append(1)
        return orig(tape, outputs)

    monkeypatch.setattr(duals.Tape, "compile", counting)
    traj = simulate(build())
    assert traj.completed and traj.monitors["steps"] > 0
    assert len(compiled) == 1
