"""Self-test of the benchmark's correctness checks.

Runs each workload on a handful of small inputs, first as is (every op
must pass its check) and then with a wrong output injected into the
library (every affected op must count as failed), so the checks cannot
pass vacuously.  Also checks that every module-boundary name the traced
run wraps exists, and that the benchmark refuses to run without ``src/``.

Usage, from the repository root:  python3 bench/selftest.py
"""

import contextlib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

NULL = NullTracer()


@contextlib.contextmanager
def injected(module, attr, make):
    """Replace ``module.attr`` by ``make(original)`` inside the block."""
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def outcomes(wl, inputs):
    """(output, passed) per input."""
    results = []
    for inp in inputs:
        _, out = run.call(wl, inp, NULL)
        results.append((out, run.passes_check(wl, inp, out)))
    return results


def failures(wl, inputs):
    return sum(not ok for _, ok in outcomes(wl, inputs))


def expect(label, got, want):
    status = "ok" if got == want else "FAILED"
    print(f"{status:6} {label}: {got} (expected {want})")
    return got == want


def morita(lib, workdir):
    wl = workloads.Morita(lib, 0, workdir)
    inputs = [inp for inp in wl.queue if not inp["label"].startswith("3obj")][:10]
    same = ((2, 0), (0, 2))
    inputs.append(wl.make_input("2obj.chain3", "3", "chain3", same, same))
    clean = outcomes(wl, inputs)
    ok = expect("morita clean failures", sum(not passed for _, passed in clean), 0)
    with_cert = sum('"certificate":null' not in out[1] for out, _ in clean)
    ok &= expect("morita inputs with a certificate", with_cert > 0, True)

    def corrupt(original):
        def wrong(A, B, cap=lib.presheaf.DEFAULT_CAP):
            res = original(A, B, cap)
            if res.certificate is not None:
                phi, psi = res.certificate
                bottom = lib.semicat.SemiDistributor(phi.dom, phi.cod, {k: 0 for k in phi.mat})
                res.certificate = (bottom, psi)
            return res

        return wrong

    def disagree(original):
        def wrong(A, B, cap=lib.presheaf.DEFAULT_CAP):
            res = original(A, B, cap)
            res.routes_agree = False
            return res

        return wrong

    with injected(lib.cli, "morita_equivalent", corrupt):
        ok &= expect("morita bottom certificate", failures(wl, inputs), with_cert)
    with injected(lib.cli, "morita_equivalent", disagree):
        ok &= expect("morita routes disagree", failures(wl, inputs), len(inputs))
    return ok


def classify(lib, workdir):
    wl = workloads.Classify(lib, 0, workdir)
    inputs = sorted(wl.queue, key=lambda inp: inp["label"])[::15][:20]
    clean = outcomes(wl, inputs)
    ok = expect("classify clean failures", sum(not passed for _, passed in clean), 0)
    # inputs where some regular presheaf is not Yoneda, so k = identity shows
    k_visible = sum(
        any(r != y for _, _, _, reg, yon, *_ in out for r, y in zip(reg, yon))
        for out, _ in clean
    )
    ok &= expect("classify inputs with a regular non-Yoneda presheaf", k_visible > 0, True)
    with injected(lib.presheaf, "is_regular_via_liftings", lambda f: lambda *a, **k: not f(*a, **k)):
        ok &= expect("classify negated liftings route", failures(wl, inputs), len(inputs))
    with injected(lib.presheaf, "map_k", lambda f: lambda A, theta: theta):
        ok &= expect("classify k as identity", failures(wl, inputs), k_visible)
    return ok


def workspace(lib, workdir):
    wl = workloads.WorkspaceFiles(lib, 0, workdir)
    inputs = wl.queue[:1]
    ok = expect("workspace clean failures", failures(wl, inputs), 0)
    with injected(lib.instances, "has_interpolation", lambda f: lambda *a: not f(*a)):
        ok &= expect("workspace negated interpolation", failures(wl, inputs), len(inputs))

    def refuse(original):
        return lambda A, B, cap=10**6: lib.completion.RsdistIdmReport(False, 0, 0, "injected")

    with injected(lib.cli, "verify_rsdist_is_idm_matr", refuse):
        ok &= expect("workspace verify refused", failures(wl, inputs), len(inputs))
    return ok


def targets_exist(lib):
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in workloads.CLI_TARGETS
        if not hasattr(getattr(lib, module), attr)
    ]
    return expect("unwrapped module-boundary names", missing, [])


def refuses_without_sources(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)))
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload", "morita",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    return expect("exit status without src/", (proc.returncode != 0, proc.stdout), (True, ""))


def main():
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK)
    try:
        lib = run.load_library()
        ok = targets_exist(lib)
        for check in (morita, classify, workspace):
            ok &= check(lib, workdir)
        ok &= refuses_without_sources(workdir)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(run.WORK))
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
