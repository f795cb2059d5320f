"""The benchmark's four workloads.

Each workload generates its inputs from the seed, runs one round of program
operations per call of `run_round` (the only timed code), and checks the
outputs against `oracle` or against properties the method must have. Every
round repeats the same operations on the same inputs, so the share of failed
operations is the same in every round. Program functions are always looked up
on their module at call time, so the tracer's wrappers are seen.
"""

import csv
import dataclasses
import json
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import oracle
from preimage import cli, dataset, embedding, evaluation, inverse, kernels, nystrom

# A fold whose system condition estimate exceeds this is not compared with
# the oracle: the tolerance eps*cond would pass almost any answer. The smallest
# Gaussian scale can reach cond ~1e17 on tight node sets.
COND_LIMIT = 1e12
# singular values of the extended eigenspace basis below this share of the
# largest are left out when the norm of a scan profile's coefficients is judged
PROFILE_RCOND = 1e-10
ORACLE_FOLDS = 3  # sampled folds per (n, method, scale) row

# figures of one workload's stages, reported by the traced run from its
# untraced rounds (0 on workloads without the stage): name -> unit
STAGES = {
    "stage.folds_per_s": "folds/s",
    "stage.loo_err_cubic": "l2",
    "stage.embed_s": "s",
    "stage.extend_per_s": "queries/s",
    "stage.fit_s": "s",
    "stage.invert_per_s": "queries/s",
    "stage.roundtrip_err": "l2",
}


class Checks:
    """Named pass/fail results of one run."""

    def __init__(self):
        self.results = []

    def add(self, name: str, ok, detail: str = ""):
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def failed(self):
        return sorted({name for name, ok, _ in self.results if not ok})


@contextmanager
def capture(module, name, sink):
    """Record every result of module.name while the block runs."""
    inner = getattr(module, name)

    def recorder(*args, **kwargs):
        result = inner(*args, **kwargs)
        sink(args, result)
        return result

    setattr(module, name, recorder)
    try:
        yield
    finally:
        setattr(module, name, inner)


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class Workload:
    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tiny = tiny

    def setup(self):
        """Generate the inputs and warm every code path the round uses."""

    def run_round(self, rdir: Path) -> dict:
        raise NotImplementedError

    def collect(self, out: dict):
        """Read what the round wrote to disk, then remove it (untimed)."""
        shutil.rmtree(out.get("dir", ""), ignore_errors=True)

    def failed(self, out: dict) -> int:
        return 0

    def observe(self, out: dict):
        """Program calls made outside the timed section, for the checks."""

    def check(self, out: dict, checks: Checks):
        raise NotImplementedError

    def same(self, first: dict, out: dict, checks: Checks):
        """A later round must reproduce the checked first round."""

    def stages(self, out: dict, wall: float) -> dict:
        return {}

    def perturbations(self):
        """(check name, function that corrupts a copy of the outputs) pairs for
        the self-test; a "rounds-agree" entry corrupts a later round."""
        return []


# ---------------------------------------------------------------- leave-one-out


class LooSweep(Workload):
    """`convergence_sweep` on the sphere pipeline at one seed, all 9 method/scale pairs."""

    n_values = ()
    tiny_n_values = ()
    tiny_max_neighbors = 200

    def setup(self):
        self.config = evaluation.SphereConfig(max_neighbors=self.tiny_max_neighbors if self.tiny else 200)
        self.ns = list(self.tiny_n_values if self.tiny else self.n_values)
        self.ops_per_round = len(evaluation.method_grid(self.config)) * sum(self.ns)
        # one global and one neighbour-capped sweep warm both fit paths
        evaluation.convergence_sweep([12], self.config, seeds=(self.seed,))
        evaluation.convergence_sweep([24], evaluation.SphereConfig(max_neighbors=12), seeds=(self.seed,))

    def run_round(self, rdir):
        reports, data = [], {}
        with capture(evaluation, "loo_error", lambda a, r: reports.append(r)), capture(
            evaluation, "sphere_pipeline", lambda a, r: data.__setitem__(a[0], r)
        ):
            sweep = evaluation.convergence_sweep(self.ns, self.config, seeds=(self.seed,))
        return {"sweep": sweep, "reports": reports, "data": data}

    def failed(self, out):
        return sum(r.failures for r in out["sweep"].rows)

    def observe(self, out):
        policy = inverse.NeighborhoodPolicy(max_neighbors=self.config.max_neighbors)
        folds = []
        out["h"] = {n: oracle.mean_nearest_distance(emb.coords) for n, (_, emb) in out["data"].items()}
        for rep in out["reports"]:
            ambient, emb = out["data"][rep.n]
            coords, values, h = emb.coords, ambient.points, out["h"][rep.n]
            rng = np.random.default_rng([self.seed, rep.n])
            for j in rng.choice(rep.n, ORACLE_FOLDS, replace=False):
                nodes, vals = oracle.loo_fold(coords, values, int(j), self.config.max_neighbors)
                q = coords[j]
                fold = {"n": rep.n, "method": rep.method, "mult": rep.scale_multiple, "j": int(j)}
                if rep.method == evaluation.METHOD_SHEPARD:
                    eps = rep.scale_multiple / h
                    rest = np.arange(rep.n) != j
                    pred = inverse.shepard_eval(
                        dataset.PointCloud(coords[rest]), dataset.PointCloud(values[rest]), q, rep.scale_multiple / rep.h_local, policy
                    )
                    fold.update(cond=1.0, want=np.linalg.norm(values[j] - oracle.shepard_predict(nodes, vals, q, eps)))
                    fold.update(pred=pred, lo=vals.min(axis=0), hi=vals.max(axis=0))
                elif rep.method == evaluation.METHOD_GAUSSIAN:
                    eps = rep.scale_multiple / h
                    model = inverse.fit_rbf(dataset.PointCloud(nodes), dataset.PointCloud(vals), kernels.gaussian(eps), tail="none")
                    fold.update(cond=model.condition)
                    if model.condition <= COND_LIMIT:
                        fold.update(want=np.linalg.norm(values[j] - oracle.gaussian_predict(nodes, vals, q, eps)))
                else:
                    model = inverse.fit_rbf(dataset.PointCloud(nodes), dataset.PointCloud(vals), kernels.cubic(), tail="linear")
                    fold.update(cond=model.condition)
                    if model.condition <= COND_LIMIT:
                        fold.update(want=np.linalg.norm(values[j] - oracle.cubic_linear_predict(nodes, vals, q)))
                folds.append(fold)
        out["folds"] = folds

    def _report(self, out, n, method, mult):
        return next(r for r in out["reports"] if r.n == n and r.method == method and r.scale_multiple == mult)

    def check(self, out, checks):
        rows, reports = out["sweep"].rows, out["reports"]
        checks.add("rows-match-reports", len(rows) == len(reports) == len(self.ns) * len(evaluation.method_grid(self.config))
                   and all(self._report(out, r.n, r.method, r.scale_multiple).e_avg == r.e_avg for r in rows))
        for rep in reports:
            ok = np.isfinite(rep.per_point_errors)
            mean_ok = _rel(float(rep.per_point_errors[ok].mean()), rep.e_avg) <= 1e-12
            checks.add("e-avg-is-fold-mean", mean_ok and len(rep.failures) == int((~ok).sum()), f"n={rep.n} {rep.method} {rep.scale_multiple}")
            checks.add("h-local", _rel(out["h"][rep.n], rep.h_local) <= 1e-12, f"n={rep.n} {rep.method} {rep.scale_multiple}")
        compared = skipped = 0
        for f in out["folds"]:
            rep = self._report(out, f["n"], f["method"], f["mult"])
            if "want" not in f:
                skipped += 1
                continue
            got = rep.per_point_errors[f["j"]]
            tol = max(1e-12, oracle.EPS * f["cond"])
            compared += 1
            checks.add("fold-oracle", abs(got - f["want"]) <= tol,
                       f"n={f['n']} {f['method']} {f['mult']} fold {f['j']}: {got:.6e} vs {f['want']:.6e} (tol {tol:.1e})")
            if f["method"] == evaluation.METHOD_SHEPARD:
                inside = np.all(f["pred"] >= f["lo"] - 1e-12) and np.all(f["pred"] <= f["hi"] + 1e-12)
                same_err = abs(np.linalg.norm(out["data"][f["n"]][0].points[f["j"]] - f["pred"]) - got) <= 1e-12
                checks.add("shepard-hull", inside and same_err, f"n={f['n']} scale {f['mult']} fold {f['j']}")
        checks.add("fold-oracle-count", compared > 0, f"{compared} folds compared, {skipped} skipped above cond {COND_LIMIT:.0e}")
        for n in self.ns:
            cub = self._report(out, n, evaluation.METHOD_CUBIC, None)
            checks.add("cubic-no-failed-folds", len(cub.failures) == 0, f"n={n}: {len(cub.failures)} failed")
            best_g = min(r.e_avg for r in reports if r.n == n and r.method == evaluation.METHOD_GAUSSIAN)
            best_s = min(r.e_avg for r in reports if r.n == n and r.method == evaluation.METHOD_SHEPARD)
            checks.add("criterion-2-ordering", cub.e_avg < best_g and cub.e_avg < best_s,
                       f"n={n}: cubic {cub.e_avg:.3e}, best gaussian {best_g:.3e}, best shepard {best_s:.3e}")

    def same(self, first, out, checks):
        a, b = first["sweep"].rows, out["sweep"].rows
        checks.add("rounds-agree", len(a) == len(b) and all(
            x.failures == y.failures and _rel(x.e_avg, y.e_avg) <= 1e-9 for x, y in zip(a, b)))

    def stages(self, out, wall):
        n = max(self.ns)
        cub = next(r for r in out["sweep"].rows if r.n == n and r.method == evaluation.METHOD_CUBIC)
        return {"stage.folds_per_s": self.ops_per_round / wall, "stage.loo_err_cubic": cub.e_avg}

    def perturbations(self):
        def nudge_fold(out):
            f = next(f for f in out["folds"] if f["method"] == evaluation.METHOD_CUBIC)
            self._report(out, f["n"], f["method"], None).per_point_errors[f["j"]] += 1e-5

        def fail_cubic(out):
            rep = self._report(out, max(self.ns), evaluation.METHOD_CUBIC, None)
            out["reports"][out["reports"].index(rep)] = dataclasses.replace(rep, failures=(0,))

        def worse_cubic(out):
            for i, r in enumerate(out["reports"]):
                if r.method == evaluation.METHOD_CUBIC:
                    out["reports"][i] = dataclasses.replace(r, e_avg=r.e_avg * 1e3, per_point_errors=r.per_point_errors * 1e3)

        def leave_hull(out):
            f = next(f for f in out["folds"] if f["method"] == evaluation.METHOD_SHEPARD)
            f["pred"] = f["hi"] + 1e-3

        def bad_row(out):
            out["sweep"].rows[0] = dataclasses.replace(out["sweep"].rows[0], e_avg=out["sweep"].rows[0].e_avg * 2)

        def bad_mean(out):
            out["reports"][1] = dataclasses.replace(out["reports"][1], e_avg=out["reports"][1].e_avg * 1.01)

        def bad_h(out):
            out["reports"] = [dataclasses.replace(r, h_local=r.h_local * 1.001) for r in out["reports"]]

        def skip_all(out):
            for f in out["folds"]:
                f.pop("want")

        return [("fold-oracle", nudge_fold), ("cubic-no-failed-folds", fail_cubic),
                ("criterion-2-ordering", worse_cubic), ("shepard-hull", leave_hull),
                ("rows-match-reports", bad_row), ("e-avg-is-fold-mean", bad_mean), ("h-local", bad_h),
                ("fold-oracle-count", skip_all), ("rounds-agree", bad_row)]


class LooGlobal(LooSweep):
    """Sizes with n-1 <= max_neighbors: every fold is a full global refit."""

    name = "loo-global"
    n_values = (100, 150, 200)
    tiny_n_values = (30, 40)


class LooLocal(LooSweep):
    """n = 1000: every fold is a 200-neighbour local fit."""

    name = "loo-local"
    n_values = (1000,)
    tiny_n_values = (80,)
    tiny_max_neighbors = 40


# ---------------------------------------------------------------- embed, extend, fit, invert


class Roundtrip(Workload):
    """The library tour at scale: embed n training points, carry m held-out
    points to coordinates by Nystrom extension, fit the inverse with
    `preimage fit` and reconstruct the held-out points with `preimage invert`."""

    name = "roundtrip"
    ops_per_round = 4  # embed, extend, fit, invert
    d = 5
    err_bound = 5e-4  # mean l2 error of the reconstructed held-out points (unit-norm data)

    def setup(self):
        n, m = (600, 20) if self.tiny else (2000, 2000)
        self.inputs = self._points(self.seed, n, m)
        warm = self._points(self.seed, 60, 4)
        shutil.rmtree(self.run_round(self.workdir / "warm", warm)["dir"])

    @staticmethod
    def _points(seed, n, m):
        """n + m points of S^4 rotated into R^10; the first n train, the rest are held out."""
        rng = np.random.default_rng([seed, 0])
        pts = oracle.sphere_points(rng, n + m, 4) @ oracle.haar_rotation(rng, 10)[:5]
        return pts[:n], pts[n:]

    def run_round(self, rdir, inputs=None):
        train, held = inputs if inputs is not None else self.inputs
        rdir.mkdir(parents=True)
        clock = _Clock()
        cloud = dataset.PointCloud(train)
        spec = kernels.gaussian(0.25 / dataset.local_fill_distance(cloud))
        emb = embedding.laplacian_eigenmaps(cloud, spec, d=self.d)
        clock.lap("embed")
        ext = np.array([[nystrom.nystrom_extend(emb, cloud, spec, q, l).value for l in range(1, self.d + 1)] for q in held])
        clock.lap("extend")
        dataset.save_cloud(dataset.PointCloud(emb.coords), rdir / "coords.pcld")
        dataset.save_cloud(cloud, rdir / "values.pcld")
        rc_fit = cli.main(["fit", "--nodes", str(rdir / "coords.pcld"), "--values", str(rdir / "values.pcld"),
                           "--out", str(rdir / "model")])
        clock.lap("fit")
        dataset.save_cloud(dataset.PointCloud(ext), rdir / "queries.pcld")
        rc_inv = cli.main(["invert", "--model", str(rdir / "model"), "--queries", str(rdir / "queries.pcld"),
                           "--out", str(rdir / "pred.pcld")])
        clock.lap("invert")
        return {"dir": rdir, "train": train, "held": held, "spec": spec, "emb": emb, "ext": ext,
                "rc": (rc_fit, rc_inv), "laps": clock.laps}

    def collect(self, out):
        rdir = out["dir"]
        if out["rc"] == (0, 0):
            out["pred"] = oracle.read_pcld(rdir / "pred.pcld")
            out["model"] = {name: oracle.read_pcld(rdir / "model" / f"{name}.pcld") for name in ("nodes", "weights", "poly")}
        super().collect(out)

    def failed(self, out):
        return sum(rc != 0 for rc in out["rc"])

    def observe(self, out):
        train, emb = out["train"], out["emb"]
        cloud = dataset.PointCloud(train)
        rng = np.random.default_rng([self.seed, 1])
        idx = rng.choice(train.shape[0], 8, replace=False)
        out["train_ext"] = [(int(i), l, nystrom.nystrom_extend(emb, cloud, out["spec"], train[i], l).value)
                            for i in idx for l in range(1, self.d + 1)]

    def check(self, out, checks):
        if out["rc"] != (0, 0):
            return  # counted as failed operations; their outputs do not exist
        train, held, emb, pred = out["train"], out["held"], out["emb"], out["pred"]
        eps = 0.25 / oracle.mean_nearest_distance(train)
        checks.add("affinity-scale", _rel(eps, out["spec"].epsilon) <= 1e-12)
        # eigen-residual of the program's eigenpairs against K~ built here
        k = oracle.gaussian_kernel(train, train, eps)
        w, v = emb.eigvals, emb.eigvecs
        half = 1.0 / np.sqrt(k.sum(axis=1))
        resid = np.linalg.norm((k * half[:, None] * half[None, :]) @ v - v * w[None, :], axis=0).max()
        ortho = np.abs(v.T @ v - np.eye(v.shape[1])).max()
        checks.add("eigen-residual", resid <= 1e-8 and ortho <= 1e-10 and abs(w[0] - 1.0) <= 1e-10
                   and np.array_equal(emb.coords, v[:, 1:]), f"max |K~v - lambda v| {resid:.1e}, orthogonality {ortho:.1e}")
        worst = max(abs(val - v[i, l]) for i, l, val in out["train_ext"])
        checks.add("nystrom-at-training-points", worst <= 1e-8, f"max |extension - eigvec| {worst:.1e}")
        deg = k.sum(axis=1)
        kq = oracle.gaussian_kernel(held[:16], train, eps)
        own = oracle.nystrom(kq, w[1:], v[:, 1:], deg)
        gap = np.abs(own - out["ext"][:16]).max()
        checks.add("nystrom-formula", gap <= 1e-10, f"max gap {gap:.1e} over 16 held-out points")
        # the saved model, evaluated here: reproduces the training values and the predictions
        nodes, weights, poly = (out["model"][name] for name in ("nodes", "weights", "poly"))

        def evaluate(q):
            return oracle.cubic_kernel(q, nodes) @ weights + poly[0] + q @ poly[1:]

        scale = np.abs(train).max()
        reprod = np.abs(evaluate(nodes) - train).max() / scale
        checks.add("node-reproduction", np.array_equal(nodes, emb.coords) and reprod <= 1e-8,
                   f"max relative residual {reprod:.1e}")
        inv_gap = np.abs(evaluate(out["ext"]) - pred).max() / scale
        checks.add("invert-matches-model", inv_gap <= 1e-8, f"max relative gap {inv_gap:.1e}")
        err = np.linalg.norm(pred - held, axis=1)
        checks.add("roundtrip-error", err.mean() <= self.err_bound,
                   f"mean {err.mean():.2e} (bound {self.err_bound:.0e}), max {err.max():.2e} over {len(err)} held-out points")

    def same(self, first, out, checks):
        ok = out["rc"] == first["rc"] and ("pred" not in first or np.allclose(out["pred"], first["pred"], rtol=0, atol=1e-9))
        checks.add("rounds-agree", ok)

    def stages(self, out, wall):
        laps, m = out["laps"], out["held"].shape[0]
        err = np.linalg.norm(out["pred"] - out["held"], axis=1).mean() if "pred" in out else float("nan")
        return {"stage.embed_s": laps["embed"], "stage.extend_per_s": m / laps["extend"], "stage.fit_s": laps["fit"],
                "stage.invert_per_s": m / laps["invert"], "stage.roundtrip_err": float(err)}

    def perturbations(self):
        def nudge_pred(out):
            out["pred"][0, 0] += 1e-6

        def bad_eigvec(out):
            v = out["emb"].eigvecs.copy()
            v[:, 2] = np.roll(v[:, 2], 1)
            out["emb"] = dataclasses.replace(out["emb"], eigvecs=v, coords=v[:, 1:].copy())

        def bad_train_ext(out):
            i, l, val = out["train_ext"][0]
            out["train_ext"][0] = (i, l, val + 1e-6)

        def bad_ext(out):
            out["ext"] = out["ext"].copy()
            out["ext"][3, 1] += 1e-8

        def bad_weights(out):
            out["model"]["weights"] = out["model"]["weights"] * (1 + 1e-6)

        def far_pred(out):
            out["pred"] = out["pred"] + 0.01

        def bad_scale(out):
            out["spec"] = kernels.gaussian(out["spec"].epsilon * 1.001)

        return [("invert-matches-model", nudge_pred), ("eigen-residual", bad_eigvec),
                ("nystrom-at-training-points", bad_train_ext), ("nystrom-formula", bad_ext),
                ("node-reproduction", bad_weights), ("roundtrip-error", far_pred),
                ("affinity-scale", bad_scale), ("rounds-agree", nudge_pred)]


class _Clock:
    def __init__(self):
        self.laps = {}
        self._t = time.perf_counter()

    def lap(self, name):
        now = time.perf_counter()
        self.laps[name] = now - self._t
        self._t = now


# ---------------------------------------------------------------- CLI diagnostics


class CliDiagnostics(Workload):
    """In-process `cli.main` runs of the conditioning sweeps, thresholded and
    knn Nystrom scans, and the `sphere` experiment on its defaults."""

    name = "cli-diagnostics"
    threshold_clouds = 5  # criterion 5 is judged on the median jump ratio of these scans
    # the sphere experiment on the CLI defaults at small n; its inputs are
    # fixed, so its outcome is the same on every seed
    sphere_args = ["--cubic-only", "--n", "10,30,100", "--seed-list", "0,1"]
    scan_args = ["--epsilon-multiple", "0.5", "--start", "0.05,0.05", "--stop", "0.95,0.95"]
    steps = 1000

    def setup(self):
        self.fill_n = [10, 20, 50] if self.tiny else [10, 20, 50, 100, 200, 500, 1000]
        self.eps_n = 50 if self.tiny else 200
        self.clouds = []
        for i in range(self.threshold_clouds + 1):
            path = self.workdir / f"cloud{i}.pcld"
            oracle.write_pcld(path, np.random.default_rng([self.seed, 1, i]).uniform(0.0, 1.0, size=(150, 2)))
            self.clouds.append(path)
        self.ops_per_round = len(self._commands(self.workdir))
        warm = self.workdir / "warm"
        for argv in (["conditioning", "--mode", "vs_epsilon", "--n", "20", "--epsilon-values", "0.1,1", "--out", str(warm / "c")],
                     ["nystrom-scan", "--cloud", str(self.clouds[0]), "--threshold", "0.4", "--steps", "20", "--out", str(warm / "s")],
                     ["sphere", "--cubic-only", "--n", "10,12,14", "--seed-list", "0", "--out", str(warm / "p")]):
            cli.main(argv)
        shutil.rmtree(warm)

    def _commands(self, rdir):
        cmds = [("vs_fill", ["conditioning", "--mode", "vs_fill", "--seed", str(self.seed),
                             "--n-values", ",".join(map(str, self.fill_n))]),
                ("vs_epsilon", ["conditioning", "--mode", "vs_epsilon", "--seed", str(self.seed), "--n", str(self.eps_n)])]
        for i in range(self.threshold_clouds):
            cmds.append((f"threshold{i}", ["nystrom-scan", "--cloud", str(self.clouds[i]), "--threshold", "0.4",
                                           "--steps", str(self.steps)] + self.scan_args))
        cmds.append(("knn", ["nystrom-scan", "--cloud", str(self.clouds[-1]), "--knn", "10", "--embed-dim", "2",
                             "--steps", str(self.steps)] + self.scan_args))
        cmds.append(("sphere", ["sphere"] + self.sphere_args))
        return [(name, argv + ["--out", str(rdir / name)]) for name, argv in cmds]

    def run_round(self, rdir):
        rdir.mkdir(parents=True)
        return {"dir": rdir, "rc": {name: cli.main(argv) for name, argv in self._commands(rdir)}}

    def collect(self, out):
        rdir, rc = out["dir"], out["rc"]
        res = {}
        for name in ("vs_fill", "vs_epsilon"):
            if rc[name] == 0:
                res[name] = _csv_rows(rdir / name / "conditioning.csv")
        for name in [f"threshold{i}" for i in range(self.threshold_clouds)] + ["knn"]:
            if rc[name] == 0:
                rows = _csv_rows(rdir / name / "scan.csv")
                res[name] = {"t": np.array([float(r["t"]) for r in rows]),
                             "full": np.array([float(r["value_full"]) for r in rows]),
                             "summary": json.loads((rdir / name / "scan_summary.json").read_text())}
        if rc["sphere"] == 0:
            res["sphere"] = json.loads((rdir / "sphere" / "summary.json").read_text())
        out["res"] = res
        super().collect(out)

    def sphere_ok(self, out) -> bool:
        """Paper criterion 1: the cubic's log-log slope of error against h_local lies in [1.5, 2.5]."""
        slope = out["res"].get("sphere", {}).get("slope")
        return slope is not None and 1.5 <= slope <= 2.5

    def failed(self, out):
        return sum(rc != 0 for name, rc in out["rc"].items() if name != "sphere") + (not self.sphere_ok(out))

    def _quadrant(self, n, dim=5):
        """The conditioning node set: `sample_sphere(n, dim-1, quadrant_only=True, seed)` re-derived."""
        return np.abs(oracle.sphere_points(np.random.default_rng(self.seed), n, dim - 1))

    def check(self, out, checks):
        res = out["res"]
        if "vs_fill" in res:
            for r in res["vs_fill"]:
                nodes = self._quadrant(int(r["n"]))
                k = oracle.gaussian_kernel(nodes, nodes, 1e-2) if r["method"] == "gaussian" else oracle.cubic_kernel(nodes, nodes)
                _cond_check(checks, "vs-fill-cond", float(r["cond"]), oracle.cond(k), f"n={r['n']} {r['method']}")
                checks.add("h-local", _rel(float(r["h_local"]), oracle.mean_nearest_distance(nodes)) <= 1e-12, f"n={r['n']}")
        if "vs_epsilon" in res:
            nodes = self._quadrant(self.eps_n)
            gauss = {}
            for r in res["vs_epsilon"]:
                if r["method"] == "gaussian":
                    gauss[float(r["parameter"])] = float(r["cond"])
                    own = oracle.cond(oracle.gaussian_kernel(nodes, nodes, float(r["parameter"])))
                    _cond_check(checks, "vs-epsilon-cond", float(r["cond"]), own, f"epsilon={r['parameter']}")
            cub = [float(r["cond"]) for r in res["vs_epsilon"] if r["method"] == "cubic"]
            flat = [oracle.cond(oracle.cubic_kernel(c * nodes, c * nodes)) for c in (1e-2, 1.0, 1e1)]
            checks.add("cubic-flat", len(cub) == 1 and all(_rel(cub[0], f) <= 1e-8 for f in flat) and cub[0] <= max(gauss.values()) / 1e3,
                       f"cubic {cub} vs own at three scales {flat}")
            ratio = gauss[min(gauss)] / gauss[max(gauss)]
            checks.add("criterion-3-conditioning", ratio >= 1e6, f"gaussian cond ratio eps {min(gauss)}/{max(gauss)}: {ratio:.2e}")
        ratios = []
        for i in range(self.threshold_clouds):
            name = f"threshold{i}"
            if name in res:
                s = res[name]["summary"]
                ratios.append(s["delta_max_sparse"] / s["delta_max_full"])
                self._profile_check(checks, out, name, i, sparse_threshold=0.4)
        if ratios:
            checks.add("criterion-5-jump-ratio", np.median(ratios) >= 10.0,
                       "median sparse/full jump ratio " + f"{np.median(ratios):.1f} over " + ", ".join(f"{r:.1f}" for r in ratios))
        if "knn" in res:
            checks.add("knn-diagnostic-only", res["knn"]["summary"]["diagnostic_only"] is True)
            self._profile_check(checks, out, "knn", self.threshold_clouds, sparse_threshold=None)

    def _profile_check(self, checks, out, name, i, sparse_threshold):
        """The full-kernel profile must be the Nystrom extension of a unit
        vector of the eigenspace of eigenvalue 1 (counting from 0), evaluated
        here: it lies in the span of the extended basis vectors, and a vector
        of norm at most 1 reproduces it.

        Both are judged against the largest singular value s0 of the extended
        basis, the largest profile (in 2-norm) a unit vector can give: LAPACK
        may return a unit vector that lives on components far from the
        segment, whose profile is all rounding. Such components also make the
        basis ill-conditioned (cond up to 1e16), so the plain least-squares
        coefficients carry rounding noise of order 1e-3; the norm is taken
        from the fit truncated at PROFILE_RCOND. A dropped direction moves the
        profile by at most PROFILE_RCOND * s0, and what is kept is the
        projection of the true coefficients, whose norm is at most theirs,
        plus rounding of order 1e-15 * s0 amplified by at most 1/PROFILE_RCOND."""
        cloud = oracle.read_pcld(self.clouds[i])
        eps = 0.5 / oracle.mean_nearest_distance(cloud)
        k = oracle.gaussian_kernel(cloud, cloud, eps)
        if sparse_threshold is not None:  # --embed-on sparse: the embedding uses the thresholded matrix
            k = np.where(k < sparse_threshold, 0.0, k)
        lam, basis, deg = oracle.eigenspace(k, 1)
        prof = out["res"][name]
        a, b = np.array([0.05, 0.05]), np.array([0.95, 0.95])
        kq = oracle.gaussian_kernel(a[None, :] + prof["t"][:, None] * (b - a)[None, :], cloud, eps)
        own = oracle.nystrom(kq, lam, basis, deg)
        s0 = np.linalg.norm(own, 2)
        span = np.linalg.lstsq(own, prof["full"], rcond=None)[0]
        gap = np.abs(own @ span - prof["full"]).max() / s0
        norm = np.linalg.norm(np.linalg.lstsq(own, prof["full"], rcond=PROFILE_RCOND)[0])
        ok = len(prof["full"]) == self.steps and 10 * basis.shape[1] <= self.steps
        checks.add("scan-full-profile", ok and gap <= 1e-10 and norm <= 1.0 + 1e-4,
                   f"{name}: eigenspace of dimension {basis.shape[1]}, max gap {gap:.1e} of s0, "
                   f"profile max {np.abs(prof['full']).max() / s0:.1e} of s0, |coef| {norm:.9f}")

    def same(self, first, out, checks):
        a, b = first["res"], out["res"]
        ok = first["rc"] == out["rc"] and a.keys() == b.keys()
        for name in a:
            if name in ("vs_fill", "vs_epsilon"):
                ok &= all(x["cond"] == y["cond"] or _rel(float(x["cond"]), float(y["cond"])) <= 1e-9 for x, y in zip(a[name], b[name]))
            elif name == "sphere":
                ok &= a[name].get("slope") == b[name].get("slope")
            else:
                ok &= np.allclose(a[name]["full"], b[name]["full"], rtol=1e-12, atol=0)
        checks.add("rounds-agree", ok)

    def perturbations(self):
        def swap_cond(out):
            rows = out["res"]["vs_epsilon"]  # the two largest scales, then the cubic row
            rows[-3]["cond"], rows[-2]["cond"] = rows[-2]["cond"], rows[-3]["cond"]

        def bump_fill(out):
            row = next(r for r in out["res"]["vs_fill"] if r["method"] == "cubic")
            row["cond"] = repr(float(row["cond"]) * 1.001)

        def tilt_cubic(out):
            row = next(r for r in out["res"]["vs_epsilon"] if r["method"] == "cubic")
            row["cond"] = repr(float(row["cond"]) * 1.001)

        def flatten_gauss(out):
            for r in out["res"]["vs_epsilon"]:
                if r["method"] == "gaussian":
                    r["cond"] = "100.0"

        def smooth_jumps(out):
            for i in range(self.threshold_clouds):
                s = out["res"][f"threshold{i}"]["summary"]
                s["delta_max_sparse"] = s["delta_max_full"] * 2

        def nudge_profile(out):
            full = out["res"]["threshold0"]["full"]
            full[np.abs(full).argmax()] *= 1.0 + 1e-6

        def bad_h(out):
            row = out["res"]["vs_fill"][0]
            row["h_local"] = repr(float(row["h_local"]) * 1.001)

        def not_diagnostic(out):
            out["res"]["knn"]["summary"]["diagnostic_only"] = False

        return [("vs-epsilon-cond", swap_cond), ("vs-fill-cond", bump_fill), ("cubic-flat", tilt_cubic),
                ("criterion-3-conditioning", flatten_gauss), ("criterion-5-jump-ratio", smooth_jumps),
                ("scan-full-profile", nudge_profile), ("h-local", bad_h), ("knn-diagnostic-only", not_diagnostic),
                ("rounds-agree", nudge_profile)]


def _cond_check(checks, name, got, own, detail):
    """Condition numbers agree to eps*cond relative; beyond COND_LIMIT both must be beyond it."""
    if own > COND_LIMIT:
        checks.add(name, got > COND_LIMIT / 1e3, f"{detail}: {got:.2e} vs {own:.2e}, both beyond the limit")
    else:
        tol = max(1e-10, 64 * oracle.EPS * own)
        checks.add(name, _rel(got, own) <= tol, f"{detail}: {got:.6e} vs {own:.6e} (tol {tol:.0e})")


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


WORKLOADS = {w.name: w for w in (LooGlobal, LooLocal, Roundtrip, CliDiagnostics)}
