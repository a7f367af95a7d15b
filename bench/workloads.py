"""The three benchmark workloads: ``morita``, ``classify`` and ``workspace``.

Each workload turns a seed into passes of inputs, runs one op per input
and checks the op's output against a reference that does not use the code
under test.  A pass has a fixed recipe (so many inputs of each family);
the seed only decides which members are drawn and in which order, so
every run sees the same mix.

Ops take a tracer.  The untraced run passes :class:`spans.NullTracer`;
the traced run passes a recording tracer and, for the CLI workloads,
wraps the module-boundary names listed in ``targets``.
"""

import contextlib
import io
import json
import os
import random

import inputs as gen

LAYERS = (
    "lattice",
    "quantaloid",
    "semicat",
    "presheaf",
    "morita",
    "completion",
    "instances",
    "workspace",
    "cli",
)

VARIANCES = ("contra", "co")


def _cli(lib, tr, argv):
    out, err = io.StringIO(), io.StringIO()
    with tr.span("cli.main", "cli"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(argv)
    return rc, out.getvalue()


# Module-boundary names wrapped in a traced CLI run: (module, attribute,
# span name, layer).  Calls inside one module are not wrapped.
CLI_TARGETS = [
    ("cli", "load_path", "workspace.load_path", "workspace"),
    ("cli", "load_workspace", "workspace.load_workspace", "workspace"),
    ("cli", "validate_report", "workspace.validate_report", "workspace"),
    ("cli", "morita_equivalent", "morita.morita_equivalent", "morita"),
    ("cli", "build_idm", "completion.build_idm", "completion"),
    ("cli", "verify_rsdist_is_idm_matr", "completion.verify_rsdist_is_idm_matr", "completion"),
    ("workspace", "named_lattice", "lattice.named_lattice", "lattice"),
    ("workspace", "validate_sup_lattice", "lattice.validate_sup_lattice", "lattice"),
    ("workspace", "builtin_quantaloid", "quantaloid.builtin_quantaloid", "quantaloid"),
    ("workspace", "from_frame", "quantaloid.from_frame", "quantaloid"),
    ("workspace", "validate_semicategory", "semicat.validate_semicategory", "semicat"),
    ("workspace", "validate_semidistributor", "semicat.validate_semidistributor", "semicat"),
    ("workspace", "validate_semifunctor", "semicat.validate_semifunctor", "semicat"),
    ("workspace", "validate_poset", "instances.validate_poset", "instances"),
    ("workspace", "validate_omega_set", "instances.validate_omega_set", "instances"),
    ("quantaloid", "named_lattice", "lattice.named_lattice", "lattice"),
    ("quantaloid", "validate_quantaloid", "quantaloid.validate_quantaloid", "quantaloid"),
    ("morita", "is_regular_semicat", "semicat.is_regular_semicat", "semicat"),
    ("morita", "build_RA", "presheaf.build_RA", "presheaf"),
    ("morita", "skeleton", "morita.skeleton", "morita"),
    ("morita", "categories_isomorphic", "morita.categories_isomorphic", "morita"),
    ("morita", "rsdist_isomorphism_search", "morita.rsdist_isomorphism_search", "morita"),
    ("morita", "enumerate_regular_semidists", "semicat.enumerate_regular_semidists", "semicat"),
    ("completion", "is_regular_semicat", "semicat.is_regular_semicat", "semicat"),
    ("completion", "validate_sup_lattice", "lattice.validate_sup_lattice", "lattice"),
    ("completion", "validate_quantaloid", "quantaloid.validate_quantaloid", "quantaloid"),
    ("completion", "matrix_space", "semicat.matrix_space", "semicat"),
]


class Workload:
    """Common pass bookkeeping; subclasses define the recipe, op and check."""

    name = ""
    targets = []
    # Percentile of op_tail_ms: at least about ten of a 30 s run's ops lie beyond it.
    tail_pct = 95

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.made = 0
        self.prepare()
        self.queue = self.make_pass()

    def next_pass(self):
        batch, self.queue = self.queue or self.make_pass(), None
        return batch

    def write(self, doc):
        self.made += 1
        path = os.path.join(self.workdir, f"{self.name}-{self.made}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def hooks(self):
        """Deferred count hooks keyed by attribute, for :data:`CLI_TARGETS`."""
        return {}

    def diagnostics(self):
        return {}

    def patch_targets(self):
        hooks = self.hooks()
        return [
            (module, attr, name, layer, hooks.get((module, attr)))
            for module, attr, name, layer in self.targets
        ]


# -- morita ------------------------------------------------------------------

# (label, base, frame, objects, ops per pass).  The counts put the median op
# inside the dense two-object frame:4 and frame:square cluster, and two
# three-object decisions per pass put the tail inside the three-object
# cluster.  The three-object frame:square rung is left out: one decision
# there takes about 27 s.
LADDER = (
    ("1obj.chain3", "3", "chain3", 1, 1),
    ("2obj.chain3", "3", "chain3", 2, 2),
    ("3obj.chain3", "3", "chain3", 3, 2),
    ("1obj.chain4", "frame:4", "chain4", 1, 1),
    ("2obj.chain4", "frame:4", "chain4", 2, 12),
    ("1obj.square", "frame:square", "square", 1, 1),
    ("2obj.square", "frame:square", "square", 2, 12),
)

# A three-object decision over 3 takes 1.1 to 2.7 s when its certificate
# search tries at most PAIR_LIMIT candidate pairs (|Φ|·|Ψ|).  Beyond that
# the pair loop, about 35 us per pair, takes over: a draw with 211,385 pairs
# took 8.8 s, and a category whose 27 vectors are all regular has 19,683
# regular semidistributors to itself, which puts one decision at hours.
# Such draws are skipped and counted.
BOUNDED = "3obj.chain3"
PAIR_LIMIT = 30_000

FRAMES = {
    "chain3": (3, gen.CHAIN_OPS),
    "chain4": (4, gen.CHAIN_OPS),
    "square": (4, gen.SQUARE_OPS),
}


class Morita(Workload):
    """``qsemicat --json morita`` on a two-semicategory workspace, in-process."""

    name = "morita"
    targets = CLI_TARGETS

    def prepare(self):
        self.families = {}
        for label, _, frame, n, _ in LADDER:
            size, ops = FRAMES[frame]
            self.families[label] = gen.idempotent_family(size, n, ops)
        self.fixed = {}
        self.skipped = 0

    def pair_bound(self, a, b):
        """|Φ|·|Ψ|, the pairs a certificate search may try, counted without the library."""
        for m in (a, b):
            if m not in self.fixed:
                self.fixed[m] = gen.chain_fixed_vectors(m, 3)
        (rows_a, cols_a), (rows_b, cols_b) = self.fixed[a], self.fixed[b]
        return gen.regular_count(rows_a, cols_b, len(a)) * gen.regular_count(rows_b, cols_a, len(b))

    def draw(self, label):
        fam = self.families[label]
        while True:
            a, b = self.rng.choice(fam), self.rng.choice(fam)
            if label != BOUNDED or self.pair_bound(a, b) <= PAIR_LIMIT:
                return a, b
            self.skipped += 1

    def diagnostics(self):
        return {"pairs_over_limit_skipped": self.skipped}

    def make_pass(self):
        batch = []
        for label, base, frame, _, count in LADDER:
            for _ in range(count):
                a, b = self.draw(label)
                batch.append(self.make_input(label, base, frame, a, b))
        self.rng.shuffle(batch)
        return batch

    def make_input(self, label, base, frame, a, b):
        doc = {
            "quantaloids": {"Q": base},
            "semicategories": {"A": gen.semicat_spec("Q", a), "B": gen.semicat_spec("Q", b)},
        }
        return {"label": label, "frame": frame, "A": a, "B": b, "path": self.write(doc)}

    def warmup_inputs(self, batch):
        seen = {}
        for inp in batch:
            if not inp["label"].startswith("3obj"):
                seen.setdefault(inp["label"], inp)
        return list(seen.values())

    def op(self, inp, tr):
        return _cli(self.lib, tr, ["--json", "morita", inp["path"], "A", "B"])

    def check(self, inp, out):
        rc, text = out
        rep = json.loads(text)
        if rep["routes_agree"] is not True or rc != (0 if rep["morita"] else 1):
            return False
        cert = rep["certificate"]
        if cert is None:
            return not rep["morita"]
        A, B = inp["A"], inp["B"]
        idx = {name: i for i, name in enumerate(gen.NAMES)}
        phi = [[0] * len(A) for _ in B]
        psi = [[0] * len(B) for _ in A]
        for b, a, e in cert["phi"]:
            phi[idx[b]][idx[a]] = e
        for a, b, e in cert["psi"]:
            psi[idx[a]][idx[b]] = e
        ops = FRAMES[inp["frame"]][1]
        return gen.frame_product(psi, phi, ops) == A and gen.frame_product(phi, psi, ops) == B

    def record(self, inp, out):
        return f"{inp['label']} {inp['A']} {inp['B']} {out[0]} {out[1]}"

    def hooks(self):
        semicat = self.lib.semicat
        kept = []

        def scanned(tr, args, result):
            tr.count("semicat.matrices_scanned", semicat.matrix_space(args[0], args[1])[0])
            tr.count("semicat.regular_semidists_kept", len(result))
            kept.append(len(result))

        def search(tr, args, result):
            if len(kept) >= 2:
                tr.count("morita.pairs_tested_max", kept[-2] * kept[-1])
            kept.clear()

        return {
            ("morita", "enumerate_regular_semidists"): scanned,
            ("morita", "rsdist_isomorphism_search"): search,
        }


# -- classify ----------------------------------------------------------------

# (family, ops per pass); None means every member of the family, in a
# seeded order, so its few heavy members recur at a fixed rate.
CLASSIFY_RECIPE = (
    ("3obj.chain3", 100),
    ("2obj.square", 40),
    ("3obj.square", 40),
    ("2obj.relations", None),
)


class Classify(Workload):
    """Classify every presheaf of one regular semicategory, in both variances."""

    name = "classify"
    tail_pct = 98.5

    def prepare(self):
        lib = self.lib
        self.bases = {
            "chain3": lib.quantaloid.builtin_quantaloid("3"),
            "square": lib.quantaloid.builtin_quantaloid("frame:square"),
            "relations": lib.workspace.parse_quantaloid(gen.rel_quantaloid_spec()),
        }
        chain3, square = FRAMES["chain3"], FRAMES["square"]
        self.families = {
            "3obj.chain3": gen.idempotent_family(chain3[0], 3, chain3[1]),
            "2obj.square": gen.idempotent_family(square[0], 2, square[1]),
            "2obj.relations": gen.rel_family(),
        }

    def _semicat(self, base, m, types=None):
        types = types or ("*",) * len(m)
        n = len(m)
        objects = [(gen.NAMES[i], types[i]) for i in range(n)]
        hom = {(gen.NAMES[i], gen.NAMES[j]): m[i][j] for i in range(n) for j in range(n)}
        return self.lib.semicat.validate_semicategory(self.bases[base], objects, hom)

    def make_pass(self):
        rng = self.rng
        batch = []
        for fam, count in CLASSIFY_RECIPE:
            if fam == "3obj.square":
                ops = FRAMES["square"][1]
                for _ in range(count):
                    seed = tuple(
                        tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(3)) for _ in range(3)
                    )
                    batch.append((fam, self._semicat("square", gen.settle(seed, ops))))
                continue
            members = self.families[fam]
            for m in rng.sample(members, len(members) if count is None else count):
                if fam == "2obj.relations":
                    batch.append((fam, self._semicat("relations", m, gen.REL_TYPES)))
                else:
                    batch.append((fam, self._semicat(fam.split(".")[1], m)))
        rng.shuffle(batch)
        return [{"label": fam, "A": A} for fam, A in batch]

    def warmup_inputs(self, batch):
        """The first input of each family in hom order: the whole relations
        family is in every pass, so its warm-up member is the same for every seed."""
        seen = {}
        for inp in sorted(batch, key=lambda inp: repr(inp["A"].hom)):
            seen.setdefault(inp["label"], inp)
        return list(seen.values())

    def op(self, inp, tr):
        P = self.lib.presheaf
        A = inp["A"]
        out = []
        for v in VARIANCES:
            with tr.span(f"presheaf.enumerate_presheaves.{v}", "presheaf"):
                pool = [p for x in A.base.objects for p in P.enumerate_presheaves(A, x, v)]
            with tr.span(f"presheaf.hom_table.{v}", "presheaf"):
                hom = [[P.presheaf_hom_elem(p1, p0) for p0 in pool] for p1 in pool]
            with tr.span(f"presheaf.is_regular_presheaf.{v}", "presheaf"):
                reg = [P.is_regular_presheaf(p) for p in pool]
            with tr.span(f"presheaf.is_yoneda_presheaf.{v}", "presheaf"):
                yon = [P.is_yoneda_presheaf(p) for p in pool]
            with tr.span(f"presheaf.is_regular_via_liftings.{v}", "presheaf"):
                via = [P.is_regular_via_liftings(p, against=pool) for p in pool]
            with tr.span(f"presheaf.map_j.{v}", "presheaf"):
                js = [P.map_j(A, p) for p in pool]
            with tr.span(f"presheaf.map_k.{v}", "presheaf"):
                ks = [P.map_k(A, p) for p, r in zip(pool, reg) if r]
            with tr.span("presheaf.build_RA", "presheaf"):
                view = P.build_RA(A, v)
            with tr.span("morita.skeleton", "morita"):
                report, _ = self.lib.morita.skeleton(view)
            tr.defer(lambda v=v, pool=pool: self._count(tr, A, v, pool))
            out.append((v, pool, hom, reg, yon, via, js, ks, len(view), len(report.classes)))
        return out

    @staticmethod
    def _count(tr, A, v, pool):
        q = A.base
        scanned = 0
        for x in q.objects:
            size = 1
            for a in A.names:
                t = A.type_of(a)
                size *= (q.hom_lat(x, t) if v == "contra" else q.hom_lat(t, x)).size
            scanned += size
        tr.count(f"presheaf.candidates_scanned.{v}", scanned)
        tr.count(f"presheaf.presheaves_kept.{v}", len(pool))
        tr.count(f"presheaf.hom_elems.{v}", len(pool) ** 2)

    def check(self, inp, out):
        for v, pool, hom, reg, yon, via, js, ks, n_ra, n_classes in out:
            if reg != via:
                return False
            if set(ks) != {p for p, y in zip(pool, yon) if y}:
                return False
        return True

    def record(self, inp, out):
        parts = [inp["label"], repr(inp["A"].hom)]
        for v, pool, hom, reg, yon, via, js, ks, n_ra, n_classes in out:
            values = [[p.values for p in ps] for ps in (pool, js, ks)]
            parts.append(repr((v, values, hom, reg, yon, n_ra, n_classes)))
        return " ".join(parts)


# -- workspace ---------------------------------------------------------------

RELATIONS = 30
WORKSPACES_PER_PASS = 3


class WorkspaceFiles(Workload):
    """One generated workspace file through validate, completion idm/verify and regularity."""

    name = "workspace"
    targets = CLI_TARGETS
    tail_pct = 75

    def prepare(self):
        self.rel_spec = gen.rel_quantaloid_spec()
        self.idempotents = gen.rel_idempotent_count()
        chain3 = FRAMES["chain3"]
        self.small = [
            m for n in (1, 2) for m in gen.idempotent_family(chain3[0], n, chain3[1])
        ]
        self.hetero = gen.rel_family()

    def make_pass(self):
        return [self._make_doc() for _ in range(WORKSPACES_PER_PASS)]

    def _make_doc(self):
        rng = self.rng
        names = list(gen.NAMES)
        sems, dists, funcs, relations = {}, {}, {}, {}
        for i in range(RELATIONS):
            rows = gen.random_transitive(rng, 5, rng.uniform(0.1, 0.35))
            m = tuple(tuple(r >> j & 1 for j in range(5)) for r in rows)
            name = f"rel{i}"
            sems[name] = gen.semicat_spec("B", m)
            relations[name] = rows
            if i < 5:
                dists[f"d{i}"] = {"dom": name, "cod": name, "mat": sems[name]["hom"]}
                funcs[f"f{i}"] = {"dom": name, "cod": name, "map": {x: x for x in names}}
        for i in range(2):
            sems[f"H{i}"] = gen.semicat_spec("R", rng.choice(self.hetero), gen.REL_TYPES)
        sems["P"] = gen.semicat_spec("C", rng.choice(self.small))
        sems["Q"] = gen.semicat_spec("C", rng.choice(self.small))
        doc = {
            "quantaloids": {"R": self.rel_spec, "B": "2", "C": "3"},
            "semicategories": sems,
            "semidistributors": dists,
            "semifunctors": funcs,
            "posets": {f"p{i}": {"elements": [f"x{j}" for j in range(5)],
                                 "pairs": gen.random_poset(rng, 5)} for i in range(3)},
            "omega_sets": {f"w{i}": gen.random_omega_set(rng, 3, 3) for i in range(2)},
        }
        objects = sum(len(doc[k]) for k in doc)
        return {"label": "workspace", "path": self.write(doc), "relations": relations, "objects": objects}

    def warmup_inputs(self, batch):
        return batch[:1]

    def op(self, inp, tr):
        lib, path = self.lib, inp["path"]
        validated = _cli(lib, tr, ["--json", "validate", path])
        idm = _cli(lib, tr, ["--json", "completion", "idm", "R", "--workspace", path])
        verify = _cli(lib, tr, ["--json", "completion", "verify", path, "P", "Q"])
        with tr.span("workspace.load_path", "workspace"):
            doc = lib.workspace.load_path(path)
        with tr.span("workspace.load_workspace", "workspace"):
            ws = lib.workspace.load_workspace(doc)
        verdicts = []
        for name, rows in inp["relations"].items():
            with tr.span("semicat.is_regular_semicat", "semicat"):
                regular = lib.semicat.is_regular_semicat(ws.semicategory(name))
            pairs = [(gen.NAMES[i], gen.NAMES[j]) for i in range(5) for j in range(5) if rows[i] >> j & 1]
            with tr.span("instances.has_interpolation", "instances"):
                interp = lib.instances.has_interpolation(gen.NAMES, pairs)
            verdicts.append((regular, interp))
        return validated, idm, verify, verdicts

    def check(self, inp, out):
        validated, idm, verify, verdicts = out
        rep = json.loads(validated[1])
        if validated[0] != 0 or rep["all_valid"] is not True or len(rep["objects"]) != inp["objects"]:
            return False
        if idm[0] != 0 or len(json.loads(idm[1])["objects"]) != self.idempotents:
            return False
        if verify[0] != 0 or json.loads(verify[1])["verdict"] is not True:
            return False
        for (regular, interp), rows in zip(verdicts, inp["relations"].values()):
            expected = gen.relation_square(rows) == rows
            if regular is not expected or interp is not expected:
                return False
        return True

    def record(self, inp, out):
        validated, idm, verify, verdicts = out
        return repr((validated, idm, verify, verdicts))

    def hooks(self):
        def scanned(tr, args, result):
            tr.count("completion.matrices_scanned", result[0])

        return {("completion", "matrix_space"): scanned}


WORKLOADS = {w.name: w for w in (Morita, Classify, WorkspaceFiles)}


# -- per-layer metrics --------------------------------------------------------

VALIDATORS = {
    "semicat": ("semicat.validate_semicategory", "semicat.validate_semidistributor",
                "semicat.validate_semifunctor"),
    "instances": ("instances.validate_poset", "instances.validate_omega_set"),
}


def per_layer_rules():
    """(metric, unit, better, rule); every time and count is a mean per traced op."""
    rules = [
        ("semicat.matrices_scanned", "count", "lower", ("count", "semicat.matrices_scanned")),
        ("semicat.regular_semidists_kept", "count", "higher", ("count", "semicat.regular_semidists_kept")),
        ("semicat.regular_yield", "ratio", "higher",
         ("ratio", "semicat.regular_semidists_kept", "semicat.matrices_scanned")),
        ("morita.certificate_search_s", "s", "lower", ("incl", ("morita.rsdist_isomorphism_search",))),
        ("morita.pairs_tested_max", "count", "lower", ("count", "morita.pairs_tested_max")),
        ("presheaf.build_RA_s", "s", "lower", ("incl", ("presheaf.build_RA",))),
        ("morita.skeleton_s", "s", "lower", ("incl", ("morita.skeleton",))),
        ("morita.categories_isomorphic_s", "s", "lower", ("incl", ("morita.categories_isomorphic",))),
    ]
    for v in VARIANCES:
        rules += [
            (f"presheaf.enumerate_s.{v}", "s", "lower", ("incl", (f"presheaf.enumerate_presheaves.{v}",))),
            (f"presheaf.candidates_scanned.{v}", "count", "lower", ("count", f"presheaf.candidates_scanned.{v}")),
            (f"presheaf.presheaves_kept.{v}", "count", "higher", ("count", f"presheaf.presheaves_kept.{v}")),
            (f"presheaf.yield.{v}", "ratio", "higher",
             ("ratio", f"presheaf.presheaves_kept.{v}", f"presheaf.candidates_scanned.{v}")),
            (f"presheaf.hom_table_s.{v}", "s", "lower", ("incl", (f"presheaf.hom_table.{v}",))),
            (f"presheaf.hom_elems.{v}", "count", "lower", ("count", f"presheaf.hom_elems.{v}")),
            (f"presheaf.is_regular_s.{v}", "s", "lower", ("incl", (f"presheaf.is_regular_presheaf.{v}",))),
            (f"presheaf.is_yoneda_s.{v}", "s", "lower", ("incl", (f"presheaf.is_yoneda_presheaf.{v}",))),
            (f"presheaf.via_liftings_s.{v}", "s", "lower", ("incl", (f"presheaf.is_regular_via_liftings.{v}",))),
            (f"presheaf.map_j_s.{v}", "s", "lower", ("incl", (f"presheaf.map_j.{v}",))),
            (f"presheaf.map_k_s.{v}", "s", "lower", ("incl", (f"presheaf.map_k.{v}",))),
        ]
    rules += [
        ("workspace.load_s", "s", "lower", ("incl", ("workspace.load_path", "workspace.load_workspace",
                                                     "workspace.validate_report"))),
        ("cli.dispatch_s", "s", "lower", ("self_layer", "cli")),
        ("lattice.validate_s", "s", "lower", ("self_layer", "lattice")),
        ("quantaloid.validate_s", "s", "lower", ("self_layer", "quantaloid")),
        ("semicat.validate_s", "s", "lower", ("self_names", VALIDATORS["semicat"])),
        ("semicat.is_regular_semicat_s", "s", "lower", ("incl", ("semicat.is_regular_semicat",))),
        ("instances.has_interpolation_s", "s", "lower", ("incl", ("instances.has_interpolation",))),
        ("instances.validate_s", "s", "lower", ("self_names", VALIDATORS["instances"])),
        ("completion.build_idm_s", "s", "lower", ("incl", ("completion.build_idm",))),
        ("completion.verify_s", "s", "lower", ("incl", ("completion.verify_rsdist_is_idm_matr",))),
        ("completion.matrices_scanned", "count", "lower", ("count", "completion.matrices_scanned")),
    ]
    rules += [(f"{layer}.self_s", "s", "lower", ("self_layer", layer)) for layer in LAYERS if layer != "cli"]
    rules.append(("tracing_overhead_s", "s", "lower", ("overhead",)))
    return rules


def per_layer_values(spans, counts, n_ops, overhead):
    """Evaluate :func:`per_layer_rules` on a traced run's spans and counts."""
    incl, self_name, self_layer = {}, {}, {}
    for s in spans:
        incl[s.name] = incl.get(s.name, 0.0) + s.duration
        self_name[s.name] = self_name.get(s.name, 0.0) + s.self_time
        self_layer[s.layer] = self_layer.get(s.layer, 0.0) + s.self_time
    values = {}
    for metric, unit, _, rule in per_layer_rules():
        kind = rule[0]
        if kind == "incl":
            value = sum(incl.get(n, 0.0) for n in rule[1]) / n_ops
        elif kind == "self_names":
            value = sum(self_name.get(n, 0.0) for n in rule[1]) / n_ops
        elif kind == "self_layer":
            value = self_layer.get(rule[1], 0.0) / n_ops
        elif kind == "count":
            value = counts.get(rule[1], 0) / n_ops
        elif kind == "ratio":
            den = counts.get(rule[2], 0)
            value = counts.get(rule[1], 0) / den if den else 0.0
        else:
            value = overhead / n_ops
        values[metric] = {"value": value, "unit": unit}
    return values
