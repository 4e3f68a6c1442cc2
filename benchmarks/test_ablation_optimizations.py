"""Ablations for the §6.3 / §8.1 design choices.

The paper attributes µP4's feasibility on Tofino to two backend passes:

* **field alignment** — resizing byte-stack and header fields to 16-bit
  containers, which both reduces fragmentation and keeps assignments
  within the action-ALU source budget ("increasing the size of MPLS
  header fields also solved the issue"),
* **assignment splitting** — rewriting over-wide assignments into a
  series of MATs ("breaking down the complex assignment into multiple
  simpler ones which are executed in a series of MATs").

These benches toggle each pass and measure the consequences our model
predicts: without alignment the programs violate ALU limits (and
without splitting they are rejected outright — the paper's initial P2
failure); with splitting they compile but pay extra stages and PHV.

§8.1 is the midend half (``repro.midend.optimize``): ``TestMidendMatrix``
crosses its two passes — trivial-MAT elision and byte-stack copy
shrinking — and reports tables, action statements and generated
executor source per program; ``TestMatElision`` / ``TestGlobalParser``
measure what each buys in Tofino stages.
"""

import pytest

from repro.backend.tna import TnaBackend
from repro.backend.tna.descriptor import TofinoDescriptor
from repro.errors import ResourceError
from repro.lib.catalog import PROGRAMS, build_pipeline


@pytest.fixture(scope="module")
def variants():
    """name -> {(align, split): report-or-'FAILED'} for all programs."""
    out = {}
    for name in PROGRAMS:
        composed = build_pipeline(name)
        per = {}
        for align in (True, False):
            for split in (True, False):
                backend = TnaBackend(align_fields=align, split_assignments=split)
                try:
                    per[(align, split)] = backend.compile(composed)
                except ResourceError as exc:
                    per[(align, split)] = f"FAILED: {exc}"
        out[name] = per
    return out


def test_print_ablation(variants, capsys):
    with capsys.disabled():
        print("\n=== Ablation: §6.3 backend passes "
              "(align, split) -> stages / 16b / bits ===")
        for name, per in variants.items():
            cells = []
            for key in ((True, True), (True, False), (False, True), (False, False)):
                report = per[key]
                if isinstance(report, str):
                    cells.append("FAIL")
                else:
                    cells.append(
                        f"{report.num_stages}st/"
                        f"{report.container_counts[16]}x16b/"
                        f"{report.bits_allocated}b"
                    )
            print(f"  {name}: A+S={cells[0]:18s} A={cells[1]:18s} "
                  f"S={cells[2]:18s} none={cells[3]}")


class TestAlignmentPass:
    @pytest.mark.parametrize("name", [p for p in PROGRAMS if p != "P2"])
    def test_aligned_avoids_alu_violations(self, variants, name):
        """With alignment on, programs compile even without splitting."""
        report = variants[name][(True, False)]
        assert not isinstance(report, str), report

    def test_p2_reproduces_papers_initial_failure(self, variants):
        """§6.3: "compiling µP4C-generated P4 code for P2 using bf-p4c
        failed initially because an assignment operation in the generated
        code was trying to access more than the number of containers
        accessible to an action ALU" — the MPLS header's sub-byte fields
        (label/tc/bos) fragment across containers.  The series-of-MATs
        split is the fix the paper applied."""
        failure = variants["P2"][(True, False)]
        assert isinstance(failure, str) and "ALU" in failure
        fixed = variants["P2"][(True, True)]
        assert not isinstance(fixed, str)

    def test_unaligned_unsplit_fails_somewhere(self, variants):
        """The paper's initial P2 failure: without either fix, at least
        one program is rejected for ALU over-subscription."""
        failures = [
            name
            for name in PROGRAMS
            if isinstance(variants[name][(False, False)], str)
        ]
        assert failures, "expected ALU violations without both passes"

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_split_rescues_unaligned(self, variants, name):
        """Splitting lets unaligned programs compile…"""
        report = variants[name][(False, True)]
        if isinstance(report, str):
            pytest.skip("split alone cannot fit this program")
        aligned = variants[name][(True, True)]
        # …at a cost: at least as many stages as the aligned build.
        assert report.num_stages >= aligned.num_stages


class TestDescriptorSweep:
    def test_stage_budget_sweep(self):
        """Where does the modular router stop fitting? (ablates the
        12-stage assumption)."""
        composed = build_pipeline("P4")
        fits = {}
        for stages in (4, 5, 8, 12):
            backend = TnaBackend(
                descriptor=TofinoDescriptor(num_stages=stages)
            )
            try:
                backend.compile(composed)
                fits[stages] = True
            except ResourceError:
                fits[stages] = False
        assert fits[12] and fits[8] and fits[5]
        assert not fits[4]  # needs 5 stages, as Table 3 reports

    def test_phv_pool_sweep(self):
        composed = build_pipeline("P7")  # widest program
        backend_full = TnaBackend()
        backend_full.compile(composed)  # fits
        tiny = TnaBackend(descriptor=TofinoDescriptor().scaled(0.2))
        with pytest.raises(ResourceError):
            tiny.compile(composed)


def _midend_variant(name, elide, shrink):
    """P<name> composed, then shrunk and/or elided — in the order the
    driver's ``optimize_mats`` uses (shrink reads the MAT records that
    elision prunes)."""
    from repro.midend.optimize import elide_trivial_mats, shrink_copies

    composed = build_pipeline(name)
    if shrink:
        composed = shrink_copies(composed)
    if elide:
        elide_trivial_mats(composed)
    return composed


class TestMidendMatrix:
    """§8.1 none / elide / shrink / both."""

    VARIANTS = {
        "none": (False, False),
        "elide": (True, False),
        "shrink": (False, True),
        "both": (True, True),
    }

    @pytest.fixture(scope="class")
    def matrix(self):
        from repro.midend.optimize import action_statements
        from repro.targets.codegen import CodegenPipeline

        out = {}
        for name in PROGRAMS:
            for label, (elide, shrink) in self.VARIANTS.items():
                composed = _midend_variant(name, elide, shrink)
                out[name, label] = (
                    len(composed.tables),
                    action_statements(composed),
                    len(CodegenPipeline(composed).source.splitlines()),
                )
        return out

    def test_print_matrix(self, matrix, capsys):
        with capsys.disabled():
            print("\n=== Ablation: §8.1 midend passes — "
                  "tables / action statements / codegen lines ===")
            print(f"{'prog':5s}" + "".join(f"{v:>20s}" for v in self.VARIANTS))
            for name in PROGRAMS:
                cells = (matrix[name, v] for v in self.VARIANTS)
                print(f"{name:5s}" + "".join(
                    f"{t:6d}/{s:5d}/{n:6d} " for t, s, n in cells
                ))

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_each_pass_pays_and_they_compose(self, matrix, name):
        none, elide, shrink, both = (matrix[name, v] for v in self.VARIANTS)
        # Shrinking never touches a table; elision is what removes them.
        assert shrink[0] == none[0] and both[0] == elide[0] < none[0]
        # Statements and generated source fall with each pass and are
        # lowest with both.
        for metric in (1, 2):
            assert both[metric] < min(elide[metric], shrink[metric])
            assert max(elide[metric], shrink[metric]) < none[metric]


class TestMatElision:
    """§8.1: "instead of generating a single MAT for a (de)parser, µP4C
    can generate multiple MATs" / elide redundant ones — our pass
    removes trivial parser/deparser MATs of dispatch modules."""

    def test_print_elision_effect(self, capsys):
        from repro.backend.tna import TnaBackend

        backend = TnaBackend()
        with capsys.disabled():
            print("\n=== Ablation: §8.1 trivial-MAT elision ===")
            print(f"{'prog':5s} {'tables':>14s} {'stages':>12s}")
            for name in PROGRAMS:
                plain = build_pipeline(name)
                opt = build_pipeline(name, optimize=True)
                sp = backend.compile(plain).num_stages
                so = backend.compile(opt).num_stages
                print(f"{name:5s} {len(plain.tables):5d} -> {len(opt.tables):3d}"
                      f"   {sp:4d} -> {so:2d}")

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_elision_reduces_tables(self, name):
        assert len(build_pipeline(name, optimize=True).tables) < len(
            build_pipeline(name).tables
        )

    def test_elision_closes_part_of_the_stage_gap(self):
        """P2 gains a stage back (paper: expects µP4 stages to approach
        monolithic with these optimizations)."""
        from repro.backend.tna import TnaBackend

        backend = TnaBackend()
        plain = backend.compile(build_pipeline("P2")).num_stages
        opt = backend.compile(build_pipeline("P2", optimize=True)).num_stages
        assert opt < plain


class TestGlobalParser:
    """§8.1: global-parser reconstruction — "we expect the number of
    hardware stages needed for µP4 programs to match those for
    monolithic programs"."""

    @pytest.fixture(scope="class")
    def gp_reports(self):
        from repro.lib.catalog import build_monolithic

        plain = TnaBackend()
        gp = TnaBackend(global_parser=True)
        out = {}
        for name in PROGRAMS:
            composed = build_pipeline(name)
            out[name] = (
                plain.compile(composed),
                gp.compile(composed),
                plain.compile(build_monolithic(name)),
            )
        return out

    def test_print_global_parser_effect(self, gp_reports, capsys):
        with capsys.disabled():
            print("\n=== Ablation: §8.1 global-parser reconstruction ===")
            print(f"{'prog':5s} {'µP4':>5s} {'+gp':>5s} {'mono':>5s}   absorbed/ineligible")
            for name, (plain, gp, mono) in gp_reports.items():
                plan = gp.global_parser_plan
                print(f"{name:5s} {plain.num_stages:5d} {gp.num_stages:5d} "
                      f"{mono.num_stages:5d}   "
                      f"{len(plan.absorbed)}/{len(plan.ineligible)}")

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_global_parser_reduces_stages(self, gp_reports, name):
        plain, gp, _ = gp_reports[name]
        assert gp.num_stages < plain.num_stages

    @pytest.mark.parametrize("name", [p for p in PROGRAMS if p != "P2"])
    def test_stages_approach_monolithic(self, gp_reports, name):
        """Within 2 stages of monolithic (the deparser MATs remain,
        which the paper's scheme also keeps as synthesized MATs)."""
        _, gp, mono = gp_reports[name]
        assert gp.num_stages <= mono.num_stages + 2

    def test_runtime_dispatch_stays_ineligible(self, gp_reports):
        """The paper's caveat: "reconstructing a global parser may be
        difficult … when a µP4 program invokes different µP4 programs
        based on information provided by the control plane at runtime."
        P2's MPLS modules dispatch on an etherType the LER itself
        rewrites, so their parser MATs cannot be absorbed."""
        _, gp, _ = gp_reports["P2"]
        plan = gp.global_parser_plan
        assert any("ler" in n or "push" in n for n in plan.ineligible)


def test_bench_aligned_compile(benchmark):
    composed = build_pipeline("P2")
    backend = TnaBackend(align_fields=True)
    benchmark(lambda: backend.compile(composed))


def test_bench_unaligned_split_compile(benchmark):
    composed = build_pipeline("P2")
    backend = TnaBackend(align_fields=False, split_assignments=True)
    benchmark(lambda: backend.compile(composed))
