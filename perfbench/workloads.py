"""The four benchmark workloads: the commands one pass runs, the input
files they read, and what their output must be.

Every op is a ``unilcalc`` command line.  Its inputs come from gen.py and
the seed; its expectations come from the mathematics where there is a
closed form, and otherwise from output digests recorded in expected.json.

Why these workloads (the layer each one loads, and what it leaves idle):

* verify: ``verify-paper --degree 4``.  forms and dihedral do about 90% of
  the work (the resolution switch chains); search, tables, funcfield and
  f2linalg stay nearly idle, so it is the no-change control for them.
* classify: table enumeration and serialisation in unil and classify, the
  JSON fold path, and the result cache written and then read.
* witt: the lagrangian search on the rank-8 four-term instances, with many
  small kernel calls: exhaustive searches that find no witness (their work
  does not depend on enumeration order) and early-exit searches (which
  expose order changes).  All with --jobs 1.
* algebra: random even forms with a known Arf class; funcfield (factor)
  and f2linalg (det, hnf, smith) do the work, with few large kernel operands.
"""

import random
from dataclasses import dataclass, field, replace

import gen

WORKLOADS = ("verify", "classify", "witt", "algebra")


@dataclass(frozen=True)
class Expect:
    """What one op's stdout must be.  Every field that is set is checked."""

    status: int = 0
    text: str = None  # the whole stdout
    lines: tuple = ()  # lines that must all be present
    line_count: int = None
    tagged: tuple = None  # (substring, number of times it occurs)
    digest: str = None  # key of the recorded sha256 in expected.json

    def corrupted(self):
        """The same expectation made deliberately wrong (negative control)."""
        if self.lines:
            return replace(self, lines=(self.lines[0] + " (wrong)",) + self.lines[1:])
        if self.text is not None:
            return replace(self, text=self.text + "wrong\n")
        if self.line_count is not None:
            return replace(self, line_count=self.line_count + 1)
        return replace(self, status=self.status + 1)


@dataclass(frozen=True)
class Op:
    label: str  # op type; ops of one type are timed and reported together
    argv: tuple  # unilcalc arguments
    expect: Expect
    cached: bool = False  # run with the pass's fresh UNILCALC_CACHE_DIR


@dataclass
class Plan:
    ops: list
    files: dict = field(default_factory=dict)  # input name -> text


def build(workload, seed, tiny=False):
    """The ops and input files of one workload for this seed.  tiny gives a
    pass of well under a second on the same code paths, for the smoke
    test; its outputs have no recorded digests."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"verify": _verify, "classify": _classify, "witt": _witt, "algebra": _algebra}[workload]
    return make(rng, tiny)


# ---------------------------------------------------------------------------
# verify


def _unil3_size(d):
    """Canonical UNil_3 elements supported on exponents 1..d: x has a Z4
    coefficient at odd exponents and a 0/1 one at even exponents, y any
    0/1 coefficients."""
    n = 1
    for k in range(1, d + 1):
        n *= 4 if k % 2 else 2
    return n << d


def verify_text(degree):
    """verify-paper's stdout at this degree, from the fixture sizes: sweeps
    over all 0/1 polynomials of degree <= d (2^(d+1) of them)."""
    sweep = 1 << (degree + 1)
    counts = (
        ("generator_switch_chain", sweep),
        ("resolution_switch_chain", (1 << (min(degree, 4) + 1)) ** 2),
        ("four_term_sublagrangian", sweep),
        ("lagrangian_search", 1 << (min(degree, 2) + 1)),
        ("switch_and_B_laws", _unil3_size(3)),
        ("burnside_orbits", 2 * 5),
        ("verschiebung_dictionary", sweep),
    )
    lines = [f"{name}: PASS ({n} instances)" for name, n in counts]
    return "\n".join(lines + ["all fixtures passed"]) + "\n"


def _verify(rng, tiny):
    seed = rng.randrange(1 << 16)
    degree = 1 if tiny else 4
    op = Op("verify-paper", ("verify-paper", "--degree", str(degree), "--seed", str(seed)),
            Expect(text=verify_text(degree)))
    return Plan([op])


# ---------------------------------------------------------------------------
# classify


def unil3_orbits(d):
    """Switch orbits on truncated UNil_3, by Burnside: (total + fixed) / 2,
    where sw(x, y) = (x, y + pi(x)) fixes exactly the x with pi(x) = 0:
    odd-exponent coefficients in {0, 2}, even-exponent ones 0."""
    fixed = (1 << ((d + 1) // 2)) << d
    return (_unil3_size(d) + fixed) // 2


def classify_lines(n, cutoff):
    """CSV lines of ``classify n --degree-cutoff d`` for n = 0 mod 4: a
    header plus unordered pairs of S(P^n) coordinates (2^z2 of them) times
    UNil_3 orbits."""
    m = (n - 1) // 4
    z2 = 2 * m + 1  # n = 0 mod 4: ell = 4, so z2_count = 2m + 1
    coords = 1 << z2
    return 1 + coords * (coords + 1) // 2 * unil3_orbits(cutoff)


def folded_rows(n, z_bound):
    """Rows of ``classify n --z-bound B --bar`` for n = 3 mod 4: coordinates
    are 2^z2 bit strings times z in [-B, B]; negating both z's is an
    involution on unordered pairs, and Burnside counts its orbits.  Fixed
    pairs: both z = 0, or {(bits, z), (bits, -z)} with z > 0."""
    m = (n - 1) // 4
    z2 = 2 * m
    bits = 1 << z2
    coords = bits * (2 * z_bound + 1)
    pairs = coords * (coords + 1) // 2
    fixed = bits * (bits + 1) // 2 + bits * z_bound
    return (pairs + fixed) // 2


def _digest(argv, tiny):
    return None if tiny else " ".join(argv)


def _classify(rng, tiny):
    n, big_cut, small_cut, z_bound = (4, 2, 1, 2) if tiny else (8, 5, 4, 40)
    argv = ("classify", str(n), "--degree-cutoff", str(big_cut))
    big = Op("classify.csv", argv, Expect(line_count=classify_lines(n, big_cut), digest=_digest(argv, tiny)))
    argv = ("classify", "7", "--z-bound", str(z_bound), "--bar", "--format", "json")
    fold = Op("classify.json_bar", argv, Expect(tagged=('"pair_coord_1":', folded_rows(7, z_bound)),
                                                digest=_digest(argv, tiny)))
    argv = ("classify", str(n), "--degree-cutoff", str(small_cut))
    cut4 = Expect(line_count=classify_lines(n, small_cut), digest=_digest(argv, tiny))
    cache = [Op("classify.cache_write", argv, cut4, cached=True),
             Op("classify.cache_read", argv, cut4, cached=True)]
    groups = [[big], [fold], cache]
    rng.shuffle(groups)
    return Plan([op for group in groups for op in group])


# ---------------------------------------------------------------------------
# witt

# (p as a bitmask, degree bound).  The instances are fixed so that every
# seed does the same search work; the seed draws how they are written
# (term order, coefficient representatives, the sublagrangian's generating
# set) and their order.  t^3+t at bound 3 is the old kernel benchmark's
# macro case.
WITT_INSTANCES = (
    ("exhaustive", 0b1011, 2),  # t^3+t+1: no witness below the bound
    ("exhaustive", 0b1100, 2),  # t^3+t^2
    ("early_exit", 0b1010, 3),  # t^3+t
    ("early_exit", 0b1000, 3),  # t^3
    ("early_exit", 0b1111, 3),  # t^3+t^2+t+1
)


def _witt(rng, tiny):
    plan = Plan([])
    order = [("early_exit", 0b10, 1)] if tiny else list(WITT_INSTANCES)
    rng.shuffle(order)
    for kind, p, bound in order:
        name = f"witt-{p:b}-b{bound}.json"
        plan.files[name] = gen.witt_instance_json(p, rng)
        expect = Expect(
            # every four-term instance reduces to rank 4 with Arf 0
            lines=("arf = 0", "arf_zero = True", "even = True", "rank = 8", "reduced_rank = 4"),
            digest=None if tiny else f"witt-check {gen.canonical_f2(p)} --bound {bound}",
        )
        plan.ops.append(Op(f"witt.{kind}", ("witt-check", name, "--bound", str(bound), "--jobs", "1"), expect))
    return plan


# ---------------------------------------------------------------------------
# algebra

# Seeds of random.Random for the base changes, kept fixed.  The cost of arf
# is set by the base change, which fixes the denominators that
# funcfield.factor must split, while the q-values only move numerators; so
# a fixed set of base changes keeps the work of a pass the same for every
# seed, and the seed draws the q-values (hence the Arf class) and the
# spelling.  The first four were picked from seeds 0-299 as factor-heavy
# (0.2-0.6 s of arf each in pure Python), the rest are ordinary.
ARF_BASE_CHANGES = (233, 280, 119, 43, 1, 3, 10, 19)
ARF_BLOCKS, ARF_DEGREE, ARF_STEPS = 4, 3, 18
# (hyperbolic blocks, base-change seed) for witt-check --bound 0 with a
# sublagrangian that kills all blocks but the last: ranks 16, 18, 20
WITT_BLOCKS = ((8, 0), (9, 0), (10, 0))
Q_DEGREE = 3


def _qpoly(rng):
    return rng.randrange(1 << (Q_DEGREE + 1))


def _algebra(rng, tiny):
    plan = Plan([])
    for i, bc in enumerate(ARF_BASE_CHANGES[-1:] if tiny else ARF_BASE_CHANGES):
        qvals = [(_qpoly(rng), _qpoly(rng)) for _ in range(ARF_BLOCKS)]
        b, q, _ = gen.hyperbolic_even_form(ARF_BLOCKS, qvals, ARF_DEGREE, ARF_STEPS, random.Random(bc))
        name = f"arf-{i}.json"
        plan.files[name] = gen.dump(gen.form_json(b, q, rng))
        plan.ops.append(Op("algebra.arf", ("arf", name), Expect(lines=(gen.arf_expected(qvals),))))
    for k, bc in ((3, 0),) if tiny else WITT_BLOCKS:
        # q = 0 on the first vector of each killed block, so it is isotropic
        qvals = [(0 if i < k - 1 else _qpoly(rng), _qpoly(rng)) for i in range(k)]
        b, q, p_inv = gen.hyperbolic_even_form(k, qvals, ARF_DEGREE, 8 * k, random.Random(bc))
        gens = gen.generators_of_span([p_inv[2 * i] for i in range(k - 1)], rng)
        doc = {
            "form": gen.form_json(b, q, rng),
            "sublagrangian": {"generators": [[gen.render_f2(x, rng) for x in row] for row in gens]},
        }
        name = f"witt-rank{2 * k}.json"
        plan.files[name] = gen.dump(doc)
        # the reduction leaves the last block, whose Arf class is a_k b_k
        arf = gen.arf_expected(qvals)
        expect = Expect(lines=(f"arf = {arf}", f"arf_zero = {arf == '0'}", "even = True",
                               f"rank = {2 * k}", "reduced_rank = 2"))
        plan.ops.append(Op("algebra.witt_rank16-20", ("witt-check", name, "--bound", "0", "--jobs", "1"), expect))
    rng.shuffle(plan.ops)
    return plan
