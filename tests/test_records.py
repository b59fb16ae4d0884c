"""Value semantics of the package's immutable records: equality and hashing
by field values, no assignment after construction, one value per field,
and the checks each constructor makes, run once by every construction."""

import pytest

from unilcalc.classify import ClassificationTable, StructureSetDescriptor
from unilcalc.cli import CommandResult
from unilcalc.dihedral import DihedralElement
from unilcalc.forms import QuadraticFormTheta, QuadResolution
from unilcalc.lagrangian import Submodule
from unilcalc.linking import LinkingForm
from unilcalc.polynomials import Polynomial
from unilcalc.unil import UNil2Element, UNil3Element

ZERO = DihedralElement.zero()
ONE = DihedralElement.monomial(0, 0)
HYPERBOLIC = ((0, 1), (1, 0))

# name -> (make, field, fields of a different value); make() builds a fresh
# instance, and the class called with the last entry differs from it
RECORDS = {
    "CommandResult": (
        lambda: CommandResult("value", {"x": 1}, human=("1",)),
        "status",
        ("fail", {"x": 1}),
    ),
    "Polynomial": (lambda: Polynomial((1, 0, 2)), "coeffs", ((1, 0, 3),)),
    "LinkingForm": (
        lambda: LinkingForm(2, HYPERBOLIC, ((0, 0), (0, 0))),
        "rank",
        (2, HYPERBOLIC, ((0, 0), (0, 1))),
    ),
    "Submodule": (lambda: Submodule(2, ((1, 0),)), "basis", (2, ((0, 1),))),
    "QuadraticFormTheta": (
        lambda: QuadraticFormTheta(((ONE,),), 1),
        "epsilon",
        (((ONE,),), -1),
    ),
    "QuadResolution": (
        lambda: QuadResolution(((ZERO,),), ((ONE,),), ((ZERO,),), 1),
        "psi0",
        (((ZERO,),), ((ZERO,),), ((ZERO,),), 1),
    ),
    "UNil2Element": (lambda: UNil2Element(0b10), "arf_bits", (0b1000,)),
    "UNil3Element": (lambda: UNil3Element((0b10, 0), 0b10), "y", ((0b10, 0), 0b100)),
    "StructureSetDescriptor": (
        lambda: StructureSetDescriptor(8, 1, 4, 2, True),
        "has_Z",
        (8, 1, 4, 2, False),
    ),
    "ClassificationTable": (lambda: ClassificationTable(8, 5, 0, False), "folded", (8, 5, 0, True)),
}
# a CommandResult holds its JSON payload as a dict, so it has no hash
HASHABLE = sorted(set(RECORDS) - {"CommandResult"})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_values_are_equal(name):
    make, _, other = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != type(a)(*other)


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_values_hash_equal(name):
    make, _, _ = RECORDS[name]
    a, b = make(), make()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_never_equal_to_another_class(name):
    make, field, _ = RECORDS[name]
    a = make()
    assert a != (getattr(a, field),)
    assert a != object()
    other = UNil2Element(0) if name != "UNil2Element" else Polynomial((0,))
    assert a != other and other != a


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    make, field, _ = RECORDS[name]
    a = make()
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_wrong_value_count_raises(name):
    make, _, _ = RECORDS[name]
    a = make()
    cls, values = type(a), a._astuple()
    # CommandResult's last three fields have defaults
    fewest = 2 if name == "CommandResult" else len(values)
    with pytest.raises(TypeError):
        cls(*values[: fewest - 1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])


def test_wrong_value_count_names_the_fields():
    with pytest.raises(TypeError, match=r"^UNil3Element\(x, y\) takes 2 values, got 1$"):
        UNil3Element((0, 0))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_construction_runs_post_init_once(name, monkeypatch):
    make, _, _ = RECORDS[name]
    cls = type(make())
    check, built = cls.__post_init__, []

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(cls, "__post_init__", counted, raising=False)
    a = make()
    assert len(built) == 1 and built[0] is a


def test_classification_table_rows_are_cached():
    table = ClassificationTable(4, 1, 0, False)
    assert table.rows is table.rows


@pytest.mark.parametrize(
    "make",
    [
        lambda: UNil2Element(1),  # nonzero constant term
        lambda: UNil2Element(0b100),  # t^2 is not canonical
        lambda: UNil3Element((0, 0), 1),
        lambda: UNil3Element((1, 0), 0),
        lambda: UNil3Element((0, 0b100), 0),
        lambda: LinkingForm(2, ((0, 0b10), (0b10, 0)), ((0, 0), (0, 0))),  # det t^2
        lambda: LinkingForm(2, ((0, 1), (0, 0)), ((0, 0), (0, 0))),  # not symmetric
        lambda: LinkingForm(2, HYPERBOLIC, ((0, 0),)),
        lambda: LinkingForm(1, ((1,),), ((0, 0),)),  # q mod 2 is not b's diagonal
        lambda: QuadraticFormTheta(((ONE,),), 2),
        lambda: QuadraticFormTheta(((ONE, ONE),), 1),
        lambda: QuadResolution(((ONE,),), ((ONE,),), ((ZERO,),), 1),  # identity fails
        lambda: QuadResolution(((ZERO,),), ((ZERO,),), ((ZERO,),), 0),
    ],
)
def test_construction_checks_raise(make):
    with pytest.raises(ValueError):
        make()
