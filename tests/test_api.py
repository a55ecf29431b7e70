"""The public surface: kissbound.__all__ re-exports each module's __all__."""

import importlib
import inspect
from pathlib import Path

import pytest

import kissbound as kb

MODULES = ("caps", "certifier", "density", "errors", "highdim", "packings")

# kissbound.__all__ as it was when __init__ listed every name by hand
EARLIER_EXPORTS = (
    "Ball", "Box", "Certificate", "CertificateError", "ContactGraph", "CoverageAudit",
    "DegenerateTriangleError", "DimBoundResult", "DomainError", "KissboundError",
    "OverlapError", "Packing", "PackingError", "PackingParseError", "RhoGeometry",
    "SearchConfig", "SweepResult", "TriangleAngles", "TriangleDensity", "__version__",
    "a_of_d", "aux_cap_radius", "box_angle_upper", "box_density_upper", "cap_area_K",
    "cap_area_d", "cap_height", "cap_radius_cos", "certify", "contact_graph",
    "coverage_audit", "coverage_fraction", "density", "emit_certificate", "f_d",
    "fcc_fragment", "g_profile", "k_bound_highdim", "load_packing", "max_density",
    "objective_factor", "packing_from_balls", "pair_sum", "pair_sum_value",
    "parse_certificate", "profile_integral", "pruning_interval", "pruning_objective",
    "rho_geometry", "sphere_area", "sweep_rho", "sweep_to_csv", "triangle_angles",
)


def test_earlier_exports_kept():
    assert len(EARLIER_EXPORTS) == 53
    assert set(EARLIER_EXPORTS) <= set(kb.__all__)


def test_all_is_the_module_lists_without_duplicates():
    assert len(kb.__all__) == len(set(kb.__all__))
    modules = [importlib.import_module(f"kissbound.{name}") for name in MODULES]
    assert set(kb.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))
    for name in kb.__all__:
        assert hasattr(kb, name), name


def test_density_is_the_function():
    assert inspect.isfunction(kb.density)
    assert kb.density is importlib.import_module("kissbound.density").density


def test_star_import():
    namespace = {}
    exec("from kissbound import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(kb.__all__)
    assert all(value is getattr(kb, name) for name, value in namespace.items())


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_names_defined_in_module(module_name):
    module = importlib.import_module(f"kissbound.{module_name}")
    for name in module.__all__:
        assert name in vars(module), name
        value = vars(module)[name]
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name


# older setuptools warn that [tool.setuptools] in pyproject.toml is beta
@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_version_declared_once():
    config = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = config.read_configuration(pyproject, expand=True)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == kb.__version__
