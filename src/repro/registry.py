"""Pluggable registries for workloads, dataflows and objectives.

The paper's contribution is a *taxonomy*: any dataflow x any CNN shape
x any hardware point, evaluated under one energy model.  This module is
the extension surface that keeps the code shaped like that claim --
four decorator-based registries that every front door (the CLI, the
batch service, the :mod:`repro.api` session facade and the analysis
suites) resolves names through:

* :func:`register_network` -- a named workload: a callable taking a
  batch size and returning the layer list (``alexnet``, ``vgg16``, or
  your own).
* :func:`register_dataflow` -- a :class:`~repro.dataflows.base.Dataflow`
  model (or a class that instantiates to one), keyed by its short name.
* :func:`register_objective` -- a mapping-scoring function
  ``(mapping, costs) -> float`` the optimizer can minimize.
* :func:`register_design_space` -- a named hardware sweep: a callable
  returning a :class:`repro.dse.DesignSpace`, resolvable by the
  ``repro dse`` CLI and the service's ``dse`` verb.

Registering once makes the name available everywhere at the same time:
``repro batch`` specs, :class:`repro.api.Scenario`, the CLI and the
figure suites.  The legacy lookup tables --
``repro.dataflows.registry.DATAFLOWS`` and
``repro.mapping.optimizer.OBJECTIVES`` -- remain as thin views over
these registries, so older call sites keep working while new scenarios
become one-registration changes.

The registries seed themselves lazily from the package's own modules on
first lookup, so ``import repro.registry`` alone stays cheap and free
of import cycles.

The module also holds the one strict rule set every request object
decodes through (:func:`as_int`, :func:`as_ints`, :func:`as_shapes`,
:func:`as_bool`, :func:`as_area_budget`, and the name resolvers
:func:`resolve_workload`, :func:`resolve_dataflows` and
:func:`resolve_objective`): :class:`repro.api.Scenario`,
:class:`repro.dse.DesignSpace` and :class:`repro.nn.layer.LayerShape`
validate with it whether they are built in Python, from CLI flags or
from a wire object.
"""

from __future__ import annotations

import importlib
import math
import numbers
import operator
import threading
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

T = TypeVar("T")

#: Sentinel for :meth:`Registry.get`: "raise on a miss" (vs a default).
_RAISE = object()


class Registry(Mapping):
    """An ordered, case-normalizing name -> value mapping.

    Behaves like a read-only :class:`dict` (so legacy code that iterated
    the old module-level tables keeps working verbatim), plus:

    * :meth:`add` -- register a value, refusing accidental collisions
      unless ``replace=True``;
    * :meth:`get` -- lookup that raises a ``KeyError`` naming the known
      entries, so a typo fails with the full menu instead of a bare miss;
    * lazy seeding -- the built-in entries are registered by importing
      the modules that define them, the first time anything looks.
    """

    def __init__(self, kind: str,
                 seed_modules: tuple = (),
                 normalize: Callable[[str], str] = str.lower) -> None:
        self.kind = kind
        self._normalize = normalize
        self._items: Dict[str, T] = {}
        self._seed_modules = seed_modules
        self._seeded = not seed_modules
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------

    def add(self, name: str, value: T, *, replace: bool = False) -> T:
        """Register ``value`` under ``name`` (normalized); returns it."""
        key = self._normalize(name)
        with self._lock:
            if not replace and key in self._items \
                    and self._items[key] is not value:
                raise ValueError(
                    f"{self.kind} {key!r} is already registered; pass "
                    f"replace=True to override it")
            self._items[key] = value
        return value

    def remove(self, name: str) -> None:
        """Unregister an entry (mainly for tests and plugin teardown)."""
        self._ensure_seeded()
        with self._lock:
            self._items.pop(self._normalize(name), None)

    # ------------------------------------------------------------------
    # Lookup (Mapping protocol + friendly errors).
    # ------------------------------------------------------------------

    def _ensure_seeded(self) -> None:
        if self._seeded:
            return
        with self._lock:
            if self._seeded:
                return
            # Mark first: the seed modules call add() while importing.
            self._seeded = True
            for module in self._seed_modules:
                importlib.import_module(module)

    def get(self, name: str, default=_RAISE) -> T:
        """Look up ``name``; a miss raises with the known names listed."""
        self._ensure_seeded()
        key = self._normalize(str(name))
        with self._lock:
            if key in self._items:
                return self._items[key]
        if default is not _RAISE:
            return default
        known = ", ".join(self.names())
        raise KeyError(f"unknown {self.kind} {name!r}; known: {known}")

    def canonical(self, name: str) -> str:
        """The canonical registry key for ``name`` (case-folded).

        This -- not the registered object's own ``.name`` attribute --
        is the spelling that round-trips through :meth:`get`, which
        matters when a value is registered under an explicit alias.
        A miss raises with the known names listed.
        """
        self._ensure_seeded()
        key = self._normalize(str(name))
        with self._lock:
            if key in self._items:
                return key
        known = ", ".join(self.names())
        raise KeyError(f"unknown {self.kind} {name!r}; known: {known}")

    def names(self) -> List[str]:
        """The registered names, in registration order."""
        self._ensure_seeded()
        with self._lock:
            return list(self._items)

    def __getitem__(self, name: str) -> T:
        return self.get(name)

    def __contains__(self, name) -> bool:
        self._ensure_seeded()
        if not isinstance(name, str):
            return False
        with self._lock:
            return self._normalize(name) in self._items

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_seeded()
        with self._lock:
            return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registry {self.kind}: {', '.join(self.names())}>"


# ----------------------------------------------------------------------
# The four registries.  Seed modules are imported lazily on first
# lookup; each one registers its entries at import time via the
# decorators below.
# ----------------------------------------------------------------------

#: Named workloads: ``name -> callable(batch_size) -> [LayerShape, ...]``.
network_registry: Registry = Registry(
    "network", seed_modules=("repro.nn.networks",), normalize=str.lower)

#: Dataflow models keyed by their figure names (RS, WS, OSA, ...).
dataflow_registry: Registry = Registry(
    "dataflow", seed_modules=("repro.dataflows.registry",),
    normalize=str.upper)

#: Mapping objectives: ``name -> callable(mapping, costs) -> float``.
objective_registry: Registry = Registry(
    "objective", seed_modules=("repro.mapping.optimizer",),
    normalize=str.lower)

#: Named design spaces: ``name -> callable() -> repro.dse.DesignSpace``.
design_space_registry: Registry = Registry(
    "design space", seed_modules=("repro.dse",), normalize=str.lower)


def register_network(name: Optional[str] = None, *, replace: bool = False):
    """Decorator registering a workload builder under ``name``.

    The builder takes a batch size and returns the layer list::

        @register_network("tinynet")
        def tinynet(batch_size: int = 1):
            return [conv_layer("C1", H=16, R=3, E=14, C=8, M=16,
                               N=batch_size)]

    Bare usage (``@register_network``) keys the builder by its function
    name.  The name becomes valid everywhere at once: ``Scenario``
    workloads, ``repro batch`` specs, and the CLI.
    """
    def decorate(func):
        network_registry.add(name or func.__name__, func, replace=replace)
        return func

    if callable(name):  # bare @register_network
        func, name = name, None
        return decorate(func)
    return decorate


def register_dataflow(dataflow=None, *, name: Optional[str] = None,
                      replace: bool = False):
    """Register a dataflow model (instance or class) by its short name.

    Accepts a :class:`~repro.dataflows.base.Dataflow` instance, or a
    class (decorator form), which is instantiated once and registered as
    the shared immutable singleton ``get_dataflow`` hands out::

        @register_dataflow
        class MyDataflow(Dataflow):
            name = "MINE"
            ...
    """
    def decorate(obj):
        instance = obj() if isinstance(obj, type) else obj
        dataflow_registry.add(name or instance.name, instance,
                              replace=replace)
        return obj

    if dataflow is None:
        return decorate
    return decorate(dataflow)


def register_objective(name: Optional[str] = None, *, replace: bool = False):
    """Decorator registering a mapping objective ``(mapping, costs) ->
    float`` the optimizer minimizes::

        @register_objective("dram")
        def dram(mapping, costs):
            return mapping.dram_accesses_per_op
    """
    def decorate(func):
        objective_registry.add(name or func.__name__, func, replace=replace)
        return func

    if callable(name):  # bare @register_objective
        func, name = name, None
        return decorate(func)
    return decorate


def register_design_space(name: Optional[str] = None, *,
                          replace: bool = False):
    """Decorator registering a design-space builder under ``name``.

    The builder is a zero-argument callable returning a
    :class:`repro.dse.DesignSpace`; registering makes the name usable
    as ``repro dse --space NAME`` and in ``{"verb": "dse", "space":
    NAME}`` service requests::

        @register_design_space("rf-sweep")
        def rf_sweep():
            return DesignSpace(workload="alexnet-conv",
                               pe_counts=(256,),
                               rf_choices=(128, 256, 512, 1024),
                               equal_area=True)

    Bare usage (``@register_design_space``) keys the builder by its
    function name.
    """
    def decorate(func):
        design_space_registry.add(name or func.__name__, func,
                                  replace=replace)
        return func

    if callable(name):  # bare @register_design_space
        func, name = name, None
        return decorate(func)
    return decorate


# ----------------------------------------------------------------------
# Convenience lookups (the friendly-error path used by the facade).
# ----------------------------------------------------------------------


def get_network(name: str) -> Callable:
    """The workload builder registered under ``name`` (case-insensitive)."""
    return network_registry.get(name)


def get_dataflow(name: str):
    """The shared dataflow instance registered under ``name``."""
    return dataflow_registry.get(name)


def get_objective(name: str) -> Callable:
    """The objective function registered under ``name``."""
    return objective_registry.get(name)


def get_design_space(name: str):
    """Build the design space registered under ``name``.

    Calls the registered builder, so every lookup returns a fresh
    (immutable) :class:`repro.dse.DesignSpace`.
    """
    return design_space_registry.get(name)()


def network_names() -> List[str]:
    """The registered workload names, in registration order."""
    return network_registry.names()


def dataflow_names() -> List[str]:
    """The registered dataflow names, in registration order."""
    return dataflow_registry.names()


def objective_names() -> List[str]:
    """The registered objective names, in registration order."""
    return objective_registry.names()


def design_space_names() -> List[str]:
    """The registered design-space names, in registration order."""
    return design_space_registry.names()


# ----------------------------------------------------------------------
# Strict field coercion: the one rule set every request decodes through.
#
# Scenario, DesignSpace and LayerShape validate their fields here,
# whether they are built in Python, from CLI flags or from a wire
# object.  An integer is an ``operator.index`` value that is not a
# ``bool`` (numpy integers pass; floats and numeric strings do not); a
# flag must be a real ``bool``; a name must be a real ``str``.
# ----------------------------------------------------------------------


def as_int(value, what: str, minimum: Optional[int] = None) -> int:
    """``value`` as a plain ``int``; ``ValueError`` unless it is one.

    ``minimum`` (when given) is the smallest accepted value.
    """
    if isinstance(value, bool):
        raise ValueError(f"'{what}' must be an integer, got {value!r}")
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(
            f"'{what}' must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ValueError(
            f"'{what}' must be an integer >= {minimum}, got {value!r}")
    return number


def as_ints(values, what: str, minimum: int = 1,
            allow_empty: bool = False) -> Tuple[int, ...]:
    """A list of integers (or one bare integer) as a tuple of ``int``."""
    if isinstance(values, numbers.Integral) and not isinstance(values, bool):
        values = (values,)  # a bare scalar is an obvious one-point grid
    try:
        if isinstance(values, (str, bytes)):
            raise TypeError  # iterating "256" would make the grid (2, 5, 6)
        result = tuple(as_int(value, what) for value in values)
    except (TypeError, ValueError):
        raise ValueError(
            f"'{what}' must be a list of integers, got {values!r}") from None
    if (not result and not allow_empty) or any(v < minimum for v in result):
        kind = ("positive integers" if minimum == 1
                else f"integers >= {minimum}")
        raise ValueError(
            f"'{what}' must be a {'' if allow_empty else 'non-empty '}"
            f"list of {kind}, got {values!r}")
    return result


def as_shapes(values, what: str = "array_shapes"
              ) -> Tuple[Tuple[int, int], ...]:
    """A list of ``[height, width]`` pairs of positive integers."""
    try:
        if isinstance(values, (str, bytes)):
            raise TypeError
        shapes = tuple(as_ints(entry, what, allow_empty=True)
                       for entry in values)
        if any(len(shape) != 2 for shape in shapes):
            raise TypeError
    except (TypeError, ValueError):
        raise ValueError(
            f"'{what}' must be a list of [height, width] pairs of "
            f"positive integers, got {values!r}") from None
    return shapes


def as_bool(value, what: str) -> bool:
    """``value`` if it is a ``bool``; ``ValueError`` otherwise."""
    if not isinstance(value, bool):
        raise ValueError(f"'{what}' must be true or false, got {value!r}")
    return value


def as_str(value, what: str) -> str:
    """``value`` if it is a ``str``; ``ValueError`` otherwise."""
    if not isinstance(value, str):
        raise ValueError(f"'{what}' must be a string, got {value!r}")
    return value


def as_area_budget(value):
    """A finite, positive storage-area budget (returned unchanged)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value <= 0):
        raise ValueError(
            f"'area_budget' must be a finite positive number, "
            f"got {value!r}")
    return value


def check_fields(data, known: Sequence[str], what: str) -> None:
    """Refuse a non-object ``data`` or one with fields outside ``known``."""
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be an object, got {data!r}")
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(
            f"unknown {what} field(s) {sorted(unknown)}; "
            f"known: {list(known)}")


def resolve_workload(workload):
    """A registered network name (lower-cased) or a non-empty tuple of
    :class:`~repro.nn.layer.LayerShape` objects."""
    from repro.nn.layer import LayerShape  # lazy: keeps this module leaf

    if isinstance(workload, str):
        if workload not in network_registry:
            raise ValueError(
                f"unknown network {workload!r}; known: "
                f"{sorted(network_registry)}")
        return workload.lower()
    try:
        layers = tuple(workload)
    except TypeError:
        layers = ()
    if not layers or not all(isinstance(l, LayerShape) for l in layers):
        raise ValueError(
            "workload must be a registered network name or a non-empty "
            f"sequence of LayerShape objects, got {workload!r}")
    return layers


def resolve_dataflows(dataflows) -> Tuple[str, ...]:
    """Canonical dataflow names; an empty selection means all of them.

    Canonical registry keys, not the instances' ``.name``: a model
    registered under an alias must stay resolvable by it.
    """
    try:
        names = tuple((dataflows,) if isinstance(dataflows, str)
                      else dataflows)
        if not all(isinstance(name, str) for name in names):
            raise TypeError
    except TypeError:
        raise ValueError(
            f"'dataflows' must be a list of names, got {dataflows!r}") \
            from None
    try:
        return tuple(dataflow_registry.canonical(name)
                     for name in names or dataflow_registry)
    except KeyError as exc:
        raise ValueError(str(exc.args[0])) from None


def resolve_objective(objective) -> str:
    """The canonical objective name.

    The objective lands in the engine cache key, where ``"EDP"`` and
    ``"edp"`` must be one entry.
    """
    try:
        return objective_registry.canonical(objective)
    except KeyError:
        raise ValueError(
            f"unknown objective {objective!r}; known: "
            f"{list(objective_registry)}") from None


def workload_from_dict(data: Dict):
    """The workload of a wire object: its ``network`` name or its
    ``layers`` list, decoded through
    :meth:`~repro.nn.layer.LayerShape.from_dict`.

    Exactly one of the two must be set (``null`` counts as unset).
    """
    from repro.nn.layer import LayerShape  # lazy: keeps this module leaf

    network, layers = data.get("network"), data.get("layers")
    if (network is None) == (layers is None):
        raise ValueError("set exactly one of 'network' or 'layers'")
    if network is not None:
        if not isinstance(network, str):
            raise ValueError(
                f"'network' must be a registered network name, "
                f"got {network!r}")
        return resolve_workload(network)
    if not isinstance(layers, list) or not layers:
        raise ValueError("'layers' must be a non-empty list")
    return tuple(LayerShape.from_dict(entry) for entry in layers)


def workload_to_dict(workload) -> Dict:
    """The wire form of a resolved workload (see
    :func:`workload_from_dict`)."""
    if isinstance(workload, str):
        return {"network": workload}
    return {"layers": [layer.to_dict() for layer in workload]}
