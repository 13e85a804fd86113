"""Wire schemas of the serve layer.

The service speaks the sweep engine's vocabulary: every request body
is parsed into :class:`~repro.sweep.spec.Scenario` objects (``/sweep``
bodies are literally a :class:`~repro.sweep.spec.SweepSpec` in JSON),
so the scenario validation rules, the task implementations and the
JSON results are shared between the HTTP API, the CLI and the sweep
engine — one schema, three transports.

Every request names a *chip* through the same geometry fields a
scenario uses: a registered ``benchmark``, an explicit ``rows`` x
``cols`` grid with a flat ``power_map``, or a 2.5D ``chiplets`` list
of ``[rows, cols, row_offset, col_offset, power_w]`` entries (see
:func:`~repro.thermal.chiplet.layout_from_plain`), optionally scaled
(``power_scale``) and with device-parameter factors
(``seebeck_factor`` / ``resistance_factor``).  :func:`blueprint_key`
hashes those fields (plus the solver ``backend`` and temperature
limit) into the warm-session pool key: two requests with equal keys
are guaranteed to rebuild byte-identical assembled systems, so they
can safely share one :class:`~repro.thermal.session.SolveSession`'s
factorization caches.

Malformed payloads raise :class:`SchemaError`; the app maps it to an
HTTP 400 with the message in the body.
"""

from __future__ import annotations

import hashlib
import json

from repro.sweep.spec import Scenario, SweepSpec

#: Geometry/device fields shared by every endpoint (the scenario's
#: chip identity).
GEOMETRY_FIELDS = (
    "benchmark",
    "rows",
    "cols",
    "power_map",
    "chiplets",
    "power_scale",
    "limit_c",
    "seebeck_factor",
    "resistance_factor",
    "backend",
)

#: Full scenario vocabulary accepted inside ``/sweep`` bodies —
#: exactly the :class:`~repro.sweep.spec.Scenario` fields.
SCENARIO_FIELDS = GEOMETRY_FIELDS + (
    "name",
    "task",
    "tec_tiles",
    "current_a",
    "budget_w",
    "dt",
    "steps",
    "num_groups",
    "current_tolerance",
    "max_rounds",
    "rom",
    "rom_dim",
    "rom_tol",
)


class SchemaError(ValueError):
    """A request body that does not parse into a valid scenario."""


def _require_mapping(payload, where):
    if not isinstance(payload, dict):
        raise SchemaError("{} must be a JSON object, got {}".format(
            where, type(payload).__name__
        ))
    return payload


def _reject_unknown(payload, allowed, where):
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise SchemaError("unknown field(s) in {}: {}".format(
            where, ", ".join(unknown)
        ))


def _build_scenario(fields, where, *, check_chip=False):
    """``Scenario(**fields)``, with its errors as :class:`SchemaError`.

    ``check_chip`` also runs :meth:`Scenario.check_chip`, so a
    single-chip request with an out-of-range tile or a limit below
    ambient is a 400 before any build (``/deploy`` and ``/sweep`` keep
    the per-scenario failure isolation of the process tier instead).
    """
    try:
        scenario = Scenario(**fields)
        if check_chip:
            scenario.check_chip()
        return scenario
    except (TypeError, ValueError) as error:
        raise SchemaError("invalid {}: {}".format(where, error))


def _geometry_fields(payload):
    fields = {
        key: payload[key]
        for key in GEOMETRY_FIELDS
        if payload.get(key) is not None
    }
    benchmark = fields.get("benchmark")
    if benchmark is not None:
        # Catch unknown names at parse time (HTTP 400); letting them
        # through would surface as a KeyError deep in the worker (500).
        from repro.experiments.benchmarks import BENCHMARKS

        if benchmark not in BENCHMARKS:
            raise SchemaError("unknown benchmark {!r} (choose from {})".format(
                benchmark, ", ".join(sorted(BENCHMARKS))
            ))
    return fields


def parse_solve(payload):
    """``POST /solve`` body -> a tuple of ``solve`` scenarios.

    Required: a geometry source, ``tec_tiles`` and a supply current —
    either a scalar ``current_a`` or a list ``currents_a`` (one solve
    scenario per current, answered in one batch).
    """
    payload = _require_mapping(payload, "/solve body")
    _reject_unknown(
        payload, GEOMETRY_FIELDS + ("tec_tiles", "current_a", "currents_a"),
        "/solve body",
    )
    if "tec_tiles" not in payload:
        raise SchemaError("/solve body needs tec_tiles")
    currents = payload.get("currents_a")
    if currents is None:
        if "current_a" not in payload:
            raise SchemaError("/solve body needs current_a or currents_a")
        currents = [payload["current_a"]]
    if not isinstance(currents, (list, tuple)) or not currents:
        raise SchemaError("currents_a must be a non-empty list")
    try:
        currents = [float(c) for c in currents]
    except (TypeError, ValueError):
        raise SchemaError("currents_a entries must be numbers")
    base = _geometry_fields(payload)
    base["tec_tiles"] = payload["tec_tiles"]
    scenarios = tuple(
        _build_scenario(
            dict(base, name="solve/{}".format(j), task="solve", current_a=c),
            "/solve request",
            check_chip=True,
        )
        for j, c in enumerate(currents)
    )
    return scenarios


def parse_transient(payload):
    """``POST /transient`` body -> one ``transient`` scenario.

    ``rom`` / ``rom_dim`` / ``rom_tol`` select the certified
    reduced-order kernel exactly like the CLI's ``--rom*`` flags; they
    enter the scenario (and hence the session pool / batch keys), so
    requests with different ROM parameters never share a batch.
    """
    payload = _require_mapping(payload, "/transient body")
    _reject_unknown(
        payload,
        GEOMETRY_FIELDS
        + ("tec_tiles", "current_a", "dt", "steps", "rom", "rom_dim", "rom_tol"),
        "/transient body",
    )
    fields = _geometry_fields(payload)
    for key in ("tec_tiles", "current_a", "dt", "steps", "rom", "rom_dim", "rom_tol"):
        if payload.get(key) is not None:
            fields[key] = payload[key]
    fields.update(name="transient", task="transient")
    return _build_scenario(fields, "/transient request", check_chip=True)


def parse_deploy(payload):
    """``POST /deploy`` body -> one ``greedy`` (or ``table1``) scenario.

    ``full_cover: true`` requests the Full-Cover baseline too (the
    ``table1`` task); ``max_rounds`` and ``current_tolerance`` forward
    to GreedyDeploy.
    """
    payload = _require_mapping(payload, "/deploy body")
    _reject_unknown(
        payload,
        GEOMETRY_FIELDS + ("max_rounds", "full_cover", "current_tolerance"),
        "/deploy body",
    )
    task = "table1" if payload.get("full_cover") else "greedy"
    fields = _geometry_fields(payload)
    for key in ("max_rounds", "current_tolerance"):
        if payload.get(key) is not None:
            fields[key] = payload[key]
    fields.update(name="deploy", task=task)
    return _build_scenario(fields, "/deploy request")


def parse_sweep(payload):
    """``POST /sweep`` body -> a :class:`SweepSpec`.

    The body is the spec's own wire shape::

        {"name": "my-sweep", "scenarios": [{"name": ..., "task": ..., ...}]}

    Every scenario entry takes the full :data:`SCENARIO_FIELDS`
    vocabulary — the same plain data the sweep engine executes, so a
    spec serialized from Python runs unchanged over HTTP.
    """
    payload = _require_mapping(payload, "/sweep body")
    _reject_unknown(payload, ("name", "scenarios", "workers"), "/sweep body")
    entries = payload.get("scenarios")
    if not isinstance(entries, (list, tuple)) or not entries:
        raise SchemaError("/sweep body needs a non-empty scenarios list")
    scenarios = []
    for position, entry in enumerate(entries):
        entry = _require_mapping(entry, "scenario #{}".format(position))
        _reject_unknown(entry, SCENARIO_FIELDS, "scenario #{}".format(position))
        missing = [key for key in ("name", "task") if key not in entry]
        if missing:
            raise SchemaError("scenario #{} needs {}".format(
                position, ", ".join(missing)
            ))
        fields = {
            key: entry[key] for key in SCENARIO_FIELDS
            if entry.get(key) is not None
        }
        scenarios.append(
            _build_scenario(fields, "scenario #{}".format(position))
        )
    try:
        return SweepSpec(
            scenarios=tuple(scenarios),
            name=str(payload.get("name", "sweep")),
        )
    except (TypeError, ValueError) as error:
        raise SchemaError("invalid /sweep body: {}".format(error))


def blueprint_key(scenario):
    """The warm-session pool key of a scenario's chip.

    A SHA-256 over the canonical JSON of everything that enters the
    assembled system (geometry, power map and scale, device factors),
    the solver ``backend`` and the temperature limit — the same
    identity :func:`repro.sweep.worker.problem_for` keys its
    per-process problem cache on.  Equal keys therefore mean
    bit-identical matrices, so requests sharing a key share one warm
    :class:`~repro.core.problem.CoolingSystemProblem` (and its
    sessions) safely.
    """
    identity = {
        "geometry": list(scenario.geometry_key()),
        "backend": scenario.backend,
        "limit_c": scenario.limit_c,
        # Reduced-order knobs: traces with different ROM parameters
        # build different certified bases, so they must neither share
        # a batch nor a warm session entry.
        "rom": [scenario.rom, scenario.rom_dim, scenario.rom_tol],
    }
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
