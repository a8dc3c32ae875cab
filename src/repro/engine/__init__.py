"""The streaming lift engine and the language-backend registry.

The paper's lifting loop (section 5.3) is inherently incremental — emit
a surface term, step the core, repeat — and this package exposes it that
way:

* :mod:`repro.engine.events` — the typed event vocabulary a lift
  produces (``CoreStepped``, ``SurfaceEmitted``, ``StepSkipped``,
  ``Deduped``, ``Halted``, ``BudgetExhausted``);
* :mod:`repro.engine.config` — ``LiftConfig``, every lift option in
  one frozen, validated record;
* :mod:`repro.engine.stream` — ``lift_events`` (and its keyword
  wrappers ``lift_stream`` / ``lift_tree_stream``), the one lifting
  loop, yielding those events lazily under step-count and wall-clock
  budgets, plus the folds that reconstruct the batch ``LiftResult`` /
  ``SurfaceTree`` values from an event stream;
* :mod:`repro.engine.registry` — first-class language backends
  (parser + pretty-printer + stepper factory + sugar factories) with
  ``register_backend`` / ``get_backend``; the bundled ``lambda`` and
  ``pyret`` backends register themselves on import.

The batch entry points (:func:`repro.core.lift.lift_evaluation`,
:meth:`repro.confection.Confection.lift`) are thin eager folds over
these streams, so the two paths cannot drift apart.
"""

from repro.engine.config import LiftConfig
from repro.engine.events import (
    BudgetExhausted,
    CoreStepped,
    Deduped,
    Halted,
    LiftEvent,
    StepSkipped,
    SurfaceEmitted,
)
from repro.engine.registry import (
    Backend,
    UnknownBackendError,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.engine.stream import (
    fold_lift,
    fold_tree,
    lift_events,
    lift_stream,
    lift_tree_stream,
)

__all__ = [
    "LiftEvent",
    "CoreStepped",
    "SurfaceEmitted",
    "StepSkipped",
    "Deduped",
    "Halted",
    "BudgetExhausted",
    "LiftConfig",
    "lift_events",
    "lift_stream",
    "lift_tree_stream",
    "fold_lift",
    "fold_tree",
    "Backend",
    "UnknownBackendError",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
]
