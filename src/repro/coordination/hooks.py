"""The unified hook API (paper §V-A, Table III).

Elan stays framework-generic by never knowing what a "model" or an
"optimizer" is: the states to replicate are captured and restored through
hook functions registered via ``RegisterHook``.  Integrating a new
framework means implementing hooks, nothing else — the paper demonstrates
this with Caffe (static graph) and PyTorch (dynamic graph); here the
"framework" is the numpy substrate, and tests register custom hooks to
prove arbitrary extra state rides along.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np


@dataclasses.dataclass(frozen=True)
class Hook:
    """Capture/restore functions for one named piece of training state."""

    name: str
    capture: typing.Callable[[object], object]  # worker context -> state
    restore: typing.Callable[[object, object], None]  # (context, state)


class HookRegistry:
    """Ordered registry of state hooks (the RegisterHook API)."""

    def __init__(self):
        self._hooks: "dict[str, Hook]" = {}

    def register(self, hook: Hook) -> None:
        """Register a hook; re-registering a name replaces it."""
        self._hooks[hook.name] = hook

    def unregister(self, name: str) -> None:
        """Remove a hook by name."""
        if name not in self._hooks:
            raise KeyError(f"no hook named {name!r}")
        del self._hooks[name]

    def __iter__(self) -> "typing.Iterator[Hook]":
        """Registered hooks, in registration order."""
        return iter(list(self._hooks.values()))

    @property
    def names(self) -> "list[str]":
        """Registered hook names, in registration order."""
        return list(self._hooks)

    def capture_all(self, context: object) -> "dict[str, object]":
        """Run every capture hook — this is what gets replicated."""
        return {name: hook.capture(context) for name, hook in self._hooks.items()}

    def restore_all(self, context: object, states: "dict[str, object]") -> None:
        """Run every restore hook against a captured state bundle."""
        missing = set(self._hooks) - set(states)
        if missing:
            raise KeyError(f"captured bundle missing hooks: {sorted(missing)}")
        for name, hook in self._hooks.items():
            hook.restore(context, states[name])


def _restore_params(replica, params: dict) -> None:
    # Copy: over the in-memory transport several joiners receive the
    # same snapshot object; each replica needs its own arrays.
    replica.params = {name: np.array(array) for name, array in params.items()}


#: the state every replica snapshots: the RegisterHook defaults (§V-A),
#: captured from and restored into a namespace holding ``params``,
#: ``optimizer`` and ``loader``.  Captures are references — a snapshot
#: is taken, encoded and released while training is paused.
DEFAULT_HOOKS = (
    Hook("params", lambda replica: replica.params, _restore_params),
    Hook(
        "optimizer", lambda replica: replica.optimizer.state_dict(),
        lambda replica, state: replica.optimizer.load_state_dict(state),
    ),
    Hook(
        "loader", lambda replica: replica.loader.state_dict(),
        lambda replica, state: replica.loader.load_state_dict(state),
    ),
)
