"""The one observation seam: attribute patches restored newest-first.

Every observer of a live kernel (the tracer, the profiler's scope set,
the trace recorder and the lockstep monitors) works by replacing
attributes of the kernel's objects with wrappers.  :class:`Patches`
records each replacement and undoes it exactly:

* an attribute that lived in the owner's ``vars()`` gets its own value
  back; one that was found on the class is deleted again with
  ``delattr``, so nothing is left behind on the instance;
* restoration runs newest-first, so observers attached on top of each
  other come off in the reverse order they went on;
* before anything is changed, every patched attribute must still hold
  the value this set installed.  If a later observer has wrapped it
  again, restoring now would put back a stale wrapper (or drop the later
  one), so :meth:`Patches.restore` raises :class:`RuntimeError` instead
  and leaves every observer working — detach the newer one first.
"""

from __future__ import annotations

_MISSING = object()


def _own_value(owner, name: str):
    """``owner``'s own value for ``name``, or ``_MISSING`` when it is
    found on the class.  A slotted instance owns every slot it has."""
    try:
        return vars(owner).get(name, _MISSING)
    except TypeError:
        return getattr(owner, name)


class Patches:
    """A LIFO set of attribute replacements on live objects."""

    def __init__(self):
        self._entries: list[tuple[object, str, object, object]] = []

    def set(self, owner, name: str, value) -> None:
        """Replace ``owner.name`` with ``value``."""
        self._entries.append((owner, name, _own_value(owner, name), value))
        setattr(owner, name, value)

    def wrap(self, owner, name: str, make_wrapper):
        """Replace ``owner.name`` with ``make_wrapper(original)``, where
        ``original`` is the current value; returns the wrapper."""
        wrapper = make_wrapper(getattr(owner, name))
        self.set(owner, name, wrapper)
        return wrapper

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        for owner, name, _, installed in self._entries:
            if getattr(owner, name) is not installed:
                raise RuntimeError(
                    f"cannot restore {type(owner).__name__}.{name}: it was "
                    f"patched again after this observer attached; detach "
                    f"the newer observer first")
        for owner, name, own, _ in reversed(self._entries):
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)
        self._entries.clear()


class Observer:
    """Attach/detach lifecycle over one :class:`Patches`.

    A subclass installs its wrappers in ``_install(patches)``; it is
    attached exactly while it holds the patches.  ``attach`` is
    idempotent, and ``detach`` raises :class:`RuntimeError` (changing
    nothing) while a newer observer still wraps one of its attributes.
    """

    _patches: Patches | None = None

    def _install(self, patches: Patches) -> None:
        raise NotImplementedError

    def attach(self):
        """Install the observation wrappers (idempotent)."""
        if self._patches is None:
            patches = Patches()
            self._install(patches)
            self._patches = patches
        return self

    def detach(self) -> None:
        """Restore every wrapped attribute."""
        if self._patches is not None:
            self._patches.restore()
            self._patches = None

    def __enter__(self):
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()
