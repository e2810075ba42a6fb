"""Known-bad fixture for R001: the table forgot the plugin module."""

from repro.registry import Registry

_BUILTIN_SUBMITTER_MODULES = {
    "listed": "some_other_module",
}

SUBMITTERS = Registry("batch submitter", _BUILTIN_SUBMITTER_MODULES)
