"""Known-good fixture for R001: the table lists the plugin module."""

from repro.registry import Registry

_BUILTIN_SUBMITTER_MODULES = {
    "widget": "r001_plugin",
}

SUBMITTERS = Registry("batch submitter", _BUILTIN_SUBMITTER_MODULES)
