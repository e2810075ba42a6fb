"""Known-good fixture for R001: registered and listed, in agreement."""

from repro.registry import SUBMITTERS


@SUBMITTERS.register("widget")
class WidgetSubmitter:
    """A submitter the table lists under this module."""
