"""Known-bad fixture for R001: registers a name the table does not list."""

from repro.registry import SUBMITTERS


@SUBMITTERS.register("ghost")
class GhostSubmitter:
    """A submitter lazy lookup can never find."""
