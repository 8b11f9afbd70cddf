"""Loading recordings into the debugger from any artifact on disk.

Two formats reach the debugger: the CLI's raw ``.dlrn`` container
(``repro record -o app.dlrn``; a degraded record writes its segments'
containers back to back) and the runner's JSON artifact documents
(content-addressed cache entries / report payloads, where a record
artifact carries the ``.dlrn`` blob base64-encoded under
``payload_codec: "dlrn"``).  The sniffing is structural, not
extension-based: JSON artifacts start with ``{``, the binary container
starts with its magic.  Either way, an artifact is a list of one or
more recordings.
"""

from __future__ import annotations

import json

from repro.core.recorder import Recording
from repro.errors import IntegrityError, LogFormatError, ReproError
from repro.guard.degrade import SegmentedRecording, load_segmented
from repro.runner.jobs import recording_from_artifact


def load_debug_target(path: str, segment: int | None = None):
    """A ``(recording, stop_after)`` pair from any debugger artifact:
    the arguments of the same names for
    :class:`~repro.debugger.controller.ReplayController`.

    An artifact is a list of one or more recordings, and ``segment``
    indexes it (default: the first).  A plain recording returns
    ``(recording, 0)``.  A segment of a degraded recording carries its
    start checkpoint, so the controller replays it from the correct
    mid-program state, and comes with its
    :meth:`~repro.guard.degrade.SegmentedRecording.replay_bound` as
    ``stop_after``, so a cut segment's replay ends where its recording
    does.  A cut segment that committed nothing is refused.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob:
        raise ReproError(f"{path} is empty")
    if blob.lstrip()[:1] == b"{":
        try:
            artifact = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ReproError(
                f"{path} looks like JSON but does not parse: {error}")
        segmented = SegmentedRecording(
            [_from_artifact_doc(artifact, path)])
    else:
        try:
            segmented = load_segmented(blob)
        except IntegrityError as error:
            # Keep the loader's type and fields; name the file.
            error.args = (f"{path}: {error}",)
            raise
    index = 0 if segment is None else segment
    if not 0 <= index < len(segmented.segments):
        raise ReproError(
            f"{path} has {len(segmented.segments)} segment(s); "
            f"--segment {index} is out of range")
    stop_after = segmented.replay_bound(index)
    if stop_after is None:
        raise ReproError(
            f"{path}: segment {index} was cut before its first "
            f"commit, so it has nothing to replay")
    return segmented.segments[index], stop_after


def _from_artifact_doc(artifact: dict, path: str) -> Recording:
    # Cache envelopes wrap the artifact under "artifact".
    if "payload_codec" not in artifact and \
            isinstance(artifact.get("artifact"), dict):
        artifact = artifact["artifact"]
    try:
        return recording_from_artifact(artifact)
    except LogFormatError as error:
        raise LogFormatError(f"{path}: {error}") from None
