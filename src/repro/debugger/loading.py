"""Loading recordings into the debugger from any artifact on disk.

Two formats reach the debugger: the CLI's raw ``.dlrn`` container
(``repro record -o app.dlrn``) and the runner's JSON artifact documents
(content-addressed cache entries / report payloads, where a record
artifact carries the ``.dlrn`` blob base64-encoded under
``payload_codec: "dlrn"``).  The sniffing is structural, not
extension-based: JSON artifacts start with ``{``, the binary container
starts with its magic.
"""

from __future__ import annotations

import json

from repro.core.recorder import Recording
from repro.core.serialization import load_recording
from repro.errors import ReproError
from repro.runner.jobs import recording_from_artifact


def load_debug_target(path: str, segment: int | None = None):
    """A ``(recording, start_checkpoint, stop_after)`` triple from any
    debugger artifact: the arguments of the same names for
    :class:`~repro.debugger.controller.ReplayController`.

    Plain recordings return ``(recording, None, 0)``.  A stitched
    :class:`~repro.guard.degrade.SegmentedRecording` returns the
    selected segment (default: the first) together with its boundary
    checkpoint, so the controller replays the segment from the correct
    mid-program state, and its
    :meth:`~repro.guard.degrade.SegmentedRecording.replay_bound` as
    ``stop_after``, so a cut segment's replay ends where its recording
    does.  A cut segment that committed nothing is refused.
    """
    with open(path, "rb") as handle:
        head = handle.read(8)
    if head == b"DLRNSEG1":
        from repro.guard.degrade import load_segmented

        with open(path, "rb") as handle:
            segmented = load_segmented(handle.read())
        index = 0 if segment is None else segment
        if not 0 <= index < len(segmented.segments):
            raise ReproError(
                f"{path} has {len(segmented.segments)} segments; "
                f"--segment {index} is out of range")
        stop_after = segmented.replay_bound(index)
        if stop_after is None:
            raise ReproError(
                f"{path}: segment {index} was cut before its first "
                f"commit, so it has nothing to replay")
        seg = segmented.segments[index]
        return seg.recording, seg.start_checkpoint, stop_after
    if segment is not None:
        raise ReproError(
            f"{path} is not a segmented recording; --segment only "
            f"applies to stitched artifacts")
    return load_recording_artifact(path), None, 0


def load_recording_artifact(path: str) -> Recording:
    """A :class:`Recording` from a ``.dlrn`` file or a runner record
    artifact (JSON document)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob:
        raise ReproError(f"{path} is empty")
    if blob[:8] == b"DLRNSEG1":
        raise ReproError(
            f"{path} is a stitched segmented recording; load it via "
            f"load_debug_target (repro debug --segment N)")
    if blob.lstrip()[:1] == b"{":
        try:
            artifact = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ReproError(
                f"{path} looks like JSON but does not parse: {error}")
        return _from_artifact_doc(artifact, path)
    return load_recording(blob)


def _from_artifact_doc(artifact: dict, path: str) -> Recording:
    if not isinstance(artifact, dict):
        raise ReproError(
            f"{path}: expected an artifact object, got "
            f"{type(artifact).__name__}")
    # Cache envelopes wrap the artifact under "artifact".
    if "payload_codec" not in artifact and \
            isinstance(artifact.get("artifact"), dict):
        artifact = artifact["artifact"]
    codec = artifact.get("payload_codec")
    if codec != "dlrn":
        raise ReproError(
            f"{path} is not a record artifact (payload_codec "
            f"{codec!r}; the debugger replays recordings, so pass the "
            f"record artifact or a .dlrn file)")
    return recording_from_artifact(artifact)
