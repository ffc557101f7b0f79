"""Exceptions mapped to the CLI's stable exit codes."""


class InputFormatError(Exception):
    """Malformed input file (CSV schema, config syntax). Exit code 2."""


class PipelineError(Exception):
    """A pipeline precondition failed (empty dataset, no holdout). Exit code 3."""


class CompatibilityError(Exception):
    """Forest and dataset do not match (columns, or not the training set). Exit code 4."""


def not_utf8(path, exc: UnicodeDecodeError) -> InputFormatError:
    # The codec's own position counts from its read buffer, not the file.
    return InputFormatError(
        f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x}: {exc.reason})")
