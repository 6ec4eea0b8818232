"""Package logger.

All CLI diagnostics go through ``edm.*`` loggers instead of bare
``print``, so ``-v`` / ``--log-level`` controls the noise floor in one place
and run-log/trace chatter can be silenced without losing primary output
(results, tables and JSON still go to stdout).

``configure`` is idempotent per call: it rebinds the single stream handler
to the *current* ``sys.stderr`` each time, so repeated CLI invocations in
one process (tests, notebooks) never stack handlers or write to a stale
stream.
"""

from __future__ import annotations

import logging
import sys

ROOT_LOGGER_NAME = "edm"

_FORMAT = "%(levelname)s %(name)s: %(message)s"


def get_logger(name: str | None = None) -> logging.Logger:
    """The package logger, or a ``edm.<name>`` child."""
    if name is None or name == ROOT_LOGGER_NAME:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def configure(level: int | str = logging.INFO) -> logging.Logger:
    """(Re)configure the package logger to write to the current stderr."""
    if isinstance(level, str):
        parsed = logging.getLevelName(level.upper())
        if not isinstance(parsed, int):
            raise ValueError(f"unknown log level {level!r}")
        level = parsed
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT))
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    return logger


def level_from_args(verbose: int, log_level: str | None) -> str:
    """Resolve the global ``-v`` count / ``--log-level`` pair to a level name.

    ``--log-level`` wins when given; otherwise WARNING by default, INFO at
    ``-v`` and DEBUG at ``-vv``.
    """
    if log_level:
        return log_level.upper()
    if verbose >= 2:
        return "DEBUG"
    if verbose == 1:
        return "INFO"
    return "WARNING"
