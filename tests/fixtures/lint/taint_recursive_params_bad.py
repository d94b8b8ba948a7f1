"""FIXTURE (bad): a recursion that swaps parameters still reaches the sink.

``describe`` logs its first parameter and hands its second to
``_forward``, which calls ``describe`` back with it in first place.  So
``describe``'s *second* parameter reaches the log only through the cycle,
and ``summarize``, which passes a raw count there, must be reported.
``audit`` feeds a raw count into such a cycle itself, and is reported at
that call.
"""


def describe(raw, rows, logger):
    if raw is not None:
        logger.info("raw %s", raw)
    elif rows is not None:
        _forward(rows, logger)


def _forward(values, logger):
    describe(values, None, logger)


def summarize(dataset, logger):
    describe(None, dataset.count("age"), logger)  # FIRES: via _forward


def audit(dataset, logger, again=False):
    if again:
        logger.warning("audit %s", dataset)
    else:
        _again(dataset.count("age"), logger)  # FIRES: back through _again


def _again(total, logger):
    audit(total, logger, again=True)
