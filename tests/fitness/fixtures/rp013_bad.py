"""RP013 fixture — analyzed as if it were ``repro.runtime.badmod``.

A helper swallows every exception; so does one no public function
calls (the rule holds everywhere in ``repro.*``, reachable or not).  A
typed best-effort handler and a broad one that logs and re-raises stay
legal.
"""


def drain(queue):
    return _drain_step(queue)


def _drain_step(queue):
    return _swallow(queue)


def _swallow(queue):
    try:
        return queue.get_nowait()
    except Exception:  # expect-violation
        pass


def close(worker):
    try:
        worker.join()
    except (TimeoutError, OSError):  # allowed: typed, best-effort close
        pass


def shutdown(worker):
    try:
        worker.terminate()
    except BaseException:  # logged, not swallowed — allowed
        worker.log_failure()
        raise


def _unreachable_helper():
    # Not called by any public function — still in scope.
    try:
        return 1
    except Exception:  # expect-violation
        pass
