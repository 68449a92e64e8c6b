"""RP011 fixture — analyzed as if it were ``repro.runtime.badmod``.

Everything here crosses the coordinator->worker pickle boundary (queue
puts, CMD_* tuples) carrying something that either cannot pickle or
forks into divergent state.
"""

CMD_APPLY = "apply"

PENDING = []  # module-level mutable state — forks diverge


def submit(queue, update):
    queue.put((CMD_APPLY, update, lambda x: x))  # expect-violation


def submit_lazy(queue, stream_id):
    queue.put(
        (CMD_APPLY, stream_id, (e for e in range(3)))  # expect-violation
    )


def enqueue_local(queue):
    def helper(x):
        return x

    queue.put_nowait((CMD_APPLY, helper))  # expect-violation


def stamp(obs, update):
    obs.stamp_envelope((CMD_APPLY, update, PENDING))  # expect-violation


def enqueue_ok(queue, update):
    # Plain immutable payloads are fine.
    queue.put((CMD_APPLY, update, ("snapshot", 3)))
