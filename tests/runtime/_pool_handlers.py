"""Child-side handler factories for ``test_workers.py``.

Kept out of the test module so a worker process imports three functions,
not pytest: ``WorkerInit.make_handler`` is pickled by reference and
re-imported in the child.
"""

import hashlib
import os
import time

from repro.runtime.shm import stage_arrays


def state_digest(model) -> str:
    h = hashlib.sha256()
    for key, value in sorted(model.state_dict().items()):
        h.update(key.encode())
        h.update(value.tobytes())
    return h.hexdigest()


def make_echo(replica, param_views, arenas, payload):
    def handle(msg):
        if msg[0] == "quiet":
            return None
        if msg[0] == "params":
            meta, _ = stage_arrays(arenas["out"], list(param_views))
            return ("params", meta)
        return ("echo", msg[1], payload, os.getpid(), state_digest(replica))

    return handle


def make_never_ready(replica, param_views, arenas, payload):
    time.sleep(60.0)


def make_broken(replica, param_views, arenas, payload):
    raise RuntimeError("handler factory failed")
