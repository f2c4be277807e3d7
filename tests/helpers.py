"""Importable test helpers (kept out of conftest.py on purpose).

Importing from ``conftest`` resolves whichever conftest.py happens to
be first on ``sys.path`` -- historically this suite imported
``benchmarks/conftest.py`` by accident and failed to collect.  Shared
constructors therefore live here, where the module name is unambiguous
(``tests`` is on pytest's ``pythonpath``, see pyproject.toml).
"""

from __future__ import annotations

from repro.workloads.dnn import DNNModel
from repro.workloads.layers import LayerGraphBuilder


def make_toy_model(name: str = "toy", blocks: int = 2) -> DNNModel:
    """A small residual CNN sized to span ~5 chiplets (2M weights each)."""
    b = LayerGraphBuilder(name, (3, 16, 16))
    x = b.add_conv(b.input_index, 64, kernel=3, padding=1, name="stem")
    for i in range(blocks):
        y = b.add_conv(x, 64, kernel=3, padding=1, name=f"b{i}/c1")
        y = b.add_conv(y, 64, kernel=3, padding=1, name=f"b{i}/c2")
        x = b.add_add([x, y], name=f"b{i}/add")
    x = b.add_flatten(x, name="flatten")
    x = b.add_fc(x, 512, name="fc1")
    x = b.add_fc(x, 10, name="fc2")
    return DNNModel(name, "toy", b.build())


#: The one warning a sweep pool failure raises before going inline.
POOL_DEGRADE_WARNING = r"sweep process pool failed .*inline"


def broken_pool(exc: BaseException) -> type:
    """Stand-in for ``repro.eval.sweeps.ProcessPoolExecutor``.

    Constructs fine, then raises ``exc`` on the first submission -- the
    way a sandbox without semaphores or a crashed worker surfaces.
    """

    class BrokenPool:
        def __init__(self, max_workers=None):
            pass

        def submit(self, *args, **kwargs):
            raise exc

        def shutdown(self, *args, **kwargs):
            pass

    return BrokenPool
