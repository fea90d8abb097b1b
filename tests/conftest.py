import pytest

from qcoideal.memos import MEMOS


@pytest.fixture
def fresh_memos():
    """Empty every namespace of the process-wide `MEMOS` in place, so no
    memo filled before the test hides a fault; the test may call the
    function it gets to empty them again.  Afterwards each namespace holds
    its old entries again, so the named data that other tests hold at
    module level stay the ones `cartan_datum` returns."""
    saved = {name: dict(memo) for name, memo in MEMOS.items()}

    def empty():
        for memo in MEMOS.values():
            memo.clear()

    empty()
    yield empty
    for name, memo in MEMOS.items():
        memo.clear()
        memo.update(saved.get(name, {}))
