import pytest

from extconv import projection


@pytest.fixture
def sign_fault(monkeypatch):
    """Negate one interlace sign of the minor expansion.

    Every partition plan handed out while the fixture is active has the sign
    of the first cell of its first target flipped, so a checker that compares
    the expansion against an independent route must report a mismatch.
    """
    real = projection._partition_plan

    def faulty(n, k, s):
        plan = real(n, k, s)
        first = plan.targets[0]
        return plan._replace(targets=((first[0], -first[1]) + first[2:],) + plan.targets[1:])

    monkeypatch.setattr(projection, "_partition_plan", faulty)
