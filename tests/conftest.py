import pytest

from extconv import projection


@pytest.fixture
def sign_fault(monkeypatch):
    """Negate one interlace sign of the minor expansion.

    Every power map handed out while the fixture is active has the sign of
    the first cell of its first row flipped, so a checker that compares the
    expansion against an independent route must report a mismatch.  The
    cached map itself is left untouched.
    """
    real = projection.minor_power_map

    def faulty(n, k, s):
        power_map = real(n, k, s)
        first = power_map.rows[0]
        return power_map._replace(rows=((first[0], -first[1]) + first[2:],)
                                  + power_map.rows[1:])

    monkeypatch.setattr(projection, "minor_power_map", faulty)
