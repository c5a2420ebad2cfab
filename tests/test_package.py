import polyprod


def test_all_names_exist_once():
    """Every name ``from polyprod import *`` exports is bound in the
    package, and none is listed twice."""
    names = polyprod.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(polyprod, name)] == []
