import reservoirq


def test_star_import_binds_every_export():
    namespace = {}
    exec("from reservoirq import *", namespace)
    assert set(reservoirq.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    assert len(reservoirq.__all__) == len(set(reservoirq.__all__))
