import wristkin


def test_every_exported_name_resolves():
    assert len(set(wristkin.__all__)) == len(wristkin.__all__)
    assert [name for name in wristkin.__all__ if not hasattr(wristkin, name)] == []
    namespace = {}
    exec("from wristkin import *", namespace)
    assert set(wristkin.__all__) <= namespace.keys()
