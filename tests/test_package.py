import inspect

import hyperemb


def test_star_import_matches_bound_public_names():
    namespace: dict = {}
    exec("from hyperemb import *", namespace)
    bound = {
        name
        for name, value in vars(hyperemb).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert set(hyperemb.__all__) == bound
    assert bound <= set(namespace)
