"""``replace(obj, **changes)`` for txf's value classes: a new instance of
``type(obj)`` made from its ``__init__`` parameters, each read from ``obj``
unless changed."""

import inspect


def replace(obj, **changes):
    fields = {name: getattr(obj, name) for name in inspect.signature(type(obj)).parameters}
    return type(obj)(**{**fields, **changes})
