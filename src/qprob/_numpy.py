"""numpy, imported on the first attribute read, and module constants built on first access.

Every module here reads numpy through `np` from this module. Until some code
reads an attribute of `np`, numpy is not imported, so the commands that work
on Python numbers alone never load it. The first read imports numpy, copies
its namespace in and turns `np` into a plain module, as importlib's
LazyLoader does; every later `np.x` is an ordinary module-attribute read.
"""

import types


class _Numpy(types.ModuleType):
    def __getattr__(self, name):
        import numpy

        vars(self).update(vars(numpy))
        self.__class__ = types.ModuleType
        return getattr(self, name)


np = _Numpy("numpy")


def lazy_constants(namespace: dict, **builders):
    """A module's __getattr__ (PEP 562): each named array is built once, on first access, and stored read-only.

    Callers and the library code that uses the same cached array then share
    one object that none of them can write into.
    """

    def __getattr__(name):
        if name not in builders:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = builders[name]()
        value.flags.writeable = False
        return value

    return __getattr__
