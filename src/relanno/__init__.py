"""Toolkit for corpus-scale (query, document) relevance annotation with
calibrated confidence scores, distillation data export, and four-dimension
evaluation of annotators and retrievers."""

import importlib.util
import sys
import types

__version__ = "0.1.0"


def lazy_import(name: str) -> types.ModuleType:
    """The top-level module `name`, whose code runs when one of its attributes
    is first read, so a command pays for numpy or requests only if it uses them.

    A module that is not installed fails here, not at first use; one that is
    already in `sys.modules` is returned as it is. The first read is not
    thread-safe on every supported Python, so trigger it on one thread before
    starting workers that use the module. That thread need not be the calling
    one: `LLMGateway.embed` reads numpy first on a worker of its own, while its
    first request is in flight, and is safe because no other thread reads numpy
    until that worker's read has returned.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
