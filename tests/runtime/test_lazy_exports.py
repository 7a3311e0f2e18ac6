"""``repro.runtime`` resolves its exports on first use.

``repro-experiment``'s in-memory path needs only the results digest;
importing ``repro.runtime.digest`` must not load the executor and the
rest of the sharded-execution machinery with it.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.runtime

SRC = str(Path(repro.runtime.__file__).resolve().parents[2])


def test_digest_import_leaves_the_executor_unloaded():
    script = ("import sys, repro.runtime.digest\n"
              "loaded = sorted(name for name in sys.modules\n"
              "                if name.startswith('repro.runtime.'))\n"
              "print(' '.join(loaded))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["repro.runtime.digest"]


@pytest.mark.parametrize("name", repro.runtime.__all__)
def test_every_export_resolves_from_its_module(name):
    namespace = {}
    exec("from repro.runtime import %s" % name, namespace)
    submodule = repro.runtime._EXPORTS[name]
    module = importlib.import_module("repro.runtime." + submodule)
    assert namespace[name] is getattr(module, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        repro.runtime.no_such_export
