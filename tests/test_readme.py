"""The README's property names must be the harness's own."""

import re
from pathlib import Path

from qop.harness import PROPERTIES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_cli_examples_name_known_properties():
    named = re.findall(r"^qop (?:verify|fuzz) ([\w-]+)", README, flags=re.M)
    assert named
    assert set(named) <= set(PROPERTIES), sorted(set(named) - set(PROPERTIES))


def test_readme_property_list_is_the_registry():
    paragraph = README.split("Property names for `verify` and `fuzz`:")[1].split("\n\n")[0]
    assert re.findall(r"`([\w-]+)`", paragraph) == sorted(PROPERTIES)
