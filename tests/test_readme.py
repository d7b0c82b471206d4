"""The README's property and public names must be the package's own."""

import re
from pathlib import Path

import qop
from qop.harness import PROPERTIES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_cli_examples_name_known_properties():
    named = re.findall(r"^qop (?:verify|fuzz) ([\w-]+)", README, flags=re.M)
    assert named
    assert set(named) <= set(PROPERTIES), sorted(set(named) - set(PROPERTIES))


def test_readme_property_list_is_the_registry():
    paragraph = README.split("Property names for `verify` and `fuzz`:")[1].split("\n\n")[0]
    assert re.findall(r"`([\w-]+)`", paragraph) == sorted(PROPERTIES)


def test_readme_box_names_every_public_name():
    box = README.split("## What is in the box")[1].split("\n## ")[0]
    named = {word for span in re.findall(r"`([^`]+)`", box)
             for word in re.findall(r"[A-Za-z_]\w*", span)}
    assert not set(qop.__all__) - named, sorted(set(qop.__all__) - named)
