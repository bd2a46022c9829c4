"""The mutant catalogue stays in step with src/ and the tests: the gated run
(python tests/mutants.py) applies each snippet's replacement, so each snippet
must occur exactly once in its module, and each test it names must exist."""

import re

import mutants


def test_every_mutant_snippet_occurs_once_and_names_defined_tests():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in mutants.MUTANTS:
        text = (mutants.SRC / mutant.file).read_text()
        assert text.count(mutant.snippet) == 1, mutant.name
        assert mutant.tests, mutant.name
        for test_id in mutant.tests:
            path, function = test_id.split("::")
            source = (mutants.ROOT / path).read_text()
            assert re.search(rf"^def {function}\(", source, re.MULTILINE), test_id
