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


def test_failed_ids_keep_the_spaces_of_a_parametrized_id():
    summary = (
        "FAILED tests/test_paths.py::test_a_malformed_record_is_refused_when_it_is_built"
        "[den 0] - Failed: DID NOT RAISE <class 'DomainError'>\n"
        "FAILED tests/test_paths.py::test_a_malformed_record_is_refused_when_it_is_built"
        "[den -1] - Failed: DID NOT RAISE\n"
        "FAILED tests/test_cli.py::test_one_line_guards_exit_two\n"
        "1 failed, 2 passed in 0.50s\n"
    )
    test_id = "tests/test_paths.py::test_a_malformed_record_is_refused_when_it_is_built"
    assert mutants._failed_ids(summary) == {
        f"{test_id}[den 0]",
        f"{test_id}[den -1]",
        "tests/test_cli.py::test_one_line_guards_exit_two",
    }
    assert mutants._caught(test_id, mutants._failed_ids(summary))
