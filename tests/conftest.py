import pytest

from superschur import liouville, operator_basis, schur, super_schur_basis, verify


def _clear_builder_caches():
    schur._super_schur_basis.cache_clear()
    schur._layout.cache_clear()
    liouville._operator_basis.cache_clear()
    verify._decomposed_examples.cache_clear()


@pytest.fixture
def fresh_builders():
    """Empty the per-process basis caches and the self-checks' cached
    example decompositions before and after the test, so a test that
    patches builder internals really builds, and nothing it builds is
    handed to later tests."""
    _clear_builder_caches()
    yield
    _clear_builder_caches()


@pytest.fixture(scope="session")
def schur_2_2():
    return super_schur_basis(2, 2)


@pytest.fixture(scope="session")
def schur_2_3():
    return super_schur_basis(2, 3)


@pytest.fixture(scope="session")
def schur_2_4():
    return super_schur_basis(2, 4)


@pytest.fixture(scope="session")
def schur_3_2():
    return super_schur_basis(3, 2)


@pytest.fixture(scope="session")
def letters_2_3():
    return operator_basis(2, 3)


@pytest.fixture(scope="session")
def letters_2_2():
    return operator_basis(2, 2)
