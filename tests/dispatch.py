"""One dispatch on the kind of map, shared by the tests.

Each function takes a KrausChannel to the Kraus member of its pair and a
Lindbladian to the Lindblad member: the superoperator, its per-column
oracle and the symmetry certificate.
"""

from superschur import (
    KrausChannel,
    classify_kraus_symmetry,
    classify_lindblad_symmetry,
    kraus_superop,
    lindblad_superop,
)

from superop_oracle import kraus_superop_columns, lindblad_superop_columns


def superop(channel, basis):
    if isinstance(channel, KrausChannel):
        return kraus_superop(channel, basis)
    return lindblad_superop(channel, basis)


def superop_columns(channel, basis):
    if isinstance(channel, KrausChannel):
        return kraus_superop_columns(channel, basis)
    return lindblad_superop_columns(channel, basis)


def certificate(channel):
    if isinstance(channel, KrausChannel):
        return classify_kraus_symmetry(channel)
    return classify_lindblad_symmetry(channel)
