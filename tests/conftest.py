import numpy as np
import pytest

from meanforce.bath import OhmicBath
from meanforce.operators import (
    bohr_decompose,
    pauli_coupling,
    spectral_decompose,
    tls_hamiltonian,
)

OMEGA0 = 1.0
BETA = 1.0
X = Z = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="session")
def bath():
    return OhmicBath(beta=BETA, coupling=1.0, cutoff=50.0)


@pytest.fixture(scope="session")
def h0():
    return tls_hamiltonian(OMEGA0)


@pytest.fixture(scope="session")
def tls_decomposition(h0):
    return spectral_decompose(h0)


@pytest.fixture(scope="session")
def jumps(tls_decomposition):
    return [bohr_decompose(tls_decomposition, pauli_coupling(X, 0.0, Z))]


@pytest.fixture(scope="session")
def rho0():
    return np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)


@pytest.fixture(scope="session")
def two_on_one_bath():
    """d=3 system with two couplings on one Ohmic bath whose frequency sets differ."""
    h0 = np.diag([0.0, 1.0, 3.0])
    a1 = np.zeros((3, 3))
    a1[0, 1] = a1[1, 0] = 1.0
    a1[0, 0] = 0.3
    a2 = np.zeros((3, 3))
    a2[0, 2] = a2[2, 0] = 1.0
    a2[0, 0] = 0.3
    dec = spectral_decompose(h0)
    jumps = [bohr_decompose(dec, a1, index=0), bohr_decompose(dec, a2, index=1)]
    return h0, jumps, OhmicBath(beta=1.0, coupling=1.0, cutoff=50.0)
