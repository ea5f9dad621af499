"""The PREM reference Earth model (Dziewonski & Anderson, 1981).

Isotropic PREM, implemented from the published layer polynomials in the
normalised radius ``x = r / 6371 km``.  This is the 1-D background model
SPECFEM3D_GLOBE meshes and, for the runs in the paper, perturbs with
tomographic models; it defines

* density ``rho`` (kg/m^3), P velocity ``vp`` and S velocity ``vs`` (m/s),
* shear and bulk quality factors ``Qmu``/``Qkappa`` (attenuation),
* the region boundaries used by the mesher (ICB, CMB, Moho, ...).

The fluid outer core is the single layer with ``vs = 0``; SPECFEM solves a
scalar-potential wave equation there and couples it to the solid inner core
and mantle across the ICB and CMB (Section 2/3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import constants

__all__ = [
    "LOVE_PROPERTIES",
    "PROPERTIES",
    "PremLayer",
    "PremModel",
    "PREM",
    "RegionCode",
    "love_moduli",
]

#: Large finite stand-in for "no shear attenuation" in the fluid core.
_QMU_INFINITE = 1.0e9


class RegionCode:
    """SPECFEM region codes for the three meshed regions of the globe."""

    CRUST_MANTLE = 0
    OUTER_CORE = 1
    INNER_CORE = 2

    NAMES = {0: "crust_mantle", 1: "outer_core", 2: "inner_core"}


@dataclass(frozen=True)
class PremLayer:
    """One radial layer of PREM with polynomial material coefficients.

    Coefficients multiply powers of the normalised radius x = r/R_EARTH:
    ``value = c[0] + c[1] x + c[2] x^2 + c[3] x^3``.  Units: rho in g/cm^3,
    velocities in km/s (converted to SI by the accessors on PremModel).

    PREM is transversely isotropic between the Moho and 220 km depth: those
    layers carry the published anisotropic polynomials (vpv, vph, vsv, vsh,
    eta); elsewhere the anisotropic fields are None and the isotropic
    values apply to both polarisations.
    """

    name: str
    r_bottom_km: float
    r_top_km: float
    rho: tuple[float, ...]
    vp: tuple[float, ...]
    vs: tuple[float, ...]
    q_mu: float
    q_kappa: float
    vpv: tuple[float, ...] | None = None
    vph: tuple[float, ...] | None = None
    vsv: tuple[float, ...] | None = None
    vsh: tuple[float, ...] | None = None
    eta: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_bottom_km < self.r_top_km:
            raise ValueError(
                f"invalid layer bounds [{self.r_bottom_km}, {self.r_top_km}]"
            )

    @property
    def is_fluid(self) -> bool:
        """True if the layer carries no shear (vs identically zero)."""
        return all(c == 0.0 for c in self.vs)

    def evaluate(self, coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
        """Evaluate one polynomial at normalised radii ``x``."""
        out = np.zeros_like(x)
        for power, c in enumerate(coeffs):
            if c != 0.0:
                out += c * x**power
        return out


#: What :meth:`PremModel.sample` can return: name -> (layer attributes
#: tried in order, factor to SI units).  A TI velocity falls back to the
#: isotropic polynomial, ``eta`` to 1 in layers without TI coefficients;
#: a factor of None marks a per-layer constant rather than a polynomial.
PROPERTIES: dict[str, tuple[tuple[str, ...], float | None]] = {
    "rho": (("rho",), 1000.0),  # g/cm^3 -> kg/m^3
    "vp": (("vp",), 1000.0),  # km/s -> m/s
    "vs": (("vs",), 1000.0),
    "vph": (("vph", "vp"), 1000.0),
    "vpv": (("vpv", "vp"), 1000.0),
    "vsh": (("vsh", "vs"), 1000.0),
    "vsv": (("vsv", "vs"), 1000.0),
    "eta": (("eta",), 1.0),
    "q_mu": (("q_mu",), None),
    "q_kappa": (("q_kappa",), None),
}

#: The properties :func:`love_moduli` reads.
LOVE_PROPERTIES = ("rho", "vph", "vpv", "vsv", "vsh", "eta")


def love_moduli(profile: dict) -> tuple:
    """(A, C, L, N, F) in Pa from a :meth:`PremModel.sample` of
    :data:`LOVE_PROPERTIES`."""
    rho = np.asarray(profile["rho"])
    a = rho * np.asarray(profile["vph"]) ** 2
    c = rho * np.asarray(profile["vpv"]) ** 2
    l = rho * np.asarray(profile["vsv"]) ** 2
    n = rho * np.asarray(profile["vsh"]) ** 2
    f = np.asarray(profile["eta"]) * (a - 2.0 * l)
    return a, c, l, n, f


def _prem_layers() -> tuple[PremLayer, ...]:
    """The 13 layers of isotropic PREM (ocean replaced by upper crust).

    SPECFEM3D_GLOBE meshes a solid free surface and treats the ocean as a
    surface load (OCEANS flag), so the 3-km PREM ocean layer is replaced by
    an extension of the upper crust, exactly as the Fortran code does.
    """
    R = constants.R_EARTH_KM
    return (
        PremLayer(
            "inner_core", 0.0, constants.R_ICB_KM,
            rho=(13.0885, 0.0, -8.8381),
            vp=(11.2622, 0.0, -6.3640),
            vs=(3.6678, 0.0, -4.4475),
            q_mu=84.6, q_kappa=1327.7,
        ),
        PremLayer(
            "outer_core", constants.R_ICB_KM, constants.R_CMB_KM,
            rho=(12.5815, -1.2638, -3.6426, -5.5281),
            vp=(11.0487, -4.0362, 4.8023, -13.5732),
            vs=(0.0,),
            q_mu=_QMU_INFINITE, q_kappa=57823.0,
        ),
        PremLayer(
            "d_doubleprime", constants.R_CMB_KM, constants.R_TOPDDOUBLEPRIME_KM,
            rho=(7.9565, -6.4761, 5.5283, -3.0807),
            vp=(15.3891, -5.3181, 5.5242, -2.5514),
            vs=(6.9254, 1.4672, -2.0834, 0.9783),
            q_mu=312.0, q_kappa=57823.0,
        ),
        PremLayer(
            "lower_mantle", constants.R_TOPDDOUBLEPRIME_KM, constants.R_771_KM,
            rho=(7.9565, -6.4761, 5.5283, -3.0807),
            vp=(24.9520, -40.4673, 51.4832, -26.6419),
            vs=(11.1671, -13.7818, 17.4575, -9.2777),
            q_mu=312.0, q_kappa=57823.0,
        ),
        PremLayer(
            "lower_mantle_top", constants.R_771_KM, constants.R_670_KM,
            rho=(7.9565, -6.4761, 5.5283, -3.0807),
            vp=(29.2766, -23.6027, 5.5242, -2.5514),
            vs=(22.3459, -17.2473, -2.0834, 0.9783),
            q_mu=312.0, q_kappa=57823.0,
        ),
        PremLayer(
            "transition_660_600", constants.R_670_KM, constants.R_600_KM,
            rho=(5.3197, -1.4836),
            vp=(19.0957, -9.8672),
            vs=(9.9839, -4.9324),
            q_mu=143.0, q_kappa=57823.0,
        ),
        PremLayer(
            "transition_600_400", constants.R_600_KM, constants.R_400_KM,
            rho=(11.2494, -8.0298),
            vp=(39.7027, -32.6166),
            vs=(22.3512, -18.5856),
            q_mu=143.0, q_kappa=57823.0,
        ),
        PremLayer(
            "transition_400_220", constants.R_400_KM, constants.R_220_KM,
            rho=(7.1089, -3.8045),
            vp=(20.3926, -12.2569),
            vs=(8.9496, -4.4597),
            q_mu=143.0, q_kappa=57823.0,
        ),
        PremLayer(
            "low_velocity_zone", constants.R_220_KM, constants.R_80_KM,
            rho=(2.6910, 0.6924),
            vp=(4.1875, 3.9382),
            vs=(2.1519, 2.3481),
            q_mu=80.0, q_kappa=57823.0,
            # Published anisotropic PREM polynomials (Moho - 220 km).
            vpv=(0.8317, 7.2180),
            vph=(3.5908, 4.6172),
            vsv=(5.8582, -1.4678),
            vsh=(-1.0839, 5.7176),
            eta=(3.3687, -2.4778),
        ),
        PremLayer(
            "lid", constants.R_80_KM, constants.R_MOHO_KM,
            rho=(2.6910, 0.6924),
            vp=(4.1875, 3.9382),
            vs=(2.1519, 2.3481),
            q_mu=600.0, q_kappa=57823.0,
            vpv=(0.8317, 7.2180),
            vph=(3.5908, 4.6172),
            vsv=(5.8582, -1.4678),
            vsh=(-1.0839, 5.7176),
            eta=(3.3687, -2.4778),
        ),
        PremLayer(
            "lower_crust", constants.R_MOHO_KM, constants.R_MIDDLE_CRUST_KM,
            rho=(2.900,), vp=(6.800,), vs=(3.900,),
            q_mu=600.0, q_kappa=57823.0,
        ),
        PremLayer(
            "upper_crust", constants.R_MIDDLE_CRUST_KM, constants.R_OCEAN_KM,
            rho=(2.600,), vp=(5.800,), vs=(3.200,),
            q_mu=600.0, q_kappa=57823.0,
        ),
        PremLayer(
            # PREM has a 3-km ocean here; meshed as upper crust (see docstring).
            "surface_crust", constants.R_OCEAN_KM, R,
            rho=(2.600,), vp=(5.800,), vs=(3.200,),
            q_mu=600.0, q_kappa=57823.0,
        ),
    )


class PremModel:
    """Queryable isotropic PREM with SI-unit accessors and region helpers.

    All radius arguments are in kilometres.  At a discontinuity the value
    returned belongs to the layer *below* by default; pass
    ``side="above"`` to sample the upper side.
    """

    def __init__(self) -> None:
        self.layers = _prem_layers()
        self._tops = [layer.r_top_km for layer in self.layers]

    # -- Material properties (SI units) ------------------------------------------

    def _layer_indices(self, r: np.ndarray, side: str) -> np.ndarray:
        """Vectorised layer lookup for an array of radii (km)."""
        if side not in ("below", "above"):
            raise ValueError(f"side must be 'below' or 'above', got {side!r}")
        if np.any(r < 0.0) or np.any(r > constants.R_EARTH_KM + 1e-9):
            raise ValueError("radius outside the Earth")
        tops = np.asarray(self._tops)
        if side == "below":
            idx = np.searchsorted(tops, r - 1e-12, side="left")
        else:
            idx = np.searchsorted(tops, r + 1e-12, side="right")
        return np.minimum(idx, len(self.layers) - 1)

    def sample(
        self, r_km, side: str = "below", props: tuple[str, ...] = ("rho",)
    ) -> dict[str, np.ndarray | float]:
        """Several properties at the same radii from one layer lookup.

        ``props`` names entries of :data:`PROPERTIES`: layer polynomials
        (SI units; the TI velocities fall back to the isotropic polynomial
        and ``eta`` to 1 outside TI layers) or the layer constants ``q_mu``
        and ``q_kappa``.  Each layer present is masked once and every
        polynomial evaluated under that mask, so a material pass pays for
        one ``searchsorted`` and one set of masks, not one per property.
        """
        scalar = np.isscalar(r_km)
        r = np.atleast_1d(np.asarray(r_km, dtype=np.float64))
        shape = r.shape
        r = r.ravel()
        x = r / constants.R_EARTH_KM
        idx = self._layer_indices(r, side)
        out: dict[str, np.ndarray] = {}
        polynomials = []
        for name in props:
            attrs, scale = PROPERTIES[name]
            if scale is None:
                constant = [getattr(layer, attrs[0]) for layer in self.layers]
                out[name] = np.asarray(constant)[idx]
            else:
                out[name] = np.ones_like(r)
                polynomials.append((out[name], attrs, scale))
        for li in np.flatnonzero(np.bincount(idx, minlength=len(self.layers))):
            mask = idx == li
            xm = x[mask]
            layer = self.layers[li]
            for values, attrs, _ in polynomials:
                coeffs = [getattr(layer, a) for a in attrs if getattr(layer, a)]
                if coeffs:
                    values[mask] = layer.evaluate(coeffs[0], xm)
        for values, _, scale in polynomials:
            values *= scale
        return {
            name: float(v[0]) if scalar else v.reshape(shape)
            for name, v in out.items()
        }

    def _one(self, prop: str, r_km, side: str):
        return self.sample(r_km, side, (prop,))[prop]

    def density(self, r_km, side: str = "below"):
        """Density in kg/m^3 (PREM polynomials are in g/cm^3)."""
        return self._one("rho", r_km, side)

    def vp(self, r_km, side: str = "below"):
        """P-wave speed in m/s."""
        return self._one("vp", r_km, side)

    def vs(self, r_km, side: str = "below"):
        """S-wave speed in m/s (zero in the fluid outer core)."""
        return self._one("vs", r_km, side)

    def q_mu(self, r_km, side: str = "below"):
        """Shear quality factor (dimensionless)."""
        return self._one("q_mu", r_km, side)

    def q_kappa(self, r_km, side: str = "below"):
        """Bulk quality factor (dimensionless)."""
        return self._one("q_kappa", r_km, side)

    def vph(self, r_km, side: str = "below"):
        """Horizontally-polarised P speed (m/s); = vp outside TI layers."""
        return self._one("vph", r_km, side)

    def vpv(self, r_km, side: str = "below"):
        """Vertically-polarised P speed (m/s)."""
        return self._one("vpv", r_km, side)

    def vsh(self, r_km, side: str = "below"):
        """Horizontally-polarised S speed (m/s)."""
        return self._one("vsh", r_km, side)

    def vsv(self, r_km, side: str = "below"):
        """Vertically-polarised S speed (m/s)."""
        return self._one("vsv", r_km, side)

    def eta_anisotropy(self, r_km, side: str = "below"):
        """The dimensionless eta parameter (1 outside TI layers)."""
        return self._one("eta", r_km, side)

    def love_parameters(self, r_km, side: str = "below"):
        """(A, C, L, N, F) in Pa — the TI moduli at the given radii."""
        return love_moduli(self.sample(r_km, side, LOVE_PROPERTIES))

    def moduli(self, r_km, side: str = "below"):
        """(kappa, mu) elastic moduli in Pa from (rho, vp, vs)."""
        rho = np.asarray(self.density(r_km, side))
        vp = np.asarray(self.vp(r_km, side))
        vs = np.asarray(self.vs(r_km, side))
        mu = rho * vs**2
        kappa = rho * vp**2 - 4.0 / 3.0 * mu
        return kappa, mu

    # -- Regions ------------------------------------------------------------------

    def region_of(self, r_km: float) -> int:
        """SPECFEM region code of a radius (boundary points go to the region above)."""
        if r_km < constants.R_ICB_KM:
            return RegionCode.INNER_CORE
        if r_km < constants.R_CMB_KM:
            return RegionCode.OUTER_CORE
        return RegionCode.CRUST_MANTLE

    def is_fluid(self, r_km: float) -> bool:
        """True inside the fluid outer core."""
        return constants.R_ICB_KM < r_km < constants.R_CMB_KM

    def region_interface_radii_km(self) -> tuple[float, float]:
        """(ICB, CMB) radii in km: the solid-fluid coupling surfaces."""
        return constants.R_ICB_KM, constants.R_CMB_KM

    def discontinuities_km(self) -> list[float]:
        """All internal discontinuity radii (layer interfaces), ascending."""
        return [layer.r_top_km for layer in self.layers[:-1]]

    # -- Integrals ------------------------------------------------------------------

    def enclosed_mass_kg(self, r_km: float) -> float:
        """Mass (kg) enclosed within radius ``r_km``, by exact polynomial integration.

        Within a layer, rho(x) = sum c_p x^p gives
        integral rho r^2 dr = R^3 * sum c_p x^(p+3)/(p+3).
        """
        if r_km < 0:
            raise ValueError("radius must be non-negative")
        r_km = min(r_km, constants.R_EARTH_KM)
        R_m = constants.R_EARTH_M
        total = 0.0
        for layer in self.layers:
            lo = layer.r_bottom_km
            if lo >= r_km:
                break
            hi = min(layer.r_top_km, r_km)
            x_lo = lo / constants.R_EARTH_KM
            x_hi = hi / constants.R_EARTH_KM
            for power, c in enumerate(layer.rho):
                if c == 0.0:
                    continue
                c_si = c * 1000.0  # g/cm^3 -> kg/m^3
                total += (
                    4.0 * np.pi * c_si * R_m**3
                    * (x_hi ** (power + 3) - x_lo ** (power + 3))
                    / (power + 3)
                )
            if layer.r_top_km >= r_km:
                break
        return total

    def gravity(self, r_km: float) -> float:
        """Gravitational acceleration g(r) in m/s^2 from the enclosed mass."""
        if r_km <= 0.0:
            return 0.0
        r_m = min(r_km, constants.R_EARTH_KM) * 1000.0
        return constants.GRAV * self.enclosed_mass_kg(r_km) / r_m**2


#: Module-level singleton; PremModel is immutable after construction.
PREM = PremModel()
