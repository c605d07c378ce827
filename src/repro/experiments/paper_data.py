"""The paper's tables 1-4: their design and published results.

Each cell of the paper reports ``P`` (probability of timely completion)
over ``E`` (energy of timely runs, NaN when ``P = 0``) for four schemes.
Values are transcribed verbatim from the DATE 2006 text.

It is also the one statement of each table's design: :data:`TABLE_DESIGN`,
:data:`COLUMNS` and the published (U, λ) rows, from which the titles
and the eight :class:`~repro.experiments.config.TableSpec`\\ s are built.
Stdlib-only, so ``repro list`` and ``--help`` load no numpy.

Note on column naming: the headers of tables 3 and 4 in the paper still
read "A_D_S", but §4.2 makes clear those tables evaluate
``adapchp-dvs-CCPs``; we record the column as ``A_D_C``.

λ values are stored as absolute rates: tables (a) use ``λ × 10⁻²`` ∈
{0.14, 0.16} → {1.4e-3, 1.6e-3}; tables (b) use ``λ × 10⁻⁴`` ∈
{1.0, 2.0} → {1e-4, 2e-4}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "PaperCell",
    "paper_cell",
    "paper_rows",
    "paper_schemes",
    "COLUMNS",
    "TABLE_DESIGN",
    "TABLE_IDS",
    "TABLE_TITLES",
]

NAN = math.nan

#: Each table's design (paper §4): the adaptive variant (``"scp"``:
#: ``A_D_S``, SCP-favourable costs; ``"ccp"``: ``A_D_C``, CCP-favourable
#: costs), the static baselines' speed (also U's reference speed), ``k``.
TABLE_DESIGN: Dict[str, Tuple[str, float, int]] = {
    "1a": ("scp", 1.0, 5),
    "1b": ("scp", 1.0, 1),
    "2a": ("scp", 2.0, 5),
    "2b": ("scp", 2.0, 1),
    "3a": ("ccp", 1.0, 5),
    "3b": ("ccp", 1.0, 1),
    "4a": ("ccp", 2.0, 5),
    "4b": ("ccp", 2.0, 1),
}

TABLE_IDS = tuple(TABLE_DESIGN)

#: Scheme names in column order, per adaptive variant.
COLUMNS = {
    "scp": ("Poisson", "k-f-t", "A_D", "A_D_S"),
    "ccp": ("Poisson", "k-f-t", "A_D", "A_D_C"),
}

#: One title per table (``repro list``, :class:`~repro.experiments.
#: config.TableSpec`): the adaptive scheme, the baselines' speed, ``k``.
TABLE_TITLES = {
    table_id: f"adapchp-dvs-{variant.upper()}s vs baselines; static "
    f"schemes at f{speed:g}; k={k} (paper Tab. {table_id})"
    for table_id, (variant, speed, k) in TABLE_DESIGN.items()
}

# (u, lam) -> ((P, E) per scheme in column order)
_Row = Tuple[Tuple[float, float], ...]

_TABLES: Dict[str, Dict[Tuple[float, float], _Row]] = {
    "1a": {
        (0.76, 1.4e-3): ((0.1185, 39015), (0.1115, 38940), (0.9991, 57564), (0.9999, 52863)),
        (0.76, 1.6e-3): ((0.0489, 39183), (0.0466, 39153), (0.9992, 59765), (0.9999, 54176)),
        (0.78, 1.4e-3): ((0.0504, 39358), (0.0496, 39350), (0.9990, 60441), (0.9999, 55520)),
        (0.78, 1.6e-3): ((0.0181, 39443), (0.0182, 39396), (0.9993, 62687), (0.9999, 56814)),
        (0.80, 1.4e-3): ((0.0091, 38951), (0.0204, 39507), (0.9993, 63039), (0.9999, 58079)),
        (0.80, 1.6e-3): ((0.0021, 39217), (0.0062, 39684), (0.9990, 65233), (0.9998, 59344)),
        (0.82, 1.4e-3): ((0.0013, 39161), (0.0018, 39122), (0.9995, 65778), (1.0000, 60731)),
        (0.82, 1.6e-3): ((0.0005, 39290), (0.0003, 39200), (0.9990, 67987), (0.9999, 62091)),
    },
    "1b": {
        (0.92, 1.0e-4): ((0.3914, 38032), (0.3965, 38665), (0.9229, 74193), (0.9549, 72862)),
        (0.92, 2.0e-4): ((0.1650, 38623), (0.1628, 38681), (0.9793, 76444), (0.9985, 72566)),
        (0.95, 1.0e-4): ((0.3851, 39316), (0.3852, 39844), (0.9188, 77097), (0.9516, 75743)),
        (0.95, 2.0e-4): ((0.1520, 39844), (0.1510, 39844), (0.9462, 80414), (0.9944, 76841)),
        (1.00, 1.0e-4): ((0.0000, NAN), (0.0000, NAN), (0.9146, 81572), (0.9557, 81047)),
        (1.00, 2.0e-4): ((0.0000, NAN), (0.0000, NAN), (0.9204, 84371), (0.9892, 82499)),
    },
    "2a": {
        (0.76, 1.4e-3): ((0.6159, 149458), (0.6121, 149682), (0.6486, 149599), (0.9462, 146097)),
        (0.76, 1.6e-3): ((0.5369, 151339), (0.4258, 150911), (0.5451, 151264), (0.9006, 147873)),
        (0.78, 1.4e-3): ((0.4659, 151964), (0.3593, 150851), (0.4699, 151935), (0.8385, 149415)),
        (0.78, 1.6e-3): ((0.3007, 152371), (0.2055, 151581), (0.3227, 152552), (0.7389, 150742)),
        (0.80, 1.4e-3): ((0.2355, 152698), (0.2305, 152918), (0.2672, 153124), (0.6491, 151905)),
        (0.80, 1.6e-3): ((0.1264, 153007), (0.1207, 153495), (0.1617, 153695), (0.4864, 152742)),
        (0.82, 1.4e-3): ((0.0921, 153077), (0.0838, 153103), (0.0992, 153320), (0.3843, 153562)),
        (0.82, 1.6e-3): ((0.0285, 153494), (0.0271, 153619), (0.0388, 154288), (0.2242, 154279)),
    },
    "2b": {
        (0.92, 1.0e-4): ((0.7609, 151255), (0.7638, 151722), (0.7640, 150583), (0.7776, 150583)),
        (0.92, 2.0e-4): ((0.4365, 152453), (0.4384, 152554), (0.4737, 152444), (0.5334, 152452)),
        (0.95, 1.0e-4): ((0.3847, 152589), (0.3924, 154140), (0.3799, 149117), (0.3941, 150259)),
        (0.95, 2.0e-4): ((0.1498, 153946), (0.1498, 154167), (0.2816, 155147), (0.2842, 155612)),
    },
    "3a": {
        (0.76, 1.4e-3): ((0.1104, 38942), (0.1070, 38953), (0.9990, 57662), (1.0000, 52862)),
        (0.76, 1.6e-3): ((0.0505, 39141), (0.0479, 39128), (0.9989, 59736), (0.9999, 54036)),
        (0.78, 1.4e-3): ((0.0530, 39374), (0.0534, 39345), (0.9989, 60435), (1.0000, 55520)),
        (0.78, 1.6e-3): ((0.0190, 39422), (0.0210, 39362), (0.9989, 62477), (0.9998, 56719)),
        (0.80, 1.4e-3): ((0.0085, 39030), (0.0209, 39500), (0.9989, 63040), (1.0000, 58042)),
        (0.80, 1.6e-3): ((0.0022, 39103), (0.0057, 39530), (0.9992, 65230), (1.0000, 59274)),
        (0.82, 1.4e-3): ((0.0021, 39266), (0.0020, 39031), (0.9990, 65731), (1.0000, 60573)),
        (0.82, 1.6e-3): ((0.0005, 39658), (0.0005, 39350), (0.9989, 68038), (1.0000, 61935)),
    },
    "3b": {
        (0.92, 1.0e-4): ((0.3887, 38032), (0.3984, 38667), (0.9241, 74350), (0.9800, 73547)),
        (0.92, 2.0e-4): ((0.1634, 38619), (0.1635, 38685), (0.9783, 77021), (0.9994, 72669)),
        (0.95, 1.0e-4): ((0.3775, 39316), (0.3772, 39844), (0.9116, 77266), (0.9812, 76756)),
        (0.95, 2.0e-4): ((0.1498, 39844), (0.1480, 39844), (0.9519, 80540), (0.9978, 76614)),
        (1.00, 1.0e-4): ((0.0000, NAN), (0.0000, NAN), (0.9074, 81397), (0.9831, 81675)),
        (1.00, 2.0e-4): ((0.0000, NAN), (0.0000, NAN), (0.9202, 84379), (0.9959, 82254)),
    },
    "4a": {
        (0.76, 1.4e-3): ((0.6130, 149575), (0.6063, 149738), (0.6456, 149694), (0.9544, 146237)),
        (0.76, 1.6e-3): ((0.5252, 151286), (0.4147, 150869), (0.5336, 151206), (0.9104, 148058)),
        (0.78, 1.4e-3): ((0.4731, 151926), (0.3641, 150860), (0.4804, 151917), (0.8519, 149493)),
        (0.78, 1.6e-3): ((0.3016, 152389), (0.2061, 151610), (0.3277, 152618), (0.7546, 150926)),
        (0.80, 1.4e-3): ((0.2356, 152662), (0.2283, 152988), (0.2664, 153111), (0.6540, 152034)),
        (0.80, 1.6e-3): ((0.1279, 153171), (0.1195, 153558), (0.1629, 153834), (0.4942, 152927)),
        (0.82, 1.4e-3): ((0.0873, 153081), (0.0849, 153118), (0.0950, 153365), (0.3758, 153731)),
        (0.82, 1.6e-3): ((0.0321, 153207), (0.0319, 153394), (0.0418, 153946), (0.2115, 154400)),
    },
    "4b": {
        (0.92, 1.0e-4): ((0.7559, 151220), (0.7570, 151703), (0.7583, 150564), (0.7657, 150564)),
        (0.92, 2.0e-4): ((0.4409, 152537), (0.4398, 152623), (0.4715, 152479), (0.5327, 152546)),
        (0.95, 1.0e-4): ((0.3946, 152591), (0.3984, 154155), (0.3878, 149117), (0.3995, 150239)),
        (0.95, 2.0e-4): ((0.1479, 153946), (0.1488, 154171), (0.2775, 155132), (0.2850, 155597)),
    },
}


@dataclass(frozen=True)
class PaperCell:
    """One published (P, E) cell."""

    table_id: str
    u: float
    lam: float
    scheme: str
    p: float
    e: float

    @property
    def e_is_nan(self) -> bool:
        return math.isnan(self.e)


def paper_schemes(table_id: str) -> Tuple[str, ...]:
    """Column order of a table ('A_D_S' family vs 'A_D_C' family)."""
    _check_table(table_id)
    return COLUMNS[TABLE_DESIGN[table_id][0]]


def paper_rows(table_id: str) -> List[Tuple[float, float]]:
    """The (U, λ) rows of a table, in publication order."""
    _check_table(table_id)
    return list(_TABLES[table_id].keys())


def paper_cell(
    table_id: str, u: float, lam: float, scheme: str
) -> Optional[PaperCell]:
    """Published cell for (table, U, λ, scheme); None if absent."""
    _check_table(table_id)
    row = _TABLES[table_id].get((u, lam))
    if row is None:
        return None
    schemes = paper_schemes(table_id)
    if scheme not in schemes:
        return None
    p, e = row[schemes.index(scheme)]
    return PaperCell(table_id=table_id, u=u, lam=lam, scheme=scheme, p=p, e=e)


def _check_table(table_id: str) -> None:
    if table_id not in _TABLES:
        raise ConfigurationError(
            f"unknown table {table_id!r}; valid ids: {', '.join(TABLE_IDS)}"
        )
