"""Exporters: LaTeX for reading, a restricted C dialect for embedding,
and a JSON form that round-trips the model exactly.

The C dialect uses only +, -, *, parentheses, and indexing; powers are
written out as repeated multiplication so any C-like language can paste
the bodies verbatim.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from .derive import DiffusionSign, NoiseStrategy, RateMode, SdeModel
from .poly import (Number, Polynomial, SymbolId, SymbolKind, SymbolOrder,
                   canonical_string, parse_expression, rates_then_species,
                   render_terms, sorted_terms, symbol_ranks)
from .scheme import scheme_from_dict, scheme_to_dict

MODEL_FORMAT_VERSION = "1"


class ModelFormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# LaTeX

_GREEK = {
    "alpha": r"\alpha", "beta": r"\beta", "gamma": r"\gamma",
    "delta": r"\delta", "epsilon": r"\epsilon", "zeta": r"\zeta",
    "eta": r"\eta", "theta": r"\theta", "iota": r"\iota",
    "kappa": r"\kappa", "lambda": r"\lambda", "mu": r"\mu", "nu": r"\nu",
    "xi": r"\xi", "pi": r"\pi", "rho": r"\rho", "sigma": r"\sigma",
    "tau": r"\tau", "upsilon": r"\upsilon", "phi": r"\varphi",
    "chi": r"\chi", "psi": r"\psi", "omega": r"\omega",
}


def latex_symbol(name: str) -> str:
    """Map a symbol name to LaTeX: Greek names translate, and anything
    after the first underscore becomes a subscript ("k_1" -> "k_{1}")."""
    if name in _GREEK:
        return _GREEK[name]
    base, _, sub = name.partition("_")
    base_tex = _GREEK.get(base, base)
    return f"{base_tex}_{{{sub}}}" if sub else base_tex


def _latex_coefficient(c: Number) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return rf"\frac{{{c.numerator}}}{{{c.denominator}}}"


def latex_expression(p: Polynomial,
                     symbol_order: SymbolOrder | None = None) -> str:
    def factor(sym: SymbolId, e: int) -> str:
        tex = latex_symbol(sym.name)
        return tex if e == 1 else f"{tex}^{{{e}}}"

    return render_terms(sorted_terms(p, symbol_order), _latex_coefficient,
                        factor, times=" ", zero="0", lead="- ",
                        order=rates_then_species)


def _pmatrix(entries: Sequence[str]) -> str:
    return r"\begin{pmatrix} " + r" \\ ".join(entries) + r" \end{pmatrix}"


def emit_latex(model: SdeModel) -> str:
    """Display equations for the drift, the diffusion matrix, and the
    Langevin equation itself."""
    order = symbol_ranks(model.display_order)
    n = len(model.species)
    sp_tex = [latex_symbol(s.name) for s in model.species]
    drift_tex = [latex_expression(p, order) for p in model.drift]
    diff_tex = [[latex_expression(q, order) for q in row]
                for row in model.diffusion]

    lines = []
    if n == 1:
        a, b, x = drift_tex[0], diff_tex[0][0], sp_tex[0]
        lines.append(rf"\[ A({x}) = {a} \]")
        lines.append(rf"\[ B({x}) = {b} \]")
        lines.append(rf"\[ d{x} = \left( {a} \right) dt"
                     rf" + \sqrt{{ {b} }} \, dW \]")
    else:
        rows = " \\\\ ".join(" & ".join(row) for row in diff_tex)
        b_matrix = rf"\begin{{pmatrix}} {rows} \end{{pmatrix}}"
        lines.append(rf"\[ A = {_pmatrix(drift_tex)} \]")
        lines.append(rf"\[ B = {b_matrix} \]")
        wiener = _pmatrix([rf"dW^{{{i + 1}}}" for i in range(n)])
        lines.append(rf"\[ d{_pmatrix(sp_tex)} = {_pmatrix(drift_tex)} dt"
                     rf" + b \, {wiener}, \qquad b \, b^{{\mathsf{{T}}}}"
                     rf" = B \]")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# C dialect

def _c_number(c: Number) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    # nearest double, printed positionally so the restricted grammar
    # (no exponent notation, no division) can read it back
    return _positional(float(c))


def _positional(x: float) -> str:
    """x's shortest round-trip digits (repr's) without an exponent, with at
    least one digit on each side of the point: the text of
    numpy.format_float_positional(x, unique=True, trim="0")."""
    text = repr(x)
    mantissa, _, exponent = text.partition("e")
    if not exponent:
        return text
    sign = "-" if mantissa.startswith("-") else ""
    whole, _, fraction = mantissa.lstrip("-").partition(".")
    digits = whole + fraction
    point = len(whole) + int(exponent)     # digits before the point
    if point <= 0:
        return f"{sign}0.{'0' * -point}{digits}"
    if point >= len(digits):
        return f"{sign}{digits}{'0' * (point - len(digits))}.0"
    return f"{sign}{digits[:point]}.{digits[point:]}"


def c_expression(p: Polynomial, index: Mapping[SymbolId, str],
                 symbol_order: SymbolOrder | None = None) -> str:
    """Body text in the restricted dialect; index maps each symbol to the
    array reference that stands for it (e.g. species:phi -> "x[0]")."""
    return render_terms(sorted_terms(p, symbol_order), _c_number,
                        lambda sym, e: "*".join([index[sym]] * e),
                        times="*", zero="0.0", lead="-",
                        order=rates_then_species)


def emit_c_source(model: SdeModel, function_name: str = "model") -> str:
    """Two pure functions over (state array x, rate array k): one filling
    the drift vector, one filling the diffusion matrix row-major."""
    n = len(model.species)
    order = symbol_ranks(model.display_order)
    index: dict[SymbolId, str] = {}
    header = [f"/* one-step model: {function_name}", " *"]
    for i, s in enumerate(model.species):
        index[s] = f"x[{i}]"
        header.append(f" *   x[{i}] = {s.name}")
    header.append(" *")
    for i, r in enumerate(model.rate_symbols):
        index[r] = f"k[{i}]"
        header.append(f" *   k[{i}] = {r.name}")
    header.append(" */")

    lines = list(header)
    lines.append("")
    lines.append(f"void {function_name}_drift(const double x[], "
                 "const double k[], double out[]) {")
    for i, p in enumerate(model.drift):
        lines.append(f"    out[{i}] = {c_expression(p, index, order)};")
    lines.append("}")
    lines.append("")
    lines.append(f"void {function_name}_diffusion(const double x[], "
                 "const double k[], double out[]) {")
    lines.append(f"    /* out is the {n}x{n} matrix B, row-major */")
    for i in range(n):
        for j in range(n):
            body = c_expression(model.diffusion[i][j], index, order)
            lines.append(f"    out[{i * n + j}] = {body};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON model form


def emit_model_json(model: SdeModel) -> str:
    order = symbol_ranks(model.display_order)
    data = {
        "version": MODEL_FORMAT_VERSION,
        "species": [s.name for s in model.species],
        "rates": [r.name for r in model.rate_symbols],
        "rate_mode": model.rate_mode.value,
        "diffusion_sign": model.diffusion_sign.value,
        "noise_strategy": model.noise_strategy.value,
        "drift": [canonical_string(p, order) for p in model.drift],
        "diffusion": [[canonical_string(q, order) for q in row]
                      for row in model.diffusion],
        "scheme": scheme_to_dict(model.scheme) if model.scheme else None,
    }
    return json.dumps(data, indent=2) + "\n"


def model_from_json(text: str) -> SdeModel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"malformed model JSON: {exc}") from exc
    try:
        if data["version"] != MODEL_FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported model format version {data['version']!r}")
        species = tuple(SymbolId(name, SymbolKind.SPECIES)
                        for name in data["species"])
        rates = tuple(SymbolId(name, SymbolKind.RATE)
                      for name in data["rates"])
        table = {s.name: s for s in species}
        table.update({r.name: r for r in rates})
        drift = tuple(parse_expression(s, table) for s in data["drift"])
        diffusion = tuple(tuple(parse_expression(s, table) for s in row)
                          for row in data["diffusion"])
        scheme = (scheme_from_dict(data["scheme"])
                  if data.get("scheme") else None)
        return SdeModel(
            species=species,
            rate_symbols=rates,
            drift=drift,
            diffusion=diffusion,
            rate_mode=RateMode(data["rate_mode"]),
            diffusion_sign=DiffusionSign(data["diffusion_sign"]),
            noise_strategy=NoiseStrategy(data["noise_strategy"]),
            scheme=scheme)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model object: {exc}") from exc
