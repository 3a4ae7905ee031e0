"""Pool/output/quality valid inequalities for the LP relaxation.

For each pool l, output j it serves, and quality k the output bounds, the
relaxation tracks scaled aggregates of the flow arriving at j: s (pool flow
scaled by the output capacity), u (its quality excess), t (the excess of
everything else arriving at j), and p (the pool's per-unit excess, a convex
combination of the feed excesses).  All excesses are measured as
quality_upper minus input quality, so feasibility at the output reads
u + t >= 0.

On top of the defining equalities the block installs the McCormick envelope
of s*p on u itself (u equals s*p on feasible flows, and the two share their
bounds), two families of static linear inequalities, and on demand the gradient cuts of
two convex nonlinear inequalities.  The nonlinear families are handled in
forms whose linearizations are globally valid: the first as a perspective
function (convex for s > 0), the second only on triplets where every
feasible t is nonpositive, i.e. beta_hi <= 0, which is the closure of its
convexity region.

Branch & cut separates the gradient cuts at the root only.  The CutBlock
owns their pool: the cut names in install order and their normalized keys.
add_valid_cuts names a new cut by the pool's length and installs it into
the block's relaxation and into the one it was found on (the root's
clone), so the tree searches one frozen relaxation with every cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import AlreadyInstalled, UnboundedOutputCapacity
from .mccormick import RelaxedModel
from .model import LinearExpr, Sense, _point_value
from .pq import PQModel, index_set_lj

__all__ = [
    "TripletParams",
    "CutBlock",
    "Cut",
    "add_all_pooling_inequalities",
    "generate_valid_cuts",
    "add_valid_cuts",
]

_S_GUARD = 1e-6
_T_GUARD = 1e-8
_DEN_GUARD = 1e-6
DEFAULT_VIOLATION_EPS = 1e-5


@dataclass
class TripletParams:
    pool: str
    output: str
    quality: str
    eta_lo: float
    eta_hi: float
    beta_lo: float | None
    beta_hi: float | None


@dataclass
class Cut:
    name_hint: str
    expr: LinearExpr
    rhs: float
    violation: float
    key: tuple


@dataclass
class CutBlock:
    rm: RelaxedModel
    pq: PQModel
    params: dict[tuple[str, str, str], TripletParams]
    s: dict[tuple[str, str], int]
    u: dict[tuple[str, str, str], int]
    t: dict[tuple[str, str, str], int]
    p: dict[tuple[str, str, str], int]
    defining_rows: list[str]
    envelope_rows: list[str]
    static_rows: list[str]
    # the gradient cuts installed so far, in order, and their normalized
    # coefficient keys; in branch & cut, the root's cuts only
    cut_pool: list[str] = field(default_factory=list)
    cut_keys: set[tuple] = field(default_factory=set)

    def dump_cut_pool(self) -> str:
        """Installed gradient cuts in the model text format."""
        lines = []
        for name in self.cut_pool:
            con = self.rm.lp.constraints[name]
            lines.append(
                f"{name}: {self.rm.lp._format_expr(con.linear, con.bilinear)} "
                f"{con.sense.value} {con.rhs:.12g}"
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _excess(pq: PQModel, j: str, k: str, i: str) -> float:
    pu = float(pq.network.nodes[j].quality_upper[k])
    return pu - float(pq.network.nodes[i].quality.get(k, 0.0))


def add_all_pooling_inequalities(rm: RelaxedModel, pq: PQModel) -> CutBlock:
    """Install the relaxation variables, defining rows, envelope and static
    inequalities for every (pool, output, quality) triplet.  Call once per
    relaxation: a relaxation that already carries the defining rows, its
    clones included, raises AlreadyInstalled."""
    net = pq.network
    lp = rm.lp
    lj_pairs = index_set_lj(net)
    if any(f"def_cut_s[{l},{j}]" in lp.constraints for l, j in lj_pairs):
        raise AlreadyInstalled("pooling inequalities already installed on this relaxation")

    s_vars: dict[tuple[str, str], int] = {}
    u_vars: dict[tuple[str, str, str], int] = {}
    t_vars: dict[tuple[str, str, str], int] = {}
    p_vars: dict[tuple[str, str, str], int] = {}
    params: dict[tuple[str, str, str], TripletParams] = {}
    defining: list[str] = []
    envelope: list[str] = []
    static: list[str] = []

    for l, j in lj_pairs:
        c_j = net.nodes[j].capacity_bounds()[1]
        if not math.isfinite(c_j) or c_j <= 0.0:
            raise UnboundedOutputCapacity(
                f"output {j!r} needs a finite positive upper capacity to scale flows"
            )
        inv_c = 1.0 / c_j
        feeders = net.inputs_to_pool(l)
        bypass = net.inputs_to_output(j)
        other_pools = [ll for ll in net.pools_to_output(j) if ll != l]
        non_pool_inputs = sorted(
            set(bypass) | {i for ll in other_pools for i in net.inputs_to_pool(ll)}
        )

        s_vars[(l, j)] = lp.add_variable(f"cut_s[{l},{j}]", 0.0, 1.0).id
        expr = LinearExpr({s_vars[(l, j)]: 1.0})
        for i in feeders:
            expr.add_term(pq.v[(i, l, j)], -inv_c)
        name = f"def_cut_s[{l},{j}]"
        lp.add_constraint(name, expr, Sense.EQ, 0.0)
        defining.append(name)

        for k in sorted(net.nodes[j].quality_upper):
            excesses = [_excess(pq, j, k, i) for i in feeders]
            eta_lo, eta_hi = min(excesses), max(excesses)
            if non_pool_inputs:
                others = [_excess(pq, j, k, i) for i in non_pool_inputs]
                beta_lo, beta_hi = min(others), max(others)
            else:
                beta_lo = beta_hi = None
            key = (l, j, k)
            params[key] = TripletParams(
                pool=l,
                output=j,
                quality=k,
                eta_lo=eta_lo,
                eta_hi=eta_hi,
                beta_lo=beta_lo,
                beta_hi=beta_hi,
            )

            u_vars[key] = lp.add_variable(
                f"cut_u[{l},{j},{k}]", min(0.0, eta_lo), max(0.0, eta_hi)
            ).id
            t_lo = min(0.0, beta_lo) if beta_lo is not None else 0.0
            t_hi = max(0.0, beta_hi) if beta_hi is not None else 0.0
            t_vars[key] = lp.add_variable(f"cut_t[{l},{j},{k}]", t_lo, t_hi).id
            p_vars[key] = lp.add_variable(f"cut_p[{l},{j},{k}]", eta_lo, eta_hi).id

            expr = LinearExpr({u_vars[key]: 1.0})
            for i in feeders:
                expr.add_term(pq.v[(i, l, j)], -inv_c * _excess(pq, j, k, i))
            name = f"def_cut_u[{l},{j},{k}]"
            lp.add_constraint(name, expr, Sense.EQ, 0.0)
            defining.append(name)

            expr = LinearExpr({t_vars[key]: 1.0})
            for i in bypass:
                expr.add_term(pq.y_bypass[(i, j)], -inv_c * _excess(pq, j, k, i))
            for ll in other_pools:
                for i in net.inputs_to_pool(ll):
                    expr.add_term(pq.v[(i, ll, j)], -inv_c * _excess(pq, j, k, i))
            name = f"def_cut_t[{l},{j},{k}]"
            lp.add_constraint(name, expr, Sense.EQ, 0.0)
            defining.append(name)

            expr = LinearExpr({p_vars[key]: 1.0})
            for i in feeders:
                expr.add_term(pq.q[(i, l)], -_excess(pq, j, k, i))
            name = f"def_cut_p[{l},{j},{k}]"
            lp.add_constraint(name, expr, Sense.EQ, 0.0)
            defining.append(name)

            # McCormick envelope of u = s*p over [0,1] x [eta_lo, eta_hi]
            s_id, p_id, u_id, t_id = s_vars[(l, j)], p_vars[key], u_vars[key], t_vars[key]
            rows = [
                (f"cut_env1[{l},{j},{k}]", LinearExpr({u_id: 1.0, s_id: -eta_lo}), Sense.GE, 0.0),
                (f"cut_env2[{l},{j},{k}]", LinearExpr({u_id: 1.0, s_id: -eta_hi}), Sense.LE, 0.0),
                (
                    f"cut_env3[{l},{j},{k}]",
                    LinearExpr({u_id: 1.0, s_id: -eta_lo, p_id: -1.0}),
                    Sense.LE,
                    -eta_lo,
                ),
                (
                    f"cut_env4[{l},{j},{k}]",
                    LinearExpr({u_id: -1.0, s_id: eta_hi, p_id: 1.0}),
                    Sense.LE,
                    eta_hi,
                ),
            ]
            for name, expr, sense, rhs in rows:
                lp.add_constraint(name, expr, sense, rhs)
                envelope.append(name)

            if beta_hi is not None and beta_hi > 0.0:
                # (beta_hi - eta_hi)(u - eta_lo s) <= beta_hi (p - eta_lo)
                coeff = beta_hi - eta_hi
                expr = LinearExpr(
                    {u_id: coeff, s_id: -coeff * eta_lo, p_id: -beta_hi}
                )
                name = f"ineq22[{l},{j},{k}]"
                lp.add_constraint(name, expr, Sense.LE, -beta_hi * eta_lo)
                static.append(name)
            if beta_lo is not None and beta_lo < 0.0:
                # beta_lo (eta_hi - p) <= (eta_hi - eta_lo) t
                #                         + eta_hi (u - eta_lo s) + beta_lo (eta_hi s - u)
                expr = LinearExpr(
                    {
                        u_id: beta_lo - eta_hi,
                        s_id: eta_hi * (eta_lo - beta_lo),
                        t_id: -(eta_hi - eta_lo),
                        p_id: -beta_lo,
                    }
                )
                name = f"ineq28[{l},{j},{k}]"
                lp.add_constraint(name, expr, Sense.LE, -beta_lo * eta_hi)
                static.append(name)

    return CutBlock(
        rm=rm,
        pq=pq,
        params=params,
        s=s_vars,
        u=u_vars,
        t=t_vars,
        p=p_vars,
        defining_rows=defining,
        envelope_rows=envelope,
        static_rows=static,
    )


def _perspective_cut(par: TripletParams, s_hat, u_hat, p_hat) -> tuple[dict[str, float], float] | None:
    """Gradient of (bh*s - u)(eh*s - u)/s + bh*(p - eh) <= 0 at the point."""
    bh, eh = par.beta_hi, par.eta_hi
    if s_hat <= _S_GUARD:
        return None
    a = bh * s_hat - u_hat
    b = eh * s_hat - u_hat
    g = a * b / s_hat + bh * (p_hat - eh)
    ds = (bh * b + eh * a) / s_hat - a * b / (s_hat * s_hat)
    du = -(a + b) / s_hat
    dp = bh
    return {"s": ds, "u": du, "p": dp}, g


def _fractional_cut(par: TripletParams, s_hat, u_hat, t_hat, p_hat) -> tuple[dict[str, float], float] | None:
    """Gradient of the fractional inequality at the point (t < 0 branch)."""
    bl, el, eh = par.beta_lo, par.eta_lo, par.eta_hi
    if t_hat >= -_T_GUARD:
        return None
    den = t_hat + u_hat - eh * s_hat
    if den >= -_DEN_GUARD:
        return None
    y = eh * s_hat - u_hat
    g = bl * (p_hat - el) - (eh - el) * t_hat - bl * (u_hat - el * s_hat) - eh * t_hat * y / den
    dt = -(eh - el) + eh * y * y / (den * den)
    du = -bl + eh * t_hat * t_hat / (den * den)
    ds = bl * el - eh * eh * t_hat * t_hat / (den * den)
    dp = bl
    return {"s": ds, "u": du, "t": dt, "p": dp}, g


def _cut_key(terms: list[tuple[int, float]], rhs: float) -> tuple:
    scale = max(abs(c) for _, c in terms)
    if scale == 0.0:
        scale = 1.0
    return tuple((vid, round(c / scale, 9)) for vid, c in sorted(terms)) + (round(rhs / scale, 9),)


def generate_valid_cuts(cb: CutBlock, point, eps: float = DEFAULT_VIOLATION_EPS) -> list[Cut]:
    """Gradient cuts for every triplet whose nonlinear inequality the point
    violates by more than eps.  Nothing is installed; see add_valid_cuts."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    cuts: list[Cut] = []
    for key in sorted(cb.params):
        par = cb.params[key]
        if par.beta_hi is None:
            continue
        l, j, k = key
        s_hat = _point_value(point, cb.s[(l, j)])
        u_hat = _point_value(point, cb.u[key])
        p_hat = _point_value(point, cb.p[key])
        if par.beta_hi > 0.0:
            result = _perspective_cut(par, s_hat, u_hat, p_hat)
            if result is not None:
                grads, g = result
                if g > eps:
                    cuts.append(
                        _assemble(cb, key, "cut15", grads, g, s_hat, u_hat, None, p_hat)
                    )
        if par.beta_lo < 0.0 and par.eta_hi > 0.0 and par.beta_hi <= 0.0:
            t_hat = _point_value(point, cb.t[key])
            result = _fractional_cut(par, s_hat, u_hat, t_hat, p_hat)
            if result is not None:
                grads, g = result
                if g > eps:
                    cuts.append(
                        _assemble(cb, key, "cut18", grads, g, s_hat, u_hat, t_hat, p_hat)
                    )
    return cuts


def _assemble(cb: CutBlock, key, family, grads, violation, s_hat, u_hat, t_hat, p_hat) -> Cut:
    l, j, k = key
    ids = {"s": cb.s[(l, j)], "u": cb.u[key], "p": cb.p[key], "t": cb.t.get(key)}
    hats = {"s": s_hat, "u": u_hat, "p": p_hat, "t": t_hat}
    terms = []
    rhs = -violation
    for sym, coeff in grads.items():
        terms.append((ids[sym], coeff))
        rhs += coeff * hats[sym]
    expr = LinearExpr(dict(terms))
    return Cut(
        name_hint=f"{family}[{l},{j},{k}]",
        expr=expr,
        rhs=rhs,
        violation=violation,
        key=_cut_key(terms, rhs),
    )


def add_valid_cuts(cb: CutBlock, rm: RelaxedModel, point, eps: float = DEFAULT_VIOLATION_EPS) -> int:
    """Generate cuts at the point and add the new ones to the pool; returns
    how many were new.  Cuts already pooled (by normalized coefficient key)
    are skipped, so the call is safe inside a cut loop.

    Each new cut is installed into ``cb.rm`` and, when ``rm`` is another
    relaxation (in branch & cut, the root node's clone of ``cb.rm``; no
    other node separates cuts), into ``rm`` too, under the same name.
    """
    added = 0
    for cut in generate_valid_cuts(cb, point, eps):
        if cut.key in cb.cut_keys:
            continue
        cb.cut_keys.add(cut.key)
        name = f"{cut.name_hint}#{len(cb.cut_pool)}"
        cb.cut_pool.append(name)
        cb.rm.lp.add_constraint(name, cut.expr, Sense.LE, cut.rhs)
        if rm is not cb.rm:
            rm.lp.add_constraint(name, cut.expr.copy(), Sense.LE, cut.rhs)
        added += 1
    return added
