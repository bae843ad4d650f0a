"""50-digit reference values for the test suite (mpmath), written as one JSON table.

    python scripts/derive_test_constants.py [OUT]      (default: tests/goldens.json)

The library never uses arbitrary precision. This script computes from the
exact float64 inputs, to 50 correct digits, what labo's formulas should
return, and the tests pin labo against it (`tests/golden.py` reads the
table). It works at 500 digits, so that a difference such as 1 - p, with p
within e^-1000 of 1, still keeps 50. Requires mpmath (not a package
dependency); takes about a minute. The output is deterministic: rerunning
the script rewrites the same bytes.

Inputs. `logits` are named logit vectors, each with its target class `k`:
K in {2, 3, 8, 1000}, moderate ones, ranges of 700 and 1e3 (where `exp`
underflows) and uniform outputs. A K = 1000 vector is given by a rule:
entry j is ((j * stride) % K) * (span / (K - 1)), or every entry is
`fill`; its vector outputs are stored only at its `pinned` classes, the
target and the first arg-max. `probs` are named probability vectors
w / sum(w) for integer weights w: interior ones, ones with zero entries and
one-hot ones. At K = 1000, w_j is add + (j * stride) % mod, or one-hot at
`hot`.

Rows. Each row names a function `fn`, its inputs and its 50-digit outputs
`out`, written with 17 significant digits; magnitudes below 1e-999 are
written as 0. An "objective" row is one training row in `mode`: the label,
alpha, loss and logit gradient (not divided by the batch size) of
`batch_objective`, which are also what the per-instance functions give
(`build_label`, `smoothed_ce`, `unified_objective`, `kd_loss`, `cp_loss`,
`grad_wrt_logits`, `cp_grad_wrt_logits`); a `labo` row also holds
`unified_objective`'s two terms. A row's `xfail` names the outputs labo is
known to get wrong (ROADMAP item 5: the extreme tau rows).
"""

from __future__ import annotations

import json
import os
import re
import sys

from mpmath import exp, fsum, log, mp, mpf

mp.dps = 500  # 50 digits, plus the 435 that 1 - e^-1000 cancels

ALPHAS = (0.0, 0.4, 1.0)
RHOS = (0.5, 1.0)
TAUS = (0.5, 1.0, 1.25, 10.0)
BETA_CPS = (0.0, 0.1, 1.0)

# name: (target class, float64 logits or a K = 1000 rule)
LOGITS = {
    "K2-mod": (1, [0.8, -1.3]),
    "K2-700": (1, [-350.0, 350.0]),
    "K2-1000": (1, [500.0, -500.0]),
    "K2-unif": (0, [0.0, 0.0]),
    "K3-210": (0, [2.0, 1.0, 0.0]),
    "K3-700": (2, [0.0, -700.0, 3.5]),
    "K3-1000": (2, [-1000.0, 0.0, -2.5]),
    "K3-unif": (1, [5.0, 5.0, 5.0]),
    "K8-mod": (4, [0.5, -1.25, 2.0, 0.0, -3.0, 1.5, 0.25, -0.75]),
    "K8-700": (1, [-300.0, 400.0, 0.0, 350.0, -100.0, 12.5, 399.0, 7.0]),
    "K8-1000": (6, [1000.0, 0.0, 999.0, -0.5, 250.0, 3.0, 998.5, 1.0]),
    "K8-unif": (7, [-2.0] * 8),
    "K1000-700": (1, {"K": 1000, "span": 700.0, "stride": 389}),
    "K1000-1000": (509, {"K": 1000, "span": 1000.0, "stride": 611}),
    "K1000-unif": (3, {"K": 1000, "fill": 0.0}),
    "K3-item5": (0, [3.0, -1.0, 0.5]),  # only in the item 5 rows
}
GRID = [name for name in LOGITS if name != "K3-item5"]
# name: integer weights or a K = 1000 rule
PROBS = {
    "K2-int": [9, 1],
    "K2-hot": [0, 1],
    "K3-721": [7, 2, 1],
    "K3-zero": [7, 3, 0],
    "K3-hot": [0, 1, 0],
    "K8-int": [3, 1, 4, 1, 5, 9, 2, 6],
    "K8-zero": [0, 2, 0, 5, 1, 0, 3, 0],
    "K8-hot": [0, 0, 0, 0, 0, 1, 0, 0],
    "K1000-int": {"K": 1000, "add": 1, "stride": 37, "mod": 11},
    "K1000-zero": {"K": 1000, "add": 0, "stride": 37, "mod": 11},
    "K1000-hot": {"K": 1000, "hot": 611},
}


def logit_values(spec) -> list:
    """The float64 logits of a `LOGITS` entry, as Python floats."""
    if isinstance(spec, list):
        return spec
    if "fill" in spec:
        return [spec["fill"]] * spec["K"]
    step = spec["span"] / (spec["K"] - 1)
    return [((j * spec["stride"]) % spec["K"]) * step for j in range(spec["K"])]


def prob_values(spec) -> list:
    """The float64 probabilities w / sum(w) of a `PROBS` entry, as Python floats."""
    if isinstance(spec, list):
        w = spec
    elif "hot" in spec:
        w = [int(j == spec["hot"]) for j in range(spec["K"])]
    else:
        w = [spec["add"] + (j * spec["stride"]) % spec["mod"] for j in range(spec["K"])]
    return [v / sum(w) for v in w]


def pinned(name) -> list:
    """The classes whose outputs a row stores: all, or at K = 1000 the target and the first arg-max."""
    k, spec = LOGITS[name]
    z = logit_values(spec)
    return list(range(len(z))) if isinstance(spec, list) else list(dict.fromkeys([k, z.index(max(z))]))


def m_log_softmax(z, tau=1.0) -> list:
    u = [mpf(v) / mpf(tau) for v in z]
    m = max(u)
    lse = log(fsum(exp(v - m) for v in u))
    return [v - m - lse for v in u]


def m_entropy(p) -> mpf:
    return -fsum(v * log(v) for v in p if v > 0)


def m_kl(p, q) -> mpf:
    return fsum(a * (log(a) - log(b)) for a, b in zip(p, q) if a > 0)


def m_adaptive_alpha(p, rho) -> mpf:
    h_u = log(len(p))
    return max((h_u - mpf(rho) * m_entropy(p)) / h_u, 1 - mpf(rho))


def objective(name, mode, alpha=None, rho=None, tau=None, beta_cp=None, teacher=None) -> dict:
    """The label, alpha, loss and logit gradient of one training row (and a labo row's two terms)."""
    k, spec = LOGITS[name]
    z = logit_values(spec)
    num_classes = len(z)
    uniform = [1 / mpf(num_classes)] * num_classes
    logp = m_log_softmax(z)
    p = [exp(v) for v in logp]
    out = {}
    if mode in ("none", "cp"):
        a, q = mpf(0), [mpf(0)] * num_classes
    elif mode == "ls":
        a, q = mpf(alpha), uniform
    elif mode == "kd":
        a, q = mpf(alpha), [mpf(v) for v in prob_values(PROBS[teacher])]
    else:  # labo: the tempered output, mixed in with a fixed or an adaptive alpha
        q = [exp(v) for v in m_log_softmax(z, tau)]
        a = mpf(alpha) if rho is None else m_adaptive_alpha(p, rho)
    label = [a * v for v in q]
    label[k] += 1 - a
    ce = -fsum(w * v for w, v in zip(label, logp))
    grad = [pj - w for pj, w in zip(p, label)]
    if mode in ("none", "ls"):
        loss = ce
    elif mode == "kd":  # (1 - alpha) * CE(onehot(k), p) + alpha * KL(teacher || p)
        loss = (1 - a) * -logp[k] + a * m_kl(q, p)
    elif mode == "labo":  # CE(label, p) + beta * KL(p_ls || U), beta = alpha * tau
        out["ce_term"], out["kl_term"] = ce, a * mpf(tau) * m_kl(q, uniform)
        loss = ce + out["kl_term"]
    else:  # cp: CE(onehot(k), p) - beta_cp * H(p)
        h = m_entropy(p)
        loss = -logp[k] - mpf(beta_cp) * h
        grad = [g + mpf(beta_cp) * pj * (lp + h) for g, pj, lp in zip(grad, p, logp)]
    out.update(label=label, alpha=a, loss=loss, grad=grad)
    return out


def row(fn, out, name=None, **inputs) -> dict:
    """One table row; a logits-keyed row keeps its vector outputs at the pinned classes only."""
    if name is not None:
        keep = pinned(name)
        out = {q: [v[j] for j in keep] if isinstance(v, list) else v for q, v in out.items()}
        inputs = {"z": name, **inputs}
    return {"fn": fn, **inputs, "out": out}


def objective_row(name, mode, **params) -> dict:
    return row("objective", objective(name, mode, **params), name, mode=mode, **params)


def rows() -> list:
    out = []
    for name in GRID:
        z = logit_values(LOGITS[name][1])
        logp = m_log_softmax(z)
        out.append(row("softmax", {"p": [exp(v) for v in logp]}, name))
        out.append(row("log_softmax", {"logp": logp}, name))
        out += [row("labo_from_logits", {"q": [exp(v) for v in m_log_softmax(z, tau)]}, name, tau=tau)
                for tau in TAUS]
        out.append(objective_row(name, "none"))
        out += [objective_row(name, "ls", alpha=alpha) for alpha in ALPHAS]
        out += [objective_row(name, "cp", beta_cp=beta_cp) for beta_cp in BETA_CPS]
        teachers = [t for t in PROBS if t.startswith(f"K{len(z)}-")]
        out += [objective_row(name, "kd", alpha=alpha, teacher=t) for t in teachers for alpha in ALPHAS]
        out += [objective_row(name, "labo", alpha=alpha, tau=tau) for alpha in ALPHAS for tau in TAUS]
        out += [objective_row(name, "labo", rho=rho, tau=tau) for rho in RHOS for tau in TAUS]
    for name, spec in PROBS.items():
        p = [mpf(v) for v in prob_values(spec)]
        out.append(row("entropy", {"h": m_entropy(p)}, p=name))
        out.append(row("kl_div", {"kl": m_kl(p, [1 / mpf(len(p))] * len(p))}, p=name, q="uniform"))
        out += [row("adaptive_alpha", {"alpha": m_adaptive_alpha(p, rho)}, p=name, rho=rho) for rho in RHOS]
    # the worked examples of the tests: z = (2, 1, 0) at tau = 2 and p = (0.7, 0.2, 0.1)
    z210 = logit_values(LOGITS["K3-210"][1])
    out.append(row("labo_from_logits", {"q": [exp(v) for v in m_log_softmax(z210, 2.0)]}, "K3-210", tau=2.0))
    out.append(objective_row("K3-210", "ls", alpha=0.1))
    out.append(objective_row("K3-210", "labo", alpha=0.4, tau=2.0))
    out.append(objective_row("K3-210", "labo", rho=0.5, tau=2.0))
    p, q = ([mpf(v) for v in prob_values(PROBS[n])] for n in ("K3-721", "K3-zero"))
    out.append(row("kl_div", {"kl": m_kl(q, p)}, p="K3-zero", q="K3-721"))
    for name in ("K3-721", "K2-int"):
        w = [mpf(v) ** (1 / mpf(2)) for v in prob_values(PROBS[name])]
        out.append(row("labo_optimal_smoothing", {"q": [v / fsum(w) for v in w]}, p=name, tau=2.0))
    # ROADMAP item 5: beta * KL(p_ls || U) at large tau, and the label at the smallest tau (one-hot arg-max)
    for tau in (1e9, 1e15):
        out.append({**objective_row("K3-item5", "labo", alpha=0.4, tau=tau), "xfail": ["loss", "kl_term"]})
    tiny = objective("K3-item5", "labo", alpha=0.4, tau=5e-324)
    out.append({**row("objective", {"label": tiny["label"]}, "K3-item5", mode="labo", alpha=0.4, tau=5e-324),
                "xfail": ["label"]})
    return out


def _number(v) -> str:
    """A 50-digit value as JSON number text: 17 significant digits, 0 below 1e-999."""
    return "0.0" if abs(v) < mpf("1e-999") else mp.nstr(v, 17)


def dumps(table: dict) -> str:
    """`table` as JSON, one row per line, its 50-digit values written by `_number`."""
    def encode(v):
        if isinstance(v, mpf):
            return "#" + _number(v)
        if isinstance(v, dict):
            return {key: encode(x) for key, x in v.items()}
        if isinstance(v, list):
            return [encode(x) for x in v]
        return v

    def text(v):
        return re.sub(r'"#([^"]+)"', r"\1", json.dumps(encode(v), separators=(",", ":")))

    head = {key: v for key, v in table.items() if key != "rows"}
    lines = [text(head)[:-1] + ',"rows":[', ",\n".join(text(r) for r in table["rows"]), "]}\n"]
    return "\n".join(lines)


def table() -> dict:
    return {
        "about": "50-digit mpmath values from scripts/derive_test_constants.py, which documents the layout",
        "logits": {name: {"k": k, **({"z": spec} if isinstance(spec, list) else spec), "pinned": pinned(name)}
                   for name, (k, spec) in LOGITS.items()},
        "probs": {name: {"w": spec} if isinstance(spec, list) else spec for name, spec in PROBS.items()},
        "rows": rows(),
    }


if __name__ == "__main__":
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..", "tests",
                                                             "goldens.json")
    with open(path, "w") as f:
        f.write(dumps(table()))
