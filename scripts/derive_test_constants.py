"""High-precision derivation of the frozen test constants (mpmath, 50 digits).

The library itself never uses arbitrary precision; this script exists so
the literals pinned in tests/ can be regenerated and audited. Requires
mpmath (not a package dependency).

Usage: python scripts/derive_test_constants.py
"""
from mpmath import mp, mpf, exp, log, sqrt

mp.dps = 50


def msoftmax(zs, tau=mpf(1)):
    zs = [mpf(z) / tau for z in zs]
    m = max(zs)
    es = [exp(z - m) for z in zs]
    s = sum(es)
    return [e / s for e in es]


def mentropy(ps):
    return -sum(p * log(p) for p in ps if p > 0)


def mkl(ps, qs):
    return sum(p * log(p / q) for p, q in zip(ps, qs) if p > 0)


def show(name, vals, digits=17):
    if isinstance(vals, list):
        print(f"{name} = [{', '.join(mp.nstr(v, digits) for v in vals)}]")
    else:
        print(f"{name} = {mp.nstr(vals, digits)}")


z = [mpf(2), mpf(1), mpf(0)]
p_z = msoftmax(z)
show("softmax(2,1,0)", p_z)
show("log_softmax(2,1,0)", [log(p) for p in p_z])
show("entropy(softmax(2,1,0))", mentropy(p_z))

p = [mpf("0.7"), mpf("0.2"), mpf("0.1")]
show("entropy(0.7,0.2,0.1)", mentropy(p))
u3 = [mpf(1) / 3] * 3
show("kl((0.7,0.2,0.1) || U3)", mkl(p, u3))
show("log(3)", log(3))
show("log(4)", log(4))

show("tempered_softmax((2,1,0), tau=2)", msoftmax(z, mpf(2)))

# power-transform smoothing: p_j^(1/tau) normalized
tau = mpf(2)
pw = [pp ** (1 / tau) for pp in p]
s = sum(pw)
show("labo_optimal_smoothing((0.7,0.2,0.1), tau=2)", [w / s for w in pw])

# adaptive alpha: (log K - rho*H(p)) / log K
rho = mpf("0.5")
K = 3
alpha_ad = (log(K) - rho * mentropy(p)) / log(K)
show("adaptive_alpha((0.7,0.2,0.1), rho=0.5)", alpha_ad)

# smoothed CE, k=0, K=3, uniform LS alpha=0.1, z=(2,1,0)
alpha = mpf("0.1")
label = [(1 - alpha + alpha / 3), alpha / 3, alpha / 3]
ce = -sum(l * log(pp) for l, pp in zip(label, p_z))
show("smoothed_ce(ls a=0.1, k=0, z=(2,1,0))", ce)

# cp loss, k=0, beta_cp=0.1
cp = -log(p_z[0]) - mpf("0.1") * mentropy(p_z)
show("cp_loss(k=0, z=(2,1,0), beta_cp=0.1)", cp)

# build_label labo adaptive example: z=(2,1,0), k=0, rho=0.5, tau=2
alpha_star = (log(K) - mpf("0.5") * mentropy(p_z)) / log(K)
show("adaptive_alpha(softmax(2,1,0), 0.5)", alpha_star)
pstar = msoftmax(z, mpf(2))
dist = [alpha_star * q for q in pstar]
dist[0] = (1 - alpha_star) + dist[0]
show("labo adaptive label (k=0, z=(2,1,0), rho=0.5, tau=2)", dist)

# unified objective example: k=0, z=(2,1,0), p_ls=labo(tau=2), alpha=0.4, beta=0.8
alpha, beta = mpf("0.4"), mpf("0.8")
p_ls = msoftmax(z, beta / alpha)
lab = [alpha * q for q in p_ls]
lab[0] = (1 - alpha) + lab[0]
ce_term = -sum(l * log(pp) for l, pp in zip(lab, p_z))
kl_term = beta * mkl(p_ls, u3)
show("unified ce_term (k=0,z=(2,1,0),tau=2,a=0.4,b=0.8)", ce_term)
show("unified kl_term", kl_term)
show("unified total", ce_term + kl_term)

# K=2 exact check
p2 = [mpf("0.9"), mpf("0.1")]
pw = [pp ** mpf("0.5") for pp in p2]
s = sum(pw)
show("labo((0.9,0.1), tau=2)", [w / s for w in pw])
