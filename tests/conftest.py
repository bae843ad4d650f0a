import numpy as np
from hypothesis import settings

settings.register_profile("labo", deadline=None, max_examples=50)
settings.load_profile("labo")


def interior_simplex(rng, num_classes: int, floor_mix: float = 0.05) -> np.ndarray:
    """Dirichlet(1) draw mixed toward uniform so no entry is near zero."""
    p = rng.dirichlet(np.ones(num_classes))
    return (1.0 - floor_mix) * p + floor_mix / num_classes


def closed_form_instances(rng, n: int) -> list:
    """n seeded (p, alpha, beta) instances of the closed-form/solver sweep, in draw order."""
    instances = []
    for _ in range(n):
        num_classes = int(rng.choice([2, 3, 10, 50]))
        p = interior_simplex(rng, num_classes)
        tau = rng.uniform(1.05, 20.0)
        alpha = rng.uniform(0.3, 1.0)
        instances.append((p, alpha, alpha * tau))
    return instances


def by_class_count(instances):
    """Yield the instances of each class count stacked column-wise: (P, A, B) with P of shape (n, K)."""
    for size in sorted({len(p) for p, *_ in instances}):
        yield tuple(np.array(column) for column in zip(*(inst for inst in instances if len(inst[0]) == size)))
